import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripletsim
from tripletsim import simulate, ttag
from tripletsim.config import load_config, parse_analyze, parse_simulate
from tripletsim.constants import C_VAC_M_S, PLANCK_J_S
from tripletsim.simulate import (
    ChannelModel,
    DetectorModel,
    SimConfig,
    SourceParams,
    TimeTagStream,
    _apply_dead_time,
    _central_bin_containment,
    _simulate_block,
    expected_rates,
    simulate_run,
)
from tripletsim.ttag import RECORD_SIZE, write_ttag
from conftest import DETECTOR_EFFICIENCIES, baseline_source, boosted_config, make_arms

# Block size for tests that need many blocks at a small pulse count;
# simulate_run reads BLOCK_PULSES when it is called.
SMALL_BLOCK = 1 << 17


class TestStreamType:
    def test_sorted_required(self):
        with pytest.raises(ValueError):
            TimeTagStream(
                82.3125e-12,
                np.array([1, 2], dtype=np.uint8),
                np.array([10, 5], dtype=np.int64),
            )

    def test_negative_first_tick_rejected(self):
        # with the order checked, the first tick bounds every tick
        with pytest.raises(ValueError, match="timestamps must be >= 0"):
            TimeTagStream(82.3125e-12, np.array([1, 2], np.uint8), np.array([-3, 5], np.int64))

    @pytest.mark.parametrize(
        "field, values, dtype",
        [
            # float ticks would be truncated on write and in the histogram keys
            ("channels", np.array([2.0, 1.0, 3.0]), "float64"),
            ("timestamps", np.array([100.0, 100.4, 100.6]), "float64"),
            # unsigned or narrower ticks wrap in the window arithmetic: a stream of
            # either kind holding this triple binned none of its pairs
            ("timestamps", np.full(3, 100, np.uint64), "uint64"),
            ("timestamps", np.full(3, 2**31 - 100, np.int32), "int32"),
        ],
    )
    def test_non_integer_or_narrow_arrays_rejected(self, field, values, dtype):
        arrays = {"channels": np.array([2, 1, 3], np.uint8), "timestamps": np.full(3, 100)}
        what = "integers" if field == "channels" else "int64 ticks"
        with pytest.raises(ValueError, match=f"^{field} must be {what}, got dtype {dtype}$"):
            TimeTagStream(82.3125e-12, **{**arrays, field: values})

    @pytest.mark.parametrize(
        "channels, timestamps, field, shape",
        [
            # columns failed later, in write_ttag and in the histogram
            (np.array([[1], [2], [3]], np.uint8), np.full((3, 1), 100), "channels", "(3, 1)"),
            (np.array([1, 2, 3], np.uint8), np.full((3, 1), 100), "timestamps", "(3, 1)"),
            (np.array(2, np.uint8), np.array(100), "channels", "()"),
        ],
    )
    def test_arrays_must_be_one_dimensional(self, channels, timestamps, field, shape):
        with pytest.raises(ValueError, match=rf"^{field} must be 1-D, got shape {re.escape(shape)}$"):
            TimeTagStream(82.3125e-12, channels, timestamps)

    def test_channel_views(self):
        s = TimeTagStream(
            82.3125e-12,
            np.array([1, 2, 1, 3], dtype=np.uint8),
            np.array([1, 2, 5, 5], dtype=np.int64),
        )
        assert list(s.channel_ticks(1)) == [1, 5]
        assert len(s) == 4

    def test_channel_ticks_holds_one_slice_beside_its_output(self):
        # a physical-shaped stream: channel 2 holds 1.5% of 2e6 records; the
        # traced peak is the output plus one 2**16-record slice's mask (1 B per
        # record) and index of kept ticks (8 B per kept record), not a
        # stream-sized mask
        rng = np.random.default_rng(19)
        n = 2_000_000
        channels = np.where(rng.random(n) < 0.015, 2, 1).astype(np.uint8)
        stream = TimeTagStream(82.3125e-12, channels, np.arange(n, dtype=np.int64))
        tracemalloc.start()
        try:
            out = stream.channel_ticks(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, np.flatnonzero(channels == 2))
        assert peak <= out.nbytes + 9 * 2**16 + 4096


class TestSimulateRun:
    def test_dark_free_zero_efficiency_is_empty(self):
        cfg = SimConfig(
            source=baseline_source(),
            arms=make_arms(efficiencies=(0.0, 0.0, 0.0)),
            n_pulses=100_000,
            rng_seed=3,
        )
        stream = simulate_run(cfg)
        assert len(stream) == 0

    def test_seed_determinism(self):
        cfg = boosted_config(300_000, seed=17, dark_hz=500.0)
        a = simulate_run(cfg)
        b = simulate_run(cfg)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.channels, b.channels)

    def test_thread_count_independence(self, monkeypatch):
        monkeypatch.setattr(simulate, "BLOCK_PULSES", SMALL_BLOCK)  # 4 blocks
        cfg = boosted_config(500_000, seed=23, dark_hz=500.0)
        serial = simulate_run(cfg, n_threads=1)
        parallel = simulate_run(cfg, n_threads=4)
        assert np.array_equal(serial.timestamps, parallel.timestamps)
        assert np.array_equal(serial.channels, parallel.channels)

    def test_progress_reported_on_threaded_path(self, capsys, monkeypatch):
        # 21 blocks: reports every second block, and the last one as well
        monkeypatch.setattr(simulate, "BLOCK_PULSES", SMALL_BLOCK)
        n = 20 * SMALL_BLOCK + 1
        cfg = SimConfig(
            source=baseline_source(), arms=make_arms(efficiencies=(0.0,) * 3), n_pulses=n, rng_seed=5
        )
        simulate_run(cfg, n_threads=2, progress=True)
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 11
        assert lines[-1] == f"simulate: {n}/{n} pulses"

    @pytest.mark.parametrize("n_threads", [0, -4])
    def test_thread_count_below_one_rejected(self, n_threads):
        with pytest.raises(ValueError, match="n_threads"):
            simulate_run(boosted_config(1000, seed=1), n_threads=n_threads)

    def test_different_seeds_differ(self):
        a = simulate_run(boosted_config(100_000, seed=1))
        b = simulate_run(boosted_config(100_000, seed=2))
        assert len(a) != len(b) or not np.array_equal(a.timestamps, b.timestamps)

    def test_seeds_do_not_wrap_at_64_bits(self):
        # a seed masked to 64 bits made 1 and 2**64 + 1 the same run
        a = simulate_run(boosted_config(100_000, seed=1))
        b = simulate_run(boosted_config(100_000, seed=2**64 + 1))
        assert len(a) != len(b) or not np.array_equal(a.timestamps, b.timestamps)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^rng_seed must be >= 0, got -5$"):
            boosted_config(1000, seed=-5)

    def test_block_streams_keyed_by_seed_and_block(self):
        draws = {
            key: simulate._block_rng(*key).integers(0, 2**63, 4).tolist()
            for key in [(7, 3), (7, 3), (8, 3), (6, 3), (7, 4), (7, 2), (3, 7)]
        }
        assert simulate._block_rng(7, 3).integers(0, 2**63, 4).tolist() == draws[7, 3]
        assert len({tuple(d) for d in draws.values()}) == len(draws)

    def test_thread_count_independence_at_the_default_block(self):
        # three full blocks and a short fourth at the shipped BLOCK_PULSES
        cfg = boosted_config(3 * simulate.BLOCK_PULSES + 10_000, seed=29, dark_hz=500.0, pdc2=0.05)
        serial = simulate_run(cfg, n_threads=1)
        parallel = simulate_run(cfg, n_threads=2)
        assert np.array_equal(serial.timestamps, parallel.timestamps)
        assert np.array_equal(serial.channels, parallel.channels)
        pulses = pulse_index(serial.timestamps, cfg)
        assert np.count_nonzero(pulses >= 3 * simulate.BLOCK_PULSES) > 0

    def test_output_bytes_pinned_with_darks_and_jitter_on_some_channels(self, monkeypatch):
        # darks on channel 2 only, no jitter on channel 1, and a five-pulse last
        # block with empty channels: the sampler's empty draws (poisson(0),
        # random(0), a jitter draw of no tags) consume no random numbers; recorded
        # under the numpy of tests/output_digests.json
        monkeypatch.setattr(simulate, "BLOCK_PULSES", SMALL_BLOCK)
        cfg = SimConfig(
            source=baseline_source(pdc2=0.27),
            arms=make_arms(dark_rates=(0.0, 2e4, 0.0), jitter=(0.0, 30e-12, 50e-12)),
            n_pulses=3 * SMALL_BLOCK + 5,
            rng_seed=41,
        )
        stream = simulate_run(cfg)
        assert stream.channels.dtype == np.uint8 and np.bincount(stream.channels)[1:].min() > 1000
        digest = hashlib.sha256(stream.channels.tobytes() + stream.timestamps.tobytes())
        assert digest.hexdigest() == "1ad9a951b4c1e050c8259823161de47f70951ca951e6a4bd0a1d3ab5d9dc2102"

    def test_mean_pairs_warning(self):
        src = baseline_source(pump_w=10e-6 * 120)
        cfg = SimConfig(source=src, arms=make_arms(), n_pulses=10, rng_seed=0)
        with pytest.warns(UserWarning, match="Poissonian pumping"):
            simulate_run(cfg)

    def test_tick_overflow_rejected(self):
        with pytest.raises(ValueError, match="tick range"):
            SimConfig(
                source=baseline_source(),
                arms=make_arms(),
                n_pulses=2**62,
                rng_seed=0,
            )

    def test_tags_jittered_before_the_run_are_dropped(self):
        # 1 us jitter on 100 ns pulses: about half the tags of the first
        # pulses fall before tick 0; the stream starts at tick 0
        cfg = SimConfig(
            source=baseline_source(pdc2=0.27, pump_w=460e-6),
            arms=make_arms(transmission=1.0, efficiencies=(0.9, 0.9, 0.9), jitter=(1e-6,) * 3),
            n_pulses=2_000,
            rng_seed=8,
        )
        stream = simulate_run(cfg)
        assert 0 <= stream.timestamps[0] < round(1e-6 / cfg.resolution_s)

    def test_tick_range_leaves_room_for_the_channel_bits(self):
        # merge keys hold tick << 2 | channel in an int64: a span of 1.5 * 2**61
        # ticks fits an int64 but its keys would wrap
        n = int(1.5 * 2**61 * 82.3125e-12 / 100e-9)
        with pytest.raises(ValueError, match="tick range"):
            SimConfig(source=baseline_source(), arms=make_arms(), n_pulses=n, rng_seed=0)

    def test_tick_range_counts_the_jitter_margin(self):
        # a span 2**45 ticks (2.9e3 s) short of 2**61 is accepted, unless 40
        # sigma of jitter would cross 2**61
        n = int((2**61 - 2**45) * 82.3125e-12 / 100e-9)
        SimConfig(source=baseline_source(), arms=make_arms(jitter=(0.0, 50.0, 0.0)), n_pulses=n)
        with pytest.raises(ValueError, match="tick range"):
            SimConfig(source=baseline_source(), arms=make_arms(jitter=(0.0, 100.0, 0.0)), n_pulses=n)

    def test_primary_arm_leakage_rejected(self):
        with pytest.raises(ValueError, match="leakage"):
            SimConfig(
                source=baseline_source(),
                arms=make_arms(leakage=(0.1, 0.0, 0.0)),
                n_pulses=10,
                rng_seed=0,
            )

    def test_rep_period_must_match_rep_rate(self):
        with pytest.raises(ValueError, match="rep_period"):
            SimConfig(
                source=baseline_source(),
                arms=make_arms(),
                rep_period_s=90e-9,
                n_pulses=10,
                rng_seed=0,
            )


# every range check of a model field must also reject NaN: a NaN jitter
# simulated as zero jitter, and a NaN peak offset dropped every ch1 and ch3 photon
NAN_CHECKED_FIELDS = [
    (lambda: DetectorModel(0.5), "dark_rate_hz"),
    (lambda: DetectorModel(0.5), "jitter_sigma_s"),
    (lambda: DetectorModel(0.5), "dead_time_s"),
    (ChannelModel, "leakage_rate_per_pulse"),
    (baseline_source, "pump_power_w"),
    (baseline_source, "pump_wavelength_m"),
    (baseline_source, "rep_rate_hz"),
    (lambda: boosted_config(10, 0), "rep_period_s"),
    (lambda: boosted_config(10, 0), "resolution_s"),
    (lambda: boosted_config(10, 0), "peak_offset_s"),
    (lambda: TimeTagStream(1e-12, np.zeros(0, np.uint8), np.zeros(0, np.int64)), "resolution_s"),
]


@pytest.mark.parametrize(
    "make, field",
    NAN_CHECKED_FIELDS,
    ids=[f"{type(make()).__name__}.{field}" for make, field in NAN_CHECKED_FIELDS],
)
def test_nan_field_rejected(make, field):
    with pytest.raises(ValueError, match=field):
        replace(make(), **{field: math.nan})


def test_infinite_peak_offset_rejected():
    with pytest.raises(ValueError, match="peak_offset_s"):
        replace(boosted_config(10, 0), peak_offset_s=-math.inf)


class TestValidation:
    def test_source_params(self):
        with pytest.raises(ValueError):
            SourceParams(-1e-6, 532e-9, 10e6, 8.1e-8, 2.7e-7, injection_efficiency=0.5)
        with pytest.raises(ValueError):
            SourceParams(10e-6, 532e-9, 10e6, 8.1e-8, 2.7e-7, injection_efficiency=1.5)
        with pytest.raises(ValueError):
            SourceParams(10e-6, 532e-9, 0.0, 8.1e-8, 2.7e-7, injection_efficiency=0.5)

    def test_arm_efficiencies(self):
        # an arm's efficiency is its transmission times its detector efficiency
        with pytest.raises(ValueError, match="transmission"):
            ChannelModel(transmission=1.2)
        with pytest.raises(ValueError, match="efficiency"):
            DetectorModel(efficiency=1.2)


class TestSinglesStatistics:
    def test_randomized_configs_match_expectations(self, rng):
        # dead-time-free randomized configs: counts within 4 sigma per channel
        for trial in range(5):
            transmission = rng.uniform(0.1, 0.8)
            effs = tuple(rng.uniform(0.2, 0.9, 3))
            darks = tuple(rng.uniform(0.0, 2000.0, 3))
            leak = (0.0, rng.uniform(0, 5e-4), rng.uniform(0, 5e-4))
            pdc2 = 10 ** rng.uniform(-4, -1)
            pump = rng.uniform(2e-6, 30e-6)
            cfg = SimConfig(
                source=baseline_source(pdc2=pdc2, pump_w=pump),
                arms=make_arms(
                    transmission=transmission,
                    efficiencies=effs,
                    dark_rates=darks,
                    jitter=(100e-12,) * 3,
                    leakage=leak,
                ),
                n_pulses=10_000_000,
                rng_seed=int(rng.integers(0, 2**31)),
            )
            stream = simulate_run(cfg, n_threads=2)
            rates = expected_rates(cfg)
            for ch in (1, 2, 3):
                observed = int((stream.channels == ch).sum())
                expected = rates.singles_counts[ch - 1]
                sigma = math.sqrt(max(expected, 1.0))
                assert abs(observed - expected) < 4 * sigma, (
                    trial,
                    ch,
                    observed,
                    expected,
                )

    def test_physical_baseline_singles(self):
        # the shipped baseline at 1e8 pulses; channel 2 is left out: its 10 us
        # dead time uses a steady-state correction not yet checked this finely
        tree = load_config(Path(__file__).resolve().parent.parent / "configs" / "baseline.json")
        cfg = replace(parse_simulate(tree["simulate"]), n_pulses=100_000_000)
        stream = simulate_run(cfg, n_threads=2)
        rates = expected_rates(cfg)
        for ch in (1, 3):
            observed = int((stream.channels == ch).sum())
            expected = rates.singles_counts[ch - 1]
            assert abs(observed - expected) < 4 * math.sqrt(expected), (ch, observed, expected)

    def test_channel1_rate_formula(self):
        # n_pulses * mean * transmission * efficiency + dark * span, 4 sigma
        cfg = boosted_config(10_000_000, seed=77, dark_hz=300.0, pdc2=2.7e-7)
        stream = simulate_run(cfg, n_threads=2)
        mean = cfg.source.mean_pairs
        arm = cfg.arms[0]
        span = cfg.n_pulses * cfg.rep_period_s
        expected = cfg.n_pulses * mean * arm.detection_prob + arm.detector.dark_rate_hz * span
        observed = int((stream.channels == 1).sum())
        assert abs(observed - expected) < 4 * math.sqrt(expected)


class TestDeadTime:
    def test_exact_spacing_enforced(self):
        cfg = SimConfig(
            source=baseline_source(pdc2=2.7e-2),
            arms=make_arms(
                dark_rates=(2000.0, 2000.0, 2000.0),
                jitter=(150e-12,) * 3,
                dead_times=(75e-9, 10e-6, 75e-9),
            ),
            n_pulses=2_000_000,
            rng_seed=31,
        )
        stream = simulate_run(cfg)
        for ch, arm in zip((1, 2, 3), cfg.arms):
            ticks = stream.channel_ticks(ch)
            if len(ticks) > 1:
                gaps = np.diff(ticks) * cfg.resolution_s
                assert gaps.min() >= arm.detector.dead_time_s - 1e-15

    def test_long_dead_time_rate_reduction(self):
        # dark-dominated channel blocked for many pulses per click
        dead = 10e-6
        dark = 20_000.0
        cfg = SimConfig(
            source=baseline_source(pump_w=0.0),
            arms=make_arms(dark_rates=(0.0, dark, 0.0), dead_times=(0.0, dead, 0.0)),
            n_pulses=20_000_000,
            rng_seed=5,
        )
        stream = simulate_run(cfg, n_threads=2)
        rates = expected_rates(cfg)
        observed = int((stream.channels == 2).sum())
        expected = rates.singles_counts[1]
        naive = dark * cfg.n_pulses * cfg.rep_period_s
        assert expected < 0.9 * naive  # the correction must actually bite
        assert abs(observed - expected) < 4 * math.sqrt(expected)


class TestDeadTimeFilter:
    @staticmethod
    def naive_filter(ticks, dead_ticks):
        accepted = []
        last = None
        for t in ticks:
            if last is None or t - last >= dead_ticks:
                accepted.append(t)
                last = t
        return accepted

    def test_matches_naive_reference(self, rng):
        for _ in range(50):
            n = int(rng.integers(0, 200))
            ticks = np.sort(rng.integers(0, 500, n)).astype(np.int64)
            dead = int(rng.integers(0, 30))
            got = _apply_dead_time(ticks, dead)
            assert list(got) == self.naive_filter(ticks, dead)

    @staticmethod
    @st.composite
    def clustered_ticks(draw):
        """Sorted ticks whose gaps sit on and around the dead window."""
        dead = draw(st.one_of(st.just(1), st.integers(2, 40)))
        gap = st.one_of(
            st.just(0),  # runs of equal ticks
            st.sampled_from([1, dead - 1, dead, dead + 1]),
            st.integers(0, dead - 1),  # cluster continues
            st.integers(0, 3 * dead),
        )
        gaps = draw(st.lists(gap, max_size=80))
        ticks = draw(st.integers(0, 10**6)) + np.cumsum([0] + gaps).astype(np.int64)
        if draw(st.booleans()):
            dead = int(ticks[-1] - ticks[0]) + draw(st.integers(1, 5))  # one window spans all
        return ticks, dead

    @settings(max_examples=400, deadline=None)
    @given(clustered_ticks())
    def test_cluster_split_matches_naive_reference(self, case):
        ticks, dead = case
        got = _apply_dead_time(ticks, dead)
        assert got.dtype == np.int64
        assert list(got) == self.naive_filter(ticks, dead)


def pulse_index(ticks, cfg):
    """Pulse of each zero-jitter tick (arm delays are far below half a period)."""
    return np.rint(ticks * cfg.resolution_s / cfg.rep_period_s).astype(np.int64)


class TestThinning:
    def test_coincidence_patterns_match_closed_form(self):
        # jitter, darks and dead time off, so each pulse's channel set is
        # read off the tags; multi-pair pulses (mean 0.54) and leakage combine
        cfg = SimConfig(
            source=baseline_source(pdc2=0.27, pump_w=50e-6),
            arms=make_arms(transmission=0.5, efficiencies=(0.8, 0.7, 0.9), leakage=(0.0, 2e-3, 3e-3)),
            n_pulses=2_000_000,
            peak_offset_s=0.0,
            rng_seed=41,
        )
        stream = simulate_run(cfg, n_threads=2)
        pulses, bits = [], []
        for ch, bit in ((1, 4), (2, 2), (3, 1)):
            p = np.unique(pulse_index(stream.channel_ticks(ch), cfg))
            pulses.append(p)
            bits.append(np.full(len(p), bit))
        _, inverse = np.unique(np.concatenate(pulses), return_inverse=True)
        codes = np.bincount(inverse, weights=np.concatenate(bits)).astype(np.int64)
        observed = np.bincount(codes, minlength=8)

        # P(no tag on any channel outside kept) per pulse: each of the Poisson
        # pairs misses them, and so does each Poisson leakage photon
        mu, conv = cfg.source.mean_pairs, cfg.source.pdc2_efficiency
        p1, p2, p3 = (a.detection_prob for a in cfg.arms)
        leak2, leak3 = (a.channel.leakage_rate_per_pulse * a.detection_prob for a in cfg.arms[1:])

        def within(kept):
            m1, m2, m3 = (bit not in kept for bit in (4, 2, 1))
            miss = (1 - p1 * m1) * (1 - conv + conv * (1 - p2 * m2) * (1 - p3 * m3))
            return math.exp(-mu * (1 - miss) - leak2 * m2 - leak3 * m3)

        n = cfg.n_pulses
        for code in range(1, 8):
            members = [bit for bit in (4, 2, 1) if code & bit]
            prob = sum(
                (-1) ** (len(members) - r) * within(subset)
                for r in range(len(members) + 1)
                for subset in itertools.combinations(members, r)
            )
            sigma = math.sqrt(n * prob * (1 - prob))
            assert sigma > 10
            assert abs(observed[code] - n * prob) < 4 * sigma, (code, observed[code], n * prob)

    def test_last_partial_block_stays_inside_the_run(self, monkeypatch):
        monkeypatch.setattr(simulate, "BLOCK_PULSES", SMALL_BLOCK)
        n = 3 * SMALL_BLOCK + 5
        cfg = SimConfig(
            source=baseline_source(pdc2=0.27, pump_w=460e-6),  # about 5 pairs per pulse
            arms=make_arms(transmission=1.0, efficiencies=(1.0, 1.0, 1.0)),
            n_pulses=n,
            rng_seed=8,
        )
        stream = simulate_run(cfg, n_threads=2)
        pulses = pulse_index(stream.timestamps, cfg)
        assert pulses.min() >= 0
        assert pulses.max() < n
        assert np.count_nonzero(pulses >= 3 * SMALL_BLOCK) > 0


class TestSortedRunMerge:
    """simulate_run sorts each block in its worker and merges sorted runs."""

    BLOCK = 1 << 10

    @staticmethod
    def reference_run(cfg):
        """Global stable sort of all blocks, dead time, then lexsort by (tick, channel)."""
        block = simulate.BLOCK_PULSES
        n_blocks = -(-cfg.n_pulses // block)
        means = simulate._event_means_per_pulse(cfg)
        raw = [
            _simulate_block(cfg, means, b, b * block, min((b + 1) * block, cfg.n_pulses))
            for b in range(n_blocks)
        ]
        channels, ticks = [], []
        for ch, arm in zip((1, 2, 3), cfg.arms):
            t = np.concatenate([r[ch] for r in raw])
            t.sort(kind="stable")
            t = _apply_dead_time(t, math.ceil(arm.detector.dead_time_s / cfg.resolution_s - 1e-12))
            channels.append(np.full(len(t), ch, dtype=np.uint8))
            ticks.append(t)
        channels, ticks = np.concatenate(channels), np.concatenate(ticks)
        order = np.lexsort((channels, ticks))
        return raw, channels[order], ticks[order]

    @staticmethod
    def overlapping_config():
        # 300 ns jitter against a 100 ns period: neighbouring blocks' sorted
        # runs overlap at every seam
        return SimConfig(
            source=baseline_source(pdc2=0.27, pump_w=460e-6),
            arms=make_arms(
                transmission=0.5,
                dark_rates=(2e5, 2e5, 2e5),
                jitter=(300e-9, 300e-9, 300e-9),
                dead_times=(50e-9, 200e-9, 0.0),
            ),
            n_pulses=40_000,
            rng_seed=61,
        )

    @staticmethod
    def tied_config():
        # no jitter and no arm delay: a pulse's tags on ch1, ch2 and ch3 share
        # one tick, so the order of equal ticks decides the stream
        return SimConfig(
            source=baseline_source(pdc2=0.27, pump_w=460e-6),
            arms=make_arms(transmission=1.0, efficiencies=(0.9, 0.9, 0.9)),
            n_pulses=40_000,
            peak_offset_s=0.0,
            rng_seed=62,
        )

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_runs_overlapping_across_seams(self, monkeypatch, n_threads):
        monkeypatch.setattr(simulate, "BLOCK_PULSES", self.BLOCK)
        cfg = self.overlapping_config()
        raw, channels, ticks = self.reference_run(cfg)
        # some block's latest ch1 tick lies after the next block's earliest
        assert any(a[1].max() > b[1].min() for a, b in zip(raw, raw[1:]))
        stream = simulate_run(cfg, n_threads=n_threads)
        assert np.array_equal(stream.timestamps, ticks)
        assert np.array_equal(stream.channels, channels)

    def test_equal_ticks_just_below_the_key_limit(self, monkeypatch):
        # ticks up to just below 2**61, the largest whose merge key
        # tick << 2 | channel fits an int64
        monkeypatch.setattr(simulate, "BLOCK_PULSES", self.BLOCK)
        cfg = self.tied_config()
        cfg = replace(cfg, resolution_s=cfg.n_pulses * cfg.rep_period_s / (2**61 - 2**40))
        _, channels, ticks = self.reference_run(cfg)
        assert 2**61 - 2**47 < ticks.max() < 2**61
        assert np.count_nonzero((ticks[1:] == ticks[:-1]) & (channels[1:] != channels[:-1])) > 1000
        stream = simulate_run(cfg, n_threads=2)
        assert np.array_equal(stream.timestamps, ticks)
        assert np.array_equal(stream.channels, channels)

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_equal_ticks_across_channels(self, monkeypatch, n_threads):
        monkeypatch.setattr(simulate, "BLOCK_PULSES", self.BLOCK)
        cfg = self.tied_config()
        _, channels, ticks = self.reference_run(cfg)
        tied = ticks[1:] == ticks[:-1]
        assert np.count_nonzero(tied & (channels[1:] != channels[:-1])) > 1000
        stream = simulate_run(cfg, n_threads=n_threads)
        assert np.array_equal(stream.timestamps, ticks)
        assert np.array_equal(stream.channels, channels)

    def assert_matches_reference(self, cfg, n_threads):
        raw, channels, ticks = self.reference_run(cfg)
        stream = simulate_run(cfg, n_threads=n_threads)
        assert np.array_equal(stream.timestamps, ticks)
        assert np.array_equal(stream.channels, channels)
        return raw, stream

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_dead_time_longer_than_two_blocks(self, monkeypatch, n_threads):
        # ch2's 250 us dead window spans more than two 102.4 us blocks, so the
        # last accepted tick is carried over blocks whose every ch2 tick it rejects
        monkeypatch.setattr(simulate, "BLOCK_PULSES", self.BLOCK)
        arms = make_arms(
            transmission=0.5,
            dark_rates=(2e5, 2e5, 2e5),
            jitter=(300e-9, 300e-9, 300e-9),
            dead_times=(50e-9, 250e-6, 0.0),
        )
        cfg = replace(self.overlapping_config(), arms=arms)
        assert 250e-6 > 2 * self.BLOCK * cfg.rep_period_s
        raw, stream = self.assert_matches_reference(cfg, n_threads)
        assert min(len(r[2]) for r in raw[:-1]) > 100  # every full block holds ch2 ticks to reject
        assert len(stream.channel_ticks(2)) > 10

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_jitter_reach_beyond_a_block(self, monkeypatch, n_threads):
        # an 8 us ch3 jitter reaches 320 us, more than three 102.4 us blocks: no
        # tick is final after the first three, and ticks stay carried over several
        monkeypatch.setattr(simulate, "BLOCK_PULSES", self.BLOCK)
        arms = make_arms(
            transmission=0.5,
            dark_rates=(2e5, 2e5, 2e5),
            jitter=(300e-9, 0.0, 8e-6),
            dead_times=(50e-9, 200e-9, 100e-9),
        )
        cfg = replace(self.overlapping_config(), arms=arms)
        assert simulate._JITTER_REACH_SIGMAS * 8e-6 > 3 * self.BLOCK * cfg.rep_period_s
        assert simulate._final_tick(cfg, 3 * self.BLOCK) < 0
        self.assert_matches_reference(cfg, n_threads)

    def test_output_grown_past_its_estimate(self, monkeypatch):
        # output arrays sized for no tick at all grow with every block
        monkeypatch.setattr(simulate, "BLOCK_PULSES", self.BLOCK)
        monkeypatch.setattr(simulate, "_expected_raw_ticks", lambda config, means: 0.0)
        self.assert_matches_reference(self.overlapping_config(), n_threads=2)

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_blocks_without_a_tick_on_one_channel(self, monkeypatch, n_threads):
        # ch3 detects about 0.7 photons a block and has no dark counts
        monkeypatch.setattr(simulate, "BLOCK_PULSES", self.BLOCK)
        arms = make_arms(
            transmission=0.5,
            efficiencies=(0.6, 0.25, 1e-3),
            dark_rates=(2e5, 2e5, 0.0),
            jitter=(300e-9, 300e-9, 300e-9),
            dead_times=(50e-9, 200e-9, 100e-9),
        )
        cfg = replace(self.overlapping_config(), arms=arms)
        raw, _ = self.assert_matches_reference(cfg, n_threads)
        empty = [len(r[3]) == 0 for r in raw]
        assert any(empty) and not all(empty)


class TestMemoryBound:
    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_simulate_and_write_peaks_follow_the_output(self, tmp_path, n_threads):
        """Traced peaks of simulate_run and write_ttag on a 5e7-pulse baseline run.

        NumPy reports its data buffers to tracemalloc, so the traced peak is the
        sum of the arrays alive at once.  With E the run's expected raw tick
        count from the event table and R a block's (9.1e5 and 3.8e4 here):

        simulate_run: the output arrays, sized E + 6 sqrt(E) records of 9 B
        (uint8 channel and int64 tick); the 2 x n_threads blocks in flight, at
        most n_threads of them being sampled (pulse indices, float times,
        jitter draws and int64 ticks: 32 B per tick) and the others held as
        sorted ticks (8 B); and the block being finished (its ticks, their
        merge with the carried ones, the dead-time temporaries and the merge
        keys: 40 B per tick); plus 1 MiB for the interpreter and the pool.

        write_ttag: one buffer of 2**16 9 B records, plus 64 KiB.
        """
        tree = load_config(Path(__file__).resolve().parent.parent / "configs" / "baseline.json")
        tree["simulate"]["n_pulses"] = 50_000_000
        cfg = parse_simulate(tree["simulate"])
        e = simulate._expected_raw_ticks(cfg, simulate._event_means_per_pulse(cfg))
        r = e * simulate.BLOCK_PULSES / cfg.n_pulses

        tracemalloc.start()
        try:
            stream = simulate_run(cfg, n_threads=n_threads)
            held, simulate_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            write_ttag(tmp_path / "run.ttag", stream)
            write_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

        n = len(stream)
        assert 0.98 * e < n < e
        output = 9 * (e + 6 * math.sqrt(e))
        assert simulate_peak / n <= (output + (40 * n_threads + 40) * r + 2**20) / n
        assert write_peak / n <= (RECORD_SIZE * ttag._WRITE_CHUNK + 2**16) / n


class TestJitter:
    def test_difference_jitter_width(self):
        from tripletsim.analysis import BinningConfig, build_threefold_histogram

        sigma = 0.15e-9
        cfg = boosted_config(20_000_000, seed=5, jitter_s=sigma)
        stream = simulate_run(cfg, n_threads=2)
        fine = build_threefold_histogram(stream, BinningConfig())
        central = (np.abs(fine.i_idx) <= 24) & (np.abs(fine.j_idx) <= 24)
        d1 = np.repeat(fine.i_idx[central], fine.values[central]).astype(float)
        d1 *= 82.3125e-12
        assert d1.size >= 1000
        expected = math.sqrt(2.0) * sigma
        assert d1.std() == pytest.approx(expected, rel=0.10)


class TestSourceMeanPairs:
    def test_reference_point(self):
        # P lambda / (h c R) * pdc1 at 10 uW, 532 nm, 10 MHz, 8.1e-8
        mean = replace(baseline_source(), injection_efficiency=1.0).mean_pairs
        assert mean == pytest.approx(0.21693015112855046, rel=1e-12)
        assert abs(mean - 0.215) <= 0.02

    def test_zero_pump(self):
        src = baseline_source(pump_w=0.0)
        assert src.mean_pairs == 0.0

    def test_linearity_in_pump_power(self):
        m1 = baseline_source(pump_w=10e-6).mean_pairs
        m2 = baseline_source(pump_w=20e-6).mean_pairs
        assert m2 == pytest.approx(2.0 * m1, rel=1e-12)

    def test_injection_flag(self):
        # baseline_source injects half the pump
        on = baseline_source().mean_pairs
        off = replace(baseline_source(), injection_efficiency=1.0).mean_pairs
        assert on == pytest.approx(0.5 * off, rel=1e-12)


class TestTripletProbability:
    """The per-pulse triplet probability as expected_rates reads it from the event table."""

    @staticmethod
    def probability(source=None, efficiencies=DETECTOR_EFFICIENCIES):
        source = source or baseline_source()
        cfg = SimConfig(
            source=source,
            arms=make_arms(efficiencies=efficiencies),
            rep_period_s=1.0 / source.rep_rate_hz,
        )
        return expected_rates(cfg).triplet_probability_per_pulse

    def test_reference_value(self):
        # arm detection probabilities 0.6t / 0.25t / 0.7t, product 2.17e-3
        assert self.probability() == pytest.approx(6.35e-11, rel=0.01)

    def test_zero_arm_kills_it(self):
        assert self.probability(efficiencies=(0.0, 0.5, 0.5)) == 0.0

    def test_multiplicative_separability(self):
        p0 = self.probability()
        e1, e2, e3 = DETECTOR_EFFICIENCIES
        assert self.probability(efficiencies=(e1 / 2, e2, e3)) == pytest.approx(p0 / 2, rel=1e-12)

    def test_pump_rep_rate_scaling_invariance(self):
        src = baseline_source()
        scaled = replace(src, pump_power_w=6.2 * src.pump_power_w, rep_rate_hz=6.2 * src.rep_rate_hz)
        assert self.probability(scaled) == pytest.approx(self.probability(src), rel=1e-12)


class TestExpectedRates:
    def test_triple_rate_equals_closed_form(self):
        cfg = boosted_config(1000, seed=0)
        rates = expected_rates(cfg)
        # the paper's formula,
        # eta_i1 eta_s2 eta_i2 * P_pdc1 P_pdc2 * P_pump eta_in lambda_p / (h c R_rep)
        src = cfg.source
        etas = math.prod(arm.detection_prob for arm in cfg.arms)
        pump = src.pump_power_w * src.injection_efficiency * src.pump_wavelength_m
        direct = etas * src.pdc1_efficiency * src.pdc2_efficiency * pump
        direct /= PLANCK_J_S * C_VAC_M_S * src.rep_rate_hz
        assert rates.triplet_probability_per_pulse == pytest.approx(direct, rel=1e-15)
        assert rates.triplet_rate_hz == pytest.approx(direct * 10e6, rel=1e-12)
        assert rates.expected_triplets == pytest.approx(direct * 1000, rel=1e-12)

    def test_zero_pump_only_darks(self):
        cfg = SimConfig(
            source=baseline_source(pump_w=0.0),
            arms=make_arms(dark_rates=(100.0, 200.0, 300.0)),
            n_pulses=1_000_000,
            rng_seed=0,
        )
        rates = expected_rates(cfg)
        span = cfg.n_pulses * cfg.rep_period_s
        assert rates.singles_counts == (100.0 * span, 200.0 * span, 300.0 * span)
        assert rates.triplet_probability_per_pulse == 0.0

    def test_triple_rate_linear_in_pdc2(self):
        r1 = expected_rates(boosted_config(1000, 0, pdc2=1e-3))
        r2 = expected_rates(boosted_config(1000, 0, pdc2=2e-3))
        assert r2.triplet_probability_per_pulse == pytest.approx(
            2 * r1.triplet_probability_per_pulse, rel=1e-12
        )

    def test_central_count_needs_no_scipy(self):
        # importing scipy takes about half a second and 40 MB, and simulate
        # calls this for its manifest
        code = (
            "import sys\n"
            "from tripletsim.config import default_config, parse_simulate\n"
            "from tripletsim.simulate import expected_rates\n"
            "cfg = parse_simulate(default_config()['simulate'])\n"
            "assert expected_rates(cfg, merged_bin_s=1.317e-9).expected_central_count > 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(tripletsim.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_central_count_includes_higher_orders(self):
        cfg = boosted_config(100_000_000, seed=0)
        rates = expected_rates(cfg, merged_bin_s=16 * 82.3125e-12)
        # same-pulse multi-pair combinations push the central-bin expectation
        # above the single-pair cascade rate
        assert rates.expected_central_count > rates.expected_triplets
        mu = cfg.source.mean_pairs
        assert rates.expected_central_count > rates.expected_triplets * (1 + mu * 0.9)

    @staticmethod
    def central_per_pulse_reference(cfg):
        """Hand-expanded central term per pulse, evaluated to 50 digits.

        The moment polynomial E[n1 n2 n3] without dead time; otherwise the
        inclusion-exclusion over Poisson PGFs for P(n1, n2, n3 > 0) times the
        live fraction 1 - R tau of each channel whose dead time spans a pulse.
        """
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            f = mpmath.mpf
            mu, conv, rep = f(cfg.source.mean_pairs), f(cfg.source.pdc2_efficiency), f(cfg.rep_period_s)
            p1, p2, p3 = (f(arm.detection_prob) for arm in cfg.arms)
            leak2, leak3 = (
                f(arm.channel.leakage_rate_per_pulse) * p for arm, p in zip(cfg.arms[1:], (p2, p3))
            )
            dead = [f(arm.detector.dead_time_s) for arm in cfg.arms]
            if not any(dead):
                e_m2, e_m2m1 = mu + mu**2, mu**3 + 2 * mu**2
                return (
                    p1 * p2 * p3 * (conv * e_m2 + conv**2 * e_m2m1)
                    + leak3 * e_m2 * p1 * conv * p2
                    + leak2 * e_m2 * p1 * conv * p3
                    + mu * p1 * leak2 * leak3
                )

            def pgf(x):
                return mpmath.exp(-mu * (1 - x))

            q1, q2, q3 = 1 - p1, 1 - conv * p2, 1 - conv * p3
            q23 = 1 - conv * (p2 + p3 - p2 * p3)
            c2, c3 = mpmath.exp(-leak2), mpmath.exp(-leak3)
            central = (
                1 - c2 * pgf(q2) - c3 * pgf(q3) + c2 * c3 * pgf(q23)
                - pgf(q1) + c2 * pgf(q1 * q2) + c3 * pgf(q1 * q3) - c2 * c3 * pgf(q1 * q23)
            )
            photons = (mu * p1, mu * conv * p2 + leak2, mu * conv * p3 + leak3)
            for per_pulse, arm, tau in zip(photons, cfg.arms, dead):
                if tau >= rep:
                    rate = -mpmath.expm1(-per_pulse) / rep + f(arm.detector.dark_rate_hz)
                    rate = rate / (1 + rate * tau)
                    central *= 1 - rate * tau
            return central

    @pytest.mark.parametrize("leakage", [0.0, 1e-3])
    @pytest.mark.parametrize("dead_times", ["configured", "zero", "ch1_only"])
    @pytest.mark.parametrize("pdc2", [pytest.param(None, id="physical"), 0.05, 0.3])
    def test_central_term_matches_50_digit_reference(self, pdc2, dead_times, leakage):
        tree = load_config(Path(__file__).resolve().parent.parent / "configs" / "baseline.json")
        cfg = parse_simulate(tree["simulate"])
        merged_bin_s = parse_analyze(tree["analyze"]).binning.merged_bin_s
        if pdc2 is not None:
            cfg = replace(cfg, source=replace(cfg.source, pdc2_efficiency=pdc2))
        scale = {"configured": (1, 1, 1), "zero": (0, 0, 0), "ch1_only": (1, 0, 0)}[dead_times]
        cfg = replace(cfg, arms=tuple(
            replace(
                arm,
                channel=replace(arm.channel, leakage_rate_per_pulse=leakage if k else 0.0),
                detector=replace(arm.detector, dead_time_s=arm.detector.dead_time_s * scale[k]),
            )
            for k, arm in enumerate(cfg.arms)
        ))
        got = expected_rates(cfg, merged_bin_s).expected_central_count / (
            cfg.n_pulses * _central_bin_containment(cfg, merged_bin_s)
        )
        # at physical efficiencies the hand-expanded PGF terms of size 1
        # cancel to about 7e-11: in double precision that lost 6 digits
        assert got == pytest.approx(float(self.central_per_pulse_reference(cfg)), rel=1e-13, abs=0)


def std_normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestCentralBinContainment:
    MERGED_BIN_S = 16 * 82.3125e-12

    def config(self, jitters, offset_s):
        arms = make_arms(jitter=jitters)
        return replace(boosted_config(1000, 0), arms=arms, peak_offset_s=offset_s)

    def edges(self, offset_s):
        w = self.MERGED_BIN_S
        k = round(offset_s / w)
        return (k - 0.5) * w - offset_s, (k + 0.5) * w - offset_s

    @pytest.mark.parametrize(
        "jitters, offset_s",
        [
            ((150e-12, 150e-12, 150e-12), -0.165e-9),
            ((30e-12, 300e-12, 80e-12), 0.9e-9),
            ((500e-12, 40e-12, 2e-9), -2.1e-9),
            ((10e-12, 1e-9, 150e-12), 0.3e-9),
            ((2e-12, 3e-9, 9e-12), 2.06e-9),
        ],
    )
    def test_matches_bivariate_normal_rectangle(self, jitters, offset_s):
        from scipy.stats import multivariate_normal

        s1, s2, s3 = jitters
        lo, hi = self.edges(offset_s)
        mvn = multivariate_normal(cov=[[s1**2 + s2**2, s2**2], [s2**2, s3**2 + s2**2]])
        expected = mvn.cdf([hi, hi]) - mvn.cdf([lo, hi]) - mvn.cdf([hi, lo]) + mvn.cdf([lo, lo])
        got = _central_bin_containment(self.config(jitters, offset_s), self.MERGED_BIN_S)
        # scipy's bivariate cdf is accurate to 1e-5 absolute per call
        assert got == pytest.approx(expected, abs=4e-5)

    def test_shared_jitter_only(self):
        # with only the channel-2 jitter z both delays are -z: one normal interval
        s2, offset_s = 400e-12, 0.5e-9
        lo, hi = self.edges(offset_s)
        expected = std_normal_cdf(-lo / s2) - std_normal_cdf(-hi / s2)
        got = _central_bin_containment(self.config((0.0, s2, 0.0), offset_s), self.MERGED_BIN_S)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_no_jitter_is_certain(self):
        cfg = self.config((0.0, 0.0, 0.0), -0.165e-9)
        assert _central_bin_containment(cfg, self.MERGED_BIN_S) == 1.0

    def quad_oracle(self, jitters, offset_s):
        """The adaptive-quadrature form of the same integral, kept as reference."""
        from scipy.integrate import quad
        from scipy.special import ndtr

        s1, s2, s3 = jitters
        lo, hi = self.edges(offset_s)

        def inside(z, s):
            return float(ndtr((hi + z) / s) - ndtr((lo + z) / s))

        pad = 12.0 * min(s1, s3)
        a, b = max(-hi - pad, -12.0 * s2) / s2, min(-lo + pad, 12.0 * s2) / s2
        total, _ = quad(
            lambda u: math.exp(-0.5 * u * u) * inside(u * s2, s1) * inside(u * s2, s3),
            a, b, points=[x for x in (-hi / s2, -lo / s2) if a < x < b] or None,
            epsabs=1e-13, epsrel=1e-11, limit=200,
        )
        return total / math.sqrt(2.0 * math.pi)

    def test_matches_quad_over_seeded_draws(self):
        rng = np.random.default_rng(20261018)
        worst = 0.0
        for _ in range(500):
            jitters = tuple(10.0 ** rng.uniform(-11.0, math.log10(2e-9), 3))  # 10 ps - 2 ns
            offset_s = rng.uniform(-3e-9, 3e-9)
            got = _central_bin_containment(self.config(jitters, offset_s), self.MERGED_BIN_S)
            worst = max(worst, abs(got - self.quad_oracle(jitters, offset_s)))
        assert worst <= 1e-10

    def test_baseline_config_matches_quad(self):
        tree = load_config(Path(__file__).resolve().parent.parent / "configs" / "baseline.json")
        cfg = parse_simulate(tree["simulate"])
        merged_bin_s = parse_analyze(tree["analyze"]).binning.merged_bin_s
        jitters = tuple(arm.detector.jitter_sigma_s for arm in cfg.arms)
        oracle = self.quad_oracle(jitters, cfg.peak_offset_s)
        assert _central_bin_containment(cfg, merged_bin_s) == pytest.approx(oracle, rel=1e-15)

    @pytest.mark.parametrize(
        "pdc2, n_pulses, central",
        [
            (None, None, "0x1.5b95ea0b9cb27p-11"),  # configs/baseline.json as shipped
            (0.05, 20_000_000, "0x1.dd3ebbdc198b7p+7"),  # the W2-boosted benchmark run
        ],
    )
    def test_shipped_central_counts_pinned(self, pdc2, n_pulses, central):
        # the manifest's expected block may move only with the model: its floats are pinned
        tree = load_config(Path(__file__).resolve().parent.parent / "configs" / "baseline.json")
        if pdc2 is not None:
            tree["simulate"]["source"]["pdc2_pairs_per_pump_photon"] = pdc2
            tree["simulate"]["n_pulses"] = n_pulses
        cfg = parse_simulate(tree["simulate"])
        rates = expected_rates(cfg, merged_bin_s=parse_analyze(tree["analyze"]).binning.merged_bin_s)
        assert rates.expected_central_count.hex() == central

    @pytest.mark.parametrize(
        "jitters, containment",
        [
            ((100e-12, 150e-12, 200e-12), "0x1.f240b8ae51f84p-1"),
            ((0.0, 150e-12, 300e-12), "0x1.d822094cc25d6p-1"),
            ((80e-12, 0.0, 120e-12), "0x1.fffd6f5514bdap-1"),
        ],
    )
    def test_unequal_side_jitters_pinned(self, jitters, containment):
        cfg = self.config(jitters, -0.165e-9)
        assert _central_bin_containment(cfg, self.MERGED_BIN_S).hex() == containment

    def test_narrow_edge_ramp_with_one_exact_side(self):
        # s1 = 0 makes the range end exactly at the steps, where channel 3's
        # 0.38 ps ramp is far narrower than s2: adaptive quad stepped over it
        # and returned the s3 -> 0 limit, 1.9e-4 too high
        from scipy.special import ndtr

        s2, s3, offset_s = 324.3e-12, 0.38e-12, 0.638e-9
        lo, hi = self.edges(offset_s)
        z = np.linspace(-hi, -lo, 2_000_001)  # 0.66 fs apart, far finer than s3
        density = np.exp(-0.5 * (z / s2) ** 2) / (s2 * math.sqrt(2.0 * math.pi))
        expected = np.trapezoid(density * (ndtr((hi + z) / s3) - ndtr((lo + z) / s3)), z)
        got = _central_bin_containment(self.config((0.0, s2, s3), offset_s), self.MERGED_BIN_S)
        assert got == pytest.approx(expected, abs=1e-9)
        limit = std_normal_cdf(-lo / s2) - std_normal_cdf(-hi / s2)
        assert limit - got > 1e-4
