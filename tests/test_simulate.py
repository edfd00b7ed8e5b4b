import math
import os
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
from tripletsim import simulate
from tripletsim.config import load_config, parse_analyze, parse_simulate
from tripletsim.constants import C_VAC_M_S, PLANCK_J_S
from tripletsim.simulate import (
    ChannelModel,
    DetectorModel,
    SimConfig,
    TimeTagStream,
    _apply_dead_time,
    _central_bin_containment,
    _simulate_block,
    expected_rates,
    simulate_run,
)
from conftest import baseline_source, boosted_config, make_arms

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
        mean = cfg.mean_pairs
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
        mu, conv = cfg.mean_pairs, cfg.source.pdc2_efficiency
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
        mu = cfg.mean_pairs
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
            mu, conv, rep = f(cfg.mean_pairs), f(cfg.source.pdc2_efficiency), f(cfg.rep_period_s)
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
