import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tripletsim import analysis
from tripletsim.analysis import (
    AnalyzeOptions,
    BinningConfig,
    Coincidence2DHistogram,
    PeakLocation,
    accidental_mean,
    analyze_merged,
    analyze_stream,
    build_threefold_histogram,
    car,
    locate_central_peak,
    merge_bins,
    occupancy_histogram,
    poisson_fit,
    poisson_pair_probability,
    snr,
)
from tripletsim.config import load_config, parse_analyze, parse_simulate
from tripletsim.errors import InsufficientStatisticsError, PeakNotFoundError
from tripletsim.simulate import TimeTagStream, _gate, expected_rates, simulate_run
from conftest import boosted_config, gate_stream, histogram_from_entries

TICK = 82.3125e-12

# small geometry for oracle tests: merged bin = 4 ticks, pulse period = 3 merged bins
SMALL = BinningConfig(
    base_bin_s=TICK, merge_factor=4, window_half_span_s=3e-9, rep_period_s=TICK * 12
)


def stream_from_ticks(ch1=(), ch2=(), ch3=(), resolution=TICK):
    channels = np.concatenate(
        [np.full(len(c), k, dtype=np.uint8) for k, c in ((1, ch1), (2, ch2), (3, ch3))]
    )
    ticks = np.concatenate(
        [np.asarray(c, dtype=np.int64) for c in (ch1, ch2, ch3)]
    )
    order = np.lexsort((channels, ticks))
    return TimeTagStream(resolution, channels[order], ticks[order])


def random_stream(rng, n_events, span_ticks):
    channels = rng.integers(1, 4, n_events).astype(np.uint8)
    ticks = np.sort(rng.integers(0, span_ticks, n_events)).astype(np.int64)
    return TimeTagStream(TICK, channels, ticks)


def one_sided_stream(rng, n_events, span_ticks):
    """Random stream whose middle third has no channel-1 tag and last third no channel-3 tag."""
    ticks = np.sort(rng.integers(0, span_ticks, n_events)).astype(np.int64)
    third = ticks * 3 // span_ticks
    pair = rng.integers(2, 4, n_events)  # channel 2 or 3; minus one, channel 1 or 2
    channels = np.where(third == 0, rng.integers(1, 4, n_events), pair - (third == 2))
    return TimeTagStream(TICK, channels.astype(np.uint8), ticks)


def brute_force_histogram(stream, cfg):
    """Independent oracle: full pairwise masks and dict accumulation."""
    w = cfg.n_half_fine
    t1 = stream.channel_ticks(1)
    t2 = stream.channel_ticks(2)
    t3 = stream.channel_ticks(3)
    counts = {}
    for t0 in t2:
        d1 = t1 - t0
        d1 = d1[np.abs(d1) <= w]
        d3 = t3 - t0
        d3 = d3[np.abs(d3) <= w]
        for a in d1:
            for b in d3:
                key = (int(a), int(b))
                counts[key] = counts.get(key, 0) + 1
    return counts


def as_dict(h):
    """{(i, j): count}, once the keys are checked strictly ascending and on the grid."""
    assert np.all(h.keys[1:] > h.keys[:-1])
    assert len(h.keys) == 0 or (h.keys[0] >= 0 and h.keys[-1] < h.n_axis_bins**2)
    return {(int(i), int(j)): int(v) for i, j, v in zip(h.i_idx, h.j_idx, h.values)}


def block_sum_oracle(h, factor):
    """Independent merge: pad the dense fine grid and sum factor x factor blocks."""
    half = factor // 2
    n_half_m = (h.n_half + half) // factor
    side_m = 2 * n_half_m + 1
    origin = -n_half_m * factor - half  # fine index of the first block's first bin
    grid = np.zeros((side_m * factor, side_m * factor), dtype=np.int64)
    for i, j, v in zip(h.i_idx, h.j_idx, h.values):
        grid[i - origin, j - origin] += v
    blocks = grid.reshape(side_m, factor, side_m, factor).sum(axis=(1, 3))
    return n_half_m, {
        (a - n_half_m, b - n_half_m): int(c) for (a, b), c in np.ndenumerate(blocks) if c
    }


class TestBinningConfig:
    def test_defaults(self):
        cfg = BinningConfig()
        assert cfg.merged_bin_s == pytest.approx(1.317e-9, rel=1e-12)
        assert cfg.n_half_merged == 228
        assert cfg.n_half_fine == 228 * 16 + 7  # merged bin 228 ends at fine tick 3655
        assert cfg.rep_period_bins == 76
        assert (2 * cfg.n_half_merged + 1) ** 2 == 457 * 457 == 208849

    def test_bad_merge_factor(self):
        with pytest.raises(ValueError):
            BinningConfig(merge_factor=0)

    def test_rep_period_must_sit_on_grid(self):
        with pytest.raises(ValueError, match="integer number of merged bins"):
            BinningConfig(base_bin_s=TICK, merge_factor=4, rep_period_s=1e-9)

    @pytest.mark.parametrize("field", ["base_bin_s", "window_half_span_s", "rep_period_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_time_scale_must_be_finite_and_positive(self, field, value):
        # refused by name before any of them reaches an integer bin count
        with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
            BinningConfig(**{field: value})

    @pytest.mark.parametrize("field", ["window_half_span_s", "rep_period_s"])
    def test_bin_count_beyond_the_float_range_refused(self, field):
        with pytest.raises(ValueError, match=f"^{field} spans more merged bins"):
            BinningConfig(**{"base_bin_s": 1e-300, field: 1e10})

    def test_fine_grid_beyond_int64_keys_refused(self):
        # (2 n_half_fine + 1)**2 < 2**63 holds up to n_half_fine 1,518,500,249, that is
        # 94,906,265 merged bins; one more merged bin would wrap the flat keys
        cfg = BinningConfig()
        inside = BinningConfig(window_half_span_s=94_906_265 * cfg.merged_bin_s)
        assert (2 * inside.n_half_fine + 1) ** 2 < 2**63
        for span in (94_906_266 * cfg.merged_bin_s, 0.2):
            with pytest.raises(ValueError, match="^window_half_span_s spans .* int64"):
                BinningConfig(window_half_span_s=span)

    @pytest.mark.parametrize("factor", range(1, 33))
    @pytest.mark.parametrize("span_bins", [1, 2.4, 37])
    def test_fine_window_edges_land_on_the_merged_grid_edges(self, factor, span_bins):
        merged = TICK * factor
        cfg = BinningConfig(TICK, factor, span_bins * merged, 76 * merged)
        n, w = cfg.n_half_merged, cfg.n_half_fine
        h = histogram_from_entries(TICK, w, [-w, -w, w, w], [-w, w, -w, w], 1)
        m = merge_bins(h, factor)
        assert m.n_half == n
        assert as_dict(m) == {(a, b): 1 for a in (-n, n) for b in (-n, n)}

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_gate_keeps_a_ch3_tag_n_half_fine_away_and_no_further(self, sign):
        cfg, t0 = BinningConfig(), 10_000
        w = cfg.n_half_fine
        for d, count in ((w, 1), (w + 1, 0)):
            stream = stream_from_ticks(ch1=[t0], ch2=[t0], ch3=[t0 + sign * d])
            assert build_threefold_histogram(stream, cfg).total_counts == count, d

    @pytest.mark.parametrize("factor", [3, 5, 17])
    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("channel", [1, 3])
    def test_odd_factor_edge_bins_keep_their_outer_tick(self, factor, sign, channel):
        # merged bin n spans fine ticks n f - (f - 1)/2 to n f + (f - 1)/2 for odd f
        merged, t0 = TICK * factor, 10_000
        cfg = BinningConfig(TICK, factor, 2.4 * merged, 76 * merged)
        n = cfg.n_half_merged
        t = t0 + sign * (n * factor + (factor - 1) // 2)
        ticks = {"ch1": [t0], "ch2": [t0], "ch3": [t0], f"ch{channel}": [t]}
        m = merge_bins(build_threefold_histogram(stream_from_ticks(**ticks), cfg), factor)
        assert as_dict(m) == {(sign * n, 0) if channel == 1 else (0, sign * n): 1}


class TestAnalyzeOptions:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("peak_search_radius", -1),
            ("fit_exclude_sigma", 0.0),
            ("fit_exclude_sigma", math.nan),
            ("n_pulses", 0),
        ],
    )
    def test_out_of_range_setting_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            AnalyzeOptions(**{field: value})


class TestHistogramOracle:
    def test_matches_brute_force_on_random_streams(self):
        rng = np.random.default_rng(987)
        for trial in range(20):
            n = int(rng.integers(10, 1001))
            stream = random_stream(rng, n, 2000)
            h = build_threefold_histogram(stream, SMALL)
            assert as_dict(h) == brute_force_histogram(stream, SMALL), trial

    @pytest.mark.parametrize("budget", [1, 7, 60])
    def test_matches_brute_force_across_chunk_boundaries(self, monkeypatch, budget):
        # a budget far below the pair count makes references straddle chunk
        # boundaries and delay bins recur across chunks
        monkeypatch.setattr(analysis, "_PAIR_CHUNK", budget)
        rng = np.random.default_rng(4321 + budget)
        w = SMALL.n_half_fine
        for trial in range(10):
            # the later trials hold references that see channel 3 but no channel 1, and the reverse
            make = random_stream if trial < 5 else one_sided_stream
            stream = make(rng, int(rng.integers(200, 800)), 1500)
            h = build_threefold_histogram(stream, SMALL)
            assert h.total_counts > 3 * budget, trial
            assert as_dict(h) == brute_force_histogram(stream, SMALL), trial
            if make is one_sided_stream:
                refs = stream.channel_ticks(2)
                seen = [
                    np.searchsorted(t, refs + w, "right") > np.searchsorted(t, refs - w, "left")
                    for t in (stream.channel_ticks(1), stream.channel_ticks(3))
                ]
                assert np.any(seen[1] & ~seen[0]) and np.any(seen[0] & ~seen[1]), trial

    @pytest.mark.parametrize("cfg", [SMALL, BinningConfig()], ids=["small", "default"])
    def test_shift_near_int64_limit_leaves_histogram_unchanged(self, cfg):
        # absolute ticks times the grid side would overflow int64 at this offset
        rng = np.random.default_rng(808)
        stream = random_stream(rng, 600, 40 * cfg.n_half_fine)
        shifted = TimeTagStream(TICK, stream.channels, stream.timestamps + (2**62 - 2**40))
        h, g = (build_threefold_histogram(s, cfg) for s in (stream, shifted))
        assert h.total_counts > 100
        assert np.array_equal(g.i_idx, h.i_idx) and np.array_equal(g.j_idx, h.j_idx)
        assert np.array_equal(g.values, h.values)
        assert g.total_reference_events == h.total_reference_events

    def test_window_edges_are_inclusive(self):
        w = SMALL.n_half_fine
        t0 = 1000
        edges = [t0 - w - 1, t0 - w, t0 + w, t0 + w + 1]
        stream = stream_from_ticks(ch1=edges, ch2=[t0], ch3=edges)
        h = build_threefold_histogram(stream, SMALL)
        assert as_dict(h) == {(a, b): 1 for a in (-w, w) for b in (-w, w)}
        assert as_dict(h) == brute_force_histogram(stream, SMALL)

    @pytest.mark.parametrize("missing", [1, 3])
    def test_empty_channel_one_or_three(self, missing):
        ticks = {1: [90, 100, 110], 2: [100, 105], 3: [95, 100]}
        ticks[missing] = []
        stream = stream_from_ticks(ch1=ticks[1], ch2=ticks[2], ch3=ticks[3])
        h = build_threefold_histogram(stream, SMALL)
        assert h.total_counts == 0
        assert len(h.values) == 0
        assert h.total_reference_events == 2

    def test_no_pair_inside_any_window(self, monkeypatch):
        # each reference sees tags on only one of channels 1 and 3, so no pair forms
        monkeypatch.setattr(analysis, "_PAIR_CHUNK", 1)
        w = SMALL.n_half_fine
        stream = stream_from_ticks(ch1=[1000, 1001], ch2=[1000, 1000 + 4 * w], ch3=[1000 + 4 * w])
        h = build_threefold_histogram(stream, SMALL)
        assert h.total_counts == 0 and len(h.values) == len(h.i_idx) == len(h.j_idx) == 0
        assert h.total_reference_events == 2
        m = merge_bins(h, SMALL.merge_factor)
        assert len(m.values) == 0 and m.total_reference_events == 2

    def test_overlapping_windows_and_equal_ticks_on_a_window_edge(self, monkeypatch):
        # three references closer than a window, so their kept windows overlap and
        # share records; a tag of each channel on one tick, the first window's right
        # edge; channel-1 tags on and one tick past other window edges
        monkeypatch.setattr(analysis, "_PAIR_CHUNK", 3)
        w = SMALL.n_half_fine
        t0, near = 1000, 1000 + w // 2
        edge = t0 + w
        stream = stream_from_ticks(
            ch1=[t0 - w - 1, t0 - w, t0, edge, near + w, near + w + 1],
            ch2=[t0, near, edge],
            ch3=[t0 - w, edge],
        )
        h = build_threefold_histogram(stream, SMALL)
        expected = brute_force_histogram(stream, SMALL)
        assert as_dict(h) == expected
        assert expected[(0, w)] == expected[(w, w)] == expected[(0, 0)] == 1
        assert h.total_counts == 13

    @staticmethod
    def per_window_case(case, w):
        """(ch1, ch2, ch3) ticks that put records where the kept windows overlap, join or end."""
        side = 2 * w + 1
        if case == "chain":  # each window overlaps the next: inner records are read 2 or 3 times
            refs = [1000 + k * w for k in range(20)]
            return range(900, 1000 + 21 * w, 5), refs, [t + 5 for t in refs]
        if case == "touching":  # each window starts one tick past the last: no gap record
            refs = [1000 + k * side for k in range(3)]
            return [t + d for t in refs for d in (-w, w)], refs, refs
        if case == "equal_edge_ticks":  # equal ticks on both sides of two touching windows
            edge = 1000 + w
            return [edge] * 3 + [edge + 1] * 2, [1000, 1000 + side], [edge, edge, edge + 1]
        if case == "stream_ends":  # the first and the last record are inside windows
            return [0, 40, 2 * w + 100], [20, 2 * w + 90], [20, 2 * w + 90]
        if case == "no_ch1_between":  # a window without channel 1 between windows with some
            refs = [1000 + k * 2 * side for k in range(3)]
            return [990, 1000, 1000 + 4 * side + 3], refs, [t + 1 for t in refs]
        # "none_kept": no reference has a channel-3 tag in its window
        return [1000, 5000], [1000, 5000], [1000 + w + 1, 5000 - w - 1]

    @pytest.mark.parametrize("chunk", [2, 1 << 16])
    @pytest.mark.parametrize(
        "case",
        ["chain", "touching", "equal_edge_ticks", "stream_ends", "none_kept", "no_ch1_between"],
    )
    def test_per_window_read_matches_brute_force(self, monkeypatch, case, chunk):
        # channel 1 is read window by window, in chunks of windows; a chunk of 2
        # records holds one window, and one chunk holds them all
        monkeypatch.setattr(analysis, "_PAIR_CHUNK", chunk)
        w = SMALL.n_half_fine
        ch1, ch2, ch3 = self.per_window_case(case, w)
        stream = stream_from_ticks(ch1=ch1, ch2=ch2, ch3=ch3)
        ts, refs = stream.timestamps, np.asarray(ch2)
        lo, hi = np.searchsorted(ts, refs - w, "left"), np.searchsorted(ts, refs + w, "right")
        if case == "chain":
            assert np.all(np.diff(refs) <= 2 * w)
        if case in ("touching", "equal_edge_ticks"):
            assert np.array_equal(lo[1:], hi[:-1])
        if case == "stream_ends":
            assert stream.channels[0] == stream.channels[-1] == 1
        if case == "no_ch1_between":
            ones = [np.count_nonzero(stream.channels[a:b] == 1) for a, b in zip(lo, hi)]
            assert ones == [2, 0, 1]
        h = build_threefold_histogram(stream, SMALL)
        expected = brute_force_histogram(stream, SMALL)
        assert as_dict(h) == expected
        assert (h.total_counts == 0) == (case == "none_kept")
        assert h.total_reference_events == len(refs)

    def test_wide_grid_int64_keys_match_brute_force(self):
        # a 1 ps tick gives a fine grid of more than 2**31 bins, past int32 keys
        cfg = BinningConfig(
            base_bin_s=1e-12, merge_factor=16, window_half_span_s=30e-9, rep_period_s=16e-9
        )
        w = cfg.n_half_fine
        assert (2 * w + 1) ** 2 >= 2**31
        rng = np.random.default_rng(55)
        stream = TimeTagStream(
            1e-12, rng.integers(1, 4, 300).astype(np.uint8), np.sort(rng.integers(0, 400_000, 300))
        )
        h = build_threefold_histogram(stream, cfg)
        expected = brute_force_histogram(stream, cfg)
        assert h.total_counts > 1000
        assert as_dict(h) == expected
        # merged bin k collects the fine bins centred on k * factor
        f = cfg.merge_factor
        merged = Counter()
        for (i, j), c in expected.items():
            merged[(i + f // 2) // f, (j + f // 2) // f] += c
        assert as_dict(merge_bins(h, f)) == dict(merged)

    def test_coordinates_derive_from_keys_as_stored_before(self):
        # the distinct (i, j) sorted by (i, j), each with its multiplicity
        rng = np.random.default_rng(12)
        ei, ej = rng.integers(-6, 7, 300), rng.integers(-6, 7, 300)
        counts = Counter(zip(ei.tolist(), ej.tolist()))
        f = histogram_from_entries(TICK, 6, ei, ej, 1)
        assert list(zip(f.i_idx.tolist(), f.j_idx.tolist())) == sorted(counts)
        assert f.values.tolist() == [counts[k] for k in sorted(counts)]
        assert f.i_idx.dtype == f.j_idx.dtype == np.int64
        assert as_dict(f) == dict(counts)

    def test_single_triple_at_zero_delay(self):
        stream = stream_from_ticks(ch1=[100], ch2=[100], ch3=[100])
        h = build_threefold_histogram(stream, SMALL)
        assert as_dict(h) == {(0, 0): 1}
        assert h.total_reference_events == 1

    def test_reference_only_stream_is_empty(self):
        stream = stream_from_ticks(ch2=[5, 10, 20])
        h = build_threefold_histogram(stream, SMALL)
        assert h.total_counts == 0
        assert h.total_reference_events == 3

    def test_resolution_mismatch_rejected(self):
        stream = stream_from_ticks(ch1=[1], ch2=[1], ch3=[1], resolution=1e-12)
        with pytest.raises(ValueError, match="resolution"):
            build_threefold_histogram(stream, SMALL)


def gate_loop(t2, t3, w):
    """The keep rule reference by reference: the kept ch2 indices."""
    kept = []
    for i, t in enumerate(t2.tolist()):
        j = next((j for j, u in enumerate(t3.tolist()) if u >= t - w), len(t3))
        if j < len(t3) and t3[j] <= t + w:
            kept.append(i)
    return kept


class TestGate:
    W = SMALL.n_half_fine

    @staticmethod
    def gate_case(case, w):
        """(ch1, ch2, ch3) ticks for one edge of the keep rule."""
        t0 = 1000
        if case in ("edge_inside", "edge_outside"):  # ch3 on or one tick past the window edges
            d = w if case == "edge_inside" else w + 1
            return [t0 - d, t0, t0 + d], [t0], [t0 - d, t0 + d]
        if case in ("no_ch2", "no_ch3"):
            ch2, ch3 = ([], [t0]) if case == "no_ch2" else ([t0], [])
            return [t0], ch2, ch3
        if case == "equal_ticks":  # equal ticks on every channel, and on the window edges
            return [t0] * 2 + [t0 + w] * 2, [t0] * 3 + [t0 + 2 * w] * 2, [t0] * 2 + [t0 + w] * 2
        if case in ("inner_ref_without_ch3", "inner_ref_with_ch3"):
            # a ch2 tag inside the first window, whose own window misses the first ch3 tag
            inner = t0 + w // 2
            ch3 = [t0 - w] + ([inner + w] if case == "inner_ref_with_ch3" else [])
            return [t0 - w, t0, inner, t0 + w, inner + w], [t0, inner], ch3
        if case == "touching":  # each window starts one tick past the last
            refs = [t0 + k * (2 * w + 1) for k in range(3)]
            return [t + d for t in refs for d in (-w, 0, w)], refs, [t + w for t in refs]
        # "stream_ends": the first and the last record are a kept ch2 tag and a ch3 tag
        # in a kept window, and the first window reaches below tick 0
        return [5, 3 * w], [0, 3 * w], [3, 4 * w]

    # each case's kept ch2 indices
    KEPT = {
        "edge_inside": [0],
        "edge_outside": [],
        "no_ch2": [],
        "no_ch3": [],
        "equal_ticks": [0, 1, 2, 3, 4],
        "inner_ref_without_ch3": [0],
        "inner_ref_with_ch3": [0, 1],
        "touching": [0, 1, 2],
        "stream_ends": [0, 1],
    }

    @pytest.mark.parametrize("case", list(KEPT))
    def test_edge_cases_match_the_loop(self, case):
        w = self.W
        stream = stream_from_ticks(*self.gate_case(case, w))
        t2, t3 = stream.channel_ticks(2), stream.channel_ticks(3)
        kept = _gate(t2, t3, w).tolist()
        assert kept == gate_loop(t2, t3, w) == self.KEPT[case]

    @pytest.mark.parametrize("case", list(KEPT))
    def test_gated_edge_cases_keep_the_histogram(self, case):
        # the gated stream drops records, yet the histogram sees the same pairs
        stream = stream_from_ticks(*self.gate_case(case, self.W))
        gated = gate_stream(stream, self.W)
        h, g = (build_threefold_histogram(s, SMALL) for s in (stream, gated))
        assert as_dict(g) == as_dict(h) == brute_force_histogram(stream, SMALL)
        if case == "inner_ref_without_ch3":  # its window's right part is outside the first
            assert len(gated) < len(stream) and g.total_counts > 0
        if case == "stream_ends":
            assert len(gated) == len(stream)
            assert gated.channels[0] == 2 and gated.channels[-1] == 3

    def test_random_streams_match_the_loop(self):
        rng = np.random.default_rng(606)
        w = self.W
        for trial in range(20):
            # sparse to dense: few to most ch2 tags have a ch3 tag in their window
            stream = random_stream(rng, int(rng.integers(0, 200)), int(rng.integers(1, 40)) * w)
            t2, t3 = stream.channel_ticks(2), stream.channel_ticks(3)
            assert _gate(t2, t3, w).tolist() == gate_loop(t2, t3, w), trial
            gated = gate_stream(stream, w)
            h, g = (build_threefold_histogram(s, SMALL) for s in (stream, gated))
            assert as_dict(g) == as_dict(h), trial


class TestMergeBins:
    def test_identity(self):
        rng = np.random.default_rng(1)
        h = build_threefold_histogram(random_stream(rng, 400, 1000), SMALL)
        m = merge_bins(h, 1)
        assert as_dict(m) == as_dict(h)

    def test_sixteen_fold_width(self):
        cfg = BinningConfig()
        stream = stream_from_ticks(ch1=[1000], ch2=[1000], ch3=[1000])
        h = build_threefold_histogram(stream, cfg)
        m = merge_bins(h, 16)
        assert m.bin_width_s == pytest.approx(1.317e-9, rel=1e-12)
        assert m.n_half == 228

    @pytest.mark.parametrize("factor", list(range(1, 33)))
    def test_count_conservation(self, factor):
        rng = np.random.default_rng(factor)
        h = build_threefold_histogram(random_stream(rng, 500, 1200), SMALL)
        m = merge_bins(h, factor)
        assert m.total_counts == h.total_counts

    @pytest.mark.parametrize("factor", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_half", [6, 7, 9, 10])
    def test_matches_block_sum_oracle(self, factor, n_half):
        # n_half values not of the form k * factor + half leave ragged edge blocks
        rng = np.random.default_rng(100 * factor + n_half)
        n = int(rng.integers(1, 300))
        i, j = rng.integers(-n_half, n_half + 1, (2, n))
        h = histogram_from_entries(TICK, n_half, i, j, 3)
        m = merge_bins(h, factor)
        n_half_m, expected = block_sum_oracle(h, factor)
        assert m.n_half == n_half_m
        assert as_dict(m) == expected
        assert m.bin_width_s == pytest.approx(TICK * factor, rel=1e-12)
        assert m.total_reference_events == 3

    @pytest.mark.parametrize("chunk", [7, 1 << 16])
    @pytest.mark.parametrize("factor", [1, 2, 5, 16])
    def test_exact_on_hand_built_counts(self, monkeypatch, factor, chunk):
        # fine bins holding 0, 1 and more counts, one of them 2**53 + 1, which a
        # float64 sum rounds; a bin holding 0 must add 0 to its merged bin; a
        # chunk of 7 fine bins makes merged bins collect over many chunks
        monkeypatch.setattr(analysis, "_BIN_CHUNK", chunk)
        rng = np.random.default_rng(70 + factor)
        n_half = 40
        keys = np.sort(rng.choice((2 * n_half + 1) ** 2, 2000, replace=False)).astype(np.int32)
        values = rng.choice([0, 0, 1, 1, 1, 2, 3, 70], len(keys)).astype(np.int64)
        values[1000] = 2**53 + 1
        h = Coincidence2DHistogram(TICK, n_half, keys, values, 5)
        m = merge_bins(h, factor)
        n_half_m, expected = block_sum_oracle(h, factor)
        assert m.n_half == n_half_m
        assert {k: c for k, c in as_dict(m).items() if c} == expected
        assert m.total_counts == h.total_counts == sum(expected.values())
        assert m.total_reference_events == 5

    @pytest.mark.parametrize("n_bins", [0, 1, 300, 3000])
    def test_few_and_many_fine_bins_merge_alike(self, n_bins):
        # the merged grid holds 51**2 bins: up to 325 fine bins are summed per merged
        # key they reach, more on the whole grid; either way the keys are int64 and a
        # merged bin whose fine bins all hold 0 is dropped
        rng = np.random.default_rng(n_bins)
        n_half, factor = 100, 4
        keys = np.sort(rng.choice((2 * n_half + 1) ** 2, n_bins, replace=False)).astype(np.int32)
        values = rng.choice([0, 0, 1, 2, 70], n_bins).astype(np.int64)
        values[::7] = 2**53 + 1  # a float64 sum would round it
        h = Coincidence2DHistogram(TICK, n_half, keys, values, 5)
        m = merge_bins(h, factor)
        n_half_m, expected = block_sum_oracle(h, factor)
        assert m.n_half == n_half_m == 25
        assert as_dict(m) == expected
        assert m.keys.dtype == np.int64 and m.values.dtype == np.int64

    def test_bad_factor(self):
        rng = np.random.default_rng(2)
        h = build_threefold_histogram(random_stream(rng, 50, 500), SMALL)
        with pytest.raises(ValueError):
            merge_bins(h, 0)

    def test_block_alignment_keeps_center(self):
        # a fine count at tick d lands in merged bin round(d / factor)
        stream = stream_from_ticks(ch1=[107], ch2=[100], ch3=[93])
        h = build_threefold_histogram(stream, SMALL)
        m = merge_bins(h, 4)
        assert as_dict(m) == {(2, -2): 1}


class TestCentralPeak:
    def test_single_nonzero_bin(self):
        h = histogram_from_entries(TICK, 10, [3], [-2], 1)
        peak = locate_central_peak(h, search_radius=3)
        assert (peak.i, peak.j, peak.count) == (3, -2, 1)

    def test_tie_breaks_toward_small_delay_then_lexicographic(self):
        h = histogram_from_entries(TICK, 10, [2, -1, 1], [2, 0, 0], 1)
        peak = locate_central_peak(h, search_radius=3)
        assert (peak.i, peak.j) == (-1, 0)

    def test_all_zero_region(self):
        h = histogram_from_entries(TICK, 10, [9], [9], 1)
        with pytest.raises(PeakNotFoundError):
            locate_central_peak(h, search_radius=3)

    def test_simulated_peak_near_configured_offset(self):
        cfg = boosted_config(3_000_000, seed=9, jitter_s=150e-12)
        stream = simulate_run(cfg)
        fine = build_threefold_histogram(stream, BinningConfig())
        merged = merge_bins(fine, 16)
        peak = locate_central_peak(merged, 3)
        merged_w = 16 * TICK
        assert abs(peak.delay_i_s - cfg.peak_offset_s) <= merged_w
        assert abs(peak.delay_j_s - cfg.peak_offset_s) <= merged_w


class TestMemoryBound:
    def test_histogram_and_merge_peaks_follow_the_kept_arrays(self):
        """Traced peaks of build_threefold_histogram and merge_bins on a W3-shaped stream.

        NumPy reports its data buffers to tracemalloc, so the traced peak is the
        sum of the arrays alive at once.  With P pairs, B non-empty fine bins
        (int32 keys and offsets on the default grid), N2 and N3 tags on
        channels 2 and 3, K references with a channel-3 tag in their window and
        2**16-element chunks:

        histogram, the largest of four stages, with S1 and S3 the channel-1 and
        channel-3 records summed over the kept windows (a record two windows
        share counts twice):
        - the gate holds the channel-2 and channel-3 copies (8 B per tag) and
          _gate's temporaries, at most five int64 arrays per reference
          (40 B per N2);
        - the per-window read holds six int64 arrays per kept reference (window
          start, first record, record count, its prefix sum, channel-1 and
          channel-3 counts: 48 B per K) and the offsets read, in their chunks
          and then joined (8 B per S1 + S3), plus a chunk's temporaries: per
          record its int64 index, tick and repeated window start, at most
          24 B x 2**16;
        - before the keys are filled, the offsets (4 B per S1 + S3), the counts
          per window with the channel-1 starts and their cumsum (32 B per K),
          the keys (4 P) and one entry per channel-3 offset (n1, pair offsets,
          base: 24 B per S3); the key fill holds less than that without the
          counts, plus a chunk's temporaries (pair index and arange,
          16 B x 2**16);
        - the sort and run count hold the P keys (4 B) and the run-head mask
          (1 B per pair), then per bin the run starts, turned into the int64
          counts in place (8 B), and the unique keys (4 B): 5 P + 12 B, plus
          the sort's few KB of workspace and the array headers, under 2**16 B.

        merge: the fine histogram (12 B per bin) stays; the merged grid G of
        int64 sums (8 B x 457**2, 1.67 MB), a chunk's divmod outputs with an
        intp copy of the merged key (16 B x 2**16) and the non-empty merged
        keys and sums (at most 2 G): 12 B + 3 G + 16 B x 2**16.
        """
        rng = np.random.default_rng(2024)
        cfg = BinningConfig()
        span = 2**31  # 2e6 / 3e5 / 4e5 tags, W3's density and a little denser
        ticks = np.concatenate([rng.integers(0, span, n) for n in (2_000_000, 300_000, 400_000)])
        channels = np.repeat(np.arange(1, 4, dtype=np.uint8), (2_000_000, 300_000, 400_000))
        order = np.argsort(ticks, kind="stable")
        stream = TimeTagStream(TICK, channels[order], ticks[order])
        del ticks, channels, order

        w = cfg.n_half_fine
        t1, refs, t3 = (stream.channel_ticks(c) for c in (1, 2, 3))
        count1, count3 = (
            np.searchsorted(t, refs + w, "right") - np.searchsorted(t, refs - w, "left")
            for t in (t1, t3)
        )
        kept = count3 > 0
        n_kept = np.count_nonzero(kept)
        # the records and tags summed over the kept windows; the windows overlap,
        # so they hold more records than their union
        lo, hi = (
            np.searchsorted(stream.timestamps, refs[kept] + d, side)
            for d, side in ((-w, "left"), (w, "right"))
        )
        read, read1, read3 = (int(c.sum()) for c in (hi - lo, count1[kept], count3[kept]))
        assert len(gate_stream(stream, w)) < read < len(stream) and read1 < len(t1)
        gate_stage = 8 * len(t3) + 48 * len(refs)
        read_stage = 48 * n_kept + 8 * (read1 + read3) + 24 * 2**16
        table_stage = 4 * (read1 + read3) + 32 * n_kept + 24 * read3 + 16 * 2**16
        del t1, refs, t3, count1, count3, kept, lo, hi

        tracemalloc.start()
        try:
            h = build_threefold_histogram(stream, cfg)
            hist_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            m = merge_bins(h, cfg.merge_factor)
            merge_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        pairs, bins = h.total_counts, len(h.keys)
        assert pairs >= 2**21 and h.keys.dtype == np.int32 and m.total_counts == pairs
        stages = max(gate_stage, read_stage, table_stage + 4 * pairs, 5 * pairs + 12 * bins)
        assert hist_peak / pairs <= (stages + 2**16) / pairs
        grid = 8 * (2 * cfg.n_half_merged + 1) ** 2
        assert merge_peak / bins <= (12 * bins + 3 * grid + 16 * 2**16) / bins

    def test_sparse_windows_leave_channel_one_uncopied(self):
        """Traced peak of build_threefold_histogram on a physical-shaped stream.

        2e6 channel-1 singles, 3e4 references and 3e4 channel-3 tags spread at
        the density of a 1e9-pulse baseline run, plus 20 planted triples: the
        union of the kept windows holds a few hundred records, and channel 1 is
        read from those only.  The peak stays below the 8 B per channel-1 tag
        that a copy of channel 1 alone would take.
        """
        rng = np.random.default_rng(2025)
        span = 135 * 10**9
        n = (2_000_000, 30_000, 30_000)
        planted = rng.integers(0, span, 20)
        ticks = np.concatenate([rng.integers(0, span, k) for k in n] + [planted] * 3)
        channels = np.repeat(np.tile(np.arange(1, 4, dtype=np.uint8), 2), n + (20,) * 3)
        order = np.lexsort((channels, ticks))
        stream = TimeTagStream(TICK, channels[order], ticks[order])
        del ticks, channels, order
        cfg = BinningConfig()

        tracemalloc.start()
        try:
            h = build_threefold_histogram(stream, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

        center = h.values[h.keys == h.n_half * h.n_axis_bins + h.n_half]
        assert h.total_counts >= 20 and center.sum() >= 20
        assert peak < 8 * n[0]


def lattice_histogram(cfg, peak_count, lattice_value, n_half=None):
    """Merged-grid histogram with a peak at zero and uniform neighbor bins."""
    n_half = cfg.n_half_merged if n_half is None else n_half
    r = cfg.rep_period_bins
    i_idx, j_idx, counts = [0], [0], [peak_count]
    kmax = n_half // r
    for a in range(-kmax, kmax + 1):
        for b in range(-kmax, kmax + 1):
            if (a, b) != (0, 0):
                i_idx.append(a * r)
                j_idx.append(b * r)
                counts.append(lattice_value)
    i_entries, j_entries = np.repeat(i_idx, counts), np.repeat(j_idx, counts)
    return histogram_from_entries(cfg.merged_bin_s, n_half, i_entries, j_entries, 1)


class TestAccidentals:
    def test_default_lattice_has_48_bins(self):
        # +/- 3 pulse periods fit on each axis of the default grid
        cfg = BinningConfig()
        h = histogram_from_entries(cfg.merged_bin_s, cfg.n_half_merged, [0], [0], 1)
        peak = PeakLocation(0, 0, 1, 0.0, 0.0)
        est = accidental_mean(h, peak, cfg)
        assert est.n_bins == 48
        assert est.mean == 0.0

    def test_uniform_lattice_value(self):
        cfg = BinningConfig()
        h = lattice_histogram(cfg, peak_count=40, lattice_value=7)
        peak = locate_central_peak(h, 3)
        est = accidental_mean(h, peak, cfg)
        assert est.mean == 7.0
        assert est.n_bins == 48

    def test_insufficient_bins(self, monkeypatch):
        cfg = BinningConfig(window_half_span_s=100e-9)  # only one pulse period fits
        h = histogram_from_entries(cfg.merged_bin_s, cfg.n_half_merged, [0], [0], 1)
        peak = PeakLocation(0, 0, 1, 0.0, 0.0)
        est = accidental_mean(h, peak, cfg)
        assert est.n_bins == 8
        monkeypatch.setattr(analysis, "_MIN_ACCIDENTAL_BINS", 20)
        with pytest.raises(InsufficientStatisticsError):
            accidental_mean(h, peak, cfg)

    def test_peak_outside_the_grid_refused(self):
        cfg = BinningConfig()
        h = histogram_from_entries(cfg.merged_bin_s, cfg.n_half_merged, [0], [0], 1)
        with pytest.raises(ValueError, match="outside the histogram grid"):
            accidental_mean(h, PeakLocation(cfg.n_half_merged + 1, 0, 1, 0.0, 0.0), cfg)

    def test_wide_window_counts_the_lattice_without_building_it(self):
        # a 1 ms window puts 19981 lattice rows and as many columns on the grid;
        # a square of all displacements would take gigabytes, a few arrays of one
        # int64 per row about a megabyte
        cfg = BinningConfig(window_half_span_s=1e-3)
        n, r = cfg.n_half_merged, cfg.rep_period_bins
        # two lattice bins and one bin beside the lattice
        h = histogram_from_entries(cfg.merged_bin_s, n, [0, r, 5 * r, 1], [0, -r, 2 * r, 0], 1)
        tracemalloc.start()
        try:
            est = accidental_mean(h, PeakLocation(0, 0, 1, 0.0, 0.0), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = 2 * (n // r) + 1
        assert rows == 19981 and est.n_bins == rows * rows - 1 == 399_240_360
        assert est.mean == 2 / est.n_bins
        assert peak < 100 * rows, peak

    @pytest.mark.parametrize("peak_ij", [(0, 0), (5, -7), (-40, 3), (228, -228)])
    @pytest.mark.parametrize("n_entries", [0, 3000])
    def test_matches_double_loop_reference(self, peak_ij, n_entries):
        # the per-bin loop the lattice lookup replaced; the same counts in the
        # same order give the same mean, bit for bit
        cfg = BinningConfig()
        n_half, r = cfg.n_half_merged, cfg.rep_period_bins
        rng = np.random.default_rng(61)
        # entries spread over the grid, plus a few on the lattice around the peak,
        # so that some lattice bins are filled and others are empty
        a, b = rng.integers(-4, 5, (2, n_entries // 100))
        i = np.concatenate([peak_ij[0] + a * r, rng.integers(-n_half, n_half + 1, n_entries)])
        j = np.concatenate([peak_ij[1] + b * r, rng.integers(-n_half, n_half + 1, n_entries)])
        on_grid = (np.abs(i) <= n_half) & (np.abs(j) <= n_half)
        h = histogram_from_entries(cfg.merged_bin_s, n_half, i[on_grid], j[on_grid], 1)
        counts = dict(zip(zip(h.i_idx.tolist(), h.j_idx.tolist()), h.values.tolist()))
        kmax = (n_half + max(map(abs, peak_ij))) // r + 1
        expected = []
        for a in range(-kmax, kmax + 1):
            for b in range(-kmax, kmax + 1):
                i, j = peak_ij[0] + a * r, peak_ij[1] + b * r
                if (a, b) != (0, 0) and abs(i) <= n_half and abs(j) <= n_half:
                    expected.append(counts.get((i, j), 0))
        est = accidental_mean(h, PeakLocation(*peak_ij, 0, 0.0, 0.0), cfg)
        assert est.n_bins == len(expected)
        assert est.mean == float(np.mean(expected))
        assert n_entries == 0 or est.mean > 0


class TestCar:
    def test_reference_values(self):
        est = car(33, 3.51, n_accidental_bins=41)
        assert est.value == pytest.approx(9.4, abs=0.05)
        # CAR * sqrt(1/33 + 1/(41 * 3.51)), frozen from direct evaluation
        assert est.error == pytest.approx(1.8147, abs=1e-3)
        assert abs(est.error - 1.9) <= 0.2 * 1.9

    def test_unity(self):
        assert car(7, 7.0, n_accidental_bins=48).value == pytest.approx(1.0)

    def test_zero_central(self):
        est = car(0, 2.0, n_accidental_bins=48)
        assert est.value == 0.0
        assert est.error == 0.0

    def test_zero_accidentals_lower_bound(self):
        est = car(10, 0.0, n_accidental_bins=48)
        assert est.is_lower_bound
        assert est.value == 480.0


class TestOccupancy:
    def test_empty_histogram(self):
        cfg = BinningConfig()
        h = histogram_from_entries(cfg.merged_bin_s, cfg.n_half_merged, [], [], 0)
        occ = occupancy_histogram(h)
        assert occ == {0: 457 * 457}

    def test_single_triple(self):
        cfg = BinningConfig()
        h = histogram_from_entries(cfg.merged_bin_s, cfg.n_half_merged, [0], [0], 1)
        occ = occupancy_histogram(h)
        assert occ == {0: 457 * 457 - 1, 1: 1}


class TestPoissonFit:
    def test_synthetic_noise_floor(self):
        rng = np.random.default_rng(4242)
        n_bins = 208849
        mean = 0.048
        for _ in range(3):
            sample = rng.poisson(mean, n_bins)
            values, freqs = np.unique(sample, return_counts=True)
            occ = dict(zip(values.tolist(), freqs.tolist()))
            fit = poisson_fit(occ, 10.0)
            se = math.sqrt(mean / n_bins)
            assert abs(fit.mean - mean) < 3 * se

    def test_all_zero(self):
        fit = poisson_fit({0: 100}, 10.0)
        assert fit.mean == 0.0

    def test_outlier_excluded(self):
        n = 208849
        fit = poisson_fit({0: n - 1, 33: 1}, 10.0)
        assert fit.mean == pytest.approx(0.0, abs=1e-9)
        assert 33 in fit.excluded_counts

    def test_empty_rejected(self):
        from tripletsim.errors import FitError

        with pytest.raises(FitError):
            poisson_fit({}, 10.0)
        with pytest.raises(FitError):
            poisson_fit({3: 0}, 10.0)


class TestScalarStatistics:
    def test_noise_tail_reference(self):
        p = poisson_pair_probability(0.048, 33)
        assert 3.3e-81 / 2 < p < 3.3e-81 * 2

    def test_noise_tail_trivial(self):
        assert poisson_pair_probability(0.7, 0) == pytest.approx(math.exp(-0.7), rel=1e-12)
        assert poisson_pair_probability(1.0, 1) == pytest.approx(math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("mean", [0.0, 0.048, 0.5, 3.0])
    @pytest.mark.parametrize("n", [0, 1, 5, 21, 33, 50])
    def test_pmf_consistency_with_pair_statistics(self, mean, n):
        # the log-space pmf against the direct product, exact at a zero mean
        a = poisson_pair_probability(mean, n)
        if mean == 0.0:
            assert a == (1.0 if n == 0 else 0.0)
        else:
            b = math.exp(-mean) * mean**n / math.factorial(n)
            assert abs(a - b) / b < 1e-12

    def test_snr_reference(self):
        assert snr(33, 0.048, n_bins=208849) == pytest.approx(687.5, rel=1e-12)
        assert snr(33, 0.048, n_bins=208849) > 680

    def test_snr_trivial(self):
        assert snr(5, 5.0, n_bins=1) == 1.0
        assert snr(0, 0.3, n_bins=1) == 0.0

    def test_snr_zero_noise(self):
        assert snr(10, 0.0, n_bins=208849) == 10 * 208849

    @pytest.mark.parametrize(
        "central, n_pulses, value",
        [(33, int(11.5 * 3600 * 10e6), 7.971e-11), (0, 100, 0.0), (100, 100, 1.0)],
    )
    def test_success_probability(self, central, n_pulses, value):
        h = lattice_histogram(BinningConfig(), central, 1)
        report = analyze_merged(h, AnalyzeOptions(n_pulses=n_pulses))
        assert report.central_count == central
        assert report.success_probability == central / n_pulses
        assert report.success_probability == pytest.approx(value, rel=1e-3)
        assert report.success_error == pytest.approx(math.sqrt(central) / n_pulses, rel=1e-12)

    @pytest.mark.parametrize("n_pulses", [0, -1, None])
    def test_pulse_count_must_be_positive(self, n_pulses):
        h = lattice_histogram(BinningConfig(), 33, 1)
        with pytest.raises(ValueError, match="n_pulses"):
            analyze_merged(h, AnalyzeOptions(n_pulses=n_pulses))


class TestAnalyzeStream:
    @pytest.mark.parametrize("n_pulses", [0, -1, None])
    def test_pulse_count_refused_before_the_histogram(self, monkeypatch, n_pulses):
        # a non-positive count is refused by AnalyzeOptions, a missing one by
        # analyze_stream; neither reaches the histogram
        def histogram(stream, cfg):
            raise AssertionError("histogram built without a positive pulse count")

        monkeypatch.setattr(analysis, "build_threefold_histogram", histogram)
        stream = stream_from_ticks(ch1=[100], ch2=[100], ch3=[100])
        with pytest.raises(ValueError, match="n_pulses"):
            analyze_stream(stream, AnalyzeOptions(n_pulses=n_pulses))

    def test_empty_stream_report(self):
        stream = TimeTagStream(TICK, np.empty(0, np.uint8), np.empty(0, np.int64))
        report = analyze_stream(stream, AnalyzeOptions(n_pulses=1000))
        assert report.central_count == 0
        assert report.car_is_lower_bound
        assert report.success_probability == 0.0
        assert report.occupancy == {0: 208849}

    def test_closed_loop_three_configs(self):
        # simulated success probability against the analytic central-count
        # expectation, three configs with >= 100 expected triples
        bincfg = BinningConfig()
        cases = [
            boosted_config(10_000_000, seed=111),
            boosted_config(20_000_000, seed=222, jitter_s=150e-12),
            boosted_config(10_000_000, seed=333, pdc2=0.5),
        ]
        for cfg in cases:
            stream = simulate_run(cfg, n_threads=2)
            rates = expected_rates(cfg, merged_bin_s=bincfg.merged_bin_s)
            assert rates.expected_central_count >= 100
            report = analyze_stream(stream, AnalyzeOptions(bincfg, n_pulses=cfg.n_pulses))
            expected_p = rates.expected_central_count / cfg.n_pulses
            sigma_p = math.sqrt(rates.expected_central_count) / cfg.n_pulses
            assert abs(report.success_probability - expected_p) < 4 * sigma_p

    def test_closed_loop_with_leakage(self):
        # parasitic photons on the secondary arms land in the central bin at
        # the pulse times; the expectation must carry their cross terms
        from conftest import ARM_TRANSMISSION, baseline_source, make_arms
        from tripletsim.simulate import SimConfig

        bincfg = BinningConfig()
        cfg = SimConfig(
            source=baseline_source(pdc2=2.7e-1),
            arms=make_arms(jitter=(30e-12,) * 3, leakage=(0.0, 0.2, 0.2)),
            n_pulses=20_000_000,
            rng_seed=41,
        )
        stream = simulate_run(cfg, n_threads=2)
        rates = expected_rates(cfg, merged_bin_s=bincfg.merged_bin_s)
        report = analyze_stream(stream, AnalyzeOptions(bincfg, n_pulses=cfg.n_pulses))
        sigma = math.sqrt(rates.expected_central_count)
        assert abs(report.central_count - rates.expected_central_count) < 4 * sigma
        # the leakage terms are a ~30% effect here, so dropping them would
        # miss by far more than the 4 sigma band
        no_leak = SimConfig(
            source=cfg.source,
            arms=make_arms(jitter=(30e-12,) * 3),
            n_pulses=cfg.n_pulses,
            rng_seed=cfg.rng_seed,
        )
        bare = expected_rates(no_leak, merged_bin_s=bincfg.merged_bin_s)
        assert rates.expected_central_count > bare.expected_central_count + 8 * sigma

    def test_closed_loop_with_pileup_collapse(self):
        # dead time below the pulse period collapses same-pulse multiplicity;
        # at mean pairs ~0.5 the collapsed and product expectations differ by
        # many sigma, so this pins the collapse branch
        from conftest import baseline_source, make_arms
        from tripletsim.simulate import SimConfig

        bincfg = BinningConfig()
        cfg = SimConfig(
            source=baseline_source(pdc2=2.7e-1, pump_w=50e-6),
            arms=make_arms(jitter=(30e-12,) * 3, dead_times=(5e-9,) * 3),
            n_pulses=20_000_000,
            rng_seed=51,
        )
        stream = simulate_run(cfg, n_threads=2)
        rates = expected_rates(cfg, merged_bin_s=bincfg.merged_bin_s)
        report = analyze_stream(stream, AnalyzeOptions(bincfg, n_pulses=cfg.n_pulses))
        sigma = math.sqrt(rates.expected_central_count)
        assert abs(report.central_count - rates.expected_central_count) < 4 * sigma

    def test_closed_loop_at_unit_dead_time_load(self):
        # the W2-boosted source with a 1e5 Hz dark rate on channel 2, so that its
        # incident rate times its dead time is about 1: the live fraction 1 - R tau of
        # the detected rate R predicts the mean central count (1 / (1 + R tau) gives
        # 16.8, a third too high); the mean of 100 seeds has about a tenth of the
        # Poisson error of one
        tree = load_config(Path(__file__).resolve().parent.parent / "configs" / "baseline.json")
        tree["simulate"]["source"]["pdc2_pairs_per_pump_photon"] = 0.05
        tree["simulate"]["n_pulses"] = 2_000_000
        tree["simulate"]["arms"]["s2"]["detector"]["dark_rate_hz"] = 1e5
        cfg = parse_simulate(tree["simulate"])
        opts = replace(parse_analyze(tree["analyze"]), n_pulses=cfg.n_pulses)
        expected = expected_rates(cfg, merged_bin_s=opts.binning.merged_bin_s).expected_central_count
        central = [
            analyze_stream(simulate_run(replace(cfg, rng_seed=seed)), opts).central_count
            for seed in range(100)
        ]
        assert abs(np.mean(central) - expected) <= 4 * math.sqrt(expected / len(central))

    def test_car_decreases_with_mean_pair_number(self):
        # higher-order emission grows accidentals faster than the peak
        from tripletsim.simulate import SimConfig, SourceParams
        from conftest import make_arms

        bincfg = BinningConfig()
        cars = []
        for mu_target in (0.05, 1.0):
            pump = 10e-6 * mu_target / 0.10846507556427523
            cfg = SimConfig(
                source=SourceParams(
                    pump, 532e-9, 10e6, 8.1e-8, 0.3, injection_efficiency=0.5
                ),
                arms=make_arms(jitter=(150e-12,) * 3, dark_rates=(100.0,) * 3),
                n_pulses=2_000_000,
                rng_seed=4,
            )
            stream = simulate_run(cfg, n_threads=2)
            report = analyze_stream(stream, AnalyzeOptions(bincfg, n_pulses=cfg.n_pulses))
            cars.append(report.car)
        assert cars[0] > cars[1]
