"""Three-fold coincidence analysis of time-tag streams.

Channel-2 detections (the rarest, so the cheapest reference) pseudo-herald
the other two channels: for every channel-2 tag, each channel-1 tag within
the window contributes a relative delay tau1 - tau2 and each channel-3 tag a
delay tau3 - tau2; every (channel-1, channel-3) pair increments exactly one
bin of a two-dimensional histogram.  Merging the tagger ticks sixteen-fold
absorbs the joint timing jitter.  The central bin holds the time-correlated
triples; bins displaced by multiples of the pulse period hold accidentals;
the occupancy statistics of all bins separate both from Poissonian noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .constants import DEFAULT_TICK_S
from .errors import InsufficientStatisticsError, PeakNotFoundError, FitError
from .simulate import CHANNEL_I1, CHANNEL_I2, CHANNEL_S2, TimeTagStream, _gate

__all__ = [
    "AccidentalEstimate",
    "AnalyzeOptions",
    "BinningConfig",
    "CarEstimate",
    "Coincidence2DHistogram",
    "PeakLocation",
    "PoissonFit",
    "TripletReport",
    "accidental_mean",
    "analyze_merged",
    "analyze_stream",
    "build_threefold_histogram",
    "car",
    "locate_central_peak",
    "merge_bins",
    "occupancy_histogram",
    "poisson_fit",
    "poisson_pair_probability",
    "snr",
]


@dataclass(frozen=True)
class BinningConfig:
    """Geometry of the two-dimensional coincidence histogram."""

    base_bin_s: float = DEFAULT_TICK_S
    merge_factor: int = 16
    window_half_span_s: float = 300e-9
    rep_period_s: float = 100e-9

    def __post_init__(self):
        if self.merge_factor < 1:
            raise ValueError("merge_factor must be >= 1")
        for name in ("base_bin_s", "window_half_span_s", "rep_period_s"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("window_half_span_s", "rep_period_s"):  # each rounded to merged bins
            if getattr(self, name) / self.merged_bin_s == math.inf:
                raise ValueError(f"{name} spans more merged bins than a float can count")
        r = self.rep_period_bins
        if r < 1:
            raise ValueError("rep_period_s must exceed one merged bin")
        drift = abs(r * self.merged_bin_s - self.rep_period_s) / self.rep_period_s
        if drift > 0.01:
            raise ValueError(
                f"rep_period_s is {drift:.1%} away from an integer number of merged bins"
            )
        if self.n_half_merged < 1:
            raise ValueError("window_half_span_s must cover at least one merged bin")
        if (2 * self.n_half_fine + 1) ** 2 >= 2**63:
            raise ValueError("window_half_span_s spans too many ticks for int64 flat bin keys")

    @property
    def merged_bin_s(self) -> float:
        return self.base_bin_s * self.merge_factor

    @property
    def n_half_merged(self) -> int:
        """Merged bins on each side of zero delay (grid is 2n+1 per axis)."""
        return round(self.window_half_span_s / self.merged_bin_s)

    @property
    def n_half_fine(self) -> int:
        """Ticks on each side of zero delay in the fine histogram, and its gate's half-width.

        Merged bin k sums the f fine bins from k f - f//2 on (f the merge
        factor).  The fine window is symmetric and its merged image stays
        inside the merged grid, so for even f the negative edge bin gives up
        its single outermost tick.
        """
        f = self.merge_factor
        return self.n_half_merged * f + (f - 1) // 2

    @property
    def rep_period_bins(self) -> int:
        return round(self.rep_period_s / self.merged_bin_s)


@dataclass(frozen=True)
class AnalyzeOptions:
    """Settings of one analysis: histogram geometry, peak search, noise fit and pulse count.

    n_pulses divides the central count into the success probability; None
    means not yet known, and the analysis refuses to run until it is.
    """

    binning: BinningConfig = BinningConfig()
    peak_search_radius: int = 3
    fit_exclude_sigma: float = 10.0
    n_pulses: int | None = None

    def __post_init__(self):
        if self.peak_search_radius < 0:
            raise ValueError(f"peak_search_radius must be >= 0, got {self.peak_search_radius}")
        if not self.fit_exclude_sigma > 0:
            raise ValueError(f"fit_exclude_sigma must be > 0, got {self.fit_exclude_sigma}")
        if self.n_pulses is not None and self.n_pulses < 1:
            raise ValueError(f"n_pulses must be >= 1, got {self.n_pulses}")


@dataclass(frozen=True, eq=False)
class Coincidence2DHistogram:
    """Sparse 2-D histogram of (tau1 - tau2, tau3 - tau2) delays.

    Bin k covers delays [(k - 1/2) w, (k + 1/2) w) with w = bin_width_s, so
    bin 0 is centered on zero delay.  Only non-empty bins are stored: keys holds
    their strictly ascending flat keys (i + n_half) * (2 n_half + 1) + (j + n_half)
    and values their counts, so the fine tick-resolution grid stays sparse;
    i_idx and j_idx derive from the keys.
    """

    bin_width_s: float
    n_half: int
    keys: np.ndarray
    values: np.ndarray
    total_reference_events: int

    @property
    def i_idx(self) -> np.ndarray:
        return (self.keys // self.n_axis_bins).astype(np.int64) - self.n_half

    @property
    def j_idx(self) -> np.ndarray:
        return (self.keys % self.n_axis_bins).astype(np.int64) - self.n_half

    @property
    def n_axis_bins(self) -> int:
        return 2 * self.n_half + 1

    @property
    def n_bins_total(self) -> int:
        return self.n_axis_bins**2

    @property
    def total_counts(self) -> int:
        return int(self.values.sum())


# Largest relative mismatch between a stream's tick and the analysis base bin
_TICK_RTOL = 1e-4
# Pairs expanded at once.  Each costs about 16 bytes of transient arrays on top of
# the 4 or 8 bytes of its key, so a chunk's temporaries (about 1 MB) stay cache-sized.
_PAIR_CHUNK = 1 << 16
# Fine bins merged at once, for the same reason.
_BIN_CHUNK = 1 << 16


def _chunks(before):
    """(a, b) item ranges holding at most _PAIR_CHUNK units (or one item) each.

    before[k] is the number of units ahead of item k, with the total appended.
    """
    a = 0
    while a < len(before) - 1:
        b = int(np.searchsorted(before, before[a] + _PAIR_CHUNK, "right")) - 1
        b = max(b, a + 1)
        yield a, b
        a = b


def build_threefold_histogram(stream: TimeTagStream, cfg: BinningConfig) -> Coincidence2DHistogram:
    """Fine (one bin per tick) 2-D histogram around the channel-2 references.

    A reference's window reaches cfg.n_half_fine ticks to either side.
    simulate._gate keeps the references with a channel-3 tag in their window;
    total_reference_events counts all references, kept or not.  Channels 1
    and 3 are read from the stream's records window by window, a record once
    per kept window that holds it, in chunks of at most _PAIR_CHUNK records
    (or one window's), as tick offsets u from the window start; each window's
    tags follow those of the window before.  The pairs' flat bin keys
    u1 * side + u3 are expanded in chunks of at most _PAIR_CHUNK pairs (or
    one channel-3 tag's) into one array, sorted once in place: each run of
    equal keys is one bin.
    """
    if abs(stream.resolution_s - cfg.base_bin_s) > _TICK_RTOL * cfg.base_bin_s:
        raise ValueError(
            f"stream resolution {stream.resolution_s} does not match the analysis "
            f"base bin {cfg.base_bin_s}"
        )
    refs, t3 = (stream.channel_ticks(c) for c in (CHANNEL_S2, CHANNEL_I2))
    n_refs = len(refs)
    w = cfg.n_half_fine
    side = 2 * w + 1
    dtype = np.int32 if side * side < 2**31 else np.int64  # of the offsets and keys

    win = refs[_gate(refs, t3, w)] - w  # the kept windows' starts
    del refs, t3
    # window k holds the n[k] records from lo[k] on, its own reference among them, so
    # n[k] >= 1: reduceat gives an empty segment its first element, not 0
    ts = stream.timestamps
    lo = np.searchsorted(ts, win, "left")
    n = np.searchsorted(ts, win + 2 * w, "right") - lo
    before = np.concatenate(([0], np.cumsum(n)))
    count1, count3 = np.empty((2, len(n)), dtype=np.int64)

    def read_windows(a, b):
        """Channel-1 and channel-3 offsets of windows a to b, window by window; counts them."""
        r = np.repeat(lo[a:b] - before[a:b], n[a:b])
        r += np.arange(before[a], before[b])
        u = np.take(ts, r)
        u -= np.repeat(win[a:b], n[a:b])
        u = u.astype(dtype, copy=False)  # in [0, 2 w]
        ch = np.take(stream.channels, r)
        is1, is3 = ch == CHANNEL_I1, ch == CHANNEL_I2
        for count, is_c in ((count1, is1), (count3, is3)):
            count[a:b] = np.add.reduceat(is_c, before[a:b] - before[a], dtype=np.int64)
        return np.compress(is1, u), np.compress(is3, u)

    read = [read_windows(a, b) for a, b in _chunks(before)] or [(np.empty(0, dtype),) * 2]
    u1, u3 = (np.concatenate(parts) for parts in zip(*read))
    del win, lo, n, before, read
    # one entry per channel-3 tag; pair k (over all entries) of entry e is channel-1
    # tag base[e] + k with channel-3 tag e
    n1 = np.repeat(count1, count3)
    pairs_before = np.concatenate(([0], np.cumsum(n1)))
    keys = np.empty(pairs_before[-1], dtype=dtype)
    base = np.repeat(np.cumsum(count1) - count1, count3)
    base -= pairs_before[:-1]
    del count1, count3

    def fill_keys(a, b):
        n, chunk = n1[a:b], keys[pairs_before[a] : pairs_before[b]]
        p = np.repeat(base[a:b], n)
        p += np.arange(pairs_before[a], pairs_before[b])
        # the indices are in range; "clip" lets take write to chunk without a buffer
        np.take(u1, p, out=chunk, mode="clip")
        chunk *= side  # u1 * side + u3 < side**2, so fits the keys
        chunk += np.repeat(u3[a:b], n)

    for a, b in _chunks(pairs_before):
        fill_keys(a, b)
    del u1, u3, n1, pairs_before, base  # before the sort
    keys.sort()
    # a run starts where the key changes, and at the first key if there is one
    head = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    counts = np.flatnonzero(head)  # the run starts, turned into run lengths in place
    np.subtract(counts[1:], counts[:-1], out=counts[:-1])
    counts[-1:] = len(keys) - counts[-1:]
    return Coincidence2DHistogram(
        cfg.base_bin_s, w, keys[head], counts, total_reference_events=n_refs
    )


def merge_bins(h: Coincidence2DHistogram, factor: int) -> Coincidence2DHistogram:
    """Block-sum the histogram so factor fine bins form one merged bin.

    Merged bin k collects the factor fine bins centered on k * factor, so the
    zero bin stays centered on zero delay.  The merged grid is extended to
    cover every fine bin, which conserves total counts exactly for any factor
    (ragged edges are padded with implicit zero bins).  The sums are exact
    int64.  Fewer fine bins than an eighth of the merged grid are summed per
    merged key they reach; more are summed on the whole grid, over chunks of
    at most _BIN_CHUNK fine bins.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return h
    half = factor // 2
    n_half_m = (h.n_half + half) // factor
    side = 2 * n_half_m + 1
    # fine offset index u = i + n_half falls in merged offset index (u + shift) // factor
    shift = n_half_m * factor + half - h.n_half

    def merged_keys(a, b):
        i, j = np.divmod(h.keys[a:b], h.n_axis_bins)
        for u in (i, j):  # in place, to the merged offset index
            u += shift
            u //= factor
        i *= side
        i += j
        return i

    if len(h.keys) * 8 < side * side:
        # measured crossover near one fine bin per 6-7 merged bins (random fine bins on a
        # 457^2 merged grid: per-key 1.5 ms vs grid 1.6 ms at 26,000, 2.3 vs 2.1 ms at
        # 40,000); at W3-dense's 2.2e6 fine bins per-key takes 144 ms, the grid 22 ms
        reached, which = np.unique(merged_keys(0, len(h.keys)), return_inverse=True)
        sums = np.zeros(len(reached), dtype=np.int64)
        np.add.at(sums, which, h.values)
    else:
        reached, sums = None, np.zeros(side * side, dtype=np.int64)
        for a in range(0, len(h.keys), _BIN_CHUNK):
            np.add.at(sums, merged_keys(a, a + _BIN_CHUNK), h.values[a : a + _BIN_CHUNK])
    nonempty = np.flatnonzero(sums)
    keys = nonempty if reached is None else reached[nonempty].astype(np.int64)
    return Coincidence2DHistogram(
        h.bin_width_s * factor, n_half_m, keys, sums[nonempty], h.total_reference_events
    )


@dataclass(frozen=True)
class PeakLocation:
    i: int
    j: int
    count: int
    delay_i_s: float
    delay_j_s: float


def locate_central_peak(h: Coincidence2DHistogram, search_radius: int) -> PeakLocation:
    """Highest bin inside the search square around zero delay.

    Ties resolve toward the smallest delay magnitude, then lexicographically.
    """
    r, i_idx, j_idx = search_radius, h.i_idx, h.j_idx  # each property call decodes the keys
    mask = (np.abs(i_idx) <= r) & (np.abs(j_idx) <= r) & (h.values > 0)
    if not np.any(mask):
        raise PeakNotFoundError(
            f"no counts within {r} bins of zero delay"
        )
    cand = sorted(
        zip(h.values[mask], i_idx[mask], j_idx[mask]),
        key=lambda t: (-t[0], t[1] ** 2 + t[2] ** 2, (t[1], t[2])),
    )
    count, i, j = cand[0]
    return PeakLocation(
        i=int(i),
        j=int(j),
        count=int(count),
        delay_i_s=int(i) * h.bin_width_s,
        delay_j_s=int(j) * h.bin_width_s,
    )


@dataclass(frozen=True)
class AccidentalEstimate:
    mean: float
    n_bins: int


# Neighbor-pulse bins accidental_mean needs at least
_MIN_ACCIDENTAL_BINS = 5


def accidental_mean(
    h: Coincidence2DHistogram, peak: PeakLocation, cfg: BinningConfig
) -> AccidentalEstimate:
    """Mean count of the neighbor-pulse bins around the peak.

    Samples every in-grid bin displaced from the peak by nonzero integer
    multiples of the pulse period along either axis (axial, diagonal and
    mixed displacements), where accidental coincidences involving neighboring
    pulses accumulate.  The bins are counted in closed form, and only the
    stored bins of the lattice rows are read, so the cost follows the rows
    and their non-empty bins, not the lattice's area.
    """
    if abs(h.bin_width_s - cfg.merged_bin_s) > 1e-6 * cfg.merged_bin_s:
        raise ValueError("histogram is not on the merged grid of this config")
    n, r, side = h.n_half, cfg.rep_period_bins, h.n_axis_bins
    if max(abs(peak.i), abs(peak.j)) > n:
        raise ValueError(f"peak ({peak.i}, {peak.j}) lies outside the histogram grid")
    # lattice rows i = peak.i + a r inside the grid, and the count of lattice columns there
    rows = peak.i + r * np.arange(-((n + peak.i) // r), (n - peak.i) // r + 1)
    n_bins = len(rows) * ((n - peak.j) // r + (n + peak.j) // r + 1) - 1  # less the peak
    if n_bins < _MIN_ACCIDENTAL_BINS:
        raise InsufficientStatisticsError(
            f"only {n_bins} neighbor-pulse bins inside the window (need {_MIN_ACCIDENTAL_BINS})"
        )
    # the stored bins of the rows: row k holds the count[k] keys from lo[k] on
    lo = np.searchsorted(h.keys, (rows + n) * side)
    count = np.searchsorted(h.keys, (rows + n + 1) * side) - lo
    pos = np.repeat(lo - (np.cumsum(count) - count), count)
    pos += np.arange(len(pos))
    keys = h.keys[pos]
    on = (keys % side - n - peak.j) % r == 0  # column j on the lattice
    on &= keys != (peak.i + n) * side + peak.j + n
    # an exact integer sum, so the mean is the one over every lattice bin, zeros included
    return AccidentalEstimate(mean=float(h.values[pos[on]].sum()) / n_bins, n_bins=n_bins)


@dataclass(frozen=True)
class CarEstimate:
    """Coincidence-to-accidental ratio with Poisson-propagated uncertainty."""

    value: float
    error: float
    is_lower_bound: bool = False


def car(central: int, accidental: float, n_accidental_bins: int) -> CarEstimate:
    """central / accidental with error CAR sqrt(1/central + 1/(n_bins accidental)).

    A zero accidental mean leaves the ratio undefined; the estimate then
    carries the lower bound obtained from one count spread over all sampled
    bins and is flagged as such.
    """
    if central < 0 or accidental < 0:
        raise ValueError("counts must be >= 0")
    if accidental == 0.0:
        return CarEstimate(
            value=float(central * n_accidental_bins), error=math.inf, is_lower_bound=True
        )
    value = central / accidental
    if central == 0:
        return CarEstimate(value=0.0, error=0.0)
    error = value * math.sqrt(1.0 / central + 1.0 / (n_accidental_bins * accidental))
    return CarEstimate(value=value, error=error)


def occupancy_histogram(h: Coincidence2DHistogram) -> dict[int, int]:
    """How many bins hold how many counts, over the full grid (zeros included)."""
    values, freqs = np.unique(h.values, return_counts=True)
    occ = dict(zip(values.tolist(), freqs.tolist()))
    occ[0] = occ.get(0, 0) + h.n_bins_total - len(h.values)
    return dict(sorted(occ.items()))


@dataclass(frozen=True)
class PoissonFit:
    mean: float
    chi2: float
    dof: int
    excluded_counts: list[int]


def poisson_pair_probability(mean: float, m: int) -> float:
    """Poisson probability exp(-mu) mu^m / m! of exactly m counts at mean mu.

    The chance of m pairs in one pulse, of m counts in an occupancy bin under
    the fitted noise, and the report's noise tail probability.  Evaluated in
    log space, with lgamma, so the factorial cannot overflow.
    """
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    if m < 0:
        raise ValueError(f"count must be >= 0, got {m}")
    if mean == 0.0:
        return 1.0 if m == 0 else 0.0
    return math.exp(m * math.log(mean) - mean - math.lgamma(m + 1))


# Outlier-exclusion rounds of poisson_fit at most
_FIT_MAX_ITERATIONS = 10


def poisson_fit(occupancy: dict[int, int], exclude_sigma: float) -> PoissonFit:
    """Maximum-likelihood Poisson mean of the per-bin occupancy.

    The ML estimate of a Poisson mean is the weighted sample mean.  Count
    values above mean + exclude_sigma * sqrt(mean) are dropped and the mean
    re-estimated until stable, so a histogram dominated by noise bins is
    fitted by the noise while isolated signal and accidental bins are flagged
    as outliers.  Goodness of fit is a chi-square over the included count
    values with expected frequency >= 5.
    """
    if not occupancy:
        raise FitError("empty occupancy histogram")
    if any(k < 0 or v < 0 for k, v in occupancy.items()):
        raise ValueError("occupancy keys and frequencies must be >= 0")
    values = np.array(sorted(occupancy))
    freqs = np.array([occupancy[int(k)] for k in values], dtype=float)

    included = np.ones(len(values), dtype=bool)
    mean = 0.0
    for _ in range(_FIT_MAX_ITERATIONS):
        n = freqs[included].sum()
        if n == 0:
            raise FitError("all occupancy bins excluded by the outlier threshold")
        mean = float(np.dot(values[included], freqs[included]) / n)
        threshold = mean + exclude_sigma * math.sqrt(mean)
        new_included = values <= threshold
        if np.array_equal(new_included, included):
            break
        included = new_included

    n_included = int(freqs[included].sum())
    chi2 = 0.0
    dof = 0
    for k, obs in zip(values[included], freqs[included]):
        expected = n_included * poisson_pair_probability(mean, int(k))
        if expected >= 5.0:
            chi2 += (obs - expected) ** 2 / expected
            dof += 1
    return PoissonFit(
        mean=mean,
        chi2=chi2,
        dof=max(dof - 1, 0),
        excluded_counts=[int(k) for k in values[~included]],
    )


def snr(central: int, noise_mean: float, n_bins: int) -> float:
    """Signal-to-noise ratio of the central count against the per-bin noise mean.

    A vanishing noise mean makes the ratio infinite; the resolvable lower
    bound central * n_bins, n_bins being the bins of the grid, is returned
    instead.
    """
    if central < 0 or noise_mean < 0:
        raise ValueError("inputs must be >= 0")
    return central / noise_mean if noise_mean > 0 else float(central * n_bins)


@dataclass(frozen=True)
class TripletReport:
    """Aggregate result of the full coincidence analysis of one stream."""

    central_count: int
    central_error: float
    peak_bin: tuple[int, int] | None
    peak_delay_ns: tuple[float, float] | None
    accidental_mean: float
    n_accidental_bins: int
    car: float
    car_error: float
    car_is_lower_bound: bool
    noise_mean_per_bin: float
    fit_chi2: float
    fit_dof: int
    fit_excluded_counts: list[int]
    snr: float
    snr_is_lower_bound: bool
    noise_tail_probability: float
    success_probability: float
    success_error: float
    n_pulses: int
    n_bins_total: int
    occupancy: dict[int, int] = field(repr=False)
    histogram: Coincidence2DHistogram = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        """JSON-ready fields but the histogram (written as histogram.csv instead).

        Tuples become lists, infinities None and dict keys str.
        """
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self) if f.compare}


def _json_value(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, float) and math.isinf(value):
        return None
    if isinstance(value, dict):
        return {str(k): v for k, v in value.items()}
    return value


def _pulse_count(opts: AnalyzeOptions) -> int:
    if opts.n_pulses is None:
        raise ValueError("n_pulses is required: the pulse count the success probability divides by")
    return opts.n_pulses


def analyze_stream(stream: TimeTagStream, opts: AnalyzeOptions) -> TripletReport:
    """Run the full pipeline: histogram, merge, peak, accidentals, statistics."""
    _pulse_count(opts)  # a missing count costs no histogram
    fine = build_threefold_histogram(stream, opts.binning)
    return analyze_merged(merge_bins(fine, opts.binning.merge_factor), opts)


def analyze_merged(merged: Coincidence2DHistogram, opts: AnalyzeOptions) -> TripletReport:
    """Statistics of an already merged histogram.

    success_probability is the raw central_count / n_pulses, with the Poisson
    error sqrt(central_count) / n_pulses and no dead-time or duty-cycle
    correction.
    """
    n_pulses = _pulse_count(opts)
    try:
        peak = locate_central_peak(merged, opts.peak_search_radius)
        central = peak.count
        peak_bin = (peak.i, peak.j)
        peak_delay = (peak.delay_i_s * 1e9, peak.delay_j_s * 1e9)
    except PeakNotFoundError:
        peak = PeakLocation(0, 0, 0, 0.0, 0.0)
        central = 0
        peak_bin = None
        peak_delay = None

    acc = accidental_mean(merged, peak, opts.binning)
    car_est = car(central, acc.mean, n_accidental_bins=acc.n_bins)

    occupancy = occupancy_histogram(merged)
    fit = poisson_fit(occupancy, opts.fit_exclude_sigma)

    return TripletReport(
        central_count=central,
        central_error=math.sqrt(central),
        peak_bin=peak_bin,
        peak_delay_ns=peak_delay,
        accidental_mean=acc.mean,
        n_accidental_bins=acc.n_bins,
        car=car_est.value,
        car_error=car_est.error,
        car_is_lower_bound=car_est.is_lower_bound,
        noise_mean_per_bin=fit.mean,
        fit_chi2=fit.chi2,
        fit_dof=fit.dof,
        fit_excluded_counts=fit.excluded_counts,
        snr=snr(central, fit.mean, n_bins=merged.n_bins_total),
        snr_is_lower_bound=not fit.mean > 0,
        noise_tail_probability=poisson_pair_probability(fit.mean, central),
        success_probability=central / n_pulses,
        success_error=math.sqrt(central) / n_pulses,
        n_pulses=n_pulses,
        n_bins_total=merged.n_bins_total,
        occupancy=occupancy,
        histogram=merged,
    )
