"""Event-driven stochastic simulation of the cascaded source and detectors.

Each pump pulse holds a Poissonian number of primary pairs.  A pair's idler
photon heads to channel 1; its signal photon converts in the second stage
with the stage-2 pair efficiency, feeding channels 2 and 3.  Channel tags
acquire the fixed electronic delay of their arm plus Gaussian detector
jitter, dark counts arrive homogeneously over the run, parasitic leakage
photons land on the secondary channels at the pulse times, and each channel
enforces a non-paralyzable dead time.

Pulses are simulated in blocks of BLOCK_PULSES, each with its own random
stream keyed by (seed, block).  By Poisson thinning, the pairs of a block
that produce a given detection pattern over (i1, s2, i2) number an
independent Poisson variable, spread uniformly over the block's pulses.  A
block therefore draws, in this order: the totals of the seven
detection-bearing pair patterns and of the s2 and i2 leakage photons
(_EVENT_CHANNELS), the pulse of every such event, grouped by kind in table
order, so that a channel's events are the ranges of its kinds, then the
jitter of channels 1, 2 and 3, then the dark counts of channels 1, 2 and 3.
The cost follows the number of detections, not of pulses.  The worker that
samples a block also sorts its ticks per channel.  The main thread takes the
blocks in order, at most 2 x n_threads of them sampled ahead, and finishes
the run block by block.  Once the blocks before pulse p are in, no later
block reaches a tick below _final_tick(config, p).  Each channel's ticks
below it are final: a stable sort merges them with the ticks carried from
the block before, its dead time runs on from the channel's last accepted
tick, and one stable sort of the keys tick << 2 | channel merges the
channels, putting equal ticks in channel order.  The merged records are
appended to the output arrays; the ticks at or above the bound are carried
into the next block.  Output is an ordered stream of (channel, tick)
records, bit-reproducible for a fixed seed and RNG_SCHEME independent of
the worker count.

The statistical oracle, expected_rates, reads the same event table: singles
are the table's column sums weighted by the kinds' means, the dead-time-free
central term comes from the joint cumulants of the photon numbers, and with
dead time the central term is a sum of positive terms, one per set of kinds
that occur in a pulse and cover all three channels.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .constants import C_VAC_M_S, DEFAULT_TICK_S, PLANCK_J_S

__all__ = [
    "Arm",
    "CHANNEL_I1",
    "CHANNEL_I2",
    "CHANNEL_S2",
    "ChannelModel",
    "DetectorModel",
    "ExpectedRates",
    "SimConfig",
    "SourceParams",
    "TimeTagStream",
    "expected_rates",
    "simulate_run",
]

CHANNEL_I1 = 1
CHANNEL_S2 = 2
CHANNEL_I2 = 3

# Pulses per RNG block; each block draws from its own stream whichever worker
# runs it, so results do not depend on the thread count.  Blocks must be large
# enough that a worker spends its time in NumPy calls that release the
# interpreter lock, not in per-call overhead.
BLOCK_PULSES = 1 << 20

# Version of the sampling scheme, written to the simulate manifest: the bytes
# produced for a given seed change only with it.  Scheme 1 drew pair numbers
# and detections pulse by pulse; scheme 2 draws block totals per event kind
# and scatters them over the block's pulses, in blocks of 2**17 pulses;
# scheme 3 does the same in blocks of 2**20.
RNG_SCHEME = 3

# Largest relative mismatch between rep_period_s and 1 / source.rep_rate_hz
_PERIOD_RTOL = 1e-6

# Standard deviations a jitter draw never reaches (p < 1e-300; NumPy's ziggurat
# draws no normal variate beyond about 14).  SimConfig bounds the tick range
# with it and simulate_run declares ticks final by it.
_JITTER_REACH_SIGMAS = 40.0

# Detection-bearing event kinds and the channels (i1, s2, i2) each one hits,
# in the order their block totals are drawn: the seven detection patterns of
# one pair (the eighth, no detection, is never drawn), then a leakage photon
# detected on s2 and one on i2.
_EVENT_CHANNELS = np.array(
    [[(p >> 2) & 1, (p >> 1) & 1, p & 1] for p in range(1, 8)] + [[0, 1, 0], [0, 0, 1]],
    dtype=bool,
)
_CHANNELS = (CHANNEL_I1, CHANNEL_S2, CHANNEL_I2)
# the kinds (rows of _EVENT_CHANNELS) that hit each channel, in table order
_CHANNEL_KINDS = tuple(np.flatnonzero(column).tolist() for column in _EVENT_CHANNELS.T)


@dataclass(frozen=True)
class SourceParams:
    """Pump and conversion parameters of the cascaded source.

    pump_power_w is the continuous-wave-equivalent injected pump power, the
    pdc efficiencies are pairs generated per pump photon in each stage, and
    injection_efficiency (keyword only) is the pump in-coupling into the waveguide.
    """

    pump_power_w: float
    pump_wavelength_m: float
    rep_rate_hz: float
    injection_efficiency: float = field(default=1.0, kw_only=True)
    pdc1_efficiency: float
    pdc2_efficiency: float

    def __post_init__(self):
        # written so that NaN fails too
        if not self.pump_power_w >= 0:
            raise ValueError(f"pump_power_w must be >= 0, got {self.pump_power_w}")
        for name in ("pump_wavelength_m", "rep_rate_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("injection_efficiency", "pdc1_efficiency", "pdc2_efficiency"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    @property
    def mean_pairs(self) -> float:
        """Mean primary pair number per pulse, P eta_in lambda / (h c R) * P_pdc1.

        The injected pump photons per pulse times the stage-1 pair efficiency;
        linear in the pump power.
        """
        return (
            self.pump_power_w
            * self.pump_wavelength_m
            / (PLANCK_J_S * C_VAC_M_S * self.rep_rate_hz)
            * self.injection_efficiency
            * self.pdc1_efficiency
        )


@dataclass(frozen=True)
class DetectorModel:
    """Binary click detector with dark counts, Gaussian jitter and dead time."""

    efficiency: float
    dark_rate_hz: float = 0.0
    jitter_sigma_s: float = 0.0
    dead_time_s: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        for name in ("dark_rate_hz", "jitter_sigma_s", "dead_time_s"):
            if not getattr(self, name) >= 0:  # also rejects NaN
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ChannelModel:
    """Optical path in front of a detector.

    leakage_rate_per_pulse is the mean number of parasitic primary-stage
    photons entering the arm per pump pulse (higher-order idler photons that
    survive demultiplexing, broadband parasitic down-conversion, ...); they
    are detected like signal photons.
    """

    transmission: float = 1.0
    leakage_rate_per_pulse: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError(f"transmission must lie in [0, 1], got {self.transmission}")
        if not self.leakage_rate_per_pulse >= 0:
            raise ValueError(f"leakage_rate_per_pulse must be >= 0, got {self.leakage_rate_per_pulse}")


@dataclass(frozen=True)
class Arm:
    channel: ChannelModel
    detector: DetectorModel

    @property
    def detection_prob(self) -> float:
        return self.channel.transmission * self.detector.efficiency


@dataclass(frozen=True)
class TimeTagStream:
    """Ordered (channel, timestamp) records at a fixed tick resolution.

    The constructor owns the record invariants: the channels are integers
    1 (i1), 2 (s2) or 3 (i2), and the ticks are int64, non-decreasing from a
    first tick >= 0, so that every tick is >= 0.
    """

    resolution_s: float
    channels: np.ndarray  # uint8, values 1..3
    timestamps: np.ndarray  # int64 ticks >= 0, non-decreasing

    def __post_init__(self):
        if not self.resolution_s > 0:
            raise ValueError(f"resolution_s must be > 0, got {self.resolution_s}")
        for name in ("channels", "timestamps"):
            if getattr(self, name).ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {getattr(self, name).shape}")
        if self.channels.dtype.kind not in "iu":
            raise ValueError(f"channels must be integers, got dtype {self.channels.dtype}")
        if self.timestamps.dtype != np.int64:  # unsigned or narrower ticks wrap in window sums
            raise ValueError(f"timestamps must be int64 ticks, got dtype {self.timestamps.dtype}")
        if self.channels.shape != self.timestamps.shape:
            raise ValueError("channels and timestamps must have equal length")
        channels = self.channels
        if len(channels) and not CHANNEL_I1 <= channels.min() <= channels.max() <= CHANNEL_I2:
            k = int(np.argmax((channels < CHANNEL_I1) | (channels > CHANNEL_I2)))
            raise ValueError(
                f"channel {int(channels[k])} at record {k} must be 1 (i1), 2 (s2) or 3 (i2)"
            )
        if np.any(self.timestamps[1:] < self.timestamps[:-1]):
            raise ValueError("timestamps must be non-decreasing")
        # with the order checked, the first tick bounds them all
        if len(self.timestamps) and self.timestamps[0] < 0:
            raise ValueError(f"timestamps must be >= 0, got {int(self.timestamps[0])} at record 0")

    def __len__(self) -> int:
        return len(self.timestamps)

    def channel_ticks(self, channel: int) -> np.ndarray:
        """Sorted timestamps (ticks) of one channel."""
        step = 1 << 16  # by slices, so only one slice's mask and index of kept ticks are held
        slices = range(0, len(self), step)
        size = sum(np.count_nonzero(self.channels[a : a + step] == channel) for a in slices)
        out, k = np.empty(size, dtype=self.timestamps.dtype), 0
        for a in slices:
            i = np.flatnonzero(self.channels[a : a + step] == channel)
            # the indices are in range; "clip" lets take write to out without a buffer
            np.take(self.timestamps[a : a + step], i, out=out[k : k + len(i)], mode="clip")
            k += len(i)
        return out


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulated acquisition run."""

    source: SourceParams
    arms: tuple[Arm, Arm, Arm]  # (i1, s2, i2)
    rep_period_s: float = 100e-9
    n_pulses: int = 1
    peak_offset_s: float = -0.165e-9
    rng_seed: int = 0
    resolution_s: float = DEFAULT_TICK_S

    def __post_init__(self):
        if self.n_pulses <= 0:
            raise ValueError("n_pulses must be > 0")
        for name in ("rep_period_s", "resolution_s"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not math.isfinite(self.peak_offset_s):
            raise ValueError(f"peak_offset_s must be finite, got {self.peak_offset_s}")
        if len(self.arms) != 3:
            raise ValueError("exactly three arms (i1, s2, i2) required")
        if self.arms[0].channel.leakage_rate_per_pulse != 0.0:
            raise ValueError("leakage feeds the secondary channels only; set arm i1 leakage to 0")
        if abs(self.rep_period_s * self.source.rep_rate_hz - 1.0) > _PERIOD_RTOL:
            raise ValueError(
                "rep_period_s must equal 1 / source.rep_rate_hz; "
                f"got {self.rep_period_s} vs {1.0 / self.source.rep_rate_hz}"
            )
        # merge keys tick << 2 | channel are int64
        jitter = max(arm.detector.jitter_sigma_s for arm in self.arms)
        last_s = self.n_pulses * self.rep_period_s + abs(self.peak_offset_s) + _JITTER_REACH_SIGMAS * jitter
        if last_s / self.resolution_s >= 2**61:
            raise ValueError("run span overflows the tick range; reduce n_pulses or coarsen ticks")

    def with_seed(self, seed: int) -> "SimConfig":
        return replace(self, rng_seed=seed)


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Counter-based per-block stream: key = (run seed, block index)."""
    key = np.array([seed & (2**64 - 1), block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _event_means_per_pulse(config: SimConfig) -> np.ndarray:
    """Mean number per pulse of each detection-bearing event kind (_EVENT_CHANNELS).

    A pair's idler reaches channel 1 with its arm's detection probability;
    independently its signal converts with the stage-2 efficiency, and the
    converted pair reaches channels 2 and 3 independently.  Poisson thinning
    of the pair number makes each pattern's count Poisson with mean
    mean_pairs * P(pattern).
    """
    p1, p2, p3 = (arm.detection_prob for arm in config.arms)
    conv = config.source.pdc2_efficiency
    means = []
    for i1, s2, i2 in _EVENT_CHANNELS[:7]:
        p_secondary = conv * (p2 if s2 else 1.0 - p2) * (p3 if i2 else 1.0 - p3)
        if not (s2 or i2):
            p_secondary += 1.0 - conv  # an unconverted signal reaches neither
        means.append(config.source.mean_pairs * (p1 if i1 else 1.0 - p1) * p_secondary)
    for arm in config.arms[1:]:
        means.append(arm.channel.leakage_rate_per_pulse * arm.detection_prob)
    return np.array(means)


def _simulate_block(config: SimConfig, means: np.ndarray, block_index: int, p_start: int, p_stop: int):
    """Sorted, pre-dead-time tick arrays per channel for one pulse block.

    means is _event_means_per_pulse(config).  Draw order is fixed: the nine
    block totals of _EVENT_CHANNELS in table order (one Poisson draw), the
    pulse of every event (one uniform integer draw over the block, events
    grouped by kind in table order, so a channel's events are the ranges of
    its _CHANNEL_KINDS), per-channel jitter, then dark counts.
    """
    rng = _block_rng(config.rng_seed, block_index)
    n = p_stop - p_start
    rep = config.rep_period_s
    res = config.resolution_s

    totals = rng.poisson(n * means)
    pulses = rng.integers(p_start, p_stop, int(totals.sum()))  # the same draws as integers(0, n) + p_start
    edges = [0, *np.cumsum(totals).tolist()]

    out = {}
    delays = (config.peak_offset_s, 0.0, config.peak_offset_s)
    for channel, kinds, delay, arm in zip(_CHANNELS, _CHANNEL_KINDS, delays, config.arms):
        t = np.concatenate([pulses[edges[k] : edges[k + 1]] for k in kinds], dtype=np.float64)
        t *= rep
        t += delay
        if arm.detector.jitter_sigma_s > 0:
            t += rng.normal(0.0, arm.detector.jitter_sigma_s, len(t))
        out[channel] = t

    # empty draws (a zero dark rate, no dark or no jittered tag) consume no random numbers
    block_t0 = p_start * rep
    block_span = n * rep
    for channel, arm in zip(_CHANNELS, config.arms):
        n_dark = rng.poisson(arm.detector.dark_rate_hz * block_span)
        t = np.concatenate([out[channel], block_t0 + rng.random(n_dark) * block_span])
        t /= res
        ticks = np.rint(t, out=t).astype(np.int64)
        # a value sort (same bytes for any algorithm; NumPy releases the interpreter
        # lock); ticks below 0, from jitter only, lead the sorted run and are cut
        ticks.sort()
        out[channel] = ticks[np.searchsorted(ticks, 0) :]
    return out


def _apply_dead_time(ticks_sorted: np.ndarray, dead_ticks: int) -> np.ndarray:
    """Non-paralyzable dead time: greedy accept, skip tags inside the window.

    A tag at least dead_ticks after its raw predecessor is always accepted,
    because the last accepted tag is no later than that predecessor.  Such
    free gaps split the ticks into clusters whose first tag is accepted; the
    second tag of a cluster always lies inside the first one's window, so
    the greedy rule only has to run inside clusters of three or more tags.
    """
    n = len(ticks_sorted)
    if dead_ticks <= 0 or n < 2:
        return ticks_sorted
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.greater_equal(np.diff(ticks_sorted), dead_ticks, out=keep[1:])
    # keep marks cluster starts; the edges of its runs of False bound the
    # clusters of two or more tags, far fewer than the tags themselves
    edges = np.flatnonzero(keep[1:] != keep[:-1]) + 1
    if len(edges) % 2:
        edges = np.append(edges, n)
    starts, stops = edges[0::2] - 1, edges[1::2]
    long = stops - starts >= 3
    for start, stop in zip(starts[long].tolist(), stops[long].tolist()):
        cluster = ticks_sorted[start:stop]
        i = 0
        while i < len(cluster):
            keep[start + i] = True
            i = int(np.searchsorted(cluster, cluster[i] + dead_ticks, side="left"))
    return ticks_sorted[keep]


def _gate(t2: np.ndarray, t3: np.ndarray, half_width: int) -> np.ndarray:
    """The ch2 tags with a ch3 tag within half_width ticks: the keep rule.

    Returns the indices into t2 of the tags whose first ch3 tick at or after
    t2 - half_width is at most t2 + half_width.  A stream cut down to the
    records within half_width of the kept tags has the same kept tags, with
    the same records in their windows.
    """
    start3 = np.searchsorted(t3, t2 - half_width, "left")
    kept = np.flatnonzero(start3 < len(t3))
    return kept[t3[start3[kept]] <= t2[kept] + half_width]


def _expected_raw_ticks(config: SimConfig, means: np.ndarray) -> float:
    """Expected tick count of the run before dead time: its events' detections and dark counts.

    means is _event_means_per_pulse(config).
    """
    dark_per_pulse = sum(arm.detector.dark_rate_hz for arm in config.arms) * config.rep_period_s
    return config.n_pulses * (float(means @ _EVENT_CHANNELS.sum(axis=1)) + dark_per_pulse)


def _final_tick(config: SimConfig, p_stop: int) -> int:
    """A tick below which no block from pulse p_stop on puts a tick.

    A later block's tick is a pulse time p * rep_period_s (p >= p_stop) plus
    its arm's delay (peak_offset_s or 0) and a jitter draw above
    -_JITTER_REACH_SIGMAS times the largest sigma, or a dark count after
    p_stop * rep_period_s, divided by the tick and rounded to nearest.  The
    bound takes the same floating-point steps in the same order, each rounded
    monotonically, and floors, so it holds exactly.
    """
    sigma = max(arm.detector.jitter_sigma_s for arm in config.arms)
    t = float(p_stop) * config.rep_period_s + min(0.0, config.peak_offset_s)
    t -= _JITTER_REACH_SIGMAS * sigma
    return math.floor(t / config.resolution_s)


def _sampled_blocks(pool: ThreadPoolExecutor, config: SimConfig, means: np.ndarray, bounds, n_ahead: int):
    """((block, pulse start, pulse stop), ticks per channel) for each of bounds, in order.

    At most n_ahead blocks are submitted and not yet taken, so the sampled
    blocks held at once do not grow with the run.
    """
    ahead = deque((a, pool.submit(_simulate_block, config, means, *a)) for a in islice(bounds, n_ahead))
    while ahead:
        a, future = ahead.popleft()
        ahead.extend((a, pool.submit(_simulate_block, config, means, *a)) for a in islice(bounds, 1))
        yield a, future.result()


def simulate_run(config: SimConfig, n_threads: int = 1, progress: bool = False) -> TimeTagStream:
    """Simulate the full run and return the merged, dead-time-filtered stream.

    Deterministic for a fixed rng_seed: pulse blocks use independent
    counter-based streams keyed by (seed, block), so every thread count
    produces identical output.  Blocks are finished in order as they arrive
    (see the module docstring), so besides the output only the blocks in
    flight and the ticks carried between them are held.
    """
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    if config.source.mean_pairs > 10:
        warnings.warn(
            f"mean pair number {config.source.mean_pairs:.3g} per pulse is far outside the "
            "Poissonian pumping regime the source model assumes",
            stacklevel=2,
        )
    n_blocks = (config.n_pulses + BLOCK_PULSES - 1) // BLOCK_PULSES
    report_every = max(1, n_blocks // 10)
    means = _event_means_per_pulse(config)
    dead = [math.ceil(arm.detector.dead_time_s / config.resolution_s - 1e-12) for arm in config.arms]

    # sized for the expected raw tick count, which dead time only lowers, and
    # grown if a run exceeds it; pages past the records written are never touched
    expected = _expected_raw_ticks(config, means)
    size = math.ceil(expected + 6.0 * math.sqrt(expected))
    channels, timestamps = np.empty(size, np.uint8), np.empty(size, np.int64)
    n = 0
    carry = [np.empty(0, np.int64)] * 3  # each channel's ticks not yet final, sorted
    accept_from = [0, 0, 0]  # each channel's last accepted tick plus its dead time
    bounds = ((b, b * BLOCK_PULSES, min((b + 1) * BLOCK_PULSES, config.n_pulses)) for b in range(n_blocks))
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        for (b, _, p_stop), block in _sampled_blocks(pool, config, means, bounds, 2 * n_threads):
            final = _final_tick(config, p_stop) if b + 1 < n_blocks else None
            keys = []
            for i, channel in enumerate(_CHANNELS):
                ticks = np.concatenate([carry[i], block.pop(channel)])
                ticks.sort(kind="stable")  # merges the carried and the new sorted run
                k = len(ticks) if final is None else int(np.searchsorted(ticks, final))
                carry[i] = ticks[k:].copy()
                ticks = ticks[np.searchsorted(ticks[:k], accept_from[i]) : k]
                ticks = _apply_dead_time(ticks, dead[i])
                if len(ticks):
                    accept_from[i] = int(ticks[-1]) + dead[i]
                # the kept ticks become the keys tick << 2 | channel in place
                # (SimConfig keeps ticks below 2**61)
                ticks <<= 2
                ticks |= channel
                keys.append(ticks)
            keys = np.concatenate(keys)
            # merges the channels' sorted runs: by tick, equal ticks in channel order
            keys.sort(kind="stable")
            if n + len(keys) > size:
                size = max(n + len(keys), size + size // 4)
                # no view of either array is alive here
                channels.resize(size, refcheck=False)
                timestamps.resize(size, refcheck=False)
            np.bitwise_and(keys, 3, out=channels[n : n + len(keys)], casting="unsafe")
            np.right_shift(keys, 2, out=timestamps[n : n + len(keys)])
            n += len(keys)
            if progress and ((b + 1) % report_every == 0 or b + 1 == n_blocks):
                print(f"simulate: {p_stop}/{config.n_pulses} pulses", file=sys.stderr)

    # realloc gives back the unused tail, as a rule without copying the records
    channels.resize(n, refcheck=False)
    timestamps.resize(n, refcheck=False)
    return TimeTagStream(resolution_s=config.resolution_s, channels=channels, timestamps=timestamps)


# ---------------------------------------------------------------------------
# Closed-form expectations (the simulator's statistical oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectedRates:
    """Analytic expectations for a SimConfig.

    triplet_probability_per_pulse is the mean of the one event kind that hits
    all three channels: one pair producing all three detections.  It is the
    separable cascade formula

        eta_i1 eta_s2 eta_i2 * P_pdc1 P_pdc2 * P_pump eta_in lambda_p / (h c R_rep)

    with each arm's eta its transmission times its detector efficiency.
    expected_central_count additionally includes same-pulse higher-order
    combinations and leakage, which the coincidence analyzer cannot
    distinguish from genuine triplets, and is the quantity to compare against
    the measured central-bin count.
    """

    mean_pairs_per_pulse: float
    singles_rates_hz: tuple[float, float, float]
    singles_counts: tuple[float, float, float]
    triplet_probability_per_pulse: float
    triplet_rate_hz: float
    expected_triplets: float
    expected_central_count: float | None = None


def _central_bin_containment(config: SimConfig, merged_bin_s: float) -> float:
    """Probability that both relative delays of a triplet land in the peak bin.

    The delays tau1 - tau2 and tau3 - tau2 share the channel-2 jitter z and
    are independent given z, so the probability is one integral over z, taken
    by a fixed composite Gauss-Legendre rule in u = z / s2: 20 nodes per panel,
    panels at most 0.5 wide, breakpoints at both steps and around each at
    (s_k/s2) * 2^m < 1 for each nonzero side jitter s_k.  Over 1500 seeded
    draws (log-uniform jitters 10 ps - 2 ns, offsets within 3 ns) it agrees
    with scipy's adaptive `quad` to 5e-13 absolute (99th percentile 1e-15),
    and it resolves the narrow edge ramp `quad` stepped over when one side
    jitter is 0 and the other is far below s2.
    """
    from numpy.polynomial.legendre import leggauss  # on demand: `analyze` never calls this

    s1, s2, s3 = (arm.detector.jitter_sigma_s for arm in config.arms)
    w = merged_bin_s
    off = config.peak_offset_s
    k = round(off / w)  # merged bin holding the peak
    lo, hi = (k - 0.5) * w - off, (k + 0.5) * w - off
    erfc = np.frompyfunc(math.erfc, 1, 1)

    def inside(z, s):
        """P(lo <= j - z <= hi) for a jitter j ~ N(0, s^2)."""
        if s == 0.0:
            return ((lo + z <= 0.0) & (0.0 <= hi + z)) * 1.0
        r = s * math.sqrt(2.0)
        return np.asarray(0.5 * (erfc((lo + z) / r) - erfc((hi + z) / r)), float)

    if s2 == 0.0:
        return float(inside(0.0, s1) * inside(0.0, s3))
    # in units u = z / s2: both factors step at u = -hi/s2 and -lo/s2 over a
    # ramp s_k/s2 wide, and their product vanishes 12 of the smaller jitter beyond
    pad = 12.0 * min(s1, s3)
    a, b = max(-hi - pad, -12.0 * s2) / s2, min(-lo + pad, 12.0 * s2) / s2
    cuts = {a, b, -hi / s2, -lo / s2}
    for step in (-hi / s2, -lo / s2):
        for d in (s1 / s2, s3 / s2):
            while 0.0 < d < 1.0:
                cuts.update((step - d, step + d))
                d *= 2.0
    cuts = sorted(c for c in cuts if a <= c <= b)
    ends = np.concatenate(
        [np.linspace(p, q, math.ceil(2.0 * (q - p)) + 1)[:-1] for p, q in zip(cuts, cuts[1:])] + [[b]]
    )
    half = 0.5 * np.diff(ends)[:, None]
    nodes, weights = leggauss(20)
    u = (ends[:-1, None] + half * (1.0 + nodes)).ravel()
    f = np.exp(-0.5 * u * u) * inside(u * s2, s1) * inside(u * s2, s3)
    return float((half * weights).ravel() @ f) / math.sqrt(2.0 * math.pi)


def expected_rates(config: SimConfig, merged_bin_s: float | None = None) -> ExpectedRates:
    """Closed-form singles and triple-coincidence expectations for a config.

    Reads the sampler's event table: each kind of _EVENT_CHANNELS occurs a
    Poisson number of times per pulse (_event_means_per_pulse), independently
    of the others, and puts one photon on each channel its row marks.  With
    merged_bin_s given, expected_central_count predicts the central-bin count,
    including same-pulse higher-order pair combinations and leakage but not
    dark counts (accurate while the per-bin noise floor is small against the
    peak): E[n1 n2 n3] per pulse from the joint cumulants when every dead time
    is zero (exact), else P(n1, n2, n3 > 0), a sum of positive terms over the
    sets of kinds that occur and cover all three channels, times each channel's
    steady-state non-paralyzable live fraction 1 - R tau against earlier pulses,
    R its detected rate (an approximation, as is the collapse of same-pulse
    pile-up to one click in the singles).
    """
    means = _event_means_per_pulse(config)
    rep = config.rep_period_s
    dead = [arm.detector.dead_time_s for arm in config.arms]

    rates = []
    for per_pulse, arm, tau in zip((means @ _EVENT_CHANNELS).tolist(), config.arms, dead):
        if tau > 0:
            # same-pulse pile-up collapses to one accepted click per pulse
            per_pulse = -math.expm1(-per_pulse)
        rate = per_pulse / rep + arm.detector.dark_rate_hz
        if tau >= rep:
            # dead window spans later pulses: steady-state non-paralyzable loss
            rate = rate / (1.0 + rate * tau)
        # for 0 < tau < rep only click-dark overlaps are lost, O(dark * tau)
        rates.append(rate)

    # the joint cumulant of a set of channels is the mean number of events
    # hitting all of them
    def kappa(*channels):
        return float(means @ _EVENT_CHANNELS[:, channels].all(axis=1))

    p_triple = kappa(0, 1, 2)
    central = None
    if merged_bin_s is not None:
        if not any(dead):
            # E[n1 n2 n3] from the joint cumulants
            k1, k2, k3 = kappa(0), kappa(1), kappa(2)
            per_pulse_central = (
                p_triple + kappa(0, 1) * k3 + kappa(0, 2) * k2 + kappa(1, 2) * k1 + k1 * k2 * k3
            )
        else:
            # one row per set of kinds that occur in the pulse
            occur = (np.arange(1 << len(means))[:, None] >> np.arange(len(means))) & 1
            covers = (occur @ _EVENT_CHANNELS).all(axis=1)
            terms = np.where(occur[covers], -np.expm1(-means), np.exp(-means)).prod(axis=1)
            per_pulse_central = float(terms.sum())
            # live fraction against earlier clicks on each channel
            for rate, tau in zip(rates, dead):
                if tau >= rep:
                    per_pulse_central *= 1.0 - rate * tau
        central = per_pulse_central * config.n_pulses * _central_bin_containment(config, merged_bin_s)

    return ExpectedRates(
        mean_pairs_per_pulse=config.source.mean_pairs,
        singles_rates_hz=tuple(rates),
        singles_counts=tuple(r * (config.n_pulses * rep) for r in rates),
        triplet_probability_per_pulse=p_triple,
        triplet_rate_hz=p_triple * config.source.rep_rate_hz,
        expected_triplets=p_triple * config.n_pulses,
        expected_central_count=central,
    )
