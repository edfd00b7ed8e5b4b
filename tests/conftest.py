import numpy as np
import pytest
from hypothesis import settings

from tripletsim.analysis import Coincidence2DHistogram
from tripletsim.simulate import (
    Arm,
    ChannelModel,
    DetectorModel,
    SimConfig,
    SourceParams,
    TimeTagStream,
)

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# Arm transmission back-solved so the three-arm efficiency product is 2.17e-3
# with detector efficiencies 0.6 / 0.25 / 0.7.
ARM_TRANSMISSION = (2.17e-3 / (0.6 * 0.25 * 0.7)) ** (1.0 / 3.0)
DETECTOR_EFFICIENCIES = (0.6, 0.25, 0.7)


def make_arms(
    transmission=ARM_TRANSMISSION,
    efficiencies=DETECTOR_EFFICIENCIES,
    dark_rates=(0.0, 0.0, 0.0),
    jitter=(0.0, 0.0, 0.0),
    dead_times=(0.0, 0.0, 0.0),
    leakage=(0.0, 0.0, 0.0),
):
    return tuple(
        Arm(
            ChannelModel(transmission, leakage[k]),
            DetectorModel(efficiencies[k], dark_rates[k], jitter[k], dead_times[k]),
        )
        for k in range(3)
    )


def baseline_source(pdc2=2.7e-7, pump_w=10e-6):
    return SourceParams(
        pump_power_w=pump_w,
        pump_wavelength_m=532e-9,
        rep_rate_hz=10e6,
        injection_efficiency=0.5,
        pdc1_efficiency=8.1e-8,
        pdc2_efficiency=pdc2,
    )


def boosted_config(n_pulses, seed, jitter_s=30e-12, dark_hz=0.0, pdc2=2.7e-1):
    """Second stage boosted so desk-scale runs accumulate thousands of triples."""
    return SimConfig(
        source=baseline_source(pdc2=pdc2),
        arms=make_arms(
            dark_rates=(dark_hz,) * 3,
            jitter=(jitter_s,) * 3,
        ),
        n_pulses=n_pulses,
        rng_seed=seed,
    )


def histogram_from_entries(bin_width_s, n_half, i_entries, j_entries, total_reference_events):
    """The histogram counting each (i, j) entry once; every entry lies on the grid."""
    i, j = (np.asarray(a, dtype=np.int64) for a in (i_entries, j_entries))
    assert np.all(np.abs(i) <= n_half) and np.all(np.abs(j) <= n_half)
    keys, counts = np.unique((i + n_half) * (2 * n_half + 1) + (j + n_half), return_counts=True)
    return Coincidence2DHistogram(bin_width_s, n_half, keys, counts, total_reference_events)


def gate_stream(stream, w):
    """The records within w ticks of a ch2 tag that has a ch3 tag within w ticks of it.

    An oracle for the keep rule: each ch2 tag's ch3 tags are counted between
    two binary searches, and the union of the kept windows is marked record by
    record with a running count of the windows open at each record.
    """
    ts = stream.timestamps
    t2, t3 = stream.channel_ticks(2), stream.channel_ticks(3)
    refs = t2[np.searchsorted(t3, t2 + w, "right") > np.searchsorted(t3, t2 - w, "left")]
    cover = np.zeros(len(ts) + 1, dtype=np.int64)
    np.add.at(cover, np.searchsorted(ts, refs - w, "left"), 1)
    np.add.at(cover, np.searchsorted(ts, refs + w, "right"), -1)
    inside = np.cumsum(cover[:-1]) > 0
    return TimeTagStream(stream.resolution_s, stream.channels[inside], ts[inside])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
