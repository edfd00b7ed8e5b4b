"""Cascaded parametric down-conversion triplet source: simulation and analysis."""

from .analysis import (
    AnalyzeOptions,
    BinningConfig,
    Coincidence2DHistogram,
    TripletReport,
    accidental_mean,
    analyze_stream,
    build_threefold_histogram,
    car,
    locate_central_peak,
    merge_bins,
    occupancy_histogram,
    poisson_fit,
    snr,
)
from .dispersion import SellmeierDispersion, ToyDispersion, lithium_niobate_e
from .pairstats import SourceParams, mean_pairs_from_pump, poisson_pair_probability
from .phasematch import (
    QpmGrating,
    idler_partner,
    phase_mismatch,
    poling_period_for_shg,
    poling_period_for_target,
    pump_acceptance_bandwidth,
    shg_peak_wavelength,
    solve_phasematched_signal,
    temperature_tuning_curve,
)
from .simulate import (
    Arm,
    ChannelModel,
    DetectorModel,
    SimConfig,
    TimeTagStream,
    expected_rates,
    simulate_run,
)
from .ttag import read_ttag, write_ttag

__version__ = "0.1.0"
