"""Closed-form pair-number statistics of the primary down-conversion stage.

A pulsed, spectrally multi-mode parametric down-conversion source emits m
photon pairs per pump pulse with Poissonian probabilities rho_m.  This module
provides those probabilities and the pump-power-to-mean-pair-number
conversion.  The per-pulse triplet success probability is
simulate.expected_rates(...).triplet_probability_per_pulse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import C_VAC_M_S, PLANCK_J_S

__all__ = ["SourceParams", "mean_pairs_from_pump", "poisson_pair_probability"]


def poisson_pair_probability(mean: float, m: int) -> float:
    """Poisson probability exp(-mu) mu^m / m! of exactly m pairs in one pulse.

    Also the report's noise tail probability: m counts in a bin at the fitted
    noise mean.  Evaluated in log space, with lgamma, so the factorial cannot
    overflow.
    """
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    if m < 0:
        raise ValueError(f"count must be >= 0, got {m}")
    if mean == 0.0:
        return 1.0 if m == 0 else 0.0
    return math.exp(m * math.log(mean) - mean - math.lgamma(m + 1))


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


def mean_pairs_from_pump(params: SourceParams) -> float:
    """Mean primary pair number per pulse, P eta_in lambda / (h c R) * P_pdc1.

    The injected pump photons per pulse times the stage-1 pair efficiency;
    linear in the pump power.
    """
    return (
        params.pump_power_w
        * params.pump_wavelength_m
        / (PLANCK_J_S * C_VAC_M_S * params.rep_rate_hz)
        * params.injection_efficiency
        * params.pdc1_efficiency
    )
