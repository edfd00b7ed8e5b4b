"""Closed-form pair-number statistics of the primary down-conversion stage.

A pulsed, spectrally multi-mode parametric down-conversion source emits m
photon pairs per pump pulse with Poissonian probabilities rho_m.  This module
provides those probabilities, the pump-power-to-mean-pair-number conversion,
the fraction of emitting pulses that carry exactly one pair, and the analytic
per-pulse success probability of detecting a full cascaded photon triplet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C_VAC_M_S, PLANCK_J_S

__all__ = [
    "ArmEfficiencies",
    "SourceParams",
    "genuine_triplet_fraction",
    "log_poisson_pmf",
    "mean_pairs_from_pump",
    "poisson_pair_probability",
    "triplet_success_probability",
]


def log_poisson_pmf(mean: float, m: int) -> float:
    """Natural log of the Poisson pmf, using lgamma so large counts stay finite."""
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    if m < 0:
        raise ValueError(f"count must be >= 0, got {m}")
    if mean == 0.0:
        return 0.0 if m == 0 else -math.inf
    return m * math.log(mean) - mean - math.lgamma(m + 1)


def poisson_pair_probability(mean: float, m: int) -> float:
    """Poisson probability exp(-mu) mu^m / m! of exactly m pairs in one pulse.

    Also the report's noise tail probability: m counts in a bin at the fitted
    noise mean.  Evaluated in log space, so the factorial cannot overflow.
    """
    return math.exp(log_poisson_pmf(mean, m))


@dataclass(frozen=True)
class SourceParams:
    """Pump and conversion parameters of the cascaded source.

    pump_power_w is the continuous-wave-equivalent injected pump power, the
    pdc efficiencies are pairs generated per pump photon in each stage, and
    injection_efficiency is the pump in-coupling into the waveguide.
    """

    pump_power_w: float
    pump_wavelength_m: float
    rep_rate_hz: float
    injection_efficiency: float
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


@dataclass(frozen=True)
class ArmEfficiencies:
    """Total efficiency (coupling x filtering x detector) of each measurement arm."""

    eta_i1: float
    eta_s2: float
    eta_i2: float

    def __post_init__(self):
        for name in ("eta_i1", "eta_s2", "eta_i2"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    @property
    def product(self) -> float:
        return self.eta_i1 * self.eta_s2 * self.eta_i2


def pump_photons_per_pulse(params: SourceParams, include_injection: bool = True) -> float:
    """Mean number of pump photons per pulse, P * lambda / (h c R)."""
    n = (
        params.pump_power_w
        * params.pump_wavelength_m
        / (PLANCK_J_S * C_VAC_M_S * params.rep_rate_hz)
    )
    if include_injection:
        n *= params.injection_efficiency
    return n


def mean_pairs_from_pump(params: SourceParams, include_injection: bool = True) -> float:
    """Mean primary pair number per pulse; linear in the pump power."""
    return pump_photons_per_pulse(params, include_injection) * params.pdc1_efficiency


def genuine_triplet_fraction(mean: float, mode: str = "conditional") -> float:
    """Fraction of useful pulses that carried exactly one primary pair.

    mode "conditional" returns rho_1 / (1 - rho_0), the single-pair probability
    given that the pulse emitted at all.  mode "pair_weighted" returns
    rho_1 / mean, the fraction of emitted pairs that were alone in their pulse.
    Both tend to 1 as mean -> 0.
    """
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    if mode not in ("conditional", "pair_weighted"):
        raise ValueError(f"unknown mode {mode!r}")
    if mean == 0.0:
        return 1.0
    if mode == "pair_weighted":
        # rho_1 / mu = exp(-mu)
        return math.exp(-mean)
    # rho_1 / (1 - rho_0) = mu exp(-mu) / (1 - exp(-mu)); expm1 keeps small-mu accuracy
    return mean * math.exp(-mean) / (-math.expm1(-mean))


def triplet_success_probability(params: SourceParams, arms: ArmEfficiencies) -> float:
    """Per-pulse probability of detecting all three photons of a cascaded triplet.

    eta_i1 eta_s2 eta_i2 * P_pdc1 P_pdc2 * P_pump eta_in lambda_p / (h c R_rep)
    """
    return (
        arms.product
        * params.pdc1_efficiency
        * params.pdc2_efficiency
        * pump_photons_per_pulse(params, include_injection=True)
    )
