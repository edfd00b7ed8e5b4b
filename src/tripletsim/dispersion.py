"""Temperature-dependent effective-index models for the guided waves.

The default coefficient set is the standard temperature-dependent Sellmeier
expansion for the extraordinary index of congruent lithium niobate, evaluated
with the wavelength in micrometers and the temperature in degrees Celsius.
Guided-mode corrections are absorbed into the quasi-phase-matching grating
calibration rather than modelled here, so the bulk index doubles as the
effective index.  A polynomial toy model is provided for exact unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidityError

__all__ = ["SellmeierDispersion", "ToyDispersion", "lithium_niobate_e"]


def _check_range(name, value, lo, hi):
    arr = np.asarray(value, dtype=float)
    if np.any(arr < lo) or np.any(arr > hi):
        raise ValidityError(
            f"{name} outside model validity range [{lo:g}, {hi:g}]: "
            f"got {float(np.min(arr)):g}..{float(np.max(arr)):g}"
        )


@dataclass(frozen=True)
class SellmeierDispersion:
    """n(lambda, theta) from a six-term Sellmeier with quadratic temperature factor.

    n^2 = a1 + b1 f + (a2 + b2 f) / (L^2 - (a3 + b3 f)^2)
        + (a4 + b4 f) / (L^2 - a5^2) - a6 L^2

    with L the wavelength in micrometers and f = (theta - 24.5)(theta + 570.82).
    """

    a: tuple[float, float, float, float, float, float]
    b: tuple[float, float, float, float]
    lambda_range_m: tuple[float, float]
    temp_range_c: tuple[float, float]

    def n_eff(self, lambda_m, temperature_c):
        _check_range("wavelength", lambda_m, *self.lambda_range_m)
        _check_range("temperature", temperature_c, *self.temp_range_c)
        lam2 = (np.asarray(lambda_m, dtype=float) * 1e6) ** 2
        f = (temperature_c - 24.5) * (temperature_c + 570.82)
        a1, a2, a3, a4, a5, a6 = self.a
        b1, b2, b3, b4 = self.b
        n2 = (
            a1
            + b1 * f
            + (a2 + b2 * f) / (lam2 - (a3 + b3 * f) ** 2)
            + (a4 + b4 * f) / (lam2 - a5**2)
            - a6 * lam2
        )
        return np.sqrt(n2) if np.ndim(n2) else float(np.sqrt(n2))


@dataclass(frozen=True)
class ToyDispersion:
    """Polynomial index model for analytically controlled tests.

    n = n0 + slope*(lambda - lambda_ref) + curvature*(lambda - lambda_ref)^2
           + theta_slope*(theta - theta_ref)
    """

    n0: float = 2.2
    slope_per_m: float = 0.0
    curvature_per_m2: float = 0.0
    theta_slope_per_c: float = 0.0
    lambda_ref_m: float = 1.0e-6
    theta_ref_c: float = 25.0
    lambda_range_m: tuple[float, float] = (100e-9, 10e-6)
    temp_range_c: tuple[float, float] = (-50.0, 500.0)

    def n_eff(self, lambda_m, temperature_c):
        _check_range("wavelength", lambda_m, *self.lambda_range_m)
        _check_range("temperature", temperature_c, *self.temp_range_c)
        d = np.asarray(lambda_m, dtype=float) - self.lambda_ref_m
        n = (
            self.n0
            + self.slope_per_m * d
            + self.curvature_per_m2 * d**2
            + self.theta_slope_per_c * (temperature_c - self.theta_ref_c)
        )
        return n if np.ndim(n) else float(n)


def lithium_niobate_e(lambda_range_m: tuple[float, float] = (400e-9, 5.0e-6)) -> SellmeierDispersion:
    """Extraordinary index of congruent lithium niobate, temperature dependent.

    Valid from the visible through the telecom band at oven temperatures; the
    long-wavelength limit can be narrowed to model the waveguide cut-off.
    """
    return SellmeierDispersion(
        a=(5.35583, 0.100473, 0.20692, 100.0, 11.34927, 1.5334e-2),
        b=(4.629e-7, 3.862e-8, -0.89e-8, 2.657e-5),
        lambda_range_m=lambda_range_m,
        temp_range_c=(20.0, 260.0),
    )
