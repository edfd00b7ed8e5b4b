"""Quasi-phase-matching solver for the two down-conversion stages.

Energy conservation fixes the idler wavelength from pump and signal; momentum
conservation (phase matching) is restored by a poling grating of period
Lambda_G contributing +/- 2 pi / Lambda_G to the wave-number balance
delta_k = k_p - k_s - k_i + K_G, written once in `phase_mismatch`; SHG is its
degenerate case (pump lambda / 2, signal = idler = lambda).  One sign-change
root scan serves the signal solver and the SHG peak, and one helper turns a
bulk mismatch into the grating that closes it for both calibrations.  The
module also traces temperature tuning curves and reads the pump acceptance
bandwidth of a stage off its integrated response at half maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, NoRootError

__all__ = [
    "AcceptanceBandwidth",
    "PhasematchSolution",
    "QpmGrating",
    "TuningPoint",
    "idler_partner",
    "pdc_signal_response",
    "phase_mismatch",
    "poling_period_for_shg",
    "poling_period_for_target",
    "pump_acceptance_bandwidth",
    "pump_acceptance_response",
    "shg_peak_wavelength",
    "shg_response",
    "solve_phasematched_signal",
    "temperature_tuning_curve",
]

# Wavelength tolerance of the root finder.  Far below the nominal 1e-4 nm so
# that the residual |delta_k| at a solution stays under 1e-3 per meter.
ROOT_XTOL_M = 1e-18
# Grid points of the signal solver's sign-change scan, of the SHG scans and of
# the signal integral of pdc_signal_response
_SCAN_POINTS = 128
_SHG_POINTS = 801
_SIGNAL_POINTS = 1000


def idler_partner(lambda_p_m, lambda_s_m):
    """Idler wavelength from energy conservation, 1/lp = 1/ls + 1/li; vectorized."""
    if np.any(np.less_equal(lambda_p_m, 0)):
        raise ValueError(f"pump wavelength must be > 0, got {lambda_p_m}")
    if np.any(np.less_equal(lambda_s_m, lambda_p_m)):
        raise ValueError(
            f"signal wavelength {lambda_s_m} must exceed pump wavelength {lambda_p_m}"
        )
    lambda_i_m = 1.0 / (1.0 / lambda_p_m - 1.0 / lambda_s_m)
    return lambda_i_m if np.ndim(lambda_i_m) else float(lambda_i_m)


@dataclass(frozen=True)
class QpmGrating:
    """Periodic poling grating; sign selects the +/- grating order."""

    poling_period_m: float
    sign: int = -1

    def __post_init__(self):
        if self.poling_period_m <= 0:
            raise ValueError("poling_period_m must be > 0")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    @property
    def grating_k(self) -> float:
        return self.sign * 2.0 * math.pi / self.poling_period_m


def _wavenumber(dispersion, lambda_m, temperature_c):
    return 2.0 * math.pi * dispersion.n_eff(lambda_m, temperature_c) / lambda_m


def phase_mismatch(lambda_p_m, lambda_s_m, lambda_i_m, temperature_c, dispersion, grating_k=0.0):
    """delta_k = k_p - k_s - k_i + grating_k in inverse meters; vectorized."""
    dk = (
        _wavenumber(dispersion, lambda_p_m, temperature_c)
        - _wavenumber(dispersion, lambda_s_m, temperature_c)
        - _wavenumber(dispersion, lambda_i_m, temperature_c)
        + grating_k
    )
    return dk if np.ndim(dk) else float(dk)


def _mismatch_vs_signal(lambda_s_m, lambda_p_m, grating_k, temperature_c, dispersion):
    """delta_k versus signal wavelength, idler from energy conservation."""
    lambda_i_m = idler_partner(lambda_p_m, lambda_s_m)
    return phase_mismatch(lambda_p_m, lambda_s_m, lambda_i_m, temperature_c, dispersion, grating_k)


def _shg_mismatch(lambda_f_m, grating_k, temperature_c, dispersion):
    """delta_k of second-harmonic generation at fundamental lambda_f (pump lambda_f / 2)."""
    return phase_mismatch(
        lambda_f_m / 2.0, lambda_f_m, lambda_f_m, temperature_c, dispersion, grating_k
    )


def _closing_grating(bulk: float) -> QpmGrating:
    """Grating whose wave number cancels the bulk mismatch exactly."""
    if bulk == 0.0:
        raise ValueError(
            "wave-number balance already closes without a grating; "
            "a finite poling period cannot be derived"
        )
    return QpmGrating(poling_period_m=2.0 * math.pi / abs(bulk), sign=-1 if bulk > 0 else 1)


def _sign_change_roots(f, lo: float, hi: float, n_points: int) -> list[float]:
    """Roots of f on [lo, hi] seen by an n_points grid, sorted.

    Exact zeros on the grid are taken as they are.  Each strict sign change
    between neighbouring grid points brackets one root, and one bisection
    halves all brackets at once, f taking the array of their midpoints, until
    every bracket is at most ROOT_XTOL_M wide.  The iteration count is fixed
    up front, so the loop ends even where the float spacing of a wavelength
    exceeds the tolerance.
    """
    grid = np.linspace(lo, hi, n_points)
    vals = f(grid)
    signs = np.sign(vals)
    k = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    a, b, sign_a = grid[k], grid[k + 1], signs[k]
    widest = float(np.max(b - a, initial=0.0))
    for _ in range(math.ceil(math.log2(max(widest / ROOT_XTOL_M, 1.0)))):
        mid = 0.5 * (a + b)
        right = np.sign(f(mid)) == sign_a
        a = np.where(right, mid, a)
        b = np.where(right, b, mid)
    roots = np.concatenate([grid[vals == 0.0], 0.5 * (a + b)])
    return np.sort(roots).tolist()


def poling_period_for_target(
    lambda_p_m: float,
    lambda_s_m: float,
    temperature_c: float,
    dispersion,
) -> QpmGrating:
    """Grating that phase-matches the given pump/signal pair exactly.

    This is the calibration step: the poling period absorbs the unknown
    guided-mode index corrections so the stage meets its design wavelengths
    at the calibration temperature by construction.
    """
    bulk = _mismatch_vs_signal(lambda_s_m, lambda_p_m, 0.0, temperature_c, dispersion)
    return _closing_grating(bulk)


def poling_period_for_shg(lambda_f_m: float, temperature_c: float, dispersion) -> QpmGrating:
    """Grating that phase-matches degenerate conversion at fundamental lambda_f."""
    return _closing_grating(_shg_mismatch(lambda_f_m, 0.0, temperature_c, dispersion))


@dataclass(frozen=True)
class PhasematchSolution:
    lambda_s_m: float
    lambda_i_m: float
    residual_delta_k: float
    n_roots: int


def solve_phasematched_signal(
    lambda_p_m: float,
    grating: QpmGrating,
    temperature_c: float,
    dispersion,
    bracket: tuple[float, float],
) -> PhasematchSolution:
    """Signal wavelength with delta_k = 0 inside the bracket.

    The bracket is scanned for sign changes first; each is refined by
    bisection.  With several roots the one nearest the bracket center is
    returned, and n_roots counts them all.
    """
    lo, hi = bracket
    if not (lambda_p_m < lo < hi):
        raise ValueError(f"bracket {bracket} must satisfy pump < lo < hi")
    k_g = grating.grating_k

    def mismatch(lambda_s_m):
        return _mismatch_vs_signal(lambda_s_m, lambda_p_m, k_g, temperature_c, dispersion)

    roots = _sign_change_roots(mismatch, lo, hi, _SCAN_POINTS)
    if not roots:
        raise NoRootError(
            f"delta_k does not change sign over {bracket}; no phase-matched signal"
        )
    center = 0.5 * (lo + hi)
    best = min(roots, key=lambda r: abs(r - center))
    return PhasematchSolution(
        lambda_s_m=best,
        lambda_i_m=idler_partner(lambda_p_m, best),
        residual_delta_k=mismatch(best),
        n_roots=len(roots),
    )


@dataclass(frozen=True)
class TuningPoint:
    temperature_c: float
    lambda_s_m: float | None
    lambda_i_m: float | None


def temperature_tuning_curve(
    grating: QpmGrating,
    lambda_p_m: float,
    theta_range_c: tuple[float, float],
    steps: int,
    dispersion,
    bracket: tuple[float, float],
) -> list[TuningPoint]:
    """Solved signal/idler wavelengths on a monotone temperature grid.

    Temperatures where no root exists inside the bracket are kept in the
    output with absent wavelengths.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    thetas = np.linspace(theta_range_c[0], theta_range_c[1], steps)
    points = []
    for theta in thetas:
        try:
            sol = solve_phasematched_signal(
                lambda_p_m, grating, float(theta), dispersion, bracket
            )
        except NoRootError:
            points.append(TuningPoint(float(theta), None, None))
        else:
            points.append(TuningPoint(float(theta), sol.lambda_s_m, sol.lambda_i_m))
    return points


def sinc_sq(x):
    """sin(x)^2 / x^2 with the removable singularity at 0."""
    return np.sinc(np.asarray(x) / np.pi) ** 2


def shg_response(
    grating: QpmGrating,
    temperature_c: float,
    dispersion,
    scan: tuple[float, float],
    length_m: float,
) -> tuple[np.ndarray, np.ndarray]:
    """sinc^2(delta_k L / 2) second-harmonic conversion curve over the scan."""
    lams = np.linspace(scan[0], scan[1], _SHG_POINTS)
    dk = _shg_mismatch(lams, grating.grating_k, temperature_c, dispersion)
    return lams, sinc_sq(dk * length_m / 2.0)


def shg_peak_wavelength(
    grating: QpmGrating,
    temperature_c: float,
    dispersion,
    scan: tuple[float, float],
) -> float:
    """Fundamental wavelength maximizing the second-harmonic response.

    The peak of the main sinc^2 lobe sits where delta_k = 0, at any crystal
    length, so the shortest root inside the scan is used.  A scan that holds
    no root raises NoRootError: its response maximum could only be a
    boundary point or a side lobe.
    """
    roots = _sign_change_roots(
        lambda lam: _shg_mismatch(lam, grating.grating_k, temperature_c, dispersion),
        scan[0],
        scan[1],
        _SHG_POINTS,
    )
    if not roots:
        raise NoRootError(f"delta_k does not change sign over {scan}; no phase-matched SHG peak")
    return roots[0]


# Points of pdc_signal_response's coarse scan, and the sinc lobes on each side
# of the phase-matching peak that its integration window keeps
_COARSE_POINTS = 512
_LOBE_SPAN = 4.0


def pdc_signal_response(
    lambda_p_m: float,
    grating: QpmGrating,
    temperature_c: float,
    dispersion,
    length_m: float,
) -> float:
    """Signal-wavelength-integrated sinc^2 response of the stage at one pump.

    A coarse scan over the near-degenerate band locates the region where the
    sinc argument stays within _LOBE_SPAN lobes; the response is then
    integrated on a _SIGNAL_POINTS grid over that region.  The window selection
    is independent of that grid, so refining it only refines the quadrature.
    """
    lo = max(1.05 * lambda_p_m, 2.0 * lambda_p_m / 1.5)
    hi = 2.0 * lambda_p_m * 1.5
    lam_min, lam_max = dispersion.lambda_range_m
    lo = max(lo, lam_min * 1.001)
    hi = min(hi, lam_max * 0.999)
    k_g = grating.grating_k

    def half_phase(lambda_s_m):
        dk = _mismatch_vs_signal(lambda_s_m, lambda_p_m, k_g, temperature_c, dispersion)
        return dk * (length_m / 2.0)

    coarse = np.linspace(lo, hi, _COARSE_POINTS)
    x = half_phase(coarse)
    inside = np.abs(x) <= _LOBE_SPAN * math.pi
    if np.any(inside):
        idx = np.nonzero(inside)[0]
        pad = max(1, _COARSE_POINTS // 100)
        a = coarse[max(0, idx[0] - pad)]
        b = coarse[min(_COARSE_POINTS - 1, idx[-1] + pad)]
    else:
        # fully mismatched pump: integrate around the least-mismatched point
        k = int(np.argmin(np.abs(x)))
        half = (hi - lo) / 20.0
        a = max(lo, coarse[k] - half)
        b = min(hi, coarse[k] + half)
    fine = np.linspace(a, b, _SIGNAL_POINTS)
    return float(np.trapezoid(sinc_sq(half_phase(fine)), fine))


@dataclass(frozen=True)
class AcceptanceBandwidth:
    fwhm_m: float
    peak_m: float


def pump_acceptance_response(
    grating: QpmGrating,
    temperature_c: float,
    dispersion,
    length_m: float,
    pump_scan: tuple[float, float],
    n_pump: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Signal-integrated sinc^2 response of the stage on an n_pump grid over pump_scan."""
    pumps = np.linspace(pump_scan[0], pump_scan[1], n_pump)
    response = [pdc_signal_response(p, grating, temperature_c, dispersion, length_m) for p in pumps]
    return pumps, np.array(response)


def pump_acceptance_bandwidth(
    grating: QpmGrating,
    temperature_c: float,
    dispersion,
    length_m: float,
    pump_scan: tuple[float, float],
    n_pump: int,
) -> AcceptanceBandwidth:
    """Full width at half maximum of the integrated stage response versus pump wavelength.

    The response of `pump_acceptance_response` is read at half its maximum:
    each crossing is linearly interpolated between its two neighbouring grid
    points, the width is their distance and the peak their midpoint.  No
    lineshape is assumed, so halving the phase-matched width (for example by
    doubling the interaction length) halves the FWHM.
    """
    pumps, resp = pump_acceptance_response(
        grating, temperature_c, dispersion, length_m, pump_scan, n_pump
    )
    peak_idx = int(np.argmax(resp))
    rmax = resp[peak_idx]
    if rmax <= 0:
        raise FitError("integrated response vanished over the whole pump scan")
    if peak_idx in (0, n_pump - 1):
        raise FitError("response peak sits at the scan boundary; widen the scan")
    half = 0.5 * rmax
    above = resp >= half
    segments = np.count_nonzero(np.diff(above.astype(int)) == 1) + int(above[0])
    if segments > 1:
        raise FitError(f"response is non-unimodal ({segments} separate half-maximum segments)")
    if resp[0] > half or resp[-1] > half:
        raise FitError("half-maximum crossings fall outside the scan; widen the scan")
    # the outermost points above half maximum, with a point at or below it beyond each
    i, j = np.flatnonzero(resp > half)[[0, -1]]
    left = float(np.interp(half, resp[[i - 1, i]], pumps[[i - 1, i]]))
    right = float(np.interp(half, resp[[j + 1, j]], pumps[[j + 1, j]]))
    return AcceptanceBandwidth(fwhm_m=right - left, peak_m=0.5 * (left + right))
