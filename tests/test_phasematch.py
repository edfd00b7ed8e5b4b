import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletsim import phasematch as pm
from tripletsim.dispersion import ToyDispersion, lithium_niobate_e
from tripletsim.errors import FitError, NoRootError, ValidityError

LN = lithium_niobate_e()
CAL_TEMP = 163.5
STAGE1 = pm.poling_period_for_target(532e-9, 790.5e-9, CAL_TEMP, LN)
STAGE2 = pm.poling_period_for_shg(1581e-9, CAL_TEMP, LN)

# toy with curvature: the only polynomial term energy conservation does not cancel
CURVED_TOY = ToyDispersion(n0=2.2, slope_per_m=-3e4, curvature_per_m2=5e10)


class TestIdlerPartner:
    def test_reference_points(self):
        # frozen direct arithmetic of 1/(1/lp - 1/ls)
        assert pm.idler_partner(532e-9, 790.3e-9) == pytest.approx(1627.7181571815725e-9, rel=1e-12)
        assert pm.idler_partner(790.5e-9, 1551e-9) == pytest.approx(1612.1834319526624e-9, rel=1e-12)

    def test_degeneracy_point(self):
        assert pm.idler_partner(532e-9, 1064e-9) == pytest.approx(1064e-9, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pm.idler_partner(532e-9, 531e-9)
        with pytest.raises(ValueError):
            pm.idler_partner(532e-9, 532e-9)

    @given(
        st.floats(min_value=300e-9, max_value=900e-9),
        st.floats(min_value=1e-12, max_value=2000e-9),
    )
    @settings(max_examples=100)
    def test_energy_conservation_closes(self, lambda_p, offset):
        lambda_s = lambda_p + offset
        lambda_i = pm.idler_partner(lambda_p, lambda_s)
        recombined = 1.0 / (1.0 / lambda_s + 1.0 / lambda_i)
        assert abs(recombined - lambda_p) / lambda_p < 1e-12


class TestPhaseMismatch:
    def test_constant_index_matched_grating(self):
        # constant index with a non-energy-conserving triple: the grating is
        # constructed to cancel the bulk wave-number balance exactly
        toy = ToyDispersion(n0=2.2)
        lp, ls, li = 532e-9, 800e-9, 1600e-9
        bulk = 2 * math.pi * 2.2 * (1 / lp - 1 / ls - 1 / li)
        grating = pm.QpmGrating(2 * math.pi / abs(bulk), sign=-1 if bulk > 0 else 1)
        dk = pm.phase_mismatch(lp, ls, li, 25.0, toy, grating.grating_k)
        assert abs(dk) < 1e-6 * abs(bulk)

    def test_solved_point_is_matched(self):
        sol = pm.solve_phasematched_signal(532e-9, STAGE1, CAL_TEMP, LN, (700e-9, 900e-9))
        ls, li = sol.lambda_s_m, sol.lambda_i_m
        dk = pm.phase_mismatch(532e-9, ls, li, CAL_TEMP, LN, STAGE1.grating_k)
        assert abs(dk) < 1e-3
        residual = abs(1 / 532e-9 - 1 / ls - 1 / li) * 532e-9
        assert residual < 1e-12

    def test_perturbation_sign_matches_derivative(self):
        sol = pm.solve_phasematched_signal(532e-9, STAGE1, CAL_TEMP, LN, (700e-9, 900e-9))

        def mismatch(ls):
            li = pm.idler_partner(532e-9, ls)
            return pm.phase_mismatch(532e-9, ls, li, CAL_TEMP, LN, STAGE1.grating_k)

        step = 1e-9
        perturbed = mismatch(sol.lambda_s_m + step)
        derivative = (mismatch(sol.lambda_s_m + 0.005e-9) - mismatch(sol.lambda_s_m - 0.005e-9)) / 0.01e-9
        assert perturbed != 0.0
        assert np.sign(perturbed) == np.sign(derivative)

    def test_validity_error(self):
        grating = pm.QpmGrating(7e-6)
        with pytest.raises(ValidityError):
            pm.phase_mismatch(532e-9, 790e-9, 10e-6, CAL_TEMP, LN, grating.grating_k)

    def test_vectorized_matches_scalar(self):
        ls = np.linspace(780e-9, 800e-9, 7)
        li = pm.idler_partner(532e-9, ls)
        dk = pm.phase_mismatch(532e-9, ls, li, CAL_TEMP, LN, STAGE1.grating_k)
        for lam_s, lam_i, dk_k in zip(ls, li, dk):
            scalar = pm.phase_mismatch(
                532e-9, float(lam_s), float(lam_i), CAL_TEMP, LN, STAGE1.grating_k
            )
            assert dk_k == scalar


class TestCalibration:
    @pytest.mark.parametrize("dispersion", [CURVED_TOY, LN], ids=["curved_toy", "ln"])
    def test_shg_calibration_is_degenerate_target(self, dispersion):
        # SHG at lambda_f is the pump lambda_f / 2 -> lambda_f + lambda_f balance
        lambda_f = 1581e-9
        shg = pm.poling_period_for_shg(lambda_f, CAL_TEMP, dispersion)
        target = pm.poling_period_for_target(lambda_f / 2, lambda_f, CAL_TEMP, dispersion)
        assert shg.sign == target.sign
        assert shg.poling_period_m == pytest.approx(target.poling_period_m, rel=1e-12)

    def test_closed_balance_has_no_grating(self):
        # a constant index closes the degenerate balance by itself
        with pytest.raises(ValueError, match="without a grating"):
            pm.poling_period_for_shg(1580e-9, 25.0, ToyDispersion(n0=2.2))


class TestSolver:
    def test_toy_round_trip(self):
        grating = pm.poling_period_for_target(532e-9, 800e-9, 25.0, CURVED_TOY)
        sol = pm.solve_phasematched_signal(532e-9, grating, 25.0, CURVED_TOY, (700e-9, 900e-9))
        assert sol.lambda_s_m == pytest.approx(800e-9, abs=1e-13)
        assert sol.n_roots == 1
        assert abs(sol.residual_delta_k) < 1e-3

    def test_stage1_calibration_point(self):
        sol = pm.solve_phasematched_signal(532e-9, STAGE1, CAL_TEMP, LN, (700e-9, 900e-9))
        assert sol.lambda_s_m == pytest.approx(790.5e-9, abs=1e-13)
        assert sol.lambda_i_m == pytest.approx(1626.87e-9, abs=0.01e-9)

    def test_temperature_shift_follows_dense_scan(self):
        theta = CAL_TEMP + 1.0
        sol = pm.solve_phasematched_signal(532e-9, STAGE1, theta, LN, (700e-9, 900e-9))
        grid = np.linspace(780e-9, 800e-9, 20001)
        dk = np.array(
            [
                pm.phase_mismatch(
                    532e-9, ls, pm.idler_partner(532e-9, ls), theta, LN, STAGE1.grating_k
                )
                for ls in grid[:: 1000]
            ]
        )
        # coarse oracle just brackets the root; fine oracle pins it
        li = pm.idler_partner(532e-9, sol.lambda_s_m)
        dk_fine = pm.phase_mismatch(532e-9, sol.lambda_s_m, li, theta, LN, STAGE1.grating_k)
        assert abs(dk_fine) < 1e-3
        assert sol.lambda_s_m < 790.5e-9  # signal tunes to shorter wavelength when heated

    def test_no_root_error(self):
        grating = pm.QpmGrating(poling_period_m=1e-6)
        with pytest.raises(NoRootError):
            pm.solve_phasematched_signal(532e-9, grating, CAL_TEMP, LN, (700e-9, 900e-9))

    def test_multiple_roots_flagged(self):
        # signal and idler branches both inside one wide bracket
        grating = pm.poling_period_for_target(532e-9, 800e-9, 25.0, CURVED_TOY)
        mirror = pm.idler_partner(532e-9, 800e-9)
        sol = pm.solve_phasematched_signal(532e-9, grating, 25.0, CURVED_TOY, (700e-9, 1700e-9))
        assert sol.n_roots == 2
        # nearest the bracket center wins
        center = 0.5 * (700e-9 + 1700e-9)
        assert abs(sol.lambda_s_m - center) <= abs(800e-9 - center) + 1e-12
        assert sol.lambda_s_m == pytest.approx(mirror, abs=1e-12)

    def test_root_on_a_grid_point_counts_once(self, monkeypatch):
        # an exact zero on the scan grid, with the sign changing across it,
        # is one root: the cells beside it bracket no strict sign change
        grid = np.linspace(700e-9, 900e-9, 5)
        monkeypatch.setattr(
            pm, "_mismatch_vs_signal", lambda lambda_s_m, *_: lambda_s_m - grid[2]
        )
        monkeypatch.setattr(pm, "_SCAN_POINTS", 5)
        sol = pm.solve_phasematched_signal(532e-9, STAGE1, CAL_TEMP, LN, (700e-9, 900e-9))
        assert sol.n_roots == 1
        assert sol.lambda_s_m == grid[2] and sol.residual_delta_k == 0.0


class TestTuningCurve:
    def test_single_step(self):
        points = pm.temperature_tuning_curve(
            STAGE1, 532e-9, (CAL_TEMP, CAL_TEMP), 1, LN, (700e-9, 900e-9)
        )
        assert len(points) == 1
        assert points[0].lambda_s_m == pytest.approx(790.5e-9, abs=1e-13)

    def test_crosses_calibration_wavelength_and_monotone(self):
        points = pm.temperature_tuning_curve(
            STAGE1, 532e-9, (153.5, 173.5), 21, LN, (700e-9, 900e-9)
        )
        lams = np.array([p.lambda_s_m for p in points])
        assert np.all(np.isfinite(lams))
        diffs = np.diff(lams)
        assert np.all(diffs < 0) or np.all(diffs > 0)
        assert lams.min() < 790.5e-9 < lams.max()

    def test_continuity_against_dense_scan(self):
        coarse = pm.temperature_tuning_curve(
            STAGE1, 532e-9, (158.5, 168.5), 11, LN, (700e-9, 900e-9)
        )
        dense = pm.temperature_tuning_curve(
            STAGE1, 532e-9, (158.5, 168.5), 101, LN, (700e-9, 900e-9)
        )
        dense_l = np.array([p.lambda_s_m for p in dense])
        slope = np.max(np.abs(np.diff(dense_l))) / (10.0 / 100)
        step = 1.0
        coarse_l = np.array([p.lambda_s_m for p in coarse])
        assert np.all(np.abs(np.diff(coarse_l)) < 5 * slope * step)

    def test_absent_points_marked(self):
        # a bracket that the tuning curve exits leaves no-root points absent
        points = pm.temperature_tuning_curve(
            STAGE1, 532e-9, (153.5, 213.5), 13, LN, (789e-9, 792e-9)
        )
        present = [p for p in points if p.lambda_s_m is not None]
        absent = [p for p in points if p.lambda_s_m is None]
        assert present and absent
        for p in absent:
            assert p.lambda_i_m is None


class TestShg:
    def test_toy_exact_peak(self):
        grating = pm.poling_period_for_shg(1580e-9, 25.0, CURVED_TOY)
        peak = pm.shg_peak_wavelength(grating, 25.0, CURVED_TOY, (1500e-9, 1650e-9))
        assert peak == pytest.approx(1580e-9, abs=1e-12)

    def test_stage2_degeneracy(self):
        peak = pm.shg_peak_wavelength(STAGE2, CAL_TEMP, LN, (1570e-9, 1610e-9))
        assert peak == pytest.approx(1581.0e-9, abs=0.5e-9)

    def test_peak_invariant_width_not(self, monkeypatch):
        scan = (1570e-9, 1610e-9)
        # the peak takes no crystal length: it must be the response maximum at each
        peak = pm.shg_peak_wavelength(STAGE2, CAL_TEMP, LN, scan)
        monkeypatch.setattr(pm, "_SHG_POINTS", 8001)  # a response grid ten times finer
        for length in (0.011, 0.022):
            lams, resp = pm.shg_response(STAGE2, CAL_TEMP, LN, scan, length)
            assert lams[int(np.argmax(resp))] == pytest.approx(peak, abs=lams[1] - lams[0])

        def fwhm(length):
            lams, resp = pm.shg_response(STAGE2, CAL_TEMP, LN, scan, length)
            half = resp.max() / 2
            above = np.nonzero(resp >= half)[0]
            return lams[above[-1]] - lams[above[0]]

        ratio = fwhm(0.011) / fwhm(0.022)
        assert ratio == pytest.approx(2.0, rel=0.1)

    def test_peak_outside_scan_raises(self):
        # the sampled response there peaks at a boundary or a side lobe
        with pytest.raises(NoRootError, match="sign"):
            pm.shg_peak_wavelength(STAGE2, CAL_TEMP, LN, (1590e-9, 1610e-9))


class TestAcceptanceBandwidth:
    def test_length_doubling_halves_fwhm(self):
        scan = (787e-9, 793e-9)
        acc1 = pm.pump_acceptance_bandwidth(STAGE2, CAL_TEMP, LN, 0.011, scan, 161)
        acc2 = pm.pump_acceptance_bandwidth(STAGE2, CAL_TEMP, LN, 0.022, scan, 161)
        assert acc1.fwhm_m / acc2.fwhm_m == pytest.approx(2.0, rel=0.1)

    def test_peak_near_half_harmonic(self):
        acc = pm.pump_acceptance_bandwidth(STAGE2, CAL_TEMP, LN, 0.022, (787e-9, 793e-9), 161)
        assert acc.peak_m == pytest.approx(790.5e-9, abs=0.5e-9)

    def test_toy_centroid_tracks_argmax(self):
        # the integrated response keeps a one-sided tail for any dispersion,
        # so the half-maximum midpoint can only track the argmax to a fraction
        # of the width, not coincide with it
        grating = pm.poling_period_for_shg(1580e-9, 25.0, CURVED_TOY)
        stage = (grating, 25.0, CURVED_TOY, 0.02, (785e-9, 795e-9), 201)
        acc = pm.pump_acceptance_bandwidth(*stage)
        pumps, response = pm.pump_acceptance_response(*stage)
        argmax = pumps[int(np.argmax(response))]
        assert abs(acc.peak_m - argmax) <= 0.25 * acc.fwhm_m

    def test_peak_outside_scan_fails(self):
        with pytest.raises(FitError):
            pm.pump_acceptance_bandwidth(STAGE2, CAL_TEMP, LN, 0.022, (786e-9, 789e-9), 161)

    def test_non_unimodal_response_fails_with_diagnostics(self):
        class DippedIndex:
            # quadratic index with a localized dip that carves the
            # phase-matched pump island in two
            lambda_range_m = (100e-9, 10e-6)
            temp_range_c = (-50.0, 500.0)

            def n_eff(self, lam, theta):
                lam = np.asarray(lam, dtype=float)
                n = 2.2 - 3e4 * (lam - 1e-6) + 5e10 * (lam - 1e-6) ** 2
                n = n - 2e-4 * np.exp(-0.5 * ((lam - 790.35e-9) / 0.2e-9) ** 2)
                return n if n.ndim else float(n)

        disp = DippedIndex()
        grating = pm.poling_period_for_shg(1581e-9, 25.0, disp)
        with pytest.raises(FitError, match="non-unimodal"):
            pm.pump_acceptance_bandwidth(grating, 25.0, disp, 0.02, (787e-9, 794e-9), 161)

    def test_response_integral_grid_stable(self, monkeypatch):
        def response(n_points):
            monkeypatch.setattr(pm, "_SIGNAL_POINTS", n_points)
            return pm.pdc_signal_response(790.5e-9, STAGE2, CAL_TEMP, LN, 0.022)

        r500, r2000 = response(500), response(2000)
        assert r500 == pytest.approx(r2000, rel=0.01)


class TestDispersionModels:
    def test_index_above_one_and_monotone(self):
        lams = np.linspace(0.5e-6, 1.7e-6, 400)
        n = LN.n_eff(lams, CAL_TEMP)
        assert np.all(n > 1.0)
        assert np.all(np.diff(n) < 0)

    def test_validity_errors(self):
        with pytest.raises(ValidityError):
            LN.n_eff(0.2e-6, CAL_TEMP)
        with pytest.raises(ValidityError):
            LN.n_eff(1.0e-6, 500.0)

    def test_grating_validation(self):
        with pytest.raises(ValueError):
            pm.QpmGrating(poling_period_m=-1e-6)
        with pytest.raises(ValueError):
            pm.QpmGrating(poling_period_m=1e-6, sign=2)
