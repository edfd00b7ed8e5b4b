import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletsim.pairstats import (
    ArmEfficiencies,
    SourceParams,
    genuine_triplet_fraction,
    log_poisson_pmf,
    mean_pairs_from_pump,
    poisson_pair_probability,
    triplet_success_probability,
)
from conftest import baseline_source


class TestPoissonPairProbability:
    def test_empty_pulse_certainty(self):
        assert poisson_pair_probability(0.0, 0) == 1.0
        assert poisson_pair_probability(0.0, 3) == 0.0

    def test_reference_mean(self):
        # exp(-0.215) and 0.215 exp(-0.215), frozen from direct evaluation
        assert poisson_pair_probability(0.215, 0) == pytest.approx(0.8065414401773269, rel=1e-12)
        assert poisson_pair_probability(0.215, 1) == pytest.approx(0.1734064096381253, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_pair_probability(-0.1, 0)
        with pytest.raises(ValueError):
            poisson_pair_probability(0.1, -1)

    def test_log_space_branch_continuity(self):
        # at m = 21 the log-space evaluation agrees with the direct product
        mean = 3.7
        direct = math.exp(-mean) * mean**21 / math.factorial(21)
        assert poisson_pair_probability(mean, 21) == pytest.approx(direct, rel=1e-12)

    def test_large_count_no_overflow(self):
        p = poisson_pair_probability(5.0, 400)
        assert 0.0 < p < 1e-300 or p == 0.0

    @given(st.floats(min_value=1e-12, max_value=10.0), st.integers(min_value=0, max_value=60))
    def test_matches_log_pmf(self, mean, m):
        p = poisson_pair_probability(mean, m)
        lp = log_poisson_pmf(mean, m)
        if p > 0:
            assert math.log(p) == pytest.approx(lp, abs=1e-10)


class TestMeanPairsFromPump:
    def test_reference_point(self):
        # P lambda / (h c R) * pdc1 at 10 uW, 532 nm, 10 MHz, 8.1e-8
        mean = mean_pairs_from_pump(baseline_source(), include_injection=False)
        assert mean == pytest.approx(0.21693015112855046, rel=1e-12)
        assert abs(mean - 0.215) <= 0.02

    def test_zero_pump(self):
        src = baseline_source(pump_w=0.0)
        assert mean_pairs_from_pump(src, include_injection=False) == 0.0

    def test_linearity_in_pump_power(self):
        m1 = mean_pairs_from_pump(baseline_source(pump_w=10e-6), include_injection=False)
        m2 = mean_pairs_from_pump(baseline_source(pump_w=20e-6), include_injection=False)
        assert m2 == pytest.approx(2.0 * m1, rel=1e-12)

    def test_injection_flag(self):
        on = mean_pairs_from_pump(baseline_source(), include_injection=True)
        off = mean_pairs_from_pump(baseline_source(), include_injection=False)
        assert on == pytest.approx(0.5 * off, rel=1e-12)


class TestGenuineTripletFraction:
    def test_limit_at_zero(self):
        assert genuine_triplet_fraction(0.0) == 1.0
        assert genuine_triplet_fraction(1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_reference_mean(self):
        # rho_1 / (1 - rho_0) at 0.215, frozen from direct evaluation
        assert genuine_triplet_fraction(0.215) == pytest.approx(0.8963491188866084, rel=1e-12)

    def test_closed_form_at_one(self):
        expected = math.exp(-1) / (1 - math.exp(-1))
        assert genuine_triplet_fraction(1.0) == pytest.approx(expected, rel=1e-12)

    def test_pair_weighted_mode(self):
        assert genuine_triplet_fraction(0.215, mode="pair_weighted") == pytest.approx(
            math.exp(-0.215), rel=1e-12
        )
        with pytest.raises(ValueError):
            genuine_triplet_fraction(0.215, mode="nope")

    @given(
        st.floats(min_value=1e-6, max_value=20.0),
        st.floats(min_value=1e-6, max_value=20.0),
    )
    @settings(max_examples=80)
    def test_strictly_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if hi - lo < 1e-9 * hi:
            # inputs this close are numerically indistinguishable
            assert genuine_triplet_fraction(lo) >= genuine_triplet_fraction(hi)
        else:
            assert genuine_triplet_fraction(lo) > genuine_triplet_fraction(hi)


class TestTripletSuccessProbability:
    def reference_arms(self):
        t = (2.17e-3 / (0.6 * 0.25 * 0.7)) ** (1 / 3)
        return ArmEfficiencies(0.6 * t, 0.25 * t, 0.7 * t)

    def test_reference_value(self):
        p = triplet_success_probability(baseline_source(), self.reference_arms())
        assert p == pytest.approx(6.35e-11, rel=0.01)

    def test_zero_arm_kills_it(self):
        arms = ArmEfficiencies(0.0, 0.5, 0.5)
        assert triplet_success_probability(baseline_source(), arms) == 0.0

    def test_multiplicative_separability(self):
        arms = self.reference_arms()
        p0 = triplet_success_probability(baseline_source(), arms)
        halved = ArmEfficiencies(arms.eta_i1 / 2, arms.eta_s2, arms.eta_i2)
        assert triplet_success_probability(baseline_source(), halved) == pytest.approx(
            p0 / 2, rel=1e-12
        )

    def test_pump_rep_rate_scaling_invariance(self):
        src = baseline_source()
        scaled = SourceParams(
            pump_power_w=src.pump_power_w * 6.2,
            pump_wavelength_m=src.pump_wavelength_m,
            rep_rate_hz=src.rep_rate_hz * 6.2,
            injection_efficiency=src.injection_efficiency,
            pdc1_efficiency=src.pdc1_efficiency,
            pdc2_efficiency=src.pdc2_efficiency,
        )
        arms = self.reference_arms()
        assert triplet_success_probability(scaled, arms) == pytest.approx(
            triplet_success_probability(src, arms), rel=1e-12
        )


class TestValidation:
    def test_source_params(self):
        with pytest.raises(ValueError):
            SourceParams(-1e-6, 532e-9, 10e6, 0.5, 8.1e-8, 2.7e-7)
        with pytest.raises(ValueError):
            SourceParams(10e-6, 532e-9, 10e6, 1.5, 8.1e-8, 2.7e-7)
        with pytest.raises(ValueError):
            SourceParams(10e-6, 532e-9, 0.0, 0.5, 8.1e-8, 2.7e-7)

    def test_arm_efficiencies(self):
        with pytest.raises(ValueError):
            ArmEfficiencies(1.2, 0.5, 0.5)
