import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tripletsim.analysis import poisson_pair_probability
from tripletsim.simulate import ChannelModel, DetectorModel, SimConfig, SourceParams, expected_rates
from conftest import DETECTOR_EFFICIENCIES, baseline_source, make_arms


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
        lp = m * math.log(mean) - mean - math.lgamma(m + 1)
        if p > 0:
            assert math.log(p) == pytest.approx(lp, abs=1e-10)


class TestMeanPairsFromPump:
    def test_reference_point(self):
        # P lambda / (h c R) * pdc1 at 10 uW, 532 nm, 10 MHz, 8.1e-8
        mean = replace(baseline_source(), injection_efficiency=1.0).mean_pairs
        assert mean == pytest.approx(0.21693015112855046, rel=1e-12)
        assert abs(mean - 0.215) <= 0.02

    def test_zero_pump(self):
        src = baseline_source(pump_w=0.0)
        assert src.mean_pairs == 0.0

    def test_linearity_in_pump_power(self):
        m1 = baseline_source(pump_w=10e-6).mean_pairs
        m2 = baseline_source(pump_w=20e-6).mean_pairs
        assert m2 == pytest.approx(2.0 * m1, rel=1e-12)

    def test_injection_flag(self):
        # baseline_source injects half the pump
        on = baseline_source().mean_pairs
        off = replace(baseline_source(), injection_efficiency=1.0).mean_pairs
        assert on == pytest.approx(0.5 * off, rel=1e-12)


class TestTripletSuccessProbability:
    """The per-pulse triplet probability as expected_rates reads it from the event table."""

    @staticmethod
    def probability(source=None, efficiencies=DETECTOR_EFFICIENCIES):
        source = source or baseline_source()
        cfg = SimConfig(
            source=source,
            arms=make_arms(efficiencies=efficiencies),
            rep_period_s=1.0 / source.rep_rate_hz,
        )
        return expected_rates(cfg).triplet_probability_per_pulse

    def test_reference_value(self):
        # arm detection probabilities 0.6t / 0.25t / 0.7t, product 2.17e-3
        assert self.probability() == pytest.approx(6.35e-11, rel=0.01)

    def test_zero_arm_kills_it(self):
        assert self.probability(efficiencies=(0.0, 0.5, 0.5)) == 0.0

    def test_multiplicative_separability(self):
        p0 = self.probability()
        e1, e2, e3 = DETECTOR_EFFICIENCIES
        assert self.probability(efficiencies=(e1 / 2, e2, e3)) == pytest.approx(p0 / 2, rel=1e-12)

    def test_pump_rep_rate_scaling_invariance(self):
        src = baseline_source()
        scaled = replace(src, pump_power_w=6.2 * src.pump_power_w, rep_rate_hz=6.2 * src.rep_rate_hz)
        assert self.probability(scaled) == pytest.approx(self.probability(src), rel=1e-12)


class TestValidation:
    def test_source_params(self):
        with pytest.raises(ValueError):
            SourceParams(-1e-6, 532e-9, 10e6, 8.1e-8, 2.7e-7, injection_efficiency=0.5)
        with pytest.raises(ValueError):
            SourceParams(10e-6, 532e-9, 10e6, 8.1e-8, 2.7e-7, injection_efficiency=1.5)
        with pytest.raises(ValueError):
            SourceParams(10e-6, 532e-9, 0.0, 8.1e-8, 2.7e-7, injection_efficiency=0.5)

    def test_arm_efficiencies(self):
        # an arm's efficiency is its transmission times its detector efficiency
        with pytest.raises(ValueError, match="transmission"):
            ChannelModel(transmission=1.2)
        with pytest.raises(ValueError, match="efficiency"):
            DetectorModel(efficiency=1.2)
