"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; pytest -v adds the
usual per-test verdict.  Desk-scale statistical criteria run on boosted
configurations with frozen seeds so the suite is deterministic.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from tripletsim import phasematch as pm
from tripletsim import simulate
from tripletsim.analysis import (
    AnalyzeOptions,
    BinningConfig,
    analyze_stream,
    build_threefold_histogram,
    car,
    poisson_fit,
    snr,
)
from tripletsim.dispersion import lithium_niobate_e
from tripletsim.pairstats import SourceParams, mean_pairs_from_pump, poisson_pair_probability
from tripletsim.simulate import SimConfig, expected_rates, simulate_run
from tripletsim.ttag import write_ttag
from conftest import baseline_source, boosted_config, make_arms

from test_analysis import as_dict, brute_force_histogram, random_stream, SMALL


def report(line):
    print(f"ACCEPTANCE PASS: {line}")


def test_criterion_01_success_probability_formula():
    # arm detection probabilities 0.6t / 0.25t / 0.7t
    cfg = SimConfig(source=baseline_source(), arms=make_arms())
    assert math.prod(arm.detection_prob for arm in cfg.arms) == pytest.approx(2.17e-3, rel=1e-9)
    p = expected_rates(cfg).triplet_probability_per_pulse
    assert abs(p - 6.35e-11) / 6.35e-11 < 0.01
    report(f"triplet success probability {p:.4g} within 1% of 6.35e-11")


def test_criterion_02_mean_pair_number():
    mean = mean_pairs_from_pump(replace(baseline_source(), injection_efficiency=1.0))
    assert round(mean, 3) == 0.217
    assert abs(mean - 0.215) <= 0.02
    report(f"mean pair number {mean:.5f} = 0.217 inside 0.215 +/- 0.02")


def test_criterion_03_noise_tail_and_snr():
    p = poisson_pair_probability(0.048, 33)
    assert 3.3e-81 / 2 < p < 3.3e-81 * 2
    s = snr(33, 0.048, n_bins=208849)
    assert s == pytest.approx(687.5, rel=1e-12)
    assert s > 680
    report(f"noise tail {p:.3g} within factor 2 of 3.3e-81; snr {s} > 680")


def test_criterion_04_car_arithmetic():
    est = car(33, 3.51, n_accidental_bins=41)
    assert est.value == pytest.approx(9.4, abs=0.05)
    assert abs(est.error - 1.9) <= 0.2 * 1.9
    report(f"car {est.value:.3f} +/- {est.error:.3f} matches 9.4 +/- 1.9 (20%)")


def test_criterion_05_histogram_oracle_equivalence():
    rng = np.random.default_rng(20250101)
    for trial in range(20):
        n = int(rng.integers(10, 1001))
        stream = random_stream(rng, n, 2000)
        h = build_threefold_histogram(stream, SMALL)
        assert as_dict(h) == brute_force_histogram(stream, SMALL), trial
    report("streaming histogram equals brute-force triple loop on 20 random streams")


def test_criterion_06_closed_loop_statistics():
    # second-stage conversion boosted so ~7400 triples accumulate per 1e8
    # pulses; the analyzer estimate must match the analytic central-count
    # expectation (higher-order same-pulse combinations included) at 4 sigma
    bincfg = BinningConfig()
    zs = []
    for seed in (101, 202, 303):
        cfg = boosted_config(100_000_000, seed=seed)
        rates = expected_rates(cfg, merged_bin_s=bincfg.merged_bin_s)
        assert rates.expected_central_count > 200
        stream = simulate_run(cfg, n_threads=2)
        rep = analyze_stream(stream, AnalyzeOptions(bincfg, n_pulses=cfg.n_pulses))
        expected_p = rates.expected_central_count / cfg.n_pulses
        sigma_p = math.sqrt(rates.expected_central_count) / cfg.n_pulses
        z = (rep.success_probability - expected_p) / sigma_p
        zs.append(z)
        assert abs(z) < 4.0, (seed, z)
    report(f"closed loop over 3 seeds ({int(1e8)} pulses): z = {[f'{z:+.2f}' for z in zs]}")


def test_criterion_07_car_monotonicity():
    bincfg = BinningConfig()
    mu_reference = mean_pairs_from_pump(baseline_source())
    all_cars = {}
    for seed in (11, 12, 13):
        cars = []
        for mu in (0.05, 0.2, 1.0):
            cfg = SimConfig(
                source=SourceParams(
                    pump_power_w=10e-6 * mu / mu_reference,
                    pump_wavelength_m=532e-9,
                    rep_rate_hz=10e6,
                    injection_efficiency=0.5,
                    pdc1_efficiency=8.1e-8,
                    pdc2_efficiency=0.3,
                ),
                arms=make_arms(jitter=(150e-12,) * 3, dark_rates=(100.0,) * 3),
                n_pulses=4_000_000,
                rng_seed=seed,
            )
            stream = simulate_run(cfg, n_threads=2)
            rep = analyze_stream(stream, AnalyzeOptions(bincfg, n_pulses=cfg.n_pulses))
            cars.append(rep.car)
        assert cars[0] > cars[1] > cars[2], (seed, cars)
        all_cars[seed] = [round(c, 1) for c in cars]
    report(f"car strictly decreases over mean pairs 0.05 -> 0.2 -> 1.0: {all_cars}")


def test_criterion_08_poisson_fit_estimator():
    rng = np.random.default_rng(777)
    n_bins = 208849
    mean = 0.048
    se = math.sqrt(mean / n_bins)
    worst = 0.0
    for _ in range(10):
        sample = rng.poisson(mean, n_bins)
        values, freqs = np.unique(sample, return_counts=True)
        fit = poisson_fit(dict(zip(values.tolist(), freqs.tolist())), exclude_sigma=10.0)
        worst = max(worst, abs(fit.mean - mean) / se)
        assert abs(fit.mean - mean) < 3 * se
    report(f"poisson fit within 3 estimator errors over 10 trials (worst {worst:.2f} se)")


def test_criterion_09_phasematch_properties():
    ln = lithium_niobate_e()
    stage1 = pm.poling_period_for_target(532e-9, 790.5e-9, 163.5, ln)
    stage2 = pm.poling_period_for_shg(1581e-9, 163.5, ln)

    # energy conservation closes to 1e-12 relative
    for lambda_s in (790.5e-9, 800e-9, 1551e-9):
        lambda_i = pm.idler_partner(532e-9, lambda_s)
        residual = abs(1 / 532e-9 - 1 / lambda_s - 1 / lambda_i) * 532e-9
        assert residual < 1e-12

    # every solver solution satisfies |delta_k| < 1e-3 per meter
    curve = pm.temperature_tuning_curve(stage1, 532e-9, (155.5, 171.5), 17, ln, (700e-9, 900e-9))
    for point in curve:
        sol = pm.solve_phasematched_signal(
            532e-9, stage1, point.temperature_c, ln, (700e-9, 900e-9)
        )
        assert abs(sol.residual_delta_k) < 1e-3

    # calibrated stage-1 curve passes through 790.5 nm at the calibration
    # temperature by construction
    sol = pm.solve_phasematched_signal(532e-9, stage1, 163.5, ln, (700e-9, 900e-9))
    assert sol.lambda_s_m == pytest.approx(790.5e-9, abs=1e-13)

    # acceptance FWHM halves (within 10%) when the interaction length doubles
    scan = (787e-9, 793e-9)
    acc1 = pm.pump_acceptance_bandwidth(stage2, 163.5, ln, 0.011, scan, 161)
    acc2 = pm.pump_acceptance_bandwidth(stage2, 163.5, ln, 0.022, scan, 161)
    ratio = acc1.fwhm_m / acc2.fwhm_m
    assert ratio == pytest.approx(2.0, rel=0.1)
    report(
        "energy conservation 1e-12, solver |delta_k| < 1e-3, "
        f"stage-1 calibration exact, acceptance fwhm ratio {ratio:.3f}"
    )


def test_criterion_10_determinism(tmp_path, monkeypatch):
    monkeypatch.setattr(simulate, "BLOCK_PULSES", 1 << 17)  # 4 blocks
    cfg = boosted_config(400_000, seed=424242, dark_hz=500.0)
    paths = []
    for label, threads in (("a", 1), ("b", 4), ("c", 1)):
        stream = simulate_run(cfg, n_threads=threads)
        path = tmp_path / f"{label}.ttag"
        write_ttag(path, stream)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]
    report("identical seed and config give byte-identical files for 1 and 4 threads")
