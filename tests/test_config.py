import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tripletsim.analysis import AnalyzeOptions, BinningConfig
from tripletsim.cli import main
from tripletsim.config import (
    PhasematchPlan,
    default_config,
    load_config,
    parse_analyze,
    parse_phasematch,
    parse_simulate,
)
from tripletsim.dispersion import SellmeierDispersion, ToyDispersion, lithium_niobate_e
from tripletsim.errors import ConfigError
from tripletsim.phasematch import QpmGrating, poling_period_for_shg, poling_period_for_target
from tripletsim.simulate import (
    Arm,
    ChannelModel,
    DetectorModel,
    SimConfig,
    SourceParams,
    TimeTagStream,
    expected_rates,
)
from tripletsim.ttag import write_ttag

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

LN_A = [5.35583, 0.100473, 0.20692, 100.0, 11.34927, 1.5334e-2]
LN_B = [4.629e-7, 3.862e-8, -0.89e-8, 2.657e-5]


def _baseline_sim() -> SimConfig:
    def arm(eff, dark, dead):
        return Arm(
            channel=ChannelModel(transmission=0.274425, leakage_rate_per_pulse=0.0),
            detector=DetectorModel(
                efficiency=eff,
                dark_rate_hz=dark,
                jitter_sigma_s=150.0 * 1e-12,
                dead_time_s=dead * 1e-9,
            ),
        )

    return SimConfig(
        source=SourceParams(
            pump_power_w=10.0 * 1e-6,
            pump_wavelength_m=532.0 * 1e-9,
            rep_rate_hz=10.0 * 1e6,
            injection_efficiency=0.5,
            pdc1_efficiency=8.1e-8,
            pdc2_efficiency=2.7e-7,
        ),
        arms=(arm(0.6, 300.0, 50.0), arm(0.25, 2500.0, 10000.0), arm(0.7, 1500.0, 50.0)),
        rep_period_s=100.0 * 1e-9,
        n_pulses=10_000_000,
        peak_offset_s=-0.165 * 1e-9,
        resolution_s=82.3125 * 1e-12,
        rng_seed=1,
    )


def _baseline_analyze() -> AnalyzeOptions:
    return AnalyzeOptions(
        binning=BinningConfig(
            base_bin_s=82.3125 * 1e-12,
            merge_factor=16,
            window_half_span_s=300.0 * 1e-9,
            rep_period_s=100.0 * 1e-9,
        ),
        peak_search_radius=3,
        fit_exclude_sigma=10.0,
        n_pulses=None,
    )


def _plan(dispersion, grating, temperature_c, lambda_p_m, bracket_nm, **kw) -> PhasematchPlan:
    fields = dict(
        length_m=22.0 * 1e-3,
        tune_range_c=(153.5, 173.5),
        tune_steps=41,
        shg_scan_m=(1570.0 * 1e-9, 1610.0 * 1e-9),
        acceptance_scan_m=(787.0 * 1e-9, 793.0 * 1e-9),
        acceptance_points=161,
    )
    fields.update(kw)
    return PhasematchPlan(
        dispersion=dispersion,
        grating=grating,
        temperature_c=temperature_c,
        lambda_p_m=lambda_p_m,
        bracket_m=(bracket_nm[0] * 1e-9, bracket_nm[1] * 1e-9),
        **fields,
    )


def _baseline_plan() -> PhasematchPlan:
    ln = lithium_niobate_e()
    grating = poling_period_for_target(532.0 * 1e-9, 790.5 * 1e-9, 163.5, ln)
    return _plan(ln, grating, 163.5, 532.0 * 1e-9, (700.0, 900.0))


TOY_TREE = {
    "dispersion": {
        "model": "toy",
        "n0": 2.1,
        "slope_per_um": -0.03,
        "curvature_per_um2": 0.05,
        "theta_slope_per_c": 1e-5,
    },
    "calibration": {"lambda_p_nm": 532.0, "lambda_s_nm": 800.0},
    "temperature_c": 25.0,
    "lambda_p_nm": 532.0,
}

SELLMEIER_TREE = {
    "dispersion": {
        "model": "sellmeier",
        "a": LN_A,
        "b": LN_B,
        "lambda_max_nm": 4000.0,
        "theta_min_c": 30.0,
    },
    "poling_period_um": 7.4,
    "grating_sign": 1,
    "temperature_c": 100.0,
    "lambda_p_nm": 532.0,
    "bracket_nm": [700.0, 900.0],
    "length_mm": 10.0,
    "tune_range_c": [90, 110],
    "tune_steps": 5,
    "acceptance_points": 21,
}


def _toy_plan() -> PhasematchPlan:
    toy = ToyDispersion(
        n0=2.1,
        slope_per_m=-0.03 * 1e6,
        curvature_per_m2=0.05 * 1e12,
        theta_slope_per_c=1e-5,
        lambda_ref_m=1e-6,
    )
    grating = poling_period_for_target(532.0 * 1e-9, 800.0 * 1e-9, 25.0, toy)
    plan = _plan(toy, grating, 25.0, 532.0 * 1e-9, (700.0, 900.0))
    return replace(plan, bracket_m=(700e-9, 900e-9), acceptance_scan_m=(787e-9, 793e-9))


def _sellmeier_plan() -> PhasematchPlan:
    disp = SellmeierDispersion(
        a=tuple(LN_A),
        b=tuple(LN_B),
        lambda_range_m=(400e-9, 4000.0 * 1e-9),
        temp_range_c=(30.0, 260.0),
    )
    return _plan(
        disp,
        QpmGrating(poling_period_m=7.4 * 1e-6, sign=1),
        100.0,
        532.0 * 1e-9,
        (700.0, 900.0),
        length_m=10.0 * 1e-3,
        tune_range_c=(90.0, 110.0),
        tune_steps=5,
        acceptance_scan_m=(787e-9, 793e-9),
        acceptance_points=21,
    )


def _stage2_plan() -> PhasematchPlan:
    ln = lithium_niobate_e()
    return _plan(
        ln, poling_period_for_shg(1581.0 * 1e-9, 163.5, ln), 163.5, 790.5 * 1e-9, (1400.0, 1560.0)
    )


def _same(got, expected):
    assert got == expected
    assert repr(got) == repr(expected)


def test_parsed_values_are_pinned():
    """Parse results of six inputs equal explicitly built objects, float for float."""
    for tree in (load_config(CONFIGS / "baseline.json"), default_config()):
        _same(parse_simulate(tree["simulate"]), _baseline_sim())
        _same(parse_analyze(tree["analyze"]), _baseline_analyze())
        _same(parse_phasematch(tree["phasematch"]), _baseline_plan())
    _same(parse_phasematch(load_config(CONFIGS / "stage2_phasematch.json")["phasematch"]), _stage2_plan())
    _same(parse_analyze({}), AnalyzeOptions())
    _same(parse_phasematch(json.loads(json.dumps(TOY_TREE))), _toy_plan())
    _same(parse_phasematch(json.loads(json.dumps(SELLMEIER_TREE))), _sellmeier_plan())


# the required keys of each config object; the object parsed from them alone
# must be the one its constructor builds from the same required arguments, so
# that every optional key's default has one owner, the constructor
SOURCE_TREE = {
    "pump_power_uW": 10.0,
    "pump_wavelength_nm": 532.0,
    "rep_rate_MHz": 10.0,
    "pdc1_pairs_per_pump_photon": 8.1e-8,
    "pdc2_pairs_per_pump_photon": 2.7e-7,
}
SIMULATE_TREE = {
    "source": SOURCE_TREE,
    "arms": {name: {"detector": {"efficiency": 0.6}} for name in ("i1", "s2", "i2")},
    "n_pulses": 1000,
}
SOURCE = SourceParams(
    pump_power_w=10.0 * 1e-6,
    pump_wavelength_m=532.0 * 1e-9,
    rep_rate_hz=10.0 * 1e6,
    pdc1_efficiency=8.1e-8,
    pdc2_efficiency=2.7e-7,
)
ARM = Arm(channel=ChannelModel(), detector=DetectorModel(efficiency=0.6))


def _dispersion_of(tree):
    return parse_phasematch({"dispersion": tree, "poling_period_um": 7.4}).dispersion


@pytest.mark.parametrize(
    "parse, expected",
    [
        (
            lambda: parse_simulate(SIMULATE_TREE),
            SimConfig(source=SOURCE, arms=(ARM,) * 3, n_pulses=1000),
        ),
        (lambda: parse_simulate(SIMULATE_TREE).source, SOURCE),
        (lambda: parse_simulate(SIMULATE_TREE).arms[0], ARM),
        (lambda: parse_simulate(SIMULATE_TREE).arms[0].detector, DetectorModel(efficiency=0.6)),
        (lambda: parse_analyze({}), AnalyzeOptions()),
        (
            lambda: parse_phasematch({"poling_period_um": 7.4}),
            PhasematchPlan(dispersion=lithium_niobate_e(), grating=QpmGrating(7.4 * 1e-6)),
        ),
        (lambda: _dispersion_of({"model": "toy"}), ToyDispersion()),
        (
            lambda: _dispersion_of({"model": "sellmeier", "a": LN_A, "b": LN_B}),
            replace(lithium_niobate_e(), a=tuple(LN_A), b=tuple(LN_B)),
        ),
        (lambda: _dispersion_of({"model": "lithium_niobate_e"}), lithium_niobate_e()),
    ],
    ids=[
        "simulate",
        "source",
        "arm",
        "detector",
        "analyze",
        "phasematch",
        "toy",
        "sellmeier",
        "lithium_niobate_e",
    ],
)
def test_absent_optional_keys_take_the_constructor_defaults(parse, expected):
    _same(parse(), expected)


class TestBaselineProvenance:
    """The shipped baseline is the reference measurement's operating point.

    Arm transmissions are back-solved so that, with the detector
    efficiencies 0.6 / 0.25 / 0.7, the three-arm efficiency product is the
    reference 2.17e-3; the predicted triplet rate is then 6.35e-11 per pulse
    against the measured (6.25 +/- 1.09)e-11.
    """

    def test_write_config_emits_the_shipped_file(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["write-config", "--output", str(out)]) == 0
        assert out.read_bytes() == (CONFIGS / "baseline.json").read_bytes()

    def test_arm_transmissions_are_back_solved(self):
        arms = load_config(CONFIGS / "baseline.json")["simulate"]["arms"]
        transmission = round((2.17e-3 / (0.6 * 0.25 * 0.7)) ** (1 / 3), 6)
        assert transmission == 0.274425
        assert [arm["transmission"] for arm in arms.values()] == [transmission] * 3
        assert [arm["detector"]["efficiency"] for arm in arms.values()] == [0.6, 0.25, 0.7]

    def test_predicted_rates(self):
        sim = parse_simulate(load_config(CONFIGS / "baseline.json")["simulate"])
        assert math.prod(arm.detection_prob for arm in sim.arms) == pytest.approx(2.17e-3, rel=1e-5)
        rates = expected_rates(sim)
        assert rates.triplet_probability_per_pulse == pytest.approx(6.35e-11, rel=1e-3)


def _run(tmp_path, capsys, tree, *command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tree))
    capsys.readouterr()
    rc = main([*command, "--config", str(cfg)])
    return rc, capsys.readouterr().err


def _tiny_ttag(tmp_path):
    path = tmp_path / "tiny.ttag"
    stream = TimeTagStream(
        82.3125e-12, np.array([1, 2, 3], dtype=np.uint8), np.array([100, 100, 100], dtype=np.int64)
    )
    write_ttag(path, stream)
    return str(path)


def _simulate_tree(**simulate):
    tree = default_config()
    tree["simulate"].update(simulate)
    return tree


def _phasematch_tree(dispersion=None, **phasematch):
    tree = {"schema_version": 1, "phasematch": default_config()["phasematch"]}
    if dispersion is not None:
        tree["phasematch"]["dispersion"] = dispersion
    tree["phasematch"].update(phasematch)
    return tree


CALIBRATION = {"lambda_p_nm": 532.0, "lambda_s_nm": 790.5, "temperature_c": 163.5}


def _dispersion_case(model, key, value):
    tree = _phasematch_tree({"model": model, key: value})
    return tree, "phasematch", f"phasematch.dispersion.{key}", "unknown key"


class TestMalformedConfig:
    """Each case exits 2 and names its key path once, in words."""

    @pytest.mark.parametrize(
        "tree, command, path, words",
        [
            (
                {"schema_version": 1, "simulate": 5},
                "simulate",
                "config.simulate",
                "expected an object, got 5",
            ),
            (
                {"schema_version": 1, "analyze": []},
                "analyze",
                "config.analyze",
                "expected an object, got []",
            ),
            (
                _simulate_tree(n_pulses=1e3),
                "simulate",
                "simulate.n_pulses",
                "expected an integer, got 1000.0",
            ),
            (
                _simulate_tree(rng_seed=True),
                "simulate",
                "simulate.rng_seed",
                "expected an integer, got True",
            ),
            (
                {**default_config(), "report": {"format": "json"}},
                "phasematch",
                "config.report",
                "unknown key",
            ),
            _dispersion_case("lithium_niobate_e", "n0", 2.2),
            _dispersion_case("lithium_niobate_e", "a", LN_A),
            _dispersion_case("lithium_niobate_e", "theta_min_c", 30.0),
            _dispersion_case("toy", "lambda_min_nm", 500.0),
            _dispersion_case("toy", "theta_max_c", 90.0),
            (
                _phasematch_tree(
                    poling_period_um=7.4, calibration={**CALIBRATION, "lambda_p_nm": 1.0}
                ),
                "phasematch",
                "phasematch:",
                "exactly one of poling_period_um and a calibration object",
            ),
            (
                _phasematch_tree(grating_sign=1),
                "phasematch",
                "phasematch.grating_sign",
                "only valid with poling_period_um",
            ),
            (
                _phasematch_tree(calibration={**CALIBRATION, "lambda_p_nm": 1.0}),
                "phasematch",
                "phasematch.calibration",
                "outside model validity range",
            ),
            (
                _phasematch_tree(bracket_nm=[700.0, "900"]),
                "phasematch",
                "phasematch.bracket_nm",
                "expected a list of 2 finite numbers",
            ),
            (
                _simulate_tree(peak_offset_ns=float("nan")),
                "simulate",
                "simulate.peak_offset_ns",
                "expected a finite number, got nan",
            ),
            (
                _simulate_tree(rep_period_ns=10**400),
                "simulate",
                "simulate.rep_period_ns",
                "expected a finite number",
            ),
        ],
    )
    def test_rejected_naming_the_key_once(self, tmp_path, capsys, tree, command, path, words):
        argv = {
            "simulate": ["simulate", "--output", str(tmp_path / "x.ttag")],
            "analyze": ["analyze", _tiny_ttag(tmp_path), "--output", str(tmp_path / "out")],
            "phasematch": ["phasematch", "solve"],
        }[command]
        rc, err = _run(tmp_path, capsys, tree, *argv)
        assert rc == 2
        assert err.startswith("config error: ") and err.count(path) == 1 and words in err
        assert "<class" not in err and "Traceback" not in err


class TestAnalyzeOptionRanges:
    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("n_pulses", 0, "n_pulses"),
            ("peak_search_radius_bins", -1, "peak_search_radius"),
            ("fit_exclude_sigma", 0, "fit_exclude_sigma"),
            # 2,429,764,631 ticks each side: the fine grid's flat keys would wrap int64
            ("window_half_span_ns", 2e8, "window_half_span_s"),
        ],
    )
    def test_out_of_range_option_rejected(self, tmp_path, capsys, key, value, field):
        tree = default_config()
        tree["analyze"][key] = value
        ttag, out = _tiny_ttag(tmp_path), tmp_path / "out"
        rc, err = _run(tmp_path, capsys, tree, "analyze", ttag, "--output", str(out))
        assert rc == 2
        assert err.startswith("config error: analyze: ") and field in err
        assert not (out / "report.json").exists()
        with pytest.raises(ConfigError, match=f"^analyze: {field}"):
            parse_analyze({key: value})


class TestPhasematchRanges:
    @pytest.mark.parametrize(
        "key, value, mode",
        [
            ("tune_steps", 0, "tune"),
            ("tune_steps", -1, "tune"),
            ("acceptance_points", 0, "acceptance"),
            ("acceptance_points", 2, "acceptance"),  # no interior peak
        ],
    )
    def test_out_of_range_option_rejected(self, tmp_path, capsys, key, value, mode):
        tree = _phasematch_tree(**{key: value})
        rc, err = _run(tmp_path, capsys, tree, "phasematch", mode)
        assert rc == 2
        assert err.startswith(f"config error: phasematch: {key} must be")
        with pytest.raises(ConfigError, match=f"^phasematch: {key}"):
            parse_phasematch(tree["phasematch"])

    @pytest.mark.parametrize(
        "key, value, mode, field",
        [
            ("length_mm", -5.0, "acceptance", "length_m"),
            ("length_mm", 0.0, "acceptance", "length_m"),
            ("lambda_p_nm", -532.0, "solve", "lambda_p_m"),
            ("bracket_nm", [900.0, 700.0], "solve", "bracket_m"),
            ("bracket_nm", [500.0, 900.0], "solve", "bracket_m"),  # starts below the pump
            ("shg_scan_nm", [1610.0, 1570.0], "shg", "shg_scan_m"),
            ("acceptance_scan_nm", [793.0, 787.0], "acceptance", "acceptance_scan_m"),
            ("acceptance_scan_nm", [-1.0, 793.0], "acceptance", "acceptance_scan_m"),
        ],
    )
    def test_out_of_range_plan_value_rejected_naming_the_field(
        self, tmp_path, capsys, key, value, mode, field
    ):
        tree = _phasematch_tree(**{key: value})
        rc, err = _run(tmp_path, capsys, tree, "phasematch", mode)
        assert rc == 2
        assert err.startswith(f"config error: phasematch: {field} must")
        with pytest.raises(ConfigError, match=f"^phasematch: {field} must"):
            parse_phasematch(tree["phasematch"])

    def test_reversed_tune_range_still_tunes(self, tmp_path, capsys):
        tree = _phasematch_tree(tune_range_c=[173.5, 153.5], tune_steps=3)
        rc, _ = _run(tmp_path, capsys, tree, "phasematch", "tune")
        assert rc == 0
