"""Run configuration: JSON schema, validation, defaults and hashing.

Configs are plain JSON with one subtree per command.  Every physical
quantity carries its unit in the key name, unknown keys are rejected with
the full key path, and the hash covers the raw JSON tree canonicalised for
key order, whitespace and integral-float spelling, so reformatting, key
reordering or writing 10 as 10.0 does not change it, but an omitted default
and an explicit one still hash differently.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .constants import DEFAULT_TICK_S
from .analysis import BinningConfig
from .dispersion import SellmeierDispersion, ToyDispersion, lithium_niobate_e
from .errors import ConfigError
from .pairstats import SourceParams
from .phasematch import QpmGrating, poling_period_for_shg, poling_period_for_target
from .simulate import Arm, ChannelModel, DetectorModel, SimConfig

SCHEMA_VERSION = 1

# (required, type checker); nested dicts validate recursively
_NUM = (int, float)


def _require(tree: dict, path: str, key: str, types, default=None, required=False):
    if key not in tree:
        if required:
            raise ConfigError(f"{path}.{key}: missing required key")
        return default
    value = tree[key]
    if types is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}.{key}: expected a boolean, got {value!r}")
        return value
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected {types}, got {value!r}")
    return value


def _reject_unknown(tree: dict, path: str, known):
    for key in tree:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key")


def _detector(tree: dict, path: str) -> DetectorModel:
    _reject_unknown(tree, path, {"efficiency", "dark_rate_hz", "jitter_sigma_ps", "dead_time_ns"})
    try:
        return DetectorModel(
            efficiency=_require(tree, path, "efficiency", _NUM, required=True),
            dark_rate_hz=_require(tree, path, "dark_rate_hz", _NUM, 0.0),
            jitter_sigma_s=_require(tree, path, "jitter_sigma_ps", _NUM, 0.0) * 1e-12,
            dead_time_s=_require(tree, path, "dead_time_ns", _NUM, 0.0) * 1e-9,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _arm(tree: dict, path: str) -> Arm:
    _reject_unknown(tree, path, {"transmission", "leakage_rate_per_pulse", "detector"})
    det = tree.get("detector")
    if not isinstance(det, dict):
        raise ConfigError(f"{path}.detector: missing or not an object")
    try:
        channel = ChannelModel(
            transmission=_require(tree, path, "transmission", _NUM, 1.0),
            leakage_rate_per_pulse=_require(tree, path, "leakage_rate_per_pulse", _NUM, 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return Arm(channel=channel, detector=_detector(det, f"{path}.detector"))


def parse_source(tree: dict, path: str = "simulate.source") -> SourceParams:
    _reject_unknown(
        tree,
        path,
        {
            "pump_power_uW",
            "pump_wavelength_nm",
            "rep_rate_MHz",
            "injection_efficiency",
            "pdc1_pairs_per_pump_photon",
            "pdc2_pairs_per_pump_photon",
        },
    )
    try:
        return SourceParams(
            pump_power_w=_require(tree, path, "pump_power_uW", _NUM, required=True) * 1e-6,
            pump_wavelength_m=_require(tree, path, "pump_wavelength_nm", _NUM, required=True) * 1e-9,
            rep_rate_hz=_require(tree, path, "rep_rate_MHz", _NUM, required=True) * 1e6,
            injection_efficiency=_require(tree, path, "injection_efficiency", _NUM, 1.0),
            pdc1_efficiency=_require(tree, path, "pdc1_pairs_per_pump_photon", _NUM, required=True),
            pdc2_efficiency=_require(tree, path, "pdc2_pairs_per_pump_photon", _NUM, required=True),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_simulate(tree: dict, path: str = "simulate") -> SimConfig:
    _reject_unknown(
        tree,
        path,
        {
            "source",
            "arms",
            "rep_period_ns",
            "n_pulses",
            "peak_offset_ns",
            "resolution_ps",
            "rng_seed",
        },
    )
    source_tree = tree.get("source")
    if not isinstance(source_tree, dict):
        raise ConfigError(f"{path}.source: missing or not an object")
    arms_tree = tree.get("arms")
    if not isinstance(arms_tree, dict):
        raise ConfigError(f"{path}.arms: missing or not an object")
    _reject_unknown(arms_tree, f"{path}.arms", {"i1", "s2", "i2"})
    arms = []
    for name in ("i1", "s2", "i2"):
        sub = arms_tree.get(name)
        if not isinstance(sub, dict):
            raise ConfigError(f"{path}.arms.{name}: missing or not an object")
        arms.append(_arm(sub, f"{path}.arms.{name}"))
    try:
        return SimConfig(
            source=parse_source(source_tree, f"{path}.source"),
            arms=tuple(arms),
            rep_period_s=_require(tree, path, "rep_period_ns", _NUM, 100.0) * 1e-9,
            n_pulses=_require(tree, path, "n_pulses", int, required=True),
            peak_offset_s=_require(tree, path, "peak_offset_ns", _NUM, -0.165) * 1e-9,
            resolution_s=_require(tree, path, "resolution_ps", _NUM, DEFAULT_TICK_S * 1e12) * 1e-12,
            rng_seed=_require(tree, path, "rng_seed", int, 0),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class AnalyzeOptions:
    binning: BinningConfig
    peak_search_radius: int = 3
    fit_exclude_sigma: float = 10.0
    n_pulses: int | None = None


def parse_analyze(tree: dict, path: str = "analyze") -> AnalyzeOptions:
    _reject_unknown(
        tree,
        path,
        {
            "base_bin_ps",
            "merge_factor",
            "window_half_span_ns",
            "rep_period_ns",
            "peak_search_radius_bins",
            "fit_exclude_sigma",
            "n_pulses",
        },
    )
    try:
        binning = BinningConfig(
            base_bin_s=_require(tree, path, "base_bin_ps", _NUM, DEFAULT_TICK_S * 1e12) * 1e-12,
            merge_factor=_require(tree, path, "merge_factor", int, 16),
            window_half_span_s=_require(tree, path, "window_half_span_ns", _NUM, 300.0) * 1e-9,
            rep_period_s=_require(tree, path, "rep_period_ns", _NUM, 100.0) * 1e-9,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return AnalyzeOptions(
        binning=binning,
        peak_search_radius=_require(tree, path, "peak_search_radius_bins", int, 3),
        fit_exclude_sigma=_require(tree, path, "fit_exclude_sigma", _NUM, 10.0),
        n_pulses=_require(tree, path, "n_pulses", int, None),
    )


@dataclass(frozen=True)
class PhasematchPlan:
    dispersion: object
    grating: QpmGrating
    temperature_c: float
    lambda_p_m: float
    bracket_m: tuple[float, float]
    length_m: float
    tune_range_c: tuple[float, float]
    tune_steps: int
    shg_scan_m: tuple[float, float]
    acceptance_scan_m: tuple[float, float]
    acceptance_points: int


def _number_list(tree: dict, path: str, key: str, length: int):
    value = tree.get(key)
    if (
        not isinstance(value, (list, tuple))
        or len(value) != length
        or not all(isinstance(v, _NUM) and not isinstance(v, bool) for v in value)
    ):
        raise ConfigError(f"{path}.{key}: expected {length} numbers")
    return tuple(float(v) for v in value)


def _parse_dispersion(tree: dict, path: str):
    _reject_unknown(
        tree,
        path,
        {
            "model",
            "lambda_min_nm",
            "lambda_max_nm",
            "theta_min_c",
            "theta_max_c",
            "a",
            "b",
            "n0",
            "slope_per_um",
            "curvature_per_um2",
            "theta_slope_per_c",
            "lambda_ref_nm",
        },
    )
    model = _require(tree, path, "model", str, "lithium_niobate_e")
    lam_min = _require(tree, path, "lambda_min_nm", _NUM, None)
    lam_max = _require(tree, path, "lambda_max_nm", _NUM, None)
    if model == "lithium_niobate_e":
        base = lithium_niobate_e()
        lo = lam_min * 1e-9 if lam_min is not None else base.lambda_range_m[0]
        hi = lam_max * 1e-9 if lam_max is not None else base.lambda_range_m[1]
        return lithium_niobate_e(lambda_range_m=(lo, hi))
    if model == "sellmeier":
        # custom temperature-dependent coefficient set, same functional form
        # as the built-in congruent lithium niobate model
        return SellmeierDispersion(
            a=_number_list(tree, path, "a", 6),
            b=_number_list(tree, path, "b", 4),
            lambda_range_m=(
                _require(tree, path, "lambda_min_nm", _NUM, 400.0) * 1e-9,
                _require(tree, path, "lambda_max_nm", _NUM, 5000.0) * 1e-9,
            ),
            temp_range_c=(
                _require(tree, path, "theta_min_c", _NUM, 20.0),
                _require(tree, path, "theta_max_c", _NUM, 260.0),
            ),
            name="custom_sellmeier",
        )
    if model == "toy":
        return ToyDispersion(
            n0=_require(tree, path, "n0", _NUM, 2.2),
            slope_per_m=_require(tree, path, "slope_per_um", _NUM, 0.0) * 1e6,
            curvature_per_m2=_require(tree, path, "curvature_per_um2", _NUM, 0.0) * 1e12,
            theta_slope_per_c=_require(tree, path, "theta_slope_per_c", _NUM, 0.0),
            lambda_ref_m=_require(tree, path, "lambda_ref_nm", _NUM, 1000.0) * 1e-9,
        )
    raise ConfigError(f"{path}.model: unknown dispersion model {model!r}")


def parse_phasematch(tree: dict, path: str = "phasematch") -> PhasematchPlan:
    _reject_unknown(
        tree,
        path,
        {
            "dispersion",
            "poling_period_um",
            "grating_sign",
            "calibration",
            "temperature_c",
            "lambda_p_nm",
            "bracket_nm",
            "length_mm",
            "tune_range_c",
            "tune_steps",
            "shg_scan_nm",
            "acceptance_scan_nm",
            "acceptance_points",
        },
    )
    disp_tree = tree.get("dispersion", {})
    if not isinstance(disp_tree, dict):
        raise ConfigError(f"{path}.dispersion: not an object")
    dispersion = _parse_dispersion(disp_tree, f"{path}.dispersion")

    temperature = _require(tree, path, "temperature_c", _NUM, 163.5)
    lambda_p = _require(tree, path, "lambda_p_nm", _NUM, 532.0) * 1e-9

    period_um = _require(tree, path, "poling_period_um", _NUM, None)
    cal = tree.get("calibration")
    if period_um is not None:
        grating = QpmGrating(
            poling_period_m=period_um * 1e-6,
            sign=_require(tree, path, "grating_sign", int, -1),
        )
    elif isinstance(cal, dict):
        _reject_unknown(
            cal,
            f"{path}.calibration",
            {"lambda_p_nm", "lambda_s_nm", "temperature_c", "degenerate_nm"},
        )
        cal_path = f"{path}.calibration"
        cal_temp = _require(cal, cal_path, "temperature_c", _NUM, temperature)
        degenerate = _require(cal, cal_path, "degenerate_nm", _NUM, None)
        if degenerate is not None:
            grating = poling_period_for_shg(degenerate * 1e-9, cal_temp, dispersion)
        else:
            grating = poling_period_for_target(
                _require(cal, cal_path, "lambda_p_nm", _NUM, required=True) * 1e-9,
                _require(cal, cal_path, "lambda_s_nm", _NUM, required=True) * 1e-9,
                cal_temp,
                dispersion,
            )
    else:
        raise ConfigError(f"{path}: provide poling_period_um or a calibration object")

    def _pair(key, default):
        value = tree.get(key, default)
        if (
            not isinstance(value, (list, tuple))
            or len(value) != 2
            or not all(isinstance(v, _NUM) and not isinstance(v, bool) for v in value)
        ):
            raise ConfigError(f"{path}.{key}: expected [low, high]")
        return float(value[0]), float(value[1])

    bracket = _pair("bracket_nm", [700.0, 900.0])
    tune_range = _pair("tune_range_c", [153.5, 173.5])
    shg_scan = _pair("shg_scan_nm", [1570.0, 1610.0])
    acc_scan = _pair("acceptance_scan_nm", [787.0, 793.0])
    return PhasematchPlan(
        dispersion=dispersion,
        grating=grating,
        temperature_c=temperature,
        lambda_p_m=lambda_p,
        bracket_m=(bracket[0] * 1e-9, bracket[1] * 1e-9),
        length_m=_require(tree, path, "length_mm", _NUM, 22.0) * 1e-3,
        tune_range_c=tune_range,
        tune_steps=_require(tree, path, "tune_steps", int, 41),
        shg_scan_m=(shg_scan[0] * 1e-9, shg_scan[1] * 1e-9),
        acceptance_scan_m=(acc_scan[0] * 1e-9, acc_scan[1] * 1e-9),
        acceptance_points=_require(tree, path, "acceptance_points", int, 161),
    )


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            tree = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _reject_unknown(tree, "config", {"schema_version", "simulate", "analyze", "phasematch", "report"})
    version = _require(tree, "config", "schema_version", int, required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: unsupported version {version}")
    return tree


def _integral_floats_as_ints(value):
    """Copy of a JSON tree with every integral float (10.0) written as an int."""
    if isinstance(value, dict):
        return {k: _integral_floats_as_ints(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_integral_floats_as_ints(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def config_hash(tree: dict) -> str:
    """SHA-256 of the raw tree with sorted keys and no whitespace.

    Key order, formatting and the spelling of integral numbers are
    canonicalised, so 10 and 10.0 hash alike (booleans stay booleans).
    Other values are hashed as written: an omitted default and an explicit
    one hash differently.
    """
    canonical = json.dumps(_integral_floats_as_ints(tree), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def default_config() -> dict:
    """Baseline configuration reproducing the reference measurement settings.

    Arm transmissions are back-solved so the three-arm efficiency product is
    2.17e-3 with the detector efficiencies 0.6 / 0.25 / 0.7; dark rates are
    back-solved so the noise floor of a full-length run averages 0.048
    three-fold coincidences per merged bin.
    """
    t = (2.17e-3 / (0.6 * 0.25 * 0.7)) ** (1.0 / 3.0)
    arm = lambda eff, dark, dead: {
        "transmission": round(t, 6),
        "leakage_rate_per_pulse": 0.0,
        "detector": {
            "efficiency": eff,
            "dark_rate_hz": dark,
            "jitter_sigma_ps": 150.0,
            "dead_time_ns": dead,
        },
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "simulate": {
            "source": {
                "pump_power_uW": 10.0,
                "pump_wavelength_nm": 532.0,
                "rep_rate_MHz": 10.0,
                "injection_efficiency": 0.5,
                "pdc1_pairs_per_pump_photon": 8.1e-8,
                "pdc2_pairs_per_pump_photon": 2.7e-7,
            },
            "arms": {
                "i1": arm(0.6, 300.0, 50.0),
                "s2": arm(0.25, 2500.0, 10000.0),
                "i2": arm(0.7, 1500.0, 50.0),
            },
            "rep_period_ns": 100.0,
            "n_pulses": 10_000_000,
            "peak_offset_ns": -0.165,
            "resolution_ps": 82.3125,
            "rng_seed": 1,
        },
        "analyze": {
            "base_bin_ps": 82.3125,
            "merge_factor": 16,
            "window_half_span_ns": 300.0,
            "rep_period_ns": 100.0,
        },
        "phasematch": {
            "dispersion": {"model": "lithium_niobate_e"},
            "calibration": {
                "lambda_p_nm": 532.0,
                "lambda_s_nm": 790.5,
                "temperature_c": 163.5,
            },
            "temperature_c": 163.5,
            "lambda_p_nm": 532.0,
            "bracket_nm": [700.0, 900.0],
            "length_mm": 22.0,
            "tune_range_c": [153.5, 173.5],
            "tune_steps": 41,
            "shg_scan_nm": [1570.0, 1610.0],
            "acceptance_scan_nm": [787.0, 793.0],
        },
    }
