"""Run configuration: JSON schema, validation, defaults and hashing.

Configs are plain JSON with one subtree per command.  Each config object is
declared once, by a table of its keys; a physical quantity carries its unit
in the key name and is scaled to SI.  Unknown or missing keys, values of the
wrong type and keys of another dispersion model are rejected, naming the
full key path.  The hash covers the raw JSON tree canonicalised for key
order, whitespace and integral-float spelling, so reformatting, key
reordering or writing 10 as 10.0 does not change it, but an omitted default
and an explicit one still hash differently.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path

from .constants import DEFAULT_TICK_S
from .analysis import AnalyzeOptions, BinningConfig
from .dispersion import SellmeierDispersion, ToyDispersion, lithium_niobate_e
from .errors import ConfigError
from .pairstats import SourceParams
from .phasematch import QpmGrating, poling_period_for_shg, poling_period_for_target
from .simulate import Arm, ChannelModel, DetectorModel, SimConfig

SCHEMA_VERSION = 1

# A table maps each key of one config object to (field, type, default,
# scale).  The type is int, float (any finite number), dict (an object) or
# an int n (a list of n finite numbers).  Given and default numbers, list
# elements too, are multiplied by scale; a None default means "not given"
# and stays None.
REQUIRED = object()
_TYPE_NAMES = {int: "an integer", float: "a finite number", dict: "an object"}


def _has_type(value, kind) -> bool:
    if isinstance(kind, int):
        return isinstance(value, (list, tuple)) and len(value) == kind and all(
            _has_type(v, float) for v in value
        )
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        return False
    # JSON admits NaN, Infinity and integers beyond the float range
    return kind is not float or abs(value) <= sys.float_info.max


def _fields(tree, path: str, schema: dict) -> dict:
    """Field values of the config object at path, checked against its table and scaled to SI."""
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: expected an object, got {reprlib.repr(tree)}")
    for key in tree:
        if key not in schema:
            raise ConfigError(f"{path}.{key}: unknown key")
    fields = {}
    for key, (field, kind, default, scale) in schema.items():
        if key in tree:
            value = tree[key]
            if not _has_type(value, kind):
                expected = _TYPE_NAMES.get(kind) or f"a list of {kind} finite numbers"
                raise ConfigError(f"{path}.{key}: expected {expected}, got {reprlib.repr(value)}")
        elif default is REQUIRED:
            raise ConfigError(f"{path}.{key}: missing required key")
        else:
            value = default
        if isinstance(kind, int):
            value = tuple(float(v) * scale for v in value)
        elif value is not None and scale != 1:
            value = value * scale
        fields[field] = value
    return fields


def _build(make, path: str, **kw):
    """make(**kw), with its ValueError raised as a ConfigError naming path."""
    try:
        return make(**kw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_DETECTOR = {
    "efficiency": ("efficiency", float, REQUIRED, 1),
    "dark_rate_hz": ("dark_rate_hz", float, 0.0, 1),
    "jitter_sigma_ps": ("jitter_sigma_s", float, 0.0, 1e-12),
    "dead_time_ns": ("dead_time_s", float, 0.0, 1e-9),
}

_ARM = {
    "transmission": ("transmission", float, 1.0, 1),
    "leakage_rate_per_pulse": ("leakage_rate_per_pulse", float, 0.0, 1),
    "detector": ("detector", dict, REQUIRED, 1),
}

_ARMS = {name: (name, dict, REQUIRED, 1) for name in ("i1", "s2", "i2")}

_SOURCE = {
    "pump_power_uW": ("pump_power_w", float, REQUIRED, 1e-6),
    "pump_wavelength_nm": ("pump_wavelength_m", float, REQUIRED, 1e-9),
    "rep_rate_MHz": ("rep_rate_hz", float, REQUIRED, 1e6),
    "injection_efficiency": ("injection_efficiency", float, 1.0, 1),
    "pdc1_pairs_per_pump_photon": ("pdc1_efficiency", float, REQUIRED, 1),
    "pdc2_pairs_per_pump_photon": ("pdc2_efficiency", float, REQUIRED, 1),
}

_SIMULATE = {
    "source": ("source", dict, REQUIRED, 1),
    "arms": ("arms", dict, REQUIRED, 1),
    "rep_period_ns": ("rep_period_s", float, 100.0, 1e-9),
    "n_pulses": ("n_pulses", int, REQUIRED, 1),
    "peak_offset_ns": ("peak_offset_s", float, -0.165, 1e-9),
    "resolution_ps": ("resolution_s", float, DEFAULT_TICK_S * 1e12, 1e-12),
    "rng_seed": ("rng_seed", int, 0, 1),
}


def _arm(tree, path: str) -> Arm:
    kw = _fields(tree, path, _ARM)
    det_path = f"{path}.detector"
    detector = _build(DetectorModel, det_path, **_fields(kw.pop("detector"), det_path, _DETECTOR))
    return Arm(channel=_build(ChannelModel, path, **kw), detector=detector)


def parse_simulate(tree: dict) -> SimConfig:
    kw = _fields(tree, "simulate", _SIMULATE)
    source_kw = _fields(kw.pop("source"), "simulate.source", _SOURCE)
    source = _build(SourceParams, "simulate.source", **source_kw)
    arm_trees = _fields(kw.pop("arms"), "simulate.arms", _ARMS)
    arms = tuple(_arm(arm_trees[name], f"simulate.arms.{name}") for name in _ARMS)
    return _build(SimConfig, "simulate", source=source, arms=arms, **kw)


_BINNING = {
    "base_bin_ps": ("base_bin_s", float, DEFAULT_TICK_S * 1e12, 1e-12),
    "merge_factor": ("merge_factor", int, 16, 1),
    "window_half_span_ns": ("window_half_span_s", float, 300.0, 1e-9),
    "rep_period_ns": ("rep_period_s", float, 100.0, 1e-9),
}

_ANALYZE = {
    **_BINNING,
    "peak_search_radius_bins": ("peak_search_radius", int, AnalyzeOptions.peak_search_radius, 1),
    "fit_exclude_sigma": ("fit_exclude_sigma", float, AnalyzeOptions.fit_exclude_sigma, 1),
    "n_pulses": ("n_pulses", int, None, 1),
}


def parse_analyze(tree: dict) -> AnalyzeOptions:
    kw = _fields(tree, "analyze", _ANALYZE)
    binning = _build(BinningConfig, "analyze", **{f: kw.pop(f) for f, *_ in _BINNING.values()})
    return _build(AnalyzeOptions, "analyze", binning=binning, **kw)


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

    def __post_init__(self):
        if self.tune_steps < 1:
            raise ValueError(f"tune_steps must be >= 1, got {self.tune_steps}")
        # the acceptance width needs a response peak inside the scan
        if self.acceptance_points < 3:
            raise ValueError(f"acceptance_points must be >= 3, got {self.acceptance_points}")


# one table per dispersion `model` (the default model is lithium_niobate_e)
_DISPERSION = {
    # a None bound keeps the built-in model's own range
    "lithium_niobate_e": {
        "lambda_min_nm": ("lambda_min_m", float, None, 1e-9),
        "lambda_max_nm": ("lambda_max_m", float, None, 1e-9),
    },
    # custom temperature-dependent coefficient set, same functional form as
    # the built-in congruent lithium niobate model
    "sellmeier": {
        "a": ("a", 6, REQUIRED, 1),
        "b": ("b", 4, REQUIRED, 1),
        "lambda_min_nm": ("lambda_min_m", float, 400.0, 1e-9),
        "lambda_max_nm": ("lambda_max_m", float, 5000.0, 1e-9),
        "theta_min_c": ("theta_min_c", float, 20.0, 1),
        "theta_max_c": ("theta_max_c", float, 260.0, 1),
    },
    "toy": {
        "n0": ("n0", float, 2.2, 1),
        "slope_per_um": ("slope_per_m", float, 0.0, 1e6),
        "curvature_per_um2": ("curvature_per_m2", float, 0.0, 1e12),
        "theta_slope_per_c": ("theta_slope_per_c", float, 0.0, 1),
        "lambda_ref_nm": ("lambda_ref_m", float, 1000.0, 1e-9),
    },
}

# a target pump/signal pair; degenerate_nm selects the SHG table instead.  A
# None temperature_c inherits the phasematch temperature_c.
_CALIBRATION = {
    "lambda_p_nm": ("lambda_p_m", float, REQUIRED, 1e-9),
    "lambda_s_nm": ("lambda_s_m", float, REQUIRED, 1e-9),
    "temperature_c": ("temperature_c", float, None, 1),
}

_SHG_CALIBRATION = {
    "degenerate_nm": ("lambda_f_m", float, REQUIRED, 1e-9),
    "temperature_c": ("temperature_c", float, None, 1),
}

_PHASEMATCH = {
    "dispersion": ("dispersion", dict, {}, 1),
    "poling_period_um": ("poling_period_m", float, None, 1e-6),
    "grating_sign": ("sign", int, -1, 1),
    "calibration": ("calibration", dict, None, 1),
    "temperature_c": ("temperature_c", float, 163.5, 1),
    "lambda_p_nm": ("lambda_p_m", float, 532.0, 1e-9),
    "bracket_nm": ("bracket_m", 2, (700.0, 900.0), 1e-9),
    "length_mm": ("length_m", float, 22.0, 1e-3),
    "tune_range_c": ("tune_range_c", 2, (153.5, 173.5), 1),
    "tune_steps": ("tune_steps", int, 41, 1),
    "shg_scan_nm": ("shg_scan_m", 2, (1570.0, 1610.0), 1e-9),
    "acceptance_scan_nm": ("acceptance_scan_m", 2, (787.0, 793.0), 1e-9),
    "acceptance_points": ("acceptance_points", int, 161, 1),
}


def _dispersion(tree: dict, path: str):
    model = tree.get("model", "lithium_niobate_e")
    if not isinstance(model, str) or model not in _DISPERSION:
        raise ConfigError(f"{path}.model: unknown dispersion model {reprlib.repr(model)}")
    kw = _fields({k: v for k, v in tree.items() if k != "model"}, path, _DISPERSION[model])
    if model == "toy":
        return ToyDispersion(**kw)
    if model == "sellmeier":
        return SellmeierDispersion(
            a=kw["a"],
            b=kw["b"],
            lambda_range_m=(kw["lambda_min_m"], kw["lambda_max_m"]),
            temp_range_c=(kw["theta_min_c"], kw["theta_max_c"]),
            name="custom_sellmeier",
        )
    lo, hi = lithium_niobate_e().lambda_range_m
    lo = lo if kw["lambda_min_m"] is None else kw["lambda_min_m"]
    hi = hi if kw["lambda_max_m"] is None else kw["lambda_max_m"]
    return lithium_niobate_e(lambda_range_m=(lo, hi))


def _calibrated_grating(tree: dict, path: str, temperature_c: float, dispersion) -> QpmGrating:
    shg = "degenerate_nm" in tree
    kw = _fields(tree, path, _SHG_CALIBRATION if shg else _CALIBRATION)
    if kw["temperature_c"] is None:
        kw["temperature_c"] = temperature_c
    solve = poling_period_for_shg if shg else poling_period_for_target
    return _build(solve, path, dispersion=dispersion, **kw)


def parse_phasematch(tree: dict) -> PhasematchPlan:
    kw = _fields(tree, "phasematch", _PHASEMATCH)
    if ("poling_period_um" in tree) == ("calibration" in tree):
        raise ConfigError("phasematch: give exactly one of poling_period_um and a calibration object")
    if "grating_sign" in tree and "calibration" in tree:
        raise ConfigError("phasematch.grating_sign: only valid with poling_period_um")
    dispersion = _dispersion(kw.pop("dispersion"), "phasematch.dispersion")
    period, sign, calibration = kw.pop("poling_period_m"), kw.pop("sign"), kw.pop("calibration")
    if calibration is None:
        grating = _build(QpmGrating, "phasematch", poling_period_m=period, sign=sign)
    else:
        grating = _calibrated_grating(
            calibration, "phasematch.calibration", kw["temperature_c"], dispersion
        )
    return _build(PhasematchPlan, "phasematch", dispersion=dispersion, grating=grating, **kw)


_CONFIG = {
    "schema_version": ("schema_version", int, REQUIRED, 1),
    "simulate": ("simulate", dict, None, 1),
    "analyze": ("analyze", dict, None, 1),
    "phasematch": ("phasematch", dict, None, 1),
}


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            tree = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # JSON text is UTF-8
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    version = _fields(tree, "config", _CONFIG)["schema_version"]
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
    """A fresh copy of the baseline configuration shipped as baseline.json."""
    return load_config(Path(__file__).with_name("baseline.json"))
