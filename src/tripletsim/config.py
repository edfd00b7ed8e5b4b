"""Run configuration: JSON schema, validation and hashing.

Configs are plain JSON with one subtree per command.  Each config object is
declared once, by a table of its keys; a physical quantity carries its unit
in the key name and is scaled to SI.  A key is required or optional.  An
absent optional key is not passed on, so the default written once on the
constructor of the object it configures applies.  Unknown keys, missing
required keys, values of the wrong type and keys of another dispersion model
are rejected, naming the full key path.  The hash covers the parsed
objects, so reformatting, key reordering, writing 10 as 10.0 or omitting a
default does not change it.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .analysis import AnalyzeOptions, BinningConfig
from .dispersion import ToyDispersion, lithium_niobate_e
from .errors import ConfigError
from .pairstats import SourceParams
from .phasematch import QpmGrating, poling_period_for_shg, poling_period_for_target
from .simulate import Arm, ChannelModel, DetectorModel, SimConfig

SCHEMA_VERSION = 1

# A table maps each key of one config object to (field, type, scale,
# required).  The type is int, float (any finite number), dict (an object) or
# an int n (a list of n finite numbers).  A float value, and each list
# element, is stored as a float times scale, so 10 and 10.0 parse alike; int
# and dict rows have scale 1.  An optional key that is absent sets no field.
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
    """Field values of the keys given at path, checked against its table and scaled to SI."""
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: expected an object, got {reprlib.repr(tree)}")
    for key in tree:
        if key not in schema:
            raise ConfigError(f"{path}.{key}: unknown key")
    fields = {}
    for key, (field, kind, scale, required) in schema.items():
        if key not in tree:
            if required:
                raise ConfigError(f"{path}.{key}: missing required key")
            continue
        value = tree[key]
        if not _has_type(value, kind):
            expected = _TYPE_NAMES.get(kind) or f"a list of {kind} finite numbers"
            raise ConfigError(f"{path}.{key}: expected {expected}, got {reprlib.repr(value)}")
        if isinstance(kind, int):
            value = tuple(float(v) * scale for v in value)
        elif kind is float:
            value = float(value) * scale
        fields[field] = value
    return fields


def _build(make, path: str, **kw):
    """make(**kw), with its ValueError raised as a ConfigError naming path."""
    try:
        return make(**kw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_DETECTOR = {
    "efficiency": ("efficiency", float, 1, True),
    "dark_rate_hz": ("dark_rate_hz", float, 1, False),
    "jitter_sigma_ps": ("jitter_sigma_s", float, 1e-12, False),
    "dead_time_ns": ("dead_time_s", float, 1e-9, False),
}

_ARM = {
    "transmission": ("transmission", float, 1, False),
    "leakage_rate_per_pulse": ("leakage_rate_per_pulse", float, 1, False),
    "detector": ("detector", dict, 1, True),
}

_ARMS = {name: (name, dict, 1, True) for name in ("i1", "s2", "i2")}

_SOURCE = {
    "pump_power_uW": ("pump_power_w", float, 1e-6, True),
    "pump_wavelength_nm": ("pump_wavelength_m", float, 1e-9, True),
    "rep_rate_MHz": ("rep_rate_hz", float, 1e6, True),
    "injection_efficiency": ("injection_efficiency", float, 1, False),
    "pdc1_pairs_per_pump_photon": ("pdc1_efficiency", float, 1, True),
    "pdc2_pairs_per_pump_photon": ("pdc2_efficiency", float, 1, True),
}

_SIMULATE = {
    "source": ("source", dict, 1, True),
    "arms": ("arms", dict, 1, True),
    "rep_period_ns": ("rep_period_s", float, 1e-9, False),
    "n_pulses": ("n_pulses", int, 1, True),
    "peak_offset_ns": ("peak_offset_s", float, 1e-9, False),
    "resolution_ps": ("resolution_s", float, 1e-12, False),
    "rng_seed": ("rng_seed", int, 1, False),
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
    "base_bin_ps": ("base_bin_s", float, 1e-12, False),
    "merge_factor": ("merge_factor", int, 1, False),
    "window_half_span_ns": ("window_half_span_s", float, 1e-9, False),
    "rep_period_ns": ("rep_period_s", float, 1e-9, False),
}

_ANALYZE = {
    **_BINNING,
    "peak_search_radius_bins": ("peak_search_radius", int, 1, False),
    "fit_exclude_sigma": ("fit_exclude_sigma", float, 1, False),
    "n_pulses": ("n_pulses", int, 1, False),
}


def parse_analyze(tree: dict) -> AnalyzeOptions:
    kw = _fields(tree, "analyze", _ANALYZE)
    binning_kw = {f: kw.pop(f) for f, *_ in _BINNING.values() if f in kw}
    binning = _build(BinningConfig, "analyze", **binning_kw)
    return _build(AnalyzeOptions, "analyze", binning=binning, **kw)


@dataclass(frozen=True)
class PhasematchPlan:
    dispersion: object
    grating: QpmGrating
    temperature_c: float = 163.5
    lambda_p_m: float = 532e-9
    bracket_m: tuple[float, float] = (700e-9, 900e-9)
    length_m: float = 22e-3
    tune_range_c: tuple[float, float] = (153.5, 173.5)
    tune_steps: int = 41
    shg_scan_m: tuple[float, float] = (1570e-9, 1610e-9)
    acceptance_scan_m: tuple[float, float] = (787e-9, 793e-9)
    acceptance_points: int = 161

    def __post_init__(self):
        if self.tune_steps < 1:
            raise ValueError(f"tune_steps must be >= 1, got {self.tune_steps}")
        # the acceptance width needs a response peak inside the scan
        if self.acceptance_points < 3:
            raise ValueError(f"acceptance_points must be >= 3, got {self.acceptance_points}")


# one table per dispersion `model` (the default model is lithium_niobate_e);
# an absent bound or range keeps the built-in model's own
_DISPERSION = {
    "lithium_niobate_e": {
        "lambda_min_nm": ("lambda_min_m", float, 1e-9, False),
        "lambda_max_nm": ("lambda_max_m", float, 1e-9, False),
    },
    # custom temperature-dependent coefficient set, same functional form as
    # the built-in congruent lithium niobate model
    "sellmeier": {
        "a": ("a", 6, 1, True),
        "b": ("b", 4, 1, True),
        "lambda_min_nm": ("lambda_min_m", float, 1e-9, False),
        "lambda_max_nm": ("lambda_max_m", float, 1e-9, False),
        "theta_min_c": ("theta_min_c", float, 1, False),
        "theta_max_c": ("theta_max_c", float, 1, False),
    },
    "toy": {
        "n0": ("n0", float, 1, False),
        "slope_per_um": ("slope_per_m", float, 1e6, False),
        "curvature_per_um2": ("curvature_per_m2", float, 1e12, False),
        "theta_slope_per_c": ("theta_slope_per_c", float, 1, False),
        "lambda_ref_nm": ("lambda_ref_m", float, 1e-9, False),
    },
}

# a target pump/signal pair; degenerate_nm selects the SHG table instead.  An
# absent temperature_c inherits the phasematch temperature_c.
_CALIBRATION = {
    "lambda_p_nm": ("lambda_p_m", float, 1e-9, True),
    "lambda_s_nm": ("lambda_s_m", float, 1e-9, True),
    "temperature_c": ("temperature_c", float, 1, False),
}

_SHG_CALIBRATION = {
    "degenerate_nm": ("lambda_f_m", float, 1e-9, True),
    "temperature_c": ("temperature_c", float, 1, False),
}

_PHASEMATCH = {
    "dispersion": ("dispersion", dict, 1, False),
    "poling_period_um": ("poling_period_m", float, 1e-6, False),
    "grating_sign": ("sign", int, 1, False),
    "calibration": ("calibration", dict, 1, False),
    "temperature_c": ("temperature_c", float, 1, False),
    "lambda_p_nm": ("lambda_p_m", float, 1e-9, False),
    "bracket_nm": ("bracket_m", 2, 1e-9, False),
    "length_mm": ("length_m", float, 1e-3, False),
    "tune_range_c": ("tune_range_c", 2, 1, False),
    "tune_steps": ("tune_steps", int, 1, False),
    "shg_scan_nm": ("shg_scan_m", 2, 1e-9, False),
    "acceptance_scan_nm": ("acceptance_scan_m", 2, 1e-9, False),
    "acceptance_points": ("acceptance_points", int, 1, False),
}


def _dispersion(tree: dict, path: str):
    model = tree.get("model", "lithium_niobate_e")
    if not isinstance(model, str) or model not in _DISPERSION:
        raise ConfigError(f"{path}.model: unknown dispersion model {reprlib.repr(model)}")
    kw = _fields({k: v for k, v in tree.items() if k != "model"}, path, _DISPERSION[model])
    if model == "toy":
        return ToyDispersion(**kw)
    # a sellmeier model is the built-in one with its coefficients and temperature range replaced
    built_in = lithium_niobate_e()
    (lo, hi), (t_lo, t_hi) = built_in.lambda_range_m, built_in.temp_range_c
    return replace(
        built_in,
        a=kw.get("a", built_in.a),
        b=kw.get("b", built_in.b),
        lambda_range_m=(kw.get("lambda_min_m", lo), kw.get("lambda_max_m", hi)),
        temp_range_c=(kw.get("theta_min_c", t_lo), kw.get("theta_max_c", t_hi)),
    )


def _calibrated_grating(tree: dict, path: str, temperature_c: float, dispersion) -> QpmGrating:
    shg = "degenerate_nm" in tree
    kw = _fields(tree, path, _SHG_CALIBRATION if shg else _CALIBRATION)
    kw.setdefault("temperature_c", temperature_c)
    solve = poling_period_for_shg if shg else poling_period_for_target
    return _build(solve, path, dispersion=dispersion, **kw)


def parse_phasematch(tree: dict) -> PhasematchPlan:
    kw = _fields(tree, "phasematch", _PHASEMATCH)
    if ("poling_period_um" in tree) == ("calibration" in tree):
        raise ConfigError("phasematch: give exactly one of poling_period_um and a calibration object")
    if "grating_sign" in tree and "calibration" in tree:
        raise ConfigError("phasematch.grating_sign: only valid with poling_period_um")
    dispersion = _dispersion(kw.pop("dispersion", {}), "phasematch.dispersion")
    grating_kw = {f: kw.pop(f) for f in ("poling_period_m", "sign") if f in kw}
    if "calibration" in kw:
        temperature_c = kw.get("temperature_c", PhasematchPlan.temperature_c)
        grating = _calibrated_grating(
            kw.pop("calibration"), "phasematch.calibration", temperature_c, dispersion
        )
    else:
        grating = _build(QpmGrating, "phasematch", **grating_kw)
    return _build(PhasematchPlan, "phasematch", dispersion=dispersion, grating=grating, **kw)


_CONFIG = {
    "schema_version": ("schema_version", int, 1, True),
    "simulate": ("simulate", dict, 1, False),
    "analyze": ("analyze", dict, 1, False),
    "phasematch": ("phasematch", dict, 1, False),
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


def config_hash(sections: dict) -> str:
    """SHA-256 of the parsed config sections, as JSON with sorted keys and no whitespace.

    sections maps a section name to its parsed dataclass (values in SI), or to
    None for a section the config lacks.  Key order, formatting, 10 against
    10.0 and an omitted default against an explicit one all hash alike.
    """
    parsed = {name: asdict(obj) for name, obj in sections.items() if obj is not None}
    canonical = json.dumps(parsed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def default_config() -> dict:
    """A fresh copy of the baseline configuration shipped as baseline.json."""
    return load_config(Path(__file__).with_name("baseline.json"))
