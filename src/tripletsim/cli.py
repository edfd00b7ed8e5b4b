"""Command-line front end: simulate, analyze, phasematch, report.

One command per process; data goes to files (or stdout for single-value
results), diagnostics to stderr, exit code 0 only on success.  Every output
file is written by `ttag.atomic_write`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import analysis, phasematch, ttag
from .config import (
    config_hash,
    default_config,
    load_config,
    parse_analyze,
    parse_phasematch,
    parse_simulate,
)
from .errors import ConfigError, FitError, NoRootError, TripletSimError, TtagFormatError
from .simulate import _PERIOD_RTOL, RNG_SCHEME, expected_rates, simulate_run


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _integer_at_least(low: int):
    """argparse type of an integer flag whose values start at low (--threads, --seed)."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return n

    return parse


def _path_in_existing_directory(text: str) -> str:
    """argparse type of simulate's --output: a missing directory is refused before any sampling."""
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"{directory!r} is not an existing directory")
    return text


# Peak bytes of a simulate run per expected record.  Measured with getrusage in fresh
# processes (configs/baseline.json, 2 threads): 61 MB at 1e8 pulses (1.81e6 records),
# 130 MB at 5e8 (9.06e6) and 217 MB at 1e9 (1.81e7), so each added record costs about
# 10 B: the 9 B of its channel and tick, held until the file is written.  Two 9 B records
# bound that slope with room for the fixed part of the peak.
_SIMULATE_BYTES_PER_RECORD = 2 * ttag.RECORD_SIZE


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_binning(binning, tick_s: float, period_s: float) -> None:
    """ConfigError naming the analyze key that does not describe a run of this tick and period.

    A base bin other than the tick would be refused after the run's file is
    read; another pulse period would sample accidentals on the wrong lattice.
    """
    if abs(tick_s - binning.base_bin_s) > analysis._TICK_RTOL * binning.base_bin_s:
        raise ConfigError(
            f"analyze.base_bin_ps: {binning.base_bin_s * 1e12:g} ps does not match the "
            f"simulated tick of {tick_s * 1e12:g} ps"
        )
    if abs(period_s - binning.rep_period_s) > _PERIOD_RTOL * period_s:
        raise ConfigError(
            f"analyze.rep_period_ns: {binning.rep_period_s * 1e9:g} ns does not match the "
            f"simulated pulse period of {period_s * 1e9:g} ns"
        )


def cmd_simulate(args) -> int:
    tree = load_config(args.config)
    if "simulate" not in tree:
        raise ConfigError("config.simulate: section required by this command")
    # every section is parsed, and the run's size checked, before any pulse is sampled
    sim_cfg = parse_simulate(tree["simulate"])
    if args.seed is not None:
        sim_cfg = sim_cfg.with_seed(args.seed)
    opts = parse_analyze(tree["analyze"]) if "analyze" in tree else None
    if opts is not None:  # an analysis of other ticks or pulses would fail, or mislead, later
        _check_binning(opts.binning, sim_cfg.resolution_s, sim_cfg.rep_period_s)
    # with the analysis geometry known the manifest also predicts the central count (else null)
    rates = expected_rates(sim_cfg, None if opts is None else opts.binning.merged_bin_s)
    need, memory = sum(rates.singles_counts) * _SIMULATE_BYTES_PER_RECORD, _physical_memory_bytes()
    if need > memory:
        raise ConfigError(
            f"simulate.n_pulses: {sim_cfg.n_pulses} pulses would need about {need:.3g} bytes "
            f"at the simulation's peak, more than the {memory:.3g} bytes of physical memory"
        )

    stream = simulate_run(sim_cfg, n_threads=args.threads, progress=True)
    ttag.write_ttag(args.output, stream)
    manifest = {
        "schema_version": tree["schema_version"],
        "config_sha256": config_hash({"simulate": sim_cfg, "analyze": opts}),
        "rng_seed": sim_cfg.rng_seed,
        "rng_scheme": RNG_SCHEME,
        # NumPy may change what a Generator draws between releases
        "numpy_version": np.__version__,
        "n_pulses": sim_cfg.n_pulses,
        "n_records": len(stream),
        "resolution_ps": sim_cfg.resolution_s * 1e12,
        "rep_period_ns": sim_cfg.rep_period_s * 1e9,
        "expected": asdict(rates),
    }
    manifest_path = args.output + ".manifest.json"
    ttag.atomic_write(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(
        f"wrote {len(stream)} records to {args.output} (manifest {manifest_path})",
        file=sys.stderr,
    )
    return 0


def _histogram_csv(h) -> bytes:
    # plain numbers need no CSV quoting; a row joins the labels of i and j (each with
    # its comma) and the count's digits, NUL-padded to fixed widths, and drops the NULs
    scale = h.bin_width_s * 1e9
    i, j = np.divmod(h.keys, h.n_axis_bins)  # axis positions, i_idx and j_idx + n_half
    used = np.zeros(h.n_axis_bins, dtype=bool)
    used[i] = True
    used[j] = True
    texts = [b""] * h.n_axis_bins  # only the labels the rows use are formatted
    for k in np.flatnonzero(used).tolist():
        texts[k] = f"{(k - h.n_half) * scale:.6f},".encode()
    labels = np.array(texts)
    counts, which = np.unique(h.values, return_inverse=True)
    digits = np.array([f"{v}\n".encode() for v in counts.tolist()], dtype=bytes)
    columns = labels.take(i), labels.take(j), digits.take(which)
    rows = np.rec.fromarrays(columns).view(np.uint8, np.ndarray)
    return b"tau1_minus_tau2_ns,tau3_minus_tau2_ns,count\n" + rows[rows != 0].tobytes()


def _json_object(path, what: str) -> dict:
    """The JSON object in the file at path; TripletSimError naming the path otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TripletSimError(f"{path}: unreadable {what}: {exc}") from exc
    if not isinstance(tree, dict):
        raise TripletSimError(f"{path}: {what} is not a JSON object")
    return tree


def _manifest_number(manifest: dict, manifest_path: str, key: str, integer: bool = False):
    """The manifest's positive number (integer if asked) under key; TripletSimError naming the path."""
    v = manifest.get(key)
    if not isinstance(v, int if integer else (int, float)) or isinstance(v, bool) or not 0 < v < math.inf:
        what = "integer" if integer else "number"
        raise TripletSimError(f"{manifest_path}: {key} must be a positive {what}, got {v!r}")
    return v


def cmd_analyze(args) -> int:
    tree = load_config(args.config)
    opts = parse_analyze(tree.get("analyze", {}))
    # a refused pulse count or binning costs no read of the file; a manifest that is
    # present must be a readable JSON object
    manifest_path = os.fspath(args.ttag) + ".manifest.json"
    manifest = _json_object(manifest_path, "manifest") if os.path.exists(manifest_path) else None
    if opts.n_pulses is None:
        if manifest is None:
            raise ConfigError(f"analyze.n_pulses: required, since there is no manifest at {manifest_path}")
        opts = replace(opts, n_pulses=_manifest_number(manifest, manifest_path, "n_pulses", integer=True))
    if manifest is not None:
        _check_binning(
            opts.binning,
            _manifest_number(manifest, manifest_path, "resolution_ps") * 1e-12,
            _manifest_number(manifest, manifest_path, "rep_period_ns") * 1e-9,
        )
    report = analysis.analyze_stream(ttag.read_ttag(args.ttag), opts)

    os.makedirs(args.output, exist_ok=True)
    occupancy = sorted(report.occupancy.items())
    files = {
        "report.json": json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        "histogram.csv": _histogram_csv(report.histogram),
        "occupancy.csv": _csv_text([["threefolds_per_bin", "absolute_frequency"], *occupancy]),
    }
    for name, data in files.items():
        ttag.atomic_write(os.path.join(args.output, name), data)
    print(
        f"central={report.central_count} car={report.car:.3g} snr={report.snr:.3g} "
        f"noise_mean={report.noise_mean_per_bin:.3g}",
        file=sys.stderr,
    )
    return 0


def _pair_rows(header, xs, ys) -> list:
    return [header] + [[repr(float(x)), repr(float(y))] for x, y in zip(xs, ys)]


def _solve(plan, fmt: str):
    sol = phasematch.solve_phasematched_signal(
        plan.lambda_p_m, plan.grating, plan.temperature_c, plan.dispersion, plan.bracket_m
    )
    payload = {
        "lambda_s_m": sol.lambda_s_m,
        "lambda_i_m": sol.lambda_i_m,
        "residual_delta_k_per_m": sol.residual_delta_k,
        "n_roots": sol.n_roots,
    }
    return payload if fmt == "json" else [payload.keys(), payload.values()]


def _tune(plan, fmt: str):
    curve = phasematch.temperature_tuning_curve(
        plan.grating,
        plan.lambda_p_m,
        plan.tune_range_c,
        plan.tune_steps,
        plan.dispersion,
        plan.bracket_m,
    )
    points = [asdict(pt) for pt in curve]
    if fmt == "json":
        return points
    header = ["temperature_c", "lambda_s_m", "lambda_i_m"]
    return [header] + [["" if v is None else repr(v) for v in pt.values()] for pt in points]


def _shg(plan, fmt: str):
    # the response curve needs no root, so csv works where the json peak fails
    shg = (plan.grating, plan.temperature_c, plan.dispersion, plan.shg_scan_m)
    if fmt == "json":
        return {"shg_peak_m": phasematch.shg_peak_wavelength(*shg)}
    lams, resp = phasematch.shg_response(*shg, plan.length_m)
    return _pair_rows(["lambda_fundamental_m", "response"], lams, resp)


def _acceptance(plan, fmt: str):
    # like the shg curve, the response csv needs no half-maximum crossings
    stage = (
        plan.grating,
        plan.temperature_c,
        plan.dispersion,
        plan.length_m,
        plan.acceptance_scan_m,
        plan.acceptance_points,
    )
    if fmt == "json":
        return asdict(phasematch.pump_acceptance_bandwidth(*stage))
    pumps, resp = phasematch.pump_acceptance_response(*stage)
    return _pair_rows(["pump_lambda_m", "integrated_response"], pumps, resp)


# mode -> (JSON payload or CSV rows for a format, config key a failed solve names, default format)
_PHASEMATCH_MODES = {
    "solve": (_solve, "phasematch.bracket_nm", "json"),
    "tune": (_tune, "phasematch.bracket_nm", "csv"),
    "shg": (_shg, "phasematch.shg_scan_nm", "json"),
    "acceptance": (_acceptance, "phasematch.acceptance_scan_nm", "json"),
}


def cmd_phasematch(args) -> int:
    tree = load_config(args.config)
    if "phasematch" not in tree:
        raise ConfigError("config.phasematch: section required by this command")
    plan = parse_phasematch(tree["phasematch"])
    compute, key, default_format = _PHASEMATCH_MODES[args.mode]
    fmt = args.format or default_format
    try:
        out = compute(plan, fmt)
    except (NoRootError, FitError) as exc:
        raise TripletSimError(f"{key}: {exc}") from exc
    text = _csv_text(out) if fmt == "csv" else json.dumps(out, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        ttag.atomic_write(args.output, text)
    return 0


def cmd_report(args) -> int:
    rep = _json_object(args.report, "report")
    try:
        if rep["car"] is None:
            car_text = "undefined"
        elif rep["car_is_lower_bound"]:
            car_text = f">= {rep['car']:.3g} (no accidental counts)"
        else:
            car_text = f"{rep['car']:.3g} +/- {rep['car_error']:.2g}"
        peak = rep["peak_delay_ns"]
        peak_text = "none (no counts in the peak search square)" if peak is None else peak
        lines = [
            f"pulses analyzed        {rep['n_pulses']}",
            f"central three-folds    {rep['central_count']} +/- {rep['central_error']:.2f}",
            f"peak delay (ns)        {peak_text}",
            f"accidental mean        {rep['accidental_mean']:.4g} over {rep['n_accidental_bins']} bins",
            "car                    " + car_text,
            f"noise mean per bin     {rep['noise_mean_per_bin']:.4g}",
            f"snr                    {rep['snr']:.4g}"
            + (" (lower bound)" if rep["snr_is_lower_bound"] else ""),
            f"noise tail p(central)  {rep['noise_tail_probability']:.3g}",
            f"success probability    {rep['success_probability']:.4g} +/- {rep['success_error']:.2g}",
        ]
    except KeyError as exc:
        raise TripletSimError(f"{args.report}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise TripletSimError(f"{args.report}: malformed value: {exc}") from exc
    print("\n".join(lines))
    return 0


def cmd_write_config(args) -> int:
    ttag.atomic_write(args.output, json.dumps(default_config(), indent=2) + "\n")
    print(f"wrote default config to {args.output}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripletsim",
        description="Cascaded down-conversion triplet source: simulation, "
        "coincidence analysis and phase-matching design.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the source simulation, write a TTAG file")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument(
        "--output", type=_path_in_existing_directory, required=True, help="output .ttag path"
    )
    p_sim.add_argument(
        "--seed", type=_integer_at_least(0), default=None, help="override the config rng_seed"
    )
    p_sim.add_argument("--threads", type=_integer_at_least(1), default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="coincidence analysis of a TTAG file")
    p_an.add_argument("ttag", help="input .ttag path")
    p_an.add_argument("--config", required=True)
    p_an.add_argument("--output", required=True, help="output directory for report and CSVs")
    p_an.set_defaults(func=cmd_analyze)

    p_pm = sub.add_parser("phasematch", help="quasi-phase-matching design calculations")
    p_pm.add_argument("mode", choices=tuple(_PHASEMATCH_MODES))
    p_pm.add_argument("--config", required=True)
    p_pm.add_argument("--output", default="-", help="output file, '-' for stdout")
    p_pm.add_argument("--format", choices=("json", "csv"), default=None)
    p_pm.set_defaults(func=cmd_phasematch)

    p_rep = sub.add_parser("report", help="pretty-print an analysis report")
    p_rep.add_argument("report", help="report.json produced by analyze")
    p_rep.set_defaults(func=cmd_report)

    p_cfg = sub.add_parser("write-config", help="write the baseline config file")
    p_cfg.add_argument("--output", required=True)
    p_cfg.set_defaults(func=cmd_write_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TtagFormatError as exc:
        print(f"time-tag file error: {exc}", file=sys.stderr)
        return 3
    except (TripletSimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
