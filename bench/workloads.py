"""Benchmark workloads: input generation, one timed pass, and output checks.

Every workload is a sequence of user-facing commands driven in-process
through ``tripletsim.cli.main``:

* ``W1-physical``: ``configs/baseline.json`` at physical efficiencies,
  1e7 pulses, one thread, simulate then analyze.  The north-star regime;
  the simulator dominates and analysis sees a handful of pairs.
* ``W2-boosted``: baseline with ``pdc2_pairs_per_pump_photon`` 0.05,
  2e7 pulses, two threads.  The certification regime: a real central peak
  (about 240 expected triplets) on the threaded block path.
* ``W3-dense``: a synthetic stream written once in set-up (2e6 / 3e5 / 4e5
  uniform tags on channels 1 / 2 / 3 over 2e6 pulse periods, plus planted
  triplets), analyzed on every pass.  Analysis dominates; no simulation.

The checks use only the public API and statistical tolerances, so they keep
passing when a later change versions the random-number scheme.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
import time
import traceback
from contextlib import redirect_stderr

import numpy as np

WORKLOADS = ("W1-physical", "W2-boosted", "W3-dense")

# |z| above which an observed count disagrees with its analytic expectation
Z_LIMIT = 5.0

# Pulse counts (and W3 tag counts) shrink by this factor in smoke mode.
SMOKE_SCALE = 0.02

W3_TAGS = (2_000_000, 300_000, 400_000)
W3_PULSES = 2_000_000
W3_PLANTED = 3_000


def pass_seed(seed: int, k: int) -> int:
    """Simulation seed of pass k in a run started with ``--seed seed``."""
    return seed * 1_000_003 + k


def prepare(name: str, seed: int, root: str, workdir: str, smoke: bool) -> dict:
    """Write the workload's inputs under workdir; return the pass spec."""
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(root, "configs", "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)
    scale = SMOKE_SCALE if smoke else 1.0
    spec = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "config": os.path.join(workdir, "config.json"),
        "ttag": os.path.join(workdir, "run.ttag"),
        "output": os.path.join(workdir, "out"),
    }
    if name in ("W1-physical", "W2-boosted"):
        tree = copy.deepcopy(baseline)
        sim = tree["simulate"]
        if name == "W1-physical":
            sim["n_pulses"] = int(10_000_000 * scale)
            spec["threads"] = 1
        else:
            sim["source"]["pdc2_pairs_per_pump_photon"] = 0.05
            sim["n_pulses"] = int(20_000_000 * scale)
            spec["threads"] = 2
        sim["rng_seed"] = seed
        spec.update(simulate=True, n_pulses=sim["n_pulses"])
    elif name == "W3-dense":
        tree = {"schema_version": baseline["schema_version"], "analyze": dict(baseline["analyze"])}
        n_pulses = int(W3_PULSES * scale)
        tree["analyze"]["n_pulses"] = n_pulses
        spec.update(simulate=False, threads=1, n_pulses=n_pulses)
        spec.update(_write_dense_stream(spec["ttag"], baseline, seed, scale, n_pulses))
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    with open(spec["config"], "w", encoding="utf-8") as fh:
        json.dump(tree, fh, indent=2)
    return spec


def _write_dense_stream(path, baseline: dict, seed: int, scale: float, n_pulses: int) -> dict:
    """Uniform background tags plus planted triplets at the baseline arm delay."""
    from tripletsim import TimeTagStream, write_ttag

    sim = baseline["simulate"]
    tick = sim["resolution_ps"] * 1e-12
    rep = sim["rep_period_ns"] * 1e-9
    offset = sim["peak_offset_ns"] * 1e-9
    rng = np.random.default_rng([seed, 3])
    span_ticks = int(n_pulses * rep / tick)

    ticks, chans = [], []
    for channel, n in zip((1, 2, 3), W3_TAGS):
        n = int(n * scale)
        ticks.append(rng.integers(0, span_ticks, n))
        chans.append(np.full(n, channel, np.uint8))
    n_planted = int(W3_PLANTED * scale)
    pulse_t = rng.choice(n_pulses, n_planted, replace=False) * rep
    for channel in (1, 2, 3):
        arm = sim["arms"][("i1", "s2", "i2")[channel - 1]]
        jitter = arm["detector"]["jitter_sigma_ps"] * 1e-12
        delay = 0.0 if channel == 2 else offset
        t = pulse_t + delay + rng.normal(0.0, jitter, n_planted)
        ticks.append(np.maximum(np.rint(t / tick).astype(np.int64), 0))
        chans.append(np.full(n_planted, channel, np.uint8))
    ticks = np.concatenate(ticks)
    chans = np.concatenate(chans)
    order = np.lexsort((chans, ticks))
    write_ttag(path, TimeTagStream(tick, chans[order], ticks[order]))

    merged_bin = baseline["analyze"]["base_bin_ps"] * 1e-12 * baseline["analyze"]["merge_factor"]
    planted_bin = round(offset / merged_bin)
    return {"records": int(len(ticks)), "planted_bin": [planted_bin, planted_bin]}


def run_pass(spec: dict, k: int, span=None) -> dict:
    """One timed pass of the workload's commands; ``check_pass`` checks it.

    ``span(name)`` is an optional context-manager factory wrapped around each
    command (the traced run passes one); with None the commands run bare.
    """
    from tripletsim.cli import main

    seed = pass_seed(spec["seed"], k)
    argv = []
    if spec["simulate"]:
        argv.append(
            ("cli.simulate", ["simulate", "--config", spec["config"], "--output", spec["ttag"],
                              "--seed", str(seed), "--threads", str(spec["threads"])])
        )
    argv.append(
        ("cli.analyze", ["analyze", spec["ttag"], "--config", spec["config"],
                         "--output", spec["output"]])
    )
    times = {"cli.simulate": 0.0, "cli.analyze": 0.0}
    problems = []
    stderr = io.StringIO()
    try:
        with redirect_stderr(stderr):
            for name, args in argv:
                t0 = time.perf_counter()
                if span is None:
                    rc = main(args)
                else:
                    with span(name):
                        rc = main(args)
                times[name] = time.perf_counter() - t0
                if rc != 0:
                    problems.append(f"{args[0]} exited with {rc}")
                    break
    except (Exception, SystemExit):
        problems.append("command raised:\n" + traceback.format_exc())
    return {
        "seed": seed,
        "wall_s": times["cli.simulate"] + times["cli.analyze"],
        "simulate_s": times["cli.simulate"],
        "analyze_s": times["cli.analyze"],
        "problems": problems,
        "stderr": stderr.getvalue(),
    }


def check_pass(spec: dict, result: dict) -> list[str]:
    """Problems of one pass: a failed command, else every failed output check."""
    problems = list(result["problems"])
    if not problems:
        try:
            problems += check_outputs(spec, result["seed"])
        except Exception:
            problems.append("output check raised:\n" + traceback.format_exc())
    if problems:
        problems.append("captured stderr:\n" + result["stderr"])
    return problems


def fine_window_ticks(binning) -> int:
    """Half-width in ticks of the fine delay window the analysis histograms.

    The analysis module documents a symmetric fine window whose merged image
    is the merged grid, the negative edge bin giving up its outermost tick.
    """
    f = binning.merge_factor
    return binning.n_half_merged * f + f // 2 - 1 if f > 1 else binning.n_half_merged


def pair_total(stream, binning) -> int:
    """Sum over channel-2 references of c1 * c3, the tags of channels 1 and 3
    inside the window: the number of pairs the three-fold histogram must hold."""
    w = fine_window_ticks(binning)
    t1, t2, t3 = (stream.channel_ticks(c) for c in (1, 2, 3))
    c1 = np.searchsorted(t1, t2 + w, "right") - np.searchsorted(t1, t2 - w, "left")
    c3 = np.searchsorted(t3, t2 + w, "right") - np.searchsorted(t3, t2 - w, "left")
    return int(np.dot(c1.astype(np.int64), c3.astype(np.int64)))


def check_outputs(spec: dict, seed: int) -> list[str]:
    """Problems found in the outputs of one pass; empty when all checks pass."""
    from tripletsim import expected_rates, read_ttag
    from tripletsim.config import load_config, parse_analyze, parse_simulate

    problems = []
    tree = load_config(spec["config"])
    binning = parse_analyze(tree["analyze"]).binning
    stream = read_ttag(spec["ttag"])
    with open(os.path.join(spec["output"], "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    with open(os.path.join(spec["output"], "histogram.csv"), encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        hist_total = sum(int(r[2]) for r in rows)

    if report["n_pulses"] != spec["n_pulses"]:
        problems.append(f"report n_pulses {report['n_pulses']} != {spec['n_pulses']}")
    expected_pairs = pair_total(stream, binning)
    if hist_total != expected_pairs:
        problems.append(f"histogram holds {hist_total} pairs, references see {expected_pairs}")

    if spec["simulate"]:
        with open(spec["ttag"] + ".manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest["n_records"] != len(stream):
            problems.append(f"manifest n_records {manifest['n_records']} != file {len(stream)}")
        sim = parse_simulate(tree["simulate"]).with_seed(seed)
        rates = expected_rates(sim, merged_bin_s=binning.merged_bin_s)
        for channel, expected in zip((1, 2, 3), rates.singles_counts):
            observed = int(np.count_nonzero(stream.channels == channel))
            z = (observed - expected) / math.sqrt(expected)
            if abs(z) > Z_LIMIT:
                problems.append(f"ch{channel} singles {observed} vs {expected:.1f} (z={z:.2f})")
        if spec["workload"] == "W2-boosted":
            expected = rates.expected_central_count
            z = (report["central_count"] - expected) / math.sqrt(expected)
            if abs(z) > Z_LIMIT:
                problems.append(f"central count {report['central_count']} vs {expected:.1f} (z={z:.2f})")
    else:
        if len(stream) != spec["records"]:
            problems.append(f"read {len(stream)} records, set-up wrote {spec['records']}")
        if report["peak_bin"] != spec["planted_bin"]:
            problems.append(f"peak at {report['peak_bin']}, planted at {spec['planted_bin']}")
    return problems
