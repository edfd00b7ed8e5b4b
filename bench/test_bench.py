"""Tests of the benchmark harness, run on the shrunken smoke workloads.

    python3 -m pytest bench/test_bench.py
"""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", tracing.LAYER_METRICS)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct(workload):
    out = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", "0", "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= run.N_SETUPS + 2
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", ["W2-boosted", "W3-dense"])
def test_smoke_traced_run_reports_every_layer(workload):
    out = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", "1", "--smoke"))
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == set(tracing.LAYER_METRICS)
    layers = {name: m["value"] for name, m in out["metrics"].items()}
    assert layers["analysis.refs"] > 0 and layers["ttag.records"] > 0
    if workload == "W2-boosted":
        assert layers["simulate.run_s"] > 0 and 0 < layers["simulate.keep_ratio.ch2"] <= 1
    else:
        assert layers["simulate.run_s"] == 0 and layers["analysis.pairs"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "W1-physical", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_same_seed_same_inputs(tmp_path):
    a = workloads.prepare("W3-dense", 5, ROOT, str(tmp_path / "a"), smoke=True)
    b = workloads.prepare("W3-dense", 5, ROOT, str(tmp_path / "b"), smoke=True)
    c = workloads.prepare("W3-dense", 6, ROOT, str(tmp_path / "c"), smoke=True)
    blobs = [Path(s["ttag"]).read_bytes() for s in (a, b, c)]
    assert blobs[0] == blobs[1] != blobs[2]


@pytest.fixture(scope="module")
def dense_pass(tmp_path_factory):
    spec = workloads.prepare("W3-dense", 2, ROOT, str(tmp_path_factory.mktemp("w3")), smoke=True)
    assert workloads.check_pass(spec, workloads.run_pass(spec, 1)) == []
    return spec


def test_check_flags_misplaced_peak(dense_pass):
    spec = dict(dense_pass, planted_bin=[1, 0])
    problems = workloads.check_outputs(spec, workloads.pass_seed(spec["seed"], 1))
    assert any("peak" in p for p in problems)


def test_check_flags_lost_pair(dense_pass, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(dense_pass["output"], out)
    path = out / "histogram.csv"
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1][2] = str(int(rows[1][2]) - 1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    problems = workloads.check_outputs(dict(dense_pass, output=str(out)), 0)
    assert any("pairs" in p for p in problems)


def test_check_flags_singles_off_expectation(tmp_path):
    spec = workloads.prepare("W1-physical", 4, ROOT, str(tmp_path), smoke=True)
    assert workloads.check_pass(spec, workloads.run_pass(spec, 1)) == []
    # a config promising twice the pulses expects twice the singles
    config = Path(spec["config"])
    tree = json.loads(config.read_text())
    tree["simulate"]["n_pulses"] *= 2
    config.write_text(json.dumps(tree))
    problems = workloads.check_outputs(spec, workloads.pass_seed(spec["seed"], 1))
    assert any("ch1 singles" in p for p in problems)
