"""tripletsim benchmark: time-to-certification of the user-facing commands.

Usage, from the root of a checkout:

    python3 bench/run.py --workload W2-boosted --seed 1 --seconds 25 --trace 0

Each run sets up its workload several times, each time writing fresh inputs
under ``.bench_work/`` and starting a fresh worker process that imports the
package and makes one warm-up pass; ``setup_s`` is the median.  The last
worker then repeats timed passes (see ``workloads.py``) for ``--seconds``
seconds, checking every pass's outputs.  Passes run in the worker so that
``peak_rss_mb`` is the memory of the passes, not of the input generator.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics over the passes; with ``--trace 1`` it holds the
per-layer metrics of a traced run (see ``tracing.py``).  A pass fails on a
non-zero exit, an exception or a failed output check; ``failed`` over
``attempted`` is the error rate.  ``--smoke`` shrinks every workload for a
quick check of the harness itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Set-ups per run; setup_s is their median.
N_SETUPS = 3
# Timed passes per run at least, however short --seconds is.
MIN_PASSES = 3
# End-to-end metrics of a --trace 0 run: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "pulses_per_s": ("1/s", "higher"),
    "analyze_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
# A worker still running this long after its --seconds is ended by its own alarm.
WORKER_GRACE_S = 120


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unavailable"


def _environment(args, threads) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------
# worker process: warm-up, then timed passes or traced cycles
# --------------------------------------------------------------------------


def worker(spec_path: str, seconds: float, trace: bool) -> int:
    signal.alarm(int(seconds) + WORKER_GRACE_S)
    protocol = sys.stdout
    sys.stdout = sys.stderr
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import tripletsim  # import cost belongs to set-up
    import workloads

    if not os.path.abspath(tripletsim.__file__).startswith(SRC + os.sep):
        raise ImportError(f"tripletsim imported from {tripletsim.__file__}, not from {SRC}")

    warm = workloads.run_pass(spec, 0)
    protocol.write("ready\n")
    protocol.flush()
    problems = workloads.check_pass(spec, warm)
    _report_problems("warm-up pass", problems)
    result = {"attempted": 1, "failed": int(bool(problems))}
    if seconds <= 0:
        protocol.write(json.dumps(result) + "\n")
        return 0

    start = time.perf_counter()
    k = 1
    if trace:
        import tracing

        cycles = []
        while k == 1 or time.perf_counter() - start < seconds:
            values, ops = tracing.traced_cycle(spec, k)
            for op, problems in ops.items():
                _report_problems(f"cycle {k} {op}", problems)
                result["attempted"] += 1
                result["failed"] += int(bool(problems))
            if values:
                cycles.append(values)
            k += 1
        result["layers"] = tracing.median_values(cycles) if cycles else {}
        result["cycles"] = len(cycles)
    else:
        passes = []
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            p = workloads.run_pass(spec, k)
            problems = workloads.check_pass(spec, p)
            _report_problems(f"pass {k}", problems)
            result["attempted"] += 1
            result["failed"] += int(bool(problems))
            passes.append(p)
            k += 1
        result["passes"] = [{key: p[key] for key in ("seed", "wall_s", "simulate_s", "analyze_s")}
                            for p in passes]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    protocol.write(json.dumps(result) + "\n")
    return 0


def _report_problems(what, problems) -> None:
    for problem in problems:
        print(f"{what}: {problem}", file=sys.stderr)


# --------------------------------------------------------------------------
# parent process: set-up rounds, one measuring worker, the result line
# --------------------------------------------------------------------------


def _start_worker(spec_path, seconds, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", spec_path,
           "--seconds", str(seconds), "--trace", str(int(trace))]
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)


def _finish_worker(proc) -> dict:
    # read through the same buffered pipe as the "ready" line; the worker's
    # alarm bounds how long this blocks
    out = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _set_up(args, workdir, measure_seconds):
    """Write inputs, start a worker and wait until its warm-up pass is done."""
    import workloads

    t0 = time.perf_counter()
    spec = workloads.prepare(args.workload, args.seed, ROOT, workdir, args.smoke)
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = _start_worker(spec_path, measure_seconds, args.trace)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed before its warm-up pass completed")
    return spec, proc, elapsed


def measure(args) -> dict:
    run_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    attempted = failed = 0
    try:
        setups = []
        n_setups = 1 if args.trace else N_SETUPS
        for i in range(n_setups):
            last = i == n_setups - 1
            spec, proc, elapsed = _set_up(args, os.path.join(run_dir, str(i)),
                                          args.seconds if last else 0)
            setups.append(elapsed)
            result = _finish_worker(proc)
            attempted += result["attempted"]
            failed += result["failed"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass

    print("environment " + json.dumps(_environment(args, spec["threads"])))
    print(f"setup_s rounds {[round(s, 4) for s in setups]}")
    if args.trace:
        import tracing

        print(f"traced cycles {result['cycles']}")
        layers = result["layers"]
        metrics = {name: _metric(layers[name] if layers else 0.0, unit)
                   for name, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        passes = result["passes"]
        wall = [p["wall_s"] for p in passes]
        analyze = [p["analyze_s"] for p in passes]
        for name, values in (("wall_s", wall), ("analyze_s", analyze)):
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"{name} median {median:.4f} quartiles {q1:.4f} {q3:.4f} mean "
                  f"{statistics.mean(values):.4f} over {len(values)} passes: "
                  + " ".join(f"{v:.4f}" for v in values))
        # Means, not medians: on a shared VM pass times split into a fast and a
        # ~1.6x slower mode, each lasting seconds, in a share that changes from
        # run to run.  The median jumps between the modes; the mean moves in
        # proportion.  Over three sets of ten runs the IQR/median of wall_s was
        # 0.11-0.15 (median) against 0.08-0.10 (mean) on W2, and 0.17-0.25
        # against 0.11-0.21 on W3.
        wall_mean = statistics.mean(wall)
        values = {
            "wall_s": wall_mean,
            "pulses_per_s": spec["n_pulses"] / wall_mean,
            "analyze_s": statistics.mean(analyze),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {name: _metric(values[name], unit) for name, (unit, _) in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink every workload")
    parser.add_argument("--worker", metavar="SPEC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        return worker(args.worker, args.seconds, bool(args.trace))
    if args.workload is None:
        parser.error("--workload is required")
    missing = [p for p in (os.path.join(SRC, "tripletsim", "__init__.py"),
                           os.path.join(ROOT, "configs", "baseline.json"))
               if not os.path.exists(p)]
    if missing:
        print(f"benchmark: not a tripletsim checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        outcome = measure(args)
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
