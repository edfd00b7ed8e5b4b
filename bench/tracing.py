"""Traced run: spans and counts around the calls into each tripletsim module.

The spans are recorded from the benchmark's side.  For the duration of a
traced pass the public functions the CLI calls are replaced by timing
wrappers; nothing inside ``src/`` is instrumented.  The parts of the
statistics stage, the dead-time-free and other-thread-count simulations and
the TTAG round trip are separate public calls made after the pass.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

from workloads import check_pass, pass_seed, run_pass

# (module, attribute, span name); the CLI looks every one of these up at call time
_TARGETS = (
    ("cli", "load_config", "config.parse"),
    ("cli", "parse_simulate", "config.parse"),
    ("cli", "parse_analyze", "config.parse"),
    ("cli", "simulate_run", "simulate.run"),
    ("ttag", "write_ttag", "ttag.write"),
    ("ttag", "read_ttag", "ttag.read"),
    ("analysis", "build_threefold_histogram", "analysis.histogram"),
    ("analysis", "merge_bins", "analysis.merge"),
    ("analysis", "analyze_merged", "analysis.stats"),
)


# Per-layer metrics of the traced run: name -> (unit, better).  Layers a
# workload does not run (simulate on W3-dense) report 0.
LAYER_METRICS = {
    "simulate.run_s": ("s", "lower"),
    "simulate.nodead_s": ("s", "lower"),
    "simulate.deadtime_s": ("s", "lower"),
    "simulate.tags_raw.ch1": ("count", "lower"),
    "simulate.tags_raw.ch2": ("count", "lower"),
    "simulate.tags_raw.ch3": ("count", "lower"),
    "simulate.tags_kept.ch1": ("count", "lower"),
    "simulate.tags_kept.ch2": ("count", "lower"),
    "simulate.tags_kept.ch3": ("count", "lower"),
    "simulate.keep_ratio.ch1": ("ratio", "higher"),
    "simulate.keep_ratio.ch2": ("ratio", "higher"),
    "simulate.keep_ratio.ch3": ("ratio", "higher"),
    "simulate.tags_per_pulse": ("tags/pulse", "lower"),
    "simulate.ns_per_pulse": ("ns", "lower"),
    "simulate.speedup_2t": ("ratio", "higher"),
    "ttag.write_s": ("s", "lower"),
    "ttag.read_s": ("s", "lower"),
    "ttag.bytes": ("B", "lower"),
    "ttag.records": ("count", "lower"),
    "ttag.read_MBps": ("MB/s", "higher"),
    "ttag.write_MBps": ("MB/s", "higher"),
    "analysis.histogram_s": ("s", "lower"),
    "analysis.merge_s": ("s", "lower"),
    "analysis.stats_s": ("s", "lower"),
    "analysis.peak_s": ("s", "lower"),
    "analysis.accidentals_s": ("s", "lower"),
    "analysis.occupancy_s": ("s", "lower"),
    "analysis.fit_s": ("s", "lower"),
    "analysis.refs": ("count", "lower"),
    "analysis.pairs": ("count", "lower"),
    "analysis.fine_bins_nonempty": ("count", "lower"),
    "analysis.merged_bins_nonempty": ("count", "lower"),
    "analysis.pairs_per_s": ("1/s", "higher"),
    "analysis.refs_per_s": ("1/s", "higher"),
    "analysis.histogram_rss_delta_mb": ("MB", "lower"),
    "cli.simulate_self_s": ("s", "lower"),
    "cli.analyze_self_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "config.parse_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """In-memory spans (name, parent index, start, end) plus the last result per name."""

    def __init__(self):
        self.spans = []
        self.results = {}
        self.rss = {}
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "analysis.histogram":
                with RssPeak() as peak, self.span(name):
                    out = fn(*args, **kwargs)
                self.rss[name] = peak.delta_bytes
            else:
                with self.span(name):
                    out = fn(*args, **kwargs)
            self.results[name] = out
            return out

        return traced

    @contextmanager
    def patched(self):
        import tripletsim.analysis
        import tripletsim.cli
        import tripletsim.ttag

        modules = {"cli": tripletsim.cli, "ttag": tripletsim.ttag, "analysis": tripletsim.analysis}
        saved = [(modules[m], attr, getattr(modules[m], attr)) for m, attr, _ in _TARGETS]
        try:
            for (module, attr, fn), (_, _, name) in zip(saved, _TARGETS):
                setattr(module, attr, self._wrap(fn, name))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def total(self, name) -> float:
        return sum(end - start for n, _, start, end in self.spans if n == name)

    def self_time(self, name) -> float:
        """Duration of the spans called name minus the time their children cover."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        children = sum(s[3] - s[2] for s in self.spans if s[1] in own)
        return self.total(name) - children


class RssPeak:
    """Peak resident set size above the level at entry, sampled every millisecond.

    When the process-wide peak (``ru_maxrss``) rises inside the block, that
    exact figure replaces the sample.  Reads ``/proc/self/statm`` (Linux).
    """

    _page = os.sysconf("SC_PAGE_SIZE")

    def _rss(self) -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * self._page

    def _poll(self):
        while not self._stop.wait(0.001):
            self._peak = max(self._peak, self._rss())

    def __enter__(self):
        self._maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        self._start = self._peak = self._rss()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._peak = max(self._peak, self._rss())
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        if maxrss > self._maxrss:
            self._peak = max(self._peak, maxrss)
        self.delta_bytes = self._peak - self._start
        return False


def _streams_equal(a, b) -> bool:
    return (
        np.array_equal(a.channels, b.channels)
        and np.array_equal(a.timestamps, b.timestamps)
        and abs(a.resolution_s - b.resolution_s) <= 1e-15
    )


def _output_bytes(spec) -> int:
    out = spec["output"]
    total = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
    manifest = spec["ttag"] + ".manifest.json"
    if spec["simulate"] and os.path.exists(manifest):
        total += os.path.getsize(manifest)
    return total


def traced_cycle(spec: dict, k: int) -> tuple[dict, dict]:
    """An untraced pass, the same pass traced, then the separate layer calls.

    Returns the per-layer values and, for each checked operation, the list of
    problems found in it (empty when it passed).
    """
    from tripletsim import analysis, read_ttag, simulate_run, write_ttag
    from tripletsim.config import load_config, parse_analyze, parse_simulate
    from tripletsim.errors import PeakNotFoundError

    untraced = run_pass(spec, k)
    tracer = Tracer()
    with tracer.patched():
        traced = run_pass(spec, k, span=tracer.span)
    ops = {"untraced pass": check_pass(spec, untraced), "traced pass": check_pass(spec, traced)}
    if any(ops.values()):
        return {}, ops

    t = tracer.total
    v = {
        "trace.traced_wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "config.parse_s": t("config.parse"),
        "cli.simulate_self_s": tracer.self_time("cli.simulate"),
        "cli.analyze_self_s": tracer.self_time("cli.analyze"),
        "cli.output_bytes": _output_bytes(spec),
        "analysis.histogram_s": t("analysis.histogram"),
        "analysis.merge_s": t("analysis.merge"),
        "analysis.stats_s": t("analysis.stats"),
        "analysis.histogram_rss_delta_mb": tracer.rss["analysis.histogram"] / 2**20,
        "ttag.read_s": t("ttag.read"),
    }
    fine = tracer.results["analysis.histogram"]
    merged = tracer.results["analysis.merge"]
    v.update({
        "analysis.refs": fine.total_reference_events,
        "analysis.pairs": fine.total_counts,
        "analysis.fine_bins_nonempty": len(fine.values),
        "analysis.merged_bins_nonempty": len(merged.values),
        "analysis.pairs_per_s": fine.total_counts / v["analysis.histogram_s"],
        "analysis.refs_per_s": fine.total_reference_events / v["analysis.histogram_s"],
    })

    tree = load_config(spec["config"])
    opts = parse_analyze(tree["analyze"])
    t0 = time.perf_counter()
    try:
        peak = analysis.locate_central_peak(merged, opts.peak_search_radius)
    except PeakNotFoundError:
        peak = analysis.PeakLocation(0, 0, 0, 0.0, 0.0)
    t1 = time.perf_counter()
    analysis.accidental_mean(merged, peak, opts.binning)
    t2 = time.perf_counter()
    occupancy = analysis.occupancy_histogram(merged)
    t3 = time.perf_counter()
    analysis.poisson_fit(occupancy, exclude_sigma=opts.fit_exclude_sigma)
    t4 = time.perf_counter()
    v.update({
        "analysis.peak_s": t1 - t0,
        "analysis.accidentals_s": t2 - t1,
        "analysis.occupancy_s": t3 - t2,
        "analysis.fit_s": t4 - t3,
    })

    read_back = tracer.results["ttag.read"]
    if spec["simulate"]:
        stream = tracer.results["simulate.run"]
        v["ttag.write_s"] = t("ttag.write")
        ops["ttag round trip"] = (
            [] if _streams_equal(stream, read_back) else ["read stream differs from the simulated one"]
        )
    else:
        path = spec["ttag"] + ".roundtrip"
        t0 = time.perf_counter()
        write_ttag(path, read_back)
        v["ttag.write_s"] = time.perf_counter() - t0
        ops["ttag round trip"] = (
            [] if _streams_equal(read_ttag(path), read_back) else ["re-read stream differs"]
        )
        os.unlink(path)
    size = os.path.getsize(spec["ttag"])
    v.update({
        "ttag.bytes": size,
        "ttag.records": len(read_back),
        "ttag.read_MBps": size / v["ttag.read_s"] / 1e6,
        "ttag.write_MBps": size / v["ttag.write_s"] / 1e6,
    })

    v.update(dict.fromkeys((n for n in LAYER_METRICS if n.startswith("simulate.")), 0.0))
    if spec["simulate"]:
        cfg = parse_simulate(tree["simulate"]).with_seed(pass_seed(spec["seed"], k))
        nodead_cfg = dataclasses.replace(
            cfg,
            arms=tuple(
                dataclasses.replace(a, detector=dataclasses.replace(a.detector, dead_time_s=0.0))
                for a in cfg.arms
            ),
        )
        threads = spec["threads"]
        t0 = time.perf_counter()
        raw = simulate_run(nodead_cfg, n_threads=threads)
        t1 = time.perf_counter()
        other = simulate_run(cfg, n_threads=2 if threads == 1 else 1)
        t2 = time.perf_counter()
        ops["thread-count identity"] = (
            [] if _streams_equal(stream, other) else ["streams differ between 1 and 2 threads"]
        )
        run_s = t("simulate.run")
        one, two = (run_s, t2 - t1) if threads == 1 else (t2 - t1, run_s)
        v.update({
            "simulate.run_s": run_s,
            "simulate.nodead_s": t1 - t0,
            "simulate.deadtime_s": run_s - (t1 - t0),
            "simulate.tags_per_pulse": len(raw) / cfg.n_pulses,
            "simulate.ns_per_pulse": run_s / cfg.n_pulses * 1e9,
            "simulate.speedup_2t": one / two,
        })
        for c in (1, 2, 3):
            n_raw = int(np.count_nonzero(raw.channels == c))
            n_kept = int(np.count_nonzero(stream.channels == c))
            v[f"simulate.tags_raw.ch{c}"] = n_raw
            v[f"simulate.tags_kept.ch{c}"] = n_kept
            v[f"simulate.keep_ratio.ch{c}"] = n_kept / n_raw if n_raw else 0.0
    return v, ops


def median_values(cycles: list[dict]) -> dict:
    return {key: statistics.median(c[key] for c in cycles) for key in cycles[0]}
