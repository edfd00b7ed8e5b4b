"""Pinned output bytes of `simulate` and `analyze`.

For fixed inputs, output_digests.json holds the sha256 digests of the TTAG
file, report.json, histogram.csv and occupancy.csv, and the simulate
manifest.  The inputs are the shipped baseline config with
pdc2_pairs_per_pump_photon 0.05 at 2e6 pulses, seed 11, simulated at one and
at two threads; the same with leakage photons on s2 and i2 (the event kinds
the baseline never draws), at two threads; and a small synthetic dense stream
(uniform tags plus planted triplets) that is analyzed directly.

The bytes may change only together with simulate.RNG_SCHEME.  NumPy may also
change what a Generator draws from one release to the next, so a digest
mismatch under another NumPy than the recorded one names both versions.  The
manifest is compared field by field, numbers within 1e-12 relative, so a new
manifest field needs no new digests.

Rewrite output_digests.json after a scheme change with
`PYTHONPATH=src python tests/test_output_digests.py`.
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tripletsim import TimeTagStream, write_ttag
from tripletsim.cli import main

REPO = Path(__file__).resolve().parent.parent
PINNED_PATH = Path(__file__).with_name("output_digests.json")
CASES = ("boosted_threads1", "boosted_threads2", "leakage_threads2", "dense")
OUTPUTS = ("report.json", "histogram.csv", "occupancy.csv")


def _baseline() -> dict:
    with open(REPO / "configs" / "baseline.json", encoding="utf-8") as fh:
        return json.load(fh)


def _write_dense_stream(path, baseline: dict) -> int:
    """Uniform tags on channels 1/2/3 plus triplets planted at the arm delays."""
    sim = baseline["simulate"]
    tick = sim["resolution_ps"] * 1e-12
    rep = sim["rep_period_ns"] * 1e-9
    n_pulses = 20_000
    rng = np.random.default_rng([5, 3])
    span_ticks = int(n_pulses * rep / tick)
    ticks = [rng.integers(0, span_ticks, n) for n in (20_000, 3_000, 4_000)]
    chans = [np.full(len(t), c, np.uint8) for c, t in zip((1, 2, 3), ticks)]
    pulse_t = rng.choice(n_pulses, 30, replace=False) * rep
    for channel, arm in zip((1, 2, 3), ("i1", "s2", "i2")):
        delay = 0.0 if channel == 2 else sim["peak_offset_ns"] * 1e-9
        jitter = sim["arms"][arm]["detector"]["jitter_sigma_ps"] * 1e-12
        t = pulse_t + delay + rng.normal(0.0, jitter, len(pulse_t))
        ticks.append(np.maximum(np.rint(t / tick).astype(np.int64), 0))
        chans.append(np.full(len(t), channel, np.uint8))
    ticks, chans = np.concatenate(ticks), np.concatenate(chans)
    order = np.lexsort((chans, ticks))
    write_ttag(path, TimeTagStream(tick, chans[order], ticks[order]))
    return n_pulses


def run_case(case: str, workdir: Path):
    """Run one case's commands in workdir; return (file digests, manifest or None)."""
    tree = _baseline()
    ttag, config = workdir / "run.ttag", workdir / "config.json"
    if case == "dense":
        n_pulses = _write_dense_stream(ttag, tree)
        analyze = dict(tree["analyze"], n_pulses=n_pulses)
        tree = {"schema_version": tree["schema_version"], "analyze": analyze}
    else:
        tree["simulate"]["source"]["pdc2_pairs_per_pump_photon"] = 0.05
        tree["simulate"]["n_pulses"] = 2_000_000
        tree["simulate"]["rng_seed"] = 11
        if case.startswith("leakage"):
            for arm in ("s2", "i2"):
                tree["simulate"]["arms"][arm]["leakage_rate_per_pulse"] = 0.01
    config.write_text(json.dumps(tree, indent=2), encoding="utf-8")
    if case != "dense":
        threads = case.rpartition("_threads")[2]
        argv = ["simulate", "--config", str(config), "--output", str(ttag), "--threads", threads]
        assert main(argv) == 0
    assert main(["analyze", str(ttag), "--config", str(config), "--output", str(workdir / "out")]) == 0

    paths = {"run.ttag": ttag, **{name: workdir / "out" / name for name in OUTPUTS}}
    digests = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}
    manifest_path = Path(str(ttag) + ".manifest.json")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8")) if case != "dense" else None
    return digests, manifest


def manifest_mismatches(got, want, where="manifest"):
    """Fields of want that got lacks or holds a different value for."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: {got!r} is not an object"]
        return [
            problem
            for key, value in want.items()
            for problem in (
                manifest_mismatches(got[key], value, f"{where}.{key}")
                if key in got
                else [f"{where}.{key}: missing"]
            )
        ]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [
            problem
            for i, (g, w) in enumerate(zip(got, want))
            for problem in manifest_mismatches(g, w, f"{where}[{i}]")
        ]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        ok = math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{where}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_pinned(case, pinned, tmp_path):
    digests, manifest = run_case(case, tmp_path)
    want = pinned["cases"][case]
    changed = sorted(name for name in want["digests"] if digests.get(name) != want["digests"][name])
    if changed:
        if np.__version__ != pinned["numpy_version"]:
            cause = (
                f"under numpy {np.__version__}; the digests were recorded under numpy "
                f"{pinned['numpy_version']}, whose random generators may draw differently"
            )
        else:
            cause = (
                f"under the recorded numpy {np.__version__}, so the code changed them "
                "(the TTAG bytes may change only with a simulate.RNG_SCHEME bump)"
            )
        pytest.fail(f"{case}: {', '.join(changed)} changed {cause}")
    if manifest is not None:
        assert manifest["numpy_version"] == np.__version__
        problems = manifest_mismatches(manifest, want["manifest"])
        assert not problems, "\n".join(problems)


def _record() -> dict:
    cases = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            digests, manifest = run_case(case, Path(workdir))
        cases[case] = {"digests": digests}
        if manifest is not None:
            manifest.pop("numpy_version")  # recorded once, above the cases
            cases[case]["manifest"] = manifest
    return {"numpy_version": np.__version__, "cases": cases}


if __name__ == "__main__":
    PINNED_PATH.write_text(json.dumps(_record(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PINNED_PATH}", file=sys.stderr)
