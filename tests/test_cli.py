import ast
import csv
import importlib
import io
import json
import math
import os
import pkgutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tripletsim
from tripletsim import cli, simulate, ttag
from tripletsim.analysis import Coincidence2DHistogram, build_threefold_histogram, merge_bins
from tripletsim.cli import _histogram_csv, main
from tripletsim.config import (
    default_config,
    load_config,
    parse_analyze,
    parse_phasematch,
    parse_simulate,
)
from tripletsim.simulate import TimeTagStream, expected_rates
from tripletsim.ttag import write_ttag
from conftest import gate_stream, histogram_from_entries
from test_output_digests import _write_dense_stream

TICK = 82.3125e-12


def write_json(path, tree):
    path.write_text(json.dumps(tree, indent=2))
    return str(path)


def export_problems(package) -> list[str]:
    """Stale exports of the package: __all__ names a module lacks, package imports __all__ lacks.

    Reads the package's __init__.py, so it checks an installed package as well as src/.
    """
    imported = {}
    for node in ast.parse(Path(package.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, []).extend(alias.name for alias in node.names)
    problems = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        listed = getattr(module, "__all__", [])
        problems += [f"{info.name}.__all__ names missing {n}" for n in listed if not hasattr(module, n)]
        problems += [
            f"the package imports {info.name}.{n}, which {info.name}.__all__ lacks"
            for n in imported.get(info.name, [])
            if n not in listed
        ]
    return problems


def csv_writer_histogram(h) -> bytes:
    """The row-at-a-time histogram.csv formatter the CLI used before, kept as the oracle."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tau1_minus_tau2_ns", "tau3_minus_tau2_ns", "count"])
    scale = h.bin_width_s * 1e9
    for i, j, v in zip(h.i_idx, h.j_idx, h.values):
        writer.writerow([f"{i * scale:.6f}", f"{j * scale:.6f}", int(v)])
    return buf.getvalue().encode()


def planted_merged_histogram():
    """Merged histogram of a random stream plus 80 references that share planted delays.

    Each planted reference adds 16 pairs to one merged bin, 4 to two others and 1 to
    a fourth, so those bins hold about 1280, 320 and 80; the background adds 1s.
    """
    rng = np.random.default_rng(77)
    ticks = {c: list(rng.integers(0, 1_000_000, k)) for c, k in ((1, 1500), (2, 500), (3, 1500))}
    for t0 in range(2_000_000, 2_000_000 + 80 * 20_000, 20_000):
        ticks[2].append(t0)
        ticks[1] += [t0 + 100 + d for d in range(4)] + [t0 + 300]
        ticks[3] += [t0 - 200 + d for d in range(4)] + [t0 + 300]
    channels = np.concatenate([np.full(len(t), c, np.uint8) for c, t in ticks.items()])
    stream_ticks = np.concatenate([np.asarray(t, np.int64) for t in ticks.values()])
    order = np.lexsort((channels, stream_ticks))
    stream = TimeTagStream(TICK, channels[order], stream_ticks[order])
    binning = parse_analyze(small_sim_config()["analyze"]).binning
    return merge_bins(build_threefold_histogram(stream, binning), binning.merge_factor)


def small_sim_config(n_pulses=100_000, seed=1, pdc2=2.7e-1, dark=0.0, dead=0.0):
    tree = default_config()
    sim = tree["simulate"]
    sim["n_pulses"] = n_pulses
    sim["rng_seed"] = seed
    sim["source"]["pdc2_pairs_per_pump_photon"] = pdc2
    for arm in sim["arms"].values():
        arm["detector"]["dark_rate_hz"] = dark
        arm["detector"]["dead_time_ns"] = dead
        arm["detector"]["jitter_sigma_ps"] = 30.0
    return tree


def analyze_config(tmp_path, n_pulses=100_000):
    """small_sim_config with analyze.n_pulses set, for TTAGs written without a manifest."""
    tree = small_sim_config()
    tree["analyze"]["n_pulses"] = n_pulses
    return write_json(tmp_path / "cfg.json", tree)


class TestWriteConfig:
    def test_default_config_validates(self, tmp_path):
        out = tmp_path / "base.json"
        assert main(["write-config", "--output", str(out)]) == 0
        tree = load_config(out)
        assert tree["schema_version"] == 1


@pytest.fixture(params=[0o022, 0o027], ids=oct)
def umask(request):
    """The process umask, set for one test and restored after."""
    saved = os.umask(request.param)
    yield request.param
    os.umask(saved)


class TestOutputFiles:
    def test_outputs_get_0666_less_the_umask(self, tmp_path, umask):
        # a replaced file takes the new mode too, not the mode it had
        base = tmp_path / "c.json"
        base.write_text("{}")
        base.chmod(0o600)
        assert main(["write-config", "--output", str(base)]) == 0
        cfg = write_json(tmp_path / "small.json", small_sim_config())
        run, out = tmp_path / "run.ttag", tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--output", str(run)]) == 0
        assert main(["analyze", str(run), "--config", cfg, "--output", str(out)]) == 0
        pm = tmp_path / "solve.json"
        assert main(["phasematch", "solve", "--config", str(base), "--output", str(pm)]) == 0
        written = [base, run, tmp_path / "run.ttag.manifest.json", pm, *out.iterdir()]
        assert len(written) == 7
        assert {p.name: oct(stat.S_IMODE(p.stat().st_mode)) for p in written} == {
            p.name: oct(0o666 & ~umask) for p in written
        }

    @pytest.mark.parametrize("how", ["write-config", "write_ttag", "bad chunk"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, how):
        target = tmp_path / "target"
        target.write_bytes(b"old bytes")

        def refuse(src, dst):
            raise OSError("replace refused")

        if how == "write-config":
            monkeypatch.setattr(os, "replace", refuse)
            assert main(["write-config", "--output", str(target)]) == 1
        elif how == "write_ttag":
            monkeypatch.setattr(os, "replace", refuse)
            stream = TimeTagStream(TICK, np.array([1, 2], np.uint8), np.array([5, 9], np.int64))
            with pytest.raises(OSError, match="replace refused"):
                write_ttag(target, stream)
        else:
            # a failure halfway through the chunks, after some bytes were written
            with pytest.raises(TypeError):
                ttag.atomic_write(target, "new ", b"bytes", 7)
        assert target.read_bytes() == b"old bytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]


class TestSimulateCommand:
    def test_zero_efficiency_writes_header_only(self, tmp_path):
        tree = small_sim_config()
        for arm in tree["simulate"]["arms"].values():
            arm["detector"]["efficiency"] = 0.0
        cfg = write_json(tmp_path / "cfg.json", tree)
        out = tmp_path / "run.ttag"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        assert out.stat().st_size == 22
        manifest = json.loads((tmp_path / "run.ttag.manifest.json").read_text())
        assert manifest["n_records"] == 0
        assert manifest["rng_scheme"] == 3

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", small_sim_config(seed=9))
        a, b = tmp_path / "a.ttag", tmp_path / "b.ttag"
        assert main(["simulate", "--config", cfg, "--output", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_independent(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simulate, "BLOCK_PULSES", 1 << 17)  # 4 blocks
        cfg = write_json(tmp_path / "cfg.json", small_sim_config(n_pulses=400_000, seed=12))
        a, b = tmp_path / "a.ttag", tmp_path / "b.ttag"
        assert main(["simulate", "--config", cfg, "--output", str(a), "--threads", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--output", str(b), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", small_sim_config(seed=9))
        a, b = tmp_path / "a.ttag", tmp_path / "b.ttag"
        assert main(["simulate", "--config", cfg, "--output", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--output", str(b), "--seed", "10"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_channel1_count_matches_expectation(self, tmp_path):
        # baseline physics (dead times, darks, jitter) at reduced pulse count
        tree = default_config()
        tree["simulate"]["n_pulses"] = 20_000_000
        tree["simulate"]["rng_seed"] = 3
        cfg = write_json(tmp_path / "cfg.json", tree)
        out = tmp_path / "run.ttag"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        manifest = json.loads((tmp_path / "run.ttag.manifest.json").read_text())
        from tripletsim.ttag import read_ttag

        stream = read_ttag(out)
        observed = int((stream.channels == 1).sum())
        expected = manifest["expected"]["singles_counts"][0]
        assert abs(observed - expected) < 4 * np.sqrt(expected)

    def test_manifest_predicts_central_count(self, tmp_path):
        tree = small_sim_config(seed=5)
        cfg = write_json(tmp_path / "cfg.json", tree)
        out = tmp_path / "run.ttag"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        manifest = json.loads((tmp_path / "run.ttag.manifest.json").read_text())
        rates = expected_rates(
            parse_simulate(tree["simulate"]),
            merged_bin_s=parse_analyze(tree["analyze"]).binning.merged_bin_s,
        )
        assert rates.expected_central_count > 0
        assert manifest["expected"]["expected_central_count"] == rates.expected_central_count

    def test_manifest_without_analyze_section_has_no_central_prediction(self, tmp_path):
        tree = small_sim_config(seed=5)
        del tree["analyze"]
        cfg = write_json(tmp_path / "cfg.json", tree)
        out = tmp_path / "run.ttag"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        manifest = json.loads((tmp_path / "run.ttag.manifest.json").read_text())
        assert manifest["expected"]["expected_central_count"] is None

    def test_unknown_key_rejected(self, tmp_path):
        tree = small_sim_config()
        tree["simulate"]["unknown_knob"] = 1
        cfg = write_json(tmp_path / "cfg.json", tree)
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "x.ttag")]) == 2

    @staticmethod
    def refuse_sampling(monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("simulate_run was called")

        monkeypatch.setattr(cli, "simulate_run", sample)

    def test_bad_analyze_section_refused_before_sampling(self, tmp_path, monkeypatch, capsys):
        self.refuse_sampling(monkeypatch)
        cases = [
            ("merge_factor", 0, "analyze: merge_factor"),
            # neither describes the simulated run: 82.3125 ps ticks, 100 ns pulse period
            ("base_bin_ps", 80.0, "analyze.base_bin_ps: 80 ps does not match"),
            ("rep_period_ns", 50.0, "analyze.rep_period_ns: 50 ns does not match"),
        ]
        for key, value, message in cases:
            tree = small_sim_config()
            tree["analyze"][key] = value
            run = tmp_path / key
            run.mkdir()
            cfg = write_json(run / "cfg.json", tree)
            assert main(["simulate", "--config", cfg, "--output", str(run / "run.ttag")]) == 2, key
            assert message in capsys.readouterr().err
            assert [p.name for p in run.iterdir()] == ["cfg.json"]

    def test_run_beyond_physical_memory_refused_before_sampling(self, tmp_path, monkeypatch, capsys):
        tree = small_sim_config()
        rates = expected_rates(parse_simulate(tree["simulate"]))
        need = sum(rates.singles_counts) * 3 * ttag.RECORD_SIZE
        argv = ["simulate", "--config", write_json(tmp_path / "cfg.json", tree)]
        argv += ["--output", str(tmp_path / "run.ttag")]
        monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: need - 1)
        self.refuse_sampling(monkeypatch)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"simulate.n_pulses: 100000 pulses would need about {need:.3g} bytes" in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_physical_memory_bytes", lambda: need + 1)
        assert main(argv) == 0  # the records fit

    @pytest.mark.parametrize("flag", ["abc", "-4", "0", "two"])
    def test_bad_thread_count_rejected(self, capsys, flag):
        from tripletsim.cli import build_parser

        argv = ["simulate", "--config", "c.json", "--output", "o.ttag", "--threads", flag]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_empty_stream_report(self, tmp_path):
        stream = TimeTagStream(TICK, np.empty(0, np.uint8), np.empty(0, np.int64))
        ttag_path = tmp_path / "empty.ttag"
        write_ttag(ttag_path, stream)
        cfg = analyze_config(tmp_path)
        out = tmp_path / "out"
        assert main(["analyze", str(ttag_path), "--config", cfg, "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["central_count"] == 0
        assert report["car_is_lower_bound"] is True

    def test_hand_built_coincidence(self, tmp_path):
        ticks = 5000
        stream = TimeTagStream(
            TICK,
            np.array([1, 2, 3], dtype=np.uint8),
            np.array([ticks, ticks, ticks], dtype=np.int64),
        )
        ttag_path = tmp_path / "tiny.ttag"
        write_ttag(ttag_path, stream)
        cfg = analyze_config(tmp_path)
        out = tmp_path / "out"
        assert main(["analyze", str(ttag_path), "--config", cfg, "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["central_count"] == 1
        assert report["occupancy"]["1"] == 1
        occupancy_csv = (out / "occupancy.csv").read_text().splitlines()
        assert occupancy_csv[0] == "threefolds_per_bin,absolute_frequency"
        histogram_csv = (out / "histogram.csv").read_text().splitlines()
        assert histogram_csv[0] == "tau1_minus_tau2_ns,tau3_minus_tau2_ns,count"
        assert histogram_csv[1] == "0.000000,0.000000,1"

    def test_histogram_csv_matches_row_by_row_formatter(self, tmp_path):
        rng = np.random.default_rng(31)
        n = {1: 1500, 2: 500, 3: 1500}
        channels = np.concatenate([np.full(k, c, np.uint8) for c, k in n.items()])
        ticks = rng.integers(0, 1_000_000, len(channels))
        order = np.lexsort((channels, ticks))
        stream = TimeTagStream(TICK, channels[order], ticks[order])
        ttag_path = tmp_path / "dense.ttag"
        write_ttag(ttag_path, stream)
        tree = small_sim_config()
        tree["analyze"]["n_pulses"] = 100_000
        cfg = write_json(tmp_path / "cfg.json", tree)
        out = tmp_path / "out"
        assert main(["analyze", str(ttag_path), "--config", cfg, "--output", str(out)]) == 0

        binning = parse_analyze(tree["analyze"]).binning
        merged = merge_bins(build_threefold_histogram(stream, binning), binning.merge_factor)
        assert len(merged.values) > 1000
        assert merged.i_idx.min() < 0 < merged.j_idx.max()
        assert (out / "histogram.csv").read_bytes() == csv_writer_histogram(merged)

    @pytest.mark.parametrize("case", ["planted", "empty", "huge_count"])
    def test_histogram_csv_bytes_match_csv_writer(self, case):
        if case == "planted":
            h = planted_merged_histogram()
            assert h.values.max() > 1000
            assert {1, 2, 4} <= {len(str(v)) for v in h.values.tolist()}
        elif case == "empty":
            h = histogram_from_entries(16 * TICK, 228, [], [], 3)
        else:  # a largest count far above the number of distinct counts
            # flat keys (i + 5) * 11 + (j + 5) of (-5, 5), (0, 0), (1, 1), (2, -3), (5, -5)
            keys, values = np.array([10, 60, 72, 79, 110]), np.array([1, 10**15, 7, 42, 7])
            h = Coincidence2DHistogram(16 * TICK, 5, keys, values, 9)
            assert h.i_idx.tolist() == [-5, 0, 1, 2, 5] and h.j_idx.tolist() == [5, 0, 1, -3, -5]
        expected = csv_writer_histogram(h)
        assert _histogram_csv(h) == expected
        if case == "empty":
            assert expected == b"tau1_minus_tau2_ns,tau3_minus_tau2_ns,count\n"

    def test_analysis_never_loads_scipy(self, tmp_path):
        # a fresh interpreter, since other tests load scipy into this one;
        # simulate writes expected_central_count, so the containment runs too
        ttag_path = tmp_path / "run.ttag"
        cfg = write_json(tmp_path / "cfg.json", small_sim_config())
        simulate_argv = ["simulate", "--config", cfg, "--output", str(ttag_path)]
        analyze_argv = ["analyze", str(ttag_path), "--config", cfg, "--output", str(tmp_path / "out")]
        code = (
            "import sys, tripletsim, tripletsim.cli\n"
            f"rc = tripletsim.cli.main({simulate_argv!r}) or tripletsim.cli.main({analyze_argv!r})\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tripletsim.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0 []"
        manifest = json.loads((tmp_path / "run.ttag.manifest.json").read_text())
        assert manifest["expected"]["expected_central_count"] > 1.0
        assert json.loads((tmp_path / "out" / "report.json").read_text())["central_count"] > 0

    def test_corrupt_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ttag"
        bad.write_bytes(b"NOPE" + b"\x00" * 30)
        cfg = analyze_config(tmp_path)
        rc = main(["analyze", str(bad), "--config", cfg, "--output", str(tmp_path / "out")])
        assert rc == 3

    def test_pulse_count_refused_before_the_file_is_read(self, tmp_path, capsys):
        # without a pulse count the command stops before it opens the (missing) file
        cfg = write_json(tmp_path / "cfg.json", small_sim_config())
        missing = tmp_path / "missing.ttag"
        rc = main(["analyze", str(missing), "--config", cfg, "--output", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: analyze.n_pulses: ")

    def test_report_command(self, tmp_path, capsys):
        stream = TimeTagStream(
            TICK,
            np.array([1, 2, 3], dtype=np.uint8),
            np.array([100, 100, 100], dtype=np.int64),
        )
        ttag_path = tmp_path / "tiny.ttag"
        write_ttag(ttag_path, stream)
        cfg = analyze_config(tmp_path)
        out = tmp_path / "out"
        main(["analyze", str(ttag_path), "--config", cfg, "--output", str(out)])
        capsys.readouterr()
        assert main(["report", str(out / "report.json")]) == 0
        text = capsys.readouterr().out
        assert "central three-folds" in text

    def test_report_without_peak_says_so(self, tmp_path, capsys):
        stream = TimeTagStream(TICK, np.empty(0, np.uint8), np.empty(0, np.int64))
        ttag_path, out = tmp_path / "empty.ttag", tmp_path / "out"
        write_ttag(ttag_path, stream)
        cfg = analyze_config(tmp_path)
        assert main(["analyze", str(ttag_path), "--config", cfg, "--output", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["peak_delay_ns"] is None
        capsys.readouterr()
        assert main(["report", str(out / "report.json")]) == 0
        text = capsys.readouterr().out
        assert "peak delay (ns)        none (no counts in the peak search square)\n" in text
        assert "None" not in text

    @pytest.mark.parametrize(
        "text, cause",
        [
            ('{"n_pulses": 5}', "missing key 'car'"),
            ("[1]", "report is not a JSON object"),
            ("{not json", "unreadable report"),
        ],
    )
    def test_malformed_report_fails_naming_it(self, tmp_path, capsys, text, cause):
        report = tmp_path / "report.json"
        report.write_text(text)
        assert main(["report", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {report}: ") and cause in captured.err
        assert captured.out == ""

    def test_report_with_null_number_fails_naming_it(self, tmp_path, capsys):
        stream = TimeTagStream(TICK, np.array([1, 2, 3], dtype=np.uint8), np.full(3, 100))
        ttag_path, out = tmp_path / "tiny.ttag", tmp_path / "out"
        write_ttag(ttag_path, stream)
        cfg = analyze_config(tmp_path)
        assert main(["analyze", str(ttag_path), "--config", cfg, "--output", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        rep["central_error"] = None
        (out / "report.json").write_text(json.dumps(rep))
        capsys.readouterr()
        assert main(["report", str(out / "report.json")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out / 'report.json'}: malformed value")


REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestUnreadableConfig:
    @pytest.mark.parametrize("command", ["simulate", "analyze", "phasematch"])
    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}"], ids=["json", "utf8"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        ttag_path = tmp_path / "run.ttag"
        write_ttag(ttag_path, TimeTagStream(TICK, np.array([2], np.uint8), np.array([5], np.int64)))
        argv = {
            "simulate": ["simulate", "--output", str(tmp_path / "x.ttag")],
            "analyze": ["analyze", str(ttag_path), "--output", str(tmp_path / "out")],
            "phasematch": ["phasematch", "solve"],
        }[command]
        assert main(argv + ["--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {bad}: not valid JSON (")


class TestShippedConfigs:
    def test_baseline_parses_and_solves(self):
        tree = load_config(REPO_CONFIGS / "baseline.json")
        from tripletsim.config import parse_analyze, parse_phasematch, parse_simulate

        sim = parse_simulate(tree["simulate"])
        assert math.prod(arm.detection_prob for arm in sim.arms) == pytest.approx(2.17e-3, rel=1e-4)
        parse_analyze(tree["analyze"])
        plan = parse_phasematch(tree["phasematch"])
        from tripletsim.phasematch import solve_phasematched_signal

        sol = solve_phasematched_signal(
            plan.lambda_p_m, plan.grating, 163.5, plan.dispersion, plan.bracket_m
        )
        assert sol.lambda_s_m == pytest.approx(790.5e-9, abs=1e-12)

    def test_stage2_config_parses(self):
        tree = load_config(REPO_CONFIGS / "stage2_phasematch.json")
        from tripletsim.config import parse_phasematch

        plan = parse_phasematch(tree["phasematch"])
        assert plan.grating.poling_period_m == pytest.approx(19.28e-6, rel=1e-3)


class TestManifestPulseCount:
    def simulate(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", small_sim_config(n_pulses=150_000, seed=4))
        ttag_path = tmp_path / "run.ttag"
        assert main(["simulate", "--config", cfg, "--output", str(ttag_path)]) == 0
        return cfg, ttag_path, tmp_path / "run.ttag.manifest.json"

    def test_analyze_uses_manifest_n_pulses(self, tmp_path):
        cfg, ttag_path, _ = self.simulate(tmp_path)
        out = tmp_path / "out"
        assert main(["analyze", str(ttag_path), "--config", cfg, "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_pulses"] == 150_000

    def test_config_count_wins_over_manifest(self, tmp_path):
        _, ttag_path, _ = self.simulate(tmp_path)
        cfg, out = analyze_config(tmp_path, n_pulses=123_456), tmp_path / "out"
        assert main(["analyze", str(ttag_path), "--config", cfg, "--output", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["n_pulses"] == 123_456

    def test_missing_manifest_and_count_refused(self, tmp_path, capsys):
        cfg, ttag_path, manifest = self.simulate(tmp_path)
        manifest.unlink()
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["analyze", str(ttag_path), "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: analyze.n_pulses: ") and str(manifest) in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "text, cause",
        [
            ("{not json", "unreadable manifest"),
            (b"\xff\xfe", "unreadable manifest"),
            ("[150000]", "not a JSON object"),
            ('{"rng_seed": 4}', "n_pulses"),
            ('{"n_pulses": 0}', "n_pulses"),
            ('{"n_pulses": -5}', "n_pulses"),
            ('{"n_pulses": 1.5e5}', "n_pulses"),
            ('{"n_pulses": "150000"}', "n_pulses"),
            ('{"n_pulses": true}', "n_pulses"),
        ],
    )
    def test_bad_manifest_fails_naming_it(self, tmp_path, capsys, text, cause):
        cfg, ttag_path, manifest = self.simulate(tmp_path)
        if isinstance(text, bytes):
            manifest.write_bytes(text)
        else:
            manifest.write_text(text)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["analyze", str(ttag_path), "--config", cfg, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and cause in err
        assert not (out / "report.json").exists()


class TestGatedStream:
    @pytest.mark.parametrize("case", ["w2_boosted", "baseline_2e8", "dense"])
    def test_gated_stream_analyzes_to_the_same_bytes(self, tmp_path, case):
        # keeping only the records within the fine window of a kept reference
        # changes total_reference_events alone, which no output holds
        tree = default_config()
        run, gated = tmp_path / "run.ttag", tmp_path / "gated.ttag"
        if case == "dense":
            tree["analyze"]["n_pulses"] = _write_dense_stream(run, tree)
            del tree["simulate"]
        else:
            sim = tree["simulate"]
            if case == "w2_boosted":
                sim["source"]["pdc2_pairs_per_pump_photon"] = 0.05
            sim["n_pulses"] = 20_000_000 if case == "w2_boosted" else 200_000_000
            sim["rng_seed"] = 1
        cfg = write_json(tmp_path / "cfg.json", tree)
        if case != "dense":
            assert main(["simulate", "--config", cfg, "--output", str(run)]) == 0
            manifest = Path(str(run) + ".manifest.json").read_bytes()
            Path(str(gated) + ".manifest.json").write_bytes(manifest)
        stream = ttag.read_ttag(run)
        kept = gate_stream(stream, parse_analyze(tree["analyze"]).binning.n_half_fine)
        assert 0 < len(kept) < len(stream)
        write_ttag(gated, kept)
        del stream, kept

        for path in (run, gated):
            out = str(tmp_path / f"out_{path.stem}")
            assert main(["analyze", str(path), "--config", cfg, "--output", out]) == 0
        for name in ("report.json", "histogram.csv", "occupancy.csv"):
            whole = (tmp_path / "out_run" / name).read_bytes()
            assert (tmp_path / "out_gated" / name).read_bytes() == whole, name


class TestConfigHash:
    """The manifest hash covers the parsed simulate and analyze sections, nothing else."""

    @staticmethod
    def manifest_hash(tmp_path, tree, *flags):
        cfg = write_json(tmp_path / "cfg.json", tree)
        out = str(tmp_path / "run.ttag")
        assert main(["simulate", "--config", cfg, "--output", out, *flags]) == 0
        return json.loads(Path(out + ".manifest.json").read_text())["config_sha256"]

    def same_hash(self, tmp_path, a, b):
        return self.manifest_hash(tmp_path, a) == self.manifest_hash(tmp_path, b)

    def test_formatting_invariant(self, tmp_path):
        tree = small_sim_config(n_pulses=1000)
        reordered = json.loads(json.dumps(tree, sort_keys=True))
        assert self.same_hash(tmp_path, tree, reordered)

    def test_value_change_detected(self, tmp_path):
        a = small_sim_config(n_pulses=1000)
        b = json.loads(json.dumps(a))
        b["simulate"]["rng_seed"] += 1
        c = json.loads(json.dumps(a))
        c["analyze"]["merge_factor"] = 8
        assert len({self.manifest_hash(tmp_path, t) for t in (a, b, c)}) == 3

    def test_integral_float_spelling_invariant(self, tmp_path):
        a = small_sim_config(n_pulses=1000)
        b = json.loads(json.dumps(a))
        a["simulate"]["arms"]["i1"]["detector"]["dark_rate_hz"] = 300
        b["simulate"]["arms"]["i1"]["detector"]["dark_rate_hz"] = 300.0
        assert self.same_hash(tmp_path, a, b)

    def test_omitted_default_hashes_like_the_explicit_one(self, tmp_path):
        a = small_sim_config(n_pulses=1000)
        b = json.loads(json.dumps(a))
        del a["simulate"]["arms"]["i1"]["transmission"]
        b["simulate"]["arms"]["i1"]["transmission"] = 1.0
        assert self.same_hash(tmp_path, a, b)

    def test_phasematch_section_not_covered(self, tmp_path):
        a = small_sim_config(n_pulses=1000)
        b = json.loads(json.dumps(a))
        b["phasematch"]["temperature_c"] += 1.0
        assert self.same_hash(tmp_path, a, b)

    def test_seed_override_covered(self, tmp_path):
        tree = small_sim_config(n_pulses=1000, seed=9)
        plain = self.manifest_hash(tmp_path, tree)
        assert self.manifest_hash(tmp_path, tree, "--seed", "9") == plain
        assert self.manifest_hash(tmp_path, tree, "--seed", "10") != plain

    def test_scaled_literal_differs_from_the_default_it_rounds_from(self, tmp_path):
        # 100 ns scales to 1.0000000000000001e-07 s, not SimConfig's 1e-07: other ticks
        a = small_sim_config(n_pulses=1000)
        b = json.loads(json.dumps(a))
        a["simulate"]["rep_period_ns"] = 100
        del b["simulate"]["rep_period_ns"]
        assert not self.same_hash(tmp_path, a, b)


class TestPhasematchCommands:
    def toy_tree(self):
        tree = {
            "schema_version": 1,
            "phasematch": {
                "dispersion": {
                    "model": "toy",
                    "n0": 2.2,
                    "slope_per_um": -0.03,
                    "curvature_per_um2": 0.05,
                },
                "calibration": {
                    "lambda_p_nm": 532.0,
                    "lambda_s_nm": 800.0,
                    "temperature_c": 25.0,
                },
                "temperature_c": 25.0,
                "lambda_p_nm": 532.0,
                "bracket_nm": [700.0, 900.0],
            },
        }
        return tree

    def test_solve_toy_round_trip(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "toy.json", self.toy_tree())
        assert main(["phasematch", "solve", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda_s_m"] == pytest.approx(800e-9, abs=1e-12)
        assert abs(payload["residual_delta_k_per_m"]) < 1e-3

    def test_tune_crosses_calibration_point(self, tmp_path):
        tree = {"schema_version": 1, "phasematch": default_config()["phasematch"]}
        cfg = write_json(tmp_path / "pm.json", tree)
        out = tmp_path / "tune.csv"
        assert main(["phasematch", "tune", "--config", cfg, "--output", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "temperature_c,lambda_s_m,lambda_i_m"
        data = [row.split(",") for row in rows[1:]]
        thetas = np.array([float(r[0]) for r in data])
        lams = np.array([float(r[1]) for r in data])
        crossing = np.interp(163.5, thetas, lams)
        assert crossing == pytest.approx(790.5e-9, abs=0.01e-9)

    def test_tune_csv_and_json_agree(self, tmp_path):
        # the stage-2 grating has no signal root in its bracket up to 163.5 C
        cfg = str(REPO_CONFIGS / "stage2_phasematch.json")
        csv_out, json_out = tmp_path / "tune.csv", tmp_path / "tune.json"
        assert main(["phasematch", "tune", "--config", cfg, "--output", str(csv_out)]) == 0
        argv = ["phasematch", "tune", "--config", cfg, "--output", str(json_out), "--format", "json"]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(csv_out.read_text())))
        points = json.loads(json_out.read_text())
        assert [list(pt) for pt in points] == [["temperature_c", "lambda_s_m", "lambda_i_m"]] * 41
        assert [{k: None if v == "" else float(v) for k, v in row.items()} for row in rows] == points
        assert any(pt["lambda_s_m"] is None for pt in points)
        assert any(pt["lambda_s_m"] is not None for pt in points)

    def test_solve_csv_and_json_agree(self, tmp_path):
        cfg = str(REPO_CONFIGS / "baseline.json")
        csv_out, json_out = tmp_path / "solve.csv", tmp_path / "solve.json"
        argv = ["phasematch", "solve", "--config", cfg, "--output"]
        assert main([*argv, str(csv_out), "--format", "csv"]) == 0
        assert main([*argv, str(json_out)]) == 0
        (row,) = list(csv.DictReader(io.StringIO(csv_out.read_text())))
        payload = json.loads(json_out.read_text())
        assert list(row) == list(payload)
        assert {k: float(v) for k, v in row.items()} == payload
        assert payload["lambda_s_m"] == pytest.approx(790.5e-9, abs=1e-12)

    def test_acceptance_csv(self, tmp_path):
        cfg = REPO_CONFIGS / "stage2_phasematch.json"
        out = tmp_path / "acceptance.csv"
        argv = ["phasematch", "acceptance", "--config", str(cfg), "--format", "csv"]
        assert main([*argv, "--output", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "pump_lambda_m,integrated_response"
        points = parse_phasematch(load_config(cfg)["phasematch"]).acceptance_points
        assert len(rows) == 1 + points
        pumps, response = np.array([[float(v) for v in r.split(",")] for r in rows[1:]]).T
        assert np.all(np.diff(pumps) > 0) and np.all(response >= 0)
        # the json width's peak lies inside the grid the csv lists
        assert main(argv[:-2] + ["--output", str(tmp_path / "acceptance.json")]) == 0
        peak = json.loads((tmp_path / "acceptance.json").read_text())["peak_m"]
        assert pumps[0] < peak < pumps[-1]

    def test_shg_json(self, tmp_path, capsys):
        tree = {"schema_version": 1, "phasematch": dict(default_config()["phasematch"])}
        tree["phasematch"]["calibration"] = {"degenerate_nm": 1581.0, "temperature_c": 163.5}
        cfg = write_json(tmp_path / "pm.json", tree)
        assert main(["phasematch", "shg", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shg_peak_m"] == pytest.approx(1581e-9, abs=0.5e-9)

    def test_acceptance_json(self, tmp_path, capsys):
        tree = {"schema_version": 1, "phasematch": dict(default_config()["phasematch"])}
        tree["phasematch"]["calibration"] = {"degenerate_nm": 1581.0, "temperature_c": 163.5}
        tree["phasematch"]["acceptance_points"] = 81
        cfg = write_json(tmp_path / "pm.json", tree)
        assert main(["phasematch", "acceptance", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fwhm_m"] > 0
        assert list(payload) == ["fwhm_m", "peak_m"]

    @pytest.mark.parametrize(
        "mode, key",
        [("acceptance", "phasematch.acceptance_scan_nm"), ("solve", "phasematch.bracket_nm")],
    )
    def test_solver_failure_names_the_config_key(self, tmp_path, capsys, mode, key):
        # the default config is calibrated for stage 1, so its acceptance scan
        # of stage-2 pumps fails; the stage-2 config's bracket holds no signal
        if mode == "acceptance":
            tree = {"schema_version": 1, "phasematch": default_config()["phasematch"]}
            tree["phasematch"]["acceptance_points"] = 41
            cfg = write_json(tmp_path / "pm.json", tree)
        else:
            cfg = str(REPO_CONFIGS / "stage2_phasematch.json")
        assert main(["phasematch", mode, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ")
        assert "pump_scan" not in err

    def test_shg_without_root_names_the_scan(self, capsys):
        # the baseline is calibrated for stage 1: its SHG scan holds no root,
        # and the largest sampled response is a side lobe
        cfg = str(REPO_CONFIGS / "baseline.json")
        assert main(["phasematch", "shg", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: phasematch.shg_scan_nm: ")
        # the response curve needs no root
        assert main(["phasematch", "shg", "--config", cfg, "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "lambda_fundamental_m,response" and len(rows) == 802

    def test_acceptance_without_crossings_names_the_scan(self, capsys):
        # the baseline is calibrated for stage 1: its pump scan holds no
        # half-maximum crossings of the stage response
        cfg = str(REPO_CONFIGS / "baseline.json")
        assert main(["phasematch", "acceptance", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: phasematch.acceptance_scan_nm: ")
        # the response curve needs no crossings
        assert main(["phasematch", "acceptance", "--config", cfg, "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        points = parse_phasematch(load_config(cfg)["phasematch"]).acceptance_points
        assert rows[0] == "pump_lambda_m,integrated_response" and len(rows) == 1 + points

    def test_missing_section_exit_code(self, tmp_path):
        cfg = write_json(tmp_path / "no_pm.json", {"schema_version": 1})
        assert main(["phasematch", "solve", "--config", cfg]) == 2

    def test_custom_sellmeier_coefficients(self, tmp_path, capsys):
        # the built-in lithium niobate numbers fed back through the custom-set
        # path must reproduce the calibrated solution
        tree = {
            "schema_version": 1,
            "phasematch": {
                "dispersion": {
                    "model": "sellmeier",
                    "a": [5.35583, 0.100473, 0.20692, 100.0, 11.34927, 1.5334e-2],
                    "b": [4.629e-7, 3.862e-8, -0.89e-8, 2.657e-5],
                },
                "calibration": {
                    "lambda_p_nm": 532.0,
                    "lambda_s_nm": 790.5,
                    "temperature_c": 163.5,
                },
                "temperature_c": 163.5,
                "lambda_p_nm": 532.0,
            },
        }
        cfg = write_json(tmp_path / "custom.json", tree)
        assert main(["phasematch", "solve", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda_s_m"] == pytest.approx(790.5e-9, abs=1e-12)


class TestWithoutScipy:
    def test_every_command_runs(self, tmp_path):
        # a fresh interpreter, since other tests load scipy into this one; a None
        # entry in sys.modules makes any scipy import raise.  simulate writes
        # expected_central_count, so the central-bin containment runs too
        ttag_path, out = tmp_path / "run.ttag", tmp_path / "out"
        cfg = write_json(tmp_path / "cfg.json", small_sim_config())
        stage1, stage2 = REPO_CONFIGS / "baseline.json", REPO_CONFIGS / "stage2_phasematch.json"
        runs = [
            ["simulate", "--config", cfg, "--output", str(ttag_path)],
            ["analyze", str(ttag_path), "--config", cfg, "--output", str(out)],
            ["report", str(out / "report.json")],
        ] + [
            ["phasematch", mode, "--config", str(config), "--output", str(tmp_path / mode)]
            for mode, config in (
                ("solve", stage1),
                ("tune", stage1),
                ("shg", stage2),
                ("acceptance", stage2),
            )
        ]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from tripletsim.cli import main\n"
            f"print([main(argv) for argv in {runs!r}])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tripletsim.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == str([0] * len(runs)), done.stderr
        manifest = json.loads((tmp_path / "run.ttag.manifest.json").read_text())
        assert manifest["expected"]["expected_central_count"] > 1.0
        assert json.loads((out / "report.json").read_text())["central_count"] > 0


class TestPackageExports:
    def test_all_names_resolve_and_cover_package_imports(self):
        assert export_problems(tripletsim) == []
