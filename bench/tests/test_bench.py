"""The benchmark's own tests:  python3 -m pytest bench/tests -q"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import kolmosphere
import run
import spans
import workloads
from common import BENCH_DIR, ROOT, WORKLOADS, load_spec


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] has children a [10, 40] and b [50, 60];
    # a has one child c [20, 30].
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 20, 50])
    end = np.array([100, 40, 30, 60])
    assert spans.self_times(parent, start, end).tolist() == [60, 20, 10, 10]


def test_self_time_takes_out_the_wrapper_cost():
    # The same tree; each span's wrapper costs 2 inside it, and a child's
    # costs 3 (a, c) or 1 (b) outside it, in its parent.
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 20, 50])
    end = np.array([100, 40, 30, 60])
    outside = np.array([5.0, 3.0, 3.0, 1.0])
    own = spans.self_times(parent, start, end, 2.0, outside)
    assert own.tolist() == [60 - 2 - 3 - 1, 20 - 2 - 3, 10 - 2, 10 - 2]
    # A correction larger than the span leaves 0, not a negative time.
    assert spans.self_times(parent, start, end, 50.0, outside).min() == 0.0


def test_wrapper_cost_is_measured_per_counter():
    cost = spans.wrapper_cost(calls=200, repeats=3)
    assert cost.inside >= 0
    assert set(cost.outside) == {None} | set(spans.COUNTERS)
    assert all(value >= 0 for value in cost.outside.values())
    assert cost.outside_of("cli.main") == cost.outside[None]
    assert cost.scaled(2.0).inside == 2 * cost.inside


def test_summary_of_a_recorded_tree():
    rec = spans.Recorder()
    inner = spans.wrap(rec, "polyring.inner", lambda: None)

    def body():
        inner()
        inner()

    outer = spans.wrap(rec, "cli.outer", body)
    outer()
    summary = spans.summarize(rec)
    assert summary["cli.outer.calls"] == 1
    assert summary["polyring.inner.calls"] == 2
    parent, _, start, end = rec.arrays()
    assert parent.tolist() == [-1, 0, 0]
    own = spans.self_times(parent, start, end)
    assert summary["cli.outer.self_ms"] * 1e6 == pytest.approx(own[0])
    assert summary["layer.cli.self_share"] + summary["layer.polyring.self_share"] == pytest.approx(1.0)
    # Counters that counted nothing still appear, as 0.
    for key in spans.COUNT_METRICS:
        assert summary[key] == 0


def test_instrument_rebinds_every_alias_and_uninstrument_restores_them():
    from kolmosphere import field_forms, invariance, polyring

    originals = (polyring.divide_exact, invariance.divide_exact,
                 kolmosphere.divide_exact, polyring.Poly.__init__)
    assert invariance.divide_exact is polyring.divide_exact
    rec = spans.Recorder()
    undo = spans.instrument(rec)
    try:
        for alias in (polyring.divide_exact, invariance.divide_exact,
                      kolmosphere.divide_exact, field_forms.divide_exact):
            assert alias is not originals[0]
        p = kolmosphere.parse("x1^2 - 1", 1)
        assert invariance.divide_exact(p, kolmosphere.parse("x1 - 1", 1)) is not None
        summary = spans.summarize(rec)
    finally:
        spans.uninstrument(undo)
    assert (polyring.divide_exact, invariance.divide_exact,
            kolmosphere.divide_exact, polyring.Poly.__init__) == originals
    assert summary["polyring.parse.calls"] == 2
    assert summary["polyring.parse.chars"] == len("x1^2 - 1") + len("x1 - 1")
    assert summary["polyring.divide_exact.calls"] == 1
    assert summary["polyring.divide_exact.exact_share"] == 1.0
    assert summary["polyring.Poly.calls"] > 0


def _inputs(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir()
    w = workloads.WORKLOADS[name](seed, True, workdir)
    if name == "certify_small":
        return w.plan(0), w.plan(1)
    if name == "cli_fields":
        # The commands name the directory the files went to; compare the
        # files' contents instead.
        return sorted((p.name, p.read_text()) for p in workdir.iterdir())
    if name == "elimination":
        return [form for _, form in w.forms]
    return w.points, w.fixture_points


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_repeat_for_one_seed_and_differ_for_another(name, tmp_path):
    first = _inputs(name, 5, tmp_path)
    again_dir = tmp_path / "again"
    again_dir.mkdir()
    again = _inputs(name, 5, again_dir)
    other = _inputs(name, 6, tmp_path)
    assert first == again
    assert first != other


def _run(*args):
    argv = [sys.executable, str(BENCH_DIR / "run.py")] + list(args)
    return subprocess.run(argv, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    out = tmp_path / "report.json"
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--tiny", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = load_spec()
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    # The worker itself, not run.py, must have measured every metric.
    report = json.loads(out.read_text())
    if trace == "1":
        measured = set(report["per_layer"])
    else:
        measured = set(report["end_to_end"]) | {"setup_s"}
        assert len(report["setup_s_samples"]) == run.SETUP_PROBES
    assert {m["name"] for m in wanted} <= measured
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_a_metric_the_workload_does_not_report(tmp_path):
    for part in ("src", "fixtures", "tests/golden"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = load_spec()
    spec["per_layer"].append({"name": "polyring.no_such_function.calls",
                              "unit": "count", "better": "lower"})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    argv = [sys.executable, "bench/run.py", "--workload", "certify_small",
            "--seed", "1", "--seconds", "0.2", "--trace", "1", "--tiny"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 1
    assert "polyring.no_such_function.calls" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_compare_refuses_files_of_different_run_length(tmp_path, capsys):
    import compare

    paths = []
    for seconds in (20, 10):
        path = tmp_path / f"r{seconds}.json"
        path.write_text(json.dumps({"environment": {"commit": "x"},
                                    "run_seconds": seconds, "workloads": {}}))
        paths.append(str(path))
    assert compare.main(paths) == 2
    assert "run_seconds differ" in capsys.readouterr().err


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "certify_small",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
