"""The summary of the A/B script `tools/bench_ab.py`, on synthetic runs."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

SPEC = {"end_to_end": [
    {"name": "report_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "checks", "unit": "count", "better": "higher", "bound": 0.02},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


def _runs(values, exits=None):
    """Runs of seeds 1.. from {side: {metric: [value per seed]}}; setup_s
    only on the parent side."""
    runs = []
    for side, metrics in values.items():
        for i in range(len(metrics["report_s"])):
            result = {"correct": True, "attempted": 10, "failed": 0,
                      "metrics": {k: {"value": v[i]}
                                  for k, v in metrics.items()}}
            runs.append({"seed": 1 + i, "side": side,
                         "exit": (exits or {}).get((side, 1 + i), 0),
                         "result": result})
    return runs


RUNS = _runs({
    "parent": {"report_s": [1.0, 1.1, 0.9, 1.0], "checks": [733] * 4,
               "peak_rss_mb": [20.0] * 4, "setup_s": [0.02] * 4},
    "change": {"report_s": [0.8, 0.85, 0.95, 0.8], "checks": [733] * 4,
               "peak_rss_mb": [23.0] * 4},
})


def test_summary_quartiles_pairs_and_bounds():
    rows = bench_ab.summarize(RUNS, SPEC)
    # setup_s ran on one side only: no row
    assert sorted(rows) == ["checks", "peak_rss_mb", "report_s"]
    report = rows["report_s"]
    # benchmark/run.py's (exclusive) quartiles of 0.9, 1.0, 1.0, 1.1 and
    # of 0.8, 0.8, 0.85, 0.95
    assert bench_ab.quartiles.__module__ == "bench_run"
    assert report["parent"] == pytest.approx(
        {"q1": 0.925, "median": 1.0, "q3": 1.075})
    assert report["change"] == pytest.approx(
        {"q1": 0.8, "median": 0.825, "q3": 0.925})
    # seed 3 is the one pair the change lost
    assert (report["pairs"], report["change_better_pairs"]) == (4, 3)
    assert report["worse_by"] == pytest.approx(-0.175)
    assert report["median_gain_exceeds_parent_iqr"] is True
    assert (report["bound"], report["within_bound"]) == (0.25, True)
    # a tie is no better pair, and no worse median
    checks = rows["checks"]
    assert (checks["change_better_pairs"], checks["worse_by"]) == (0, 0.0)
    assert checks["within_bound"] and not checks[
        "median_gain_exceeds_parent_iqr"]
    # 15% more memory is past the 10% bound
    rss = rows["peak_rss_mb"]
    assert rss["worse_by"] == pytest.approx(0.15)
    assert rss["within_bound"] is False


def test_a_higher_is_better_metric_is_read_the_other_way():
    runs = _runs({"parent": {"report_s": [1.0, 1.0], "checks": [100, 100]},
                  "change": {"report_s": [1.0, 1.0], "checks": [95, 99]}})
    checks = bench_ab.summarize(runs, SPEC)["checks"]
    assert checks["worse_by"] == pytest.approx(100 / 97 - 1)
    assert checks["within_bound"] is False
    assert checks["change_better_pairs"] == 0


def test_health_and_claim():
    runs = _runs({"parent": {"report_s": [1.0, 1.2]},
                  "change": {"report_s": [0.9, 1.0]}},
                 exits={("change", 2): 1})
    health = bench_ab.run_health(runs)
    assert health["parent"] == {"runs": 2, "all_correct": True,
                                "failed_share": 0.0}
    assert health["change"]["all_correct"] is False
    workloads = {"w": {"metrics": bench_ab.summarize(runs, SPEC)}}
    claim = bench_ab.claim_verdict(workloads, "w:report_s")
    assert claim["gain"] == pytest.approx(1 - 0.95 / 1.1)
    assert (claim["change_better_pairs"], claim["pairs"]) == (2, 2)


def test_a_run_that_times_out_is_a_failed_run(monkeypatch, tmp_path):
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(bench_ab.subprocess, "run", hang)
    status, result = bench_ab.run_once(tmp_path, "w", 2, 15)
    assert (status, result) == (None, {})
    runs = _runs({"parent": {"report_s": [1.0, 1.0]},
                  "change": {"report_s": [1.0]}})
    runs.append({"seed": 2, "side": "change", "exit": status,
                 "result": result})
    health = bench_ab.run_health(runs)
    assert health["change"] == {"runs": 2, "all_correct": False,
                                "failed_share": 0.0}
    assert health["parent"]["all_correct"] is True
    # the run that has no metrics leaves one pair
    assert bench_ab.summarize(runs, SPEC)["report_s"]["pairs"] == 1


def test_pairs_alternate_and_the_script_is_stdlib_only():
    assert bench_ab.pair_order(721) == ("change", "parent")
    assert bench_ab.pair_order(722) == ("parent", "change")
    modules = set()
    for node in ast.walk(ast.parse(PATH.read_text())):
        if isinstance(node, ast.Import):
            modules.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module.split(".")[0])
    assert modules <= set(sys.stdlib_module_names)


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    # as `wc -l` counts: newlines, in src/**/*.py only
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\nw = 4")
    (tmp_path / "src" / "pkg" / "__pycache__" / "a.pyc").write_bytes(
        b"\n" * 9)
    (tmp_path / "src" / "notes.txt").write_text("one\ntwo\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("t = 0\n")
    assert bench_ab.src_lines(tmp_path) == 4
    (tmp_path / "src" / "c.py").write_text("")
    assert bench_ab.src_lines(tmp_path) == 4
