"""Self-test of the benchmark harness: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402
from spans import Tracer, span_times  # noqa: E402

SMALL = {
    "build": ["--field", "3", "--kind", "symplectic", "--index", "1"],
    "verify": ["--suite", "lines", "--suite", "joinable"],
    "pins": {"lines": {"singular_lines": 36}, "joinable": {"expected": 9}},
}


def _report(**data):
    return {
        "passed": True,
        "suites": [
            {"suite": "lines", "passed": True, "checks": [{"name": "c", "passed": True}],
             "data": {"singular_lines": 36, **data}},
        ],
    }


def test_gate_passes_a_matching_report():
    assert run.report_misses(_report(), 0, {"lines": {"singular_lines": 36}}) == []


def test_gate_counts_wrong_pins_failed_suites_and_exit_codes():
    pins = {"lines": {"singular_lines": 36}}
    assert run.report_misses(_report(), 0, {"lines": {"singular_lines": 35}})
    assert run.report_misses(_report(), 0, {"lines": {"not_there": 1}})
    assert run.report_misses(_report(), 0, {"gamma": {}})
    assert run.report_misses(_report(), 1, pins)
    assert run.report_misses(None, 0, pins)
    failed_suite = _report()
    failed_suite["suites"][0]["passed"] = False
    assert any("passed is not true" in m for m in run.report_misses(failed_suite, 0, pins))
    failed_check = _report()
    failed_check["suites"][0]["checks"][0]["passed"] = False
    assert run.report_misses(failed_check, 0, pins)


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def _small_op(work, pins):
    deadline = run.time.perf_counter() + 60
    spec = dict(SMALL, pins=pins)
    instance = run.build_instance("small", spec, deadline)
    return run.VerifyOp("small", spec, instance, deadline)


def test_verify_run_with_a_wrong_pin_is_a_failed_operation(work):
    good = _small_op(work, SMALL["pins"])
    assert (good.attempted, good.failed, good.misses) == (1, 0, [])
    bad = _small_op(work, {"lines": {"singular_lines": 37}, "joinable": {"expected": 9}})
    assert (bad.attempted, bad.failed) == (1, 1)
    assert bad.misses == ["suite lines: singular_lines = 36, expected 37"]


def test_a_suite_reporting_passed_false_is_a_failed_operation(work):
    op = _small_op(work, SMALL["pins"])
    report = json.loads((work / "small.report.json").read_text())
    report["suites"][1]["checks"][0]["passed"] = False
    report["suites"][1]["passed"] = False
    misses = run.report_misses(report, op.child.exit_code, SMALL["pins"])
    assert "suite joinable: passed is not true" in misses


def test_traced_verify_reports_the_suite_spans(work):
    deadline = run.time.perf_counter() + 60
    instance = run.build_instance("small", SMALL, deadline)
    op = run.VerifyOp("small", SMALL, instance, deadline, trace_tag="small-trace")
    assert op.failed == 0
    metrics = run.layer_metrics(op.summary, op.child.wall_s, op.child.wall_s)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["suite.lines_s"]["value"] > 0
    assert metrics["suite.gamma_s"]["value"] == 0
    assert metrics["apsg.affline_new"]["value"] > metrics["apsg.affline_distinct"]["value"] > 0
    assert metrics["cli.report_bytes"]["value"] == (work / "small.report.json").stat().st_size
    trace = json.loads((work / "small-trace.trace.json").read_text())
    assert trace["trace_id"] == op.summary["trace_id"] == "small-trace"


def test_pair_report_gate():
    good = [
        {"pair": [1, 2], "kind": "t", "classification": "hyperplane", "cardinality": 25},
        {"pair": [1, 2], "kind": "m", "classification": "hyperplane", "cardinality": 25},
        {"pair": [1, 2], "kind": "sphere", "classification": "hyperplane", "cardinality": 25},
    ]
    assert child.check_pair_report(good, 125, 5, (1, 2)) == []
    wrong = [dict(e) for e in good]
    wrong[0].update(classification="empty")
    assert child.check_pair_report(wrong, 125, 5, (1, 2))
    assert child.check_pair_report(good[:2], 125, 5, (1, 2))


def test_self_time_on_a_hand_made_span_tree():
    #  A [0,10] ── B [1,4] ── D [2,3]
    #           └─ C [5,7] ── A [5.5,6.5]   (A nested in itself)
    names = ["A", "B", "C", "D"]
    nid = [0, 1, 3, 2, 0]
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 5.0, 5.5]
    end = [10.0, 4.0, 3.0, 7.0, 6.5]
    t = span_times(names, nid, parent, start, end)
    assert t["A"] == {"calls": 2, "total_s": 10.0, "self_s": 5.0 + 1.0}
    assert t["B"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert t["C"] == {"calls": 1, "total_s": 2.0, "self_s": 1.0}
    assert t["D"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_self_time_counts_overlapping_children_once():
    t = span_times(["P", "K"], [0, 1, 1], [-1, 0, 0], [0.0, 1.0, 2.0], [10.0, 3.0, 4.0])
    assert t["P"]["self_s"] == pytest.approx(7.0)


def test_tracer_records_parents_and_counts():
    tracer = Tracer("t")
    inner = tracer.spanned("inner", lambda x: x + 1)
    outer = tracer.spanned("outer", lambda x: inner(x) * 2)
    hot = tracer.counted("hot", lambda: None)
    assert outer(1) == 4
    hot(), hot()
    names, nid, parent, _, _ = tracer.span_table()
    assert [names[i] for i in nid] == ["outer", "inner"]
    assert parent == [-1, 0]
    assert tracer.counts == {"inner": 1, "outer": 1, "hot": 2}


def test_percentile_matches_linear_interpolation():
    assert run.percentile([3.0], 95) == 3.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile(list(map(float, range(101))), 95) == 95.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in run.PER_LAYER.items()
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-m2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
