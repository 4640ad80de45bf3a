"""Tests of the benchmark's own metric code, plus tiny smoke runs.

Run from the repository root::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from metrics import (highest_reportable_percentile, latency_summary,
                     percentile, radius_gmean, undegraded_share)
from tracing import SpanRecorder, layer_metrics, self_times, wrap

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# ------------------------------------------------------------- percentiles

@pytest.mark.parametrize("n, expected", [
    (1000, 99), (999, 90), (100, 90), (99, 50), (20, 50), (19, None),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_reportable_percentile(n) == expected


def test_p90_omitted_under_100_samples():
    assert set(latency_summary([0.1] * 99)) == {"latency_p50_s"}
    summary = latency_summary([float(i) for i in range(100)])
    assert summary == {"latency_p50_s": 49.5,
                       "latency_p90_s": pytest.approx(89.1)}


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        percentile([], 50)


# ------------------------------------------------------- radius_gmean etc.

def test_radius_gmean():
    assert radius_gmean([1.0, 4.0]) == pytest.approx(2.0)
    assert radius_gmean([0.01, 0.01, 0.01]) == pytest.approx(0.01)
    for bad in ([0.0], [math.inf], [math.nan], []):
        with pytest.raises(ValueError):
            radius_gmean(bad)


def test_undegraded_share_counts_errors_and_refusals_as_misses():
    answers = [
        {"status": "done", "degraded": False},
        {"status": "done", "degraded": True},
        {"status": "error", "code": "rate-limited"},
        {"status": "error", "code": "overloaded"},
        {"status": "timeout"},
    ]
    # Six attempted: one was never answered at all.
    assert undegraded_share(answers, 6) == pytest.approx(1 / 6)
    assert undegraded_share([{"status": "done", "degraded": False}], 1) \
        == 1.0


# ----------------------------------------------------------------- spans

def span(span_id, name, start, end, parent=None, **attrs):
    return dict(id=span_id, name=name, start=start, end=end, parent=parent,
                request=None, **attrs)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("p", "verify.propagate", 0.0, 10.0),
        span("a", "zonotope.softmax", 1.0, 3.0, "p"),
        span("b", "zonotope.matmul_fast", 2.0, 5.0, "p"),   # overlaps a
        span("c", "verify.guard", 8.0, 12.0, "p"),          # past the end
        span("g", "zonotope.refine", 1.5, 2.5, "a"),        # grandchild
    ]
    own = self_times(spans)
    assert own["p"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own["a"] == pytest.approx(1.0)
    assert own["g"] == pytest.approx(1.0)
    metrics = layer_metrics(spans)
    assert metrics["verify.propagate.self_s"] == pytest.approx(4.0)
    assert metrics["zonotope.softmax.self_s"] == pytest.approx(1.0)
    assert metrics["zonotope.refine.self_s"] == pytest.approx(1.0)


def test_recorder_nests_spans_and_inherits_the_request():
    recorder = SpanRecorder()

    class Layer:
        @staticmethod
        def inner(x):
            return x + 1

    def outer(query):
        return Layer.inner(query["x"])

    owner = type("Owner", (), {"outer": staticmethod(outer)})
    wrap(recorder, Layer, "inner", "zonotope.softmax")
    wrap(recorder, owner, "outer", "scheduler.execute",
         request=lambda args: args[0]["key"])
    assert owner.outer({"x": 1, "key": "k1"}) == 2
    inner, outer_span = recorder.spans
    assert inner["name"] == "zonotope.softmax"
    assert inner["parent"] == outer_span["id"]
    assert inner["request"] == outer_span["request"] == "k1"
    assert outer_span["start"] <= inner["start"] <= inner["end"] \
        <= outer_span["end"]


def test_flush_writes_and_forgets(tmp_path):
    recorder = SpanRecorder()
    recorder.close(recorder.open("verify.probe"))
    path = tmp_path / "spans-1.jsonl"
    recorder.flush(str(path))
    recorder.flush(str(path))
    assert recorder.spans == []
    assert [json.loads(line)["name"]
            for line in path.read_text().splitlines()] == ["verify.probe"]


def test_layer_metrics_counts_probes_leases_and_setup():
    spans = [
        span("q", "scheduler.execute", 0.0, 2.0, eps_rows_materialized=5,
             peak_eps_rows=7),
        span("p1", "verify.probe", 0.0, 1.0, "q", degraded=False),
        span("p2", "verify.probe", 1.0, 2.0, "q", degraded=True),
        span("l", "scheduler.lease", 0.0, 2.5, exec_seconds=2.0),
        span("s", "setup.import", 0.0, 0.75),
    ]
    metrics = layer_metrics(spans)
    assert metrics["verify.probes_per_query"] == 2.0
    assert metrics["verify.s_per_probe"] == pytest.approx(1.0)
    assert metrics["verify.degraded_probes"] == 1
    assert metrics["scheduler.lease_overhead_p50_s"] == pytest.approx(0.5)
    assert metrics["zonotope.eps_rows_materialized"] == 5
    assert metrics["zonotope.peak_eps_rows"] == 7
    assert metrics["setup.import_s"] == pytest.approx(0.75)
    assert metrics["zonotope.matmul_precise.calls"] == 0


# ------------------------------------------------------------ smoke runs

def run_benchmark(workload, trace=0, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return completed


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", [w["name"] for w in spec()["workloads"]])
def test_tiny_smoke_run(workload):
    completed = run_benchmark(workload)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


def test_traced_service_smoke_run():
    completed = run_benchmark("service-mixed", trace=1)
    assert completed.returncode == 0, completed.stderr
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    value = {name: entry["value"] for name, entry in metrics.items()}
    assert value["zonotope.matmul_precise.calls"] == 0
    assert value["zonotope.matmul_fast.self_s"] > 0
    assert value["scheduler.leases"] >= 1
    assert value["scheduler.journal_append_p50_s"] > 0
    assert value["verify.probes_per_query"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark("table1-fast", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
