"""Certification-trace layer: span recording, worker merging, diffing.

Covers the tentpole invariants: tracing disabled is a pure no-op (bitwise
identical certification), tracing enabled records exactly one span per
abstract-transformer application with correct layer attribution, worker
traces merge deterministically (serial == parallel modulo wall time), and
``python -m repro.trace diff`` flags a deliberately loosened transformer
with a non-zero exit.
"""

import collections
import os
import time

import numpy as np
import pytest

from repro.trace import (TRACER, CertTracer, aggregate_spans,
                         diff_aggregates, diff_traces, load_spans,
                         read_jsonl, write_jsonl)
from repro.trace.__main__ import main as trace_main
from repro.verify import DeepTVerifier, FAST, word_perturbation_region
from repro.zonotope import MultiNormZonotope

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
N_LAYERS = 2  # tiny_model depth; the span-count formulas below use it


@pytest.fixture(scope="module")
def region(tiny_model, tiny_sentence):
    return word_perturbation_region(tiny_model, tiny_sentence, 1, 0.01, 2.0)


@pytest.fixture(scope="module")
def true_label(tiny_model, tiny_sentence):
    return tiny_model.predict(tiny_sentence)


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts and ends with a disabled, empty tracer."""
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


class TestTracerCore:
    def test_disabled_records_nothing(self):
        tracer = CertTracer()
        z = MultiNormZonotope(np.ones((2, 2)))
        tracer.record_op("relu", z, 0.1)
        tracer.record_event("guard-trip", stage="x", detail="y")
        assert tracer.spans == []

    def test_collecting_restores_prior_state(self):
        tracer = CertTracer()
        with tracer.collecting():
            assert tracer.enabled
        assert not tracer.enabled
        tracer.enable()
        with tracer.collecting():
            pass
        assert tracer.enabled

    def test_layer_scope_attribution_and_nesting(self):
        tracer = CertTracer()
        z = MultiNormZonotope(np.ones(2))
        with tracer.collecting():
            tracer.record_op("relu", z, 0.0)
            with tracer.layer_scope(3):
                tracer.record_op("relu", z, 0.0)
                with tracer.layer_scope(4):
                    tracer.record_op("relu", z, 0.0)
                tracer.record_op("relu", z, 0.0)
        assert [s["layer"] for s in tracer.spans] == [None, 3, 4, 3]

    def test_query_scope_detaches_spans(self):
        tracer = CertTracer()
        z = MultiNormZonotope(np.ones(2))
        with tracer.collecting():
            tracer.record_op("relu", z, 0.0)
            with tracer.query_scope("deadbeef") as record:
                tracer.record_op("exp", z, 0.0)
                tracer.record_op("tanh", z, 0.0)
            held = record["spans"]
            assert [s["op"] for s in held] == ["exp", "tanh"]
            assert all(s["query"] == "deadbeef" for s in held)
            # Scoped spans left the global list; the outer span remains.
            assert [s["op"] for s in tracer.spans] == ["relu"]
            tracer.absorb(held)
            assert [s["op"] for s in tracer.spans] == ["relu", "exp",
                                                       "tanh"]

    def test_counters_and_gauges_record_with_tracing_off(self):
        tracer = CertTracer()
        assert not tracer.enabled
        tracer.count("probes")
        tracer.count("eps_rows_materialized", 5)
        tracer.count("eps_rows_materialized", 2)
        tracer.gauge_max("peak_eps_rows", 7)
        tracer.gauge_max("peak_eps_rows", 3)
        assert tracer.perf_snapshot() == {
            "counters": {"eps_rows_materialized": 7, "probes": 1},
            "gauges": {"peak_eps_rows": 7}}
        assert tracer.spans == []

    def test_query_scope_hands_over_counters_and_restores_outer(self):
        tracer = CertTracer()
        z = MultiNormZonotope(np.ones(2))
        with tracer.collecting():
            tracer.count("probes", 10)
            tracer.gauge_max("peak_eps_rows", 50)
            tracer.record_op("relu", z, 0.0)
            with tracer.query_scope("cafe") as record:
                assert record == {}  # filled at scope exit
                tracer.count("probes")
                tracer.gauge_max("peak_eps_rows", 4)
                tracer.record_op("exp", z, 0.0)
            assert [s["op"] for s in record["spans"]] == ["exp"]
            assert record["perf"] == {"counters": {"probes": 1},
                                      "gauges": {"peak_eps_rows": 4}}
            # The outer record is untouched and keeps recording.
            assert tracer.counters == {"probes": 10}
            assert tracer.gauges == {"peak_eps_rows": 50}
            assert [s["op"] for s in tracer.spans] == ["relu"]
            assert tracer._query is None
            tracer.count("probes")
            assert tracer.counters == {"probes": 11}

    def test_events_advance_on_counts_and_spans_only(self):
        tracer = CertTracer()
        z = MultiNormZonotope(np.ones(2))
        before = tracer.events
        tracer.count("probes")
        assert tracer.events == before + 1
        tracer.record_op("relu", z, 0.0)  # tracing off: no span, no event
        tracer.gauge_max("peak_eps_rows", 3)
        assert tracer.events == before + 1
        with tracer.collecting():
            tracer.record_op("relu", z, 0.0)
            tracer.record_event("guard-trip", stage="ffn", detail="x")
        assert tracer.events == before + 3
        # A stall (time passing, nothing recorded) leaves it where it is,
        # and neither a scope nor a reset moves it back.
        time.sleep(0.05)
        with tracer.query_scope("k"):
            pass
        tracer.reset()
        assert tracer.events == before + 3

    def test_span_statistics_fields(self):
        tracer = CertTracer()
        z = MultiNormZonotope(np.zeros(3), phi=np.ones((2, 3)),
                              eps=0.5 * np.ones((1, 3)), p=2.0)
        with tracer.collecting():
            tracer.record_op("relu", z, 0.25)
        (span,) = tracer.spans
        lower, upper = z.bounds()
        assert span["seconds"] == 0.25
        assert span["width_mean"] == pytest.approx(
            float(np.mean(upper - lower)))
        assert span["width_max"] == pytest.approx(
            float(np.max(upper - lower)))
        assert span["n_phi"] == 2 and span["n_eps"] == 1
        assert span["eps_mass"] == pytest.approx(1.5)
        assert span["phi_mass"] > 0

    def test_jsonl_roundtrip(self, tmp_path):
        spans = [{"query": None, "layer": 0, "op": "relu", "seconds": 0.1,
                  "width_max": 1.0},
                 {"query": "ab", "layer": None, "op": "guard-trip",
                  "seconds": 0.0, "stage": "ffn"}]
        path = str(tmp_path / "t.jsonl")
        write_jsonl(spans, path)
        assert read_jsonl(path) == spans


class TestTracedCertification:
    def test_disabled_tracing_is_bitwise_identical(self, tiny_model,
                                                   region, true_label):
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        baseline = verifier.certify_region(region, true_label)
        with TRACER.collecting():
            traced = verifier.certify_region(region, true_label)
        collected = len(TRACER.spans)
        after = verifier.certify_region(region, true_label)
        assert baseline.margin_lower == traced.margin_lower
        assert baseline.margin_lower == after.margin_lower
        # collecting() restored the disabled state; the untraced run after
        # it recorded nothing on top of the collected spans.
        assert not TRACER.enabled
        assert collected > 0 and len(TRACER.spans) == collected

    def test_one_span_per_transformer_application(self, tiny_model, region,
                                                  true_label):
        """Exact span census for one propagation of the 2-layer model.

        Per layer: 3 stacked Q/K/V projections + w_o + fc1 + fc2 affine
        maps, 2 dot-products (scores, mixing), 1 softmax (+1 exp, +1
        reciprocal, +1 sum-refinement), 1 ReLU; the head adds pool +
        classifier affines and one tanh.
        """
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        with TRACER.collecting() as tracer:
            verifier.certify_region(region, true_label)
        counts = collections.Counter(s["op"] for s in tracer.spans)
        expected = {
            "affine": 6 * N_LAYERS + 2,
            "dot-fast": 2 * N_LAYERS,
            "softmax": N_LAYERS,
            "exp": N_LAYERS,
            "reciprocal": N_LAYERS,
            "softmax-sum-refine": N_LAYERS,
            "relu": N_LAYERS,
            "tanh": 1,
        }
        for op, count in expected.items():
            assert counts[op] == count, (op, dict(counts))
        # Reduction fires only where the layer input exceeds the cap —
        # never at layer 0 (the input region has no eps symbols yet).
        assert 0 <= counts["reduce"] <= N_LAYERS

    def test_layer_attribution(self, tiny_model, region, true_label):
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        with TRACER.collecting() as tracer:
            verifier.certify_region(region, true_label)
        layers = {s["layer"] for s in tracer.spans}
        assert layers == set(range(N_LAYERS + 1))  # N_LAYERS == the head
        head = [s["op"] for s in tracer.spans if s["layer"] == N_LAYERS]
        assert sorted(head) == ["affine", "affine", "tanh"]

    def test_reduce_span_carries_eps_before(self, tiny_model, region,
                                            true_label):
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=8))
        with TRACER.collecting() as tracer:
            verifier.certify_region(region, true_label)
        reduces = [s for s in tracer.spans if s["op"] == "reduce"]
        assert reduces, "cap=8 must force at least one reduction"
        for span in reduces:
            assert span["eps_before"] > span["n_eps"] >= 8

    def test_widths_are_finite_and_positive(self, tiny_model, region,
                                            true_label):
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        with TRACER.collecting() as tracer:
            verifier.certify_region(region, true_label)
        for span in tracer.spans:
            assert np.isfinite(span["width_max"])
            assert span["width_max"] >= span["width_mean"] >= 0.0


class TestSchedulerTraceMerge:
    @pytest.fixture(scope="class")
    def queries(self, tiny_model, tiny_sentence):
        from repro.scheduler import expand_word_queries
        return expand_word_queries(
            tiny_model, [tiny_sentence], 2.0, verifier="deept",
            config=FAST(noise_symbol_cap=64), n_positions=2,
            n_iterations=2)

    @staticmethod
    def _run(model, queries, workers):
        from repro.scheduler import CertScheduler
        scheduler = CertScheduler(workers=workers)
        try:
            with TRACER.collecting() as tracer:
                outcomes = scheduler.run(model, queries)
        finally:
            scheduler.close()
        spans = tracer.snapshot()
        return outcomes, spans

    @staticmethod
    def _strip_seconds(spans):
        return [{k: v for k, v in s.items() if k != "seconds"}
                for s in spans]

    def test_serial_and_parallel_traces_identical(self, tiny_model,
                                                  queries):
        serial_outcomes, serial_spans = self._run(tiny_model, queries, 0)
        pool_outcomes, pool_spans = self._run(tiny_model, queries, 2)
        assert [o.radius for o in serial_outcomes] \
            == [o.radius for o in pool_outcomes]
        assert serial_spans, "a traced scheduler run must produce spans"
        assert self._strip_seconds(serial_spans) \
            == self._strip_seconds(pool_spans)
        # Every span is attributed to its owning query's sha256 key.
        keys = {q.key() for q in queries}
        assert {s["query"] for s in serial_spans} == keys
        # Spans arrive grouped in deterministic query-key order.
        order = [s["query"] for s in serial_spans]
        boundaries = [k for i, k in enumerate(order)
                      if i == 0 or order[i - 1] != k]
        assert boundaries == sorted(keys)

    def test_outcomes_carry_traces(self, tiny_model, queries):
        outcomes, _ = self._run(tiny_model, queries, 0)
        for outcome in outcomes:
            assert outcome.trace
            assert all(s["query"] == outcome.query.key()
                       for s in outcome.trace)

    def test_untraced_run_has_empty_traces(self, tiny_model, queries):
        from repro.scheduler import CertScheduler
        outcomes = CertScheduler(workers=0).run(tiny_model, queries)
        assert all(o.trace == () for o in outcomes)
        assert TRACER.spans == []


class TestTraceDiff:
    @staticmethod
    def _trace_run(model, region, label, config=None, tmpdir=None,
                   name="run"):
        verifier = DeepTVerifier(model, config or FAST(noise_symbol_cap=64))
        with TRACER.collecting() as tracer:
            verifier.certify_region(region, label)
        spans = tracer.snapshot()
        if tmpdir is None:
            return spans
        path = tmpdir / name
        path.mkdir()
        write_jsonl(spans, str(path / "table1.jsonl"))
        return str(path)

    def test_self_diff_is_clean(self, tiny_model, region, true_label,
                                tmp_path):
        run = self._trace_run(tiny_model, region, true_label,
                              tmpdir=tmp_path)
        regressions, lines = diff_traces(run, run)
        assert regressions == []
        assert "0 regression(s)" in lines[-1]
        assert trace_main(["diff", run, run]) == 0

    def test_loosened_transformer_flags_regression(self, tiny_model, region,
                                                   true_label, tmp_path,
                                                   monkeypatch):
        base = self._trace_run(tiny_model, region, true_label,
                               tmpdir=tmp_path, name="base")

        # Deliberately loosen one abstract transformer: widen every ReLU
        # output by a constant fresh-symbol margin. Sound but strictly
        # less precise — exactly what the diff gate must catch.
        import repro.verify.propagation as propagation
        true_relu = propagation.relu

        def loose_relu(z):
            out = true_relu(z)
            return out.append_fresh_eps(np.full(out.shape, 1e-3))

        monkeypatch.setattr(propagation, "relu", loose_relu)
        cand = self._trace_run(tiny_model, region, true_label,
                               tmpdir=tmp_path, name="cand")

        regressions, _ = diff_traces(base, cand)
        assert any(r["kind"] == "bound-width" for r in regressions)
        assert trace_main(["diff", base, cand]) == 1

    def test_span_count_change_flags_regression(self):
        z = MultiNormZonotope(np.ones(2))
        tracer = CertTracer()
        with tracer.collecting():
            tracer.record_op("relu", z, 0.0)
            tracer.record_op("relu", z, 0.0)
        base = aggregate_spans(tracer.spans)
        cand = aggregate_spans(tracer.spans[:1])
        regressions, _ = diff_aggregates(base, cand)
        assert [r["kind"] for r in regressions] == ["span-count"]

    def test_time_regression_needs_both_thresholds(self):
        spans_fast = [{"layer": 0, "op": "relu", "seconds": 0.01,
                       "width_max": 1.0, "width_mean": 1.0}]
        spans_slow = [dict(spans_fast[0], seconds=1.0)]
        base = aggregate_spans(spans_fast)
        # 100x slower and > 50ms absolute: flags.
        regressions, _ = diff_aggregates(base, aggregate_spans(spans_slow))
        assert [r["kind"] for r in regressions] == ["op-time"]
        # 2x slower but only 10ms absolute: under the floor, clean.
        spans_small = [dict(spans_fast[0], seconds=0.02)]
        regressions, _ = diff_aggregates(base,
                                         aggregate_spans(spans_small))
        assert regressions == []

    def test_inf_aware_width_comparison(self):
        finite = aggregate_spans([{"layer": 0, "op": "exp", "seconds": 0.0,
                                   "width_max": 1.0, "width_mean": 1.0}])
        blown = aggregate_spans([{"layer": 0, "op": "exp", "seconds": 0.0,
                                  "width_max": float("inf"),
                                  "width_mean": 1.0}])
        regressions, _ = diff_aggregates(finite, blown)
        assert any(r["kind"] == "bound-width" for r in regressions)
        # An already-inf baseline cannot regress further.
        regressions, _ = diff_aggregates(blown, blown)
        assert regressions == []

    def test_load_spans_directory_vs_file(self, tmp_path):
        spans = [{"layer": 0, "op": "relu", "seconds": 0.0}]
        write_jsonl(spans, str(tmp_path / "a.jsonl"))
        write_jsonl(spans, str(tmp_path / "b.jsonl"))
        assert load_spans(str(tmp_path)) == spans + spans
        assert load_spans(str(tmp_path / "a.jsonl")) == spans
