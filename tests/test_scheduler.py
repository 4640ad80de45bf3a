"""Tests for the certification scheduler: query expansion, determinism
across worker counts, the persistent result cache, fallback paths, and the
fork-safe recorder."""

import gc
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.experiments.harness import ExperimentScale, radius_report_deept
from repro.scheduler import (CertQuery, CertScheduler, ResultCache,
                             corpus_fingerprint, execute_query,
                             expand_word_queries, merge_outcome_perf,
                             model_weight_hash, positions_for)
from repro.trace import TRACER, merge_perf
from repro.verify import FAST
from repro.zonotope import MultiNormZonotope

TINY_SCALE = ExperimentScale(n_positions=2, search_iterations=3)


@pytest.fixture(scope="module")
def sentences(tiny_corpus):
    return [s for s in tiny_corpus.test_sequences if len(s) <= 8][:2]


@pytest.fixture(scope="module")
def queries(tiny_model, sentences):
    return expand_word_queries(
        tiny_model, sentences, 2.0, verifier="deept",
        config=FAST(noise_symbol_cap=64), n_positions=2, n_iterations=3)


class TestQueryExpansion:
    def test_one_query_per_sentence_position(self, queries, sentences):
        assert len(queries) == sum(
            len(positions_for(s, 2)) for s in sentences)
        for query in queries:
            assert query.position > 0  # [CLS] never perturbed

    def test_key_stable_and_sensitive(self, queries):
        query = queries[0]
        assert query.key() == query.key()
        import dataclasses
        bumped = dataclasses.replace(query, position=query.position + 1)
        assert bumped.key() != query.key()
        rescaled = dataclasses.replace(query, initial=0.02)
        assert rescaled.key() != query.key()

    def test_model_hash_tracks_weights(self, tiny_model):
        before = model_weight_hash(tiny_model)
        state = tiny_model.state_dict()
        key = sorted(state)[0]
        original = state[key].copy()
        try:
            state[key] += 1e-3
            tiny_model.load_state_dict(state)
            assert model_weight_hash(tiny_model) != before
        finally:
            state[key] = original
            tiny_model.load_state_dict(state)
        assert model_weight_hash(tiny_model) == before

    def test_corpus_fingerprint_order_sensitive(self, sentences):
        assert corpus_fingerprint(sentences) \
            != corpus_fingerprint(list(reversed(sentences)))

    def test_crown_expansion_and_validation(self, tiny_model, sentences):
        crown = expand_word_queries(tiny_model, sentences, np.inf,
                                    verifier="crown", backsub_depth=10)
        assert all(q.config == (("backsub_depth", 10),) for q in crown)
        with pytest.raises(ValueError):
            expand_word_queries(tiny_model, sentences, 2.0,
                                verifier="deept")  # missing config
        with pytest.raises(ValueError):
            CertQuery(verifier="quantum", model_hash="x",
                      corpus_fingerprint="y", sentence=(1,), position=1,
                      p=2.0, config=())


class TestDeterminism:
    """workers=4 must reproduce workers=0 bitwise; warm runs hit the cache."""

    def test_parallel_matches_serial_bitwise(self, tiny_model, queries,
                                             tmp_path):
        serial = CertScheduler(workers=0).run(tiny_model, queries)
        parallel_scheduler = CertScheduler(workers=4,
                                           cache_dir=str(tmp_path))
        try:
            parallel = parallel_scheduler.run(tiny_model, queries)
            assert [o.radius for o in parallel] \
                == [o.radius for o in serial]
            stats = parallel_scheduler.last_stats
            assert stats["cache_misses"] == len(queries)
            assert stats["executed"]["worker"] == len(queries)

            # Second run: every query answered from the cache, none
            # recomputed.
            warm = parallel_scheduler.run(tiny_model, queries)
        finally:
            parallel_scheduler.close()
        assert [o.radius for o in warm] == [o.radius for o in serial]
        stats = parallel_scheduler.last_stats
        assert stats["cache_hits"] == len(queries)
        assert sum(stats["executed"].values()) == 0
        assert all(o.source == "cache" for o in warm)

    def test_radius_report_identical_across_workers(self, tiny_model,
                                                    sentences, tmp_path):
        serial = radius_report_deept(tiny_model, sentences, 2.0,
                                     FAST(noise_symbol_cap=64),
                                     scale=TINY_SCALE)
        scheduler = CertScheduler(workers=4, cache_dir=str(tmp_path))
        try:
            parallel = radius_report_deept(
                tiny_model, sentences, 2.0, FAST(noise_symbol_cap=64),
                scale=TINY_SCALE, scheduler=scheduler)
        finally:
            scheduler.close()
        assert parallel.radii == serial.radii
        assert parallel.min_radius == serial.min_radius

    def test_outcomes_in_input_order(self, tiny_model, queries, tmp_path):
        scheduler = CertScheduler(workers=2, cache_dir=str(tmp_path))
        try:
            outcomes = scheduler.run(tiny_model, queries)
        finally:
            scheduler.close()
        assert [o.query for o in outcomes] == list(queries)


class TestFleetFollowsModel:
    """A pooled scheduler answers each run with that run's model."""

    def test_second_model_is_not_served_by_the_first_fleet(
            self, tiny_model, tiny_model_std_norm, sentences):
        scheduler = CertScheduler(workers=1)
        try:
            for model in (tiny_model, tiny_model_std_norm):
                queries = expand_word_queries(
                    model, sentences, 2.0, verifier="deept",
                    config=FAST(noise_symbol_cap=64), n_positions=2,
                    n_iterations=3)
                pooled = scheduler.run(model, queries)
                serial = CertScheduler(workers=0).run(model, queries)
                assert [o.radius for o in pooled] \
                    == [o.radius for o in serial]
                assert all(o.source == "worker" for o in pooled)
        finally:
            scheduler.close()


class TestFleetLifecycle:
    """A fleet never outlives the scheduler that started it."""

    @staticmethod
    def _processes(scheduler, model, queries):
        scheduler.run(model, queries)
        return [slot.process for slot in scheduler._supervisor._slots]

    def test_dropped_scheduler_stops_its_fleet(self, tiny_model, queries):
        scheduler = CertScheduler(workers=1)
        processes = self._processes(scheduler, tiny_model, queries[:1])
        assert all(p.is_alive() for p in processes)
        del scheduler
        gc.collect()
        assert not any(p.is_alive() for p in processes)

    def test_replaced_default_scheduler_stops_its_fleet(self, tiny_model,
                                                        queries):
        from repro.scheduler import (configure, get_default_scheduler,
                                     set_default_scheduler)
        previous = get_default_scheduler()
        try:
            processes = self._processes(configure(workers=1), tiny_model,
                                        queries[:1])
            configure()
            assert not any(p.is_alive() for p in processes)
        finally:
            set_default_scheduler(previous)


class TestResultCache:
    def test_corrupt_entry_is_a_miss_and_deleted(self, tiny_model, queries,
                                                 tmp_path):
        cache = ResultCache(str(tmp_path))
        query = queries[0]
        cache.put(query, 0.5, 1.0, None)
        path = cache._entry_path(query)
        with open(path, "w") as f:
            f.write("{not json")
        with pytest.warns(UserWarning, match="corrupt result cache"):
            assert cache.get(query) is None
        assert not os.path.exists(path)

    def test_version_mismatch_is_a_miss(self, queries, tmp_path):
        cache = ResultCache(str(tmp_path))
        query = queries[0]
        cache.put(query, 0.5, 1.0, None)
        path = cache._entry_path(query)
        with open(path) as f:
            payload = json.load(f)
        payload["version"] = 999
        with open(path, "w") as f:
            json.dump(payload, f)
        with pytest.warns(UserWarning, match="corrupt result cache"):
            assert cache.get(query) is None

    def test_roundtrip_payload(self, queries, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(queries[0], 0.125, 2.5, {"counters": {"x": 1}})
        payload = cache.get(queries[0])
        assert payload["radius"] == 0.125
        assert payload["perf"] == {"counters": {"x": 1}}

    def test_distinct_models_never_collide(self, tiny_model, queries):
        import dataclasses
        other = dataclasses.replace(queries[0], model_hash="feedbeef")
        assert other.key() != queries[0].key()


class TestFallbacks:
    def test_serial_when_fork_unavailable(self, tiny_model, queries,
                                          monkeypatch):
        def no_fork(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        scheduler = CertScheduler(workers=4)
        reference = CertScheduler(workers=0).run(tiny_model, queries[:2])
        outcomes = scheduler.run(tiny_model, queries[:2])
        assert [o.radius for o in outcomes] \
            == [o.radius for o in reference]
        assert all(o.source == "inprocess" for o in outcomes)

    def test_inprocess_when_pool_creation_fails(self, tiny_model, queries,
                                                monkeypatch):
        fork = multiprocessing.get_context("fork")
        started = []

        class BrokenContext:
            """Forks one worker, then fails as fork does at a limit."""
            Pipe = staticmethod(fork.Pipe)

            def Process(self, *args, **kwargs):
                if started:
                    raise OSError("no processes for you")
                started.append(fork.Process(*args, **kwargs))
                return started[-1]

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: BrokenContext())
        scheduler = CertScheduler(workers=4)
        outcomes = scheduler.run(tiny_model, queries[:2])
        assert all(o.source == "inprocess" for o in outcomes)
        assert scheduler.last_stats["fallbacks"] == 1
        assert not started[0].is_alive()  # the partial fleet was stopped

    def test_every_run_retries_a_fleet_that_could_not_start(
            self, tiny_model, queries, monkeypatch):
        """A failed fork is not remembered: each run forks afresh, counts
        its own fallback, and uses the fleet once fork works again."""
        def no_fork(method):
            raise OSError("no processes for you")

        scheduler = CertScheduler(workers=2)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(multiprocessing, "get_context", no_fork)
                for _ in range(2):
                    outcomes = scheduler.run(tiny_model, queries[:2])
                    assert all(o.source == "inprocess" for o in outcomes)
                    assert scheduler.last_stats["fallbacks"] == 1
            pooled = scheduler.run(tiny_model, queries[:2])
        finally:
            scheduler.close()
        assert all(o.source == "worker" for o in pooled)
        assert scheduler.last_stats["fallbacks"] == 0
        assert scheduler.last_stats["executed"]["worker"] == 2

    def test_execute_query_pure(self, tiny_model, queries):
        first = execute_query(tiny_model, queries[0])
        second = execute_query(tiny_model, queries[0])
        assert first[0] == second[0]  # bitwise-identical radius


class TestOutOfOrderCompletion:
    """Workers finishing out of submission order must not mix up outcomes."""

    def test_pool_outcomes_keyed_correctly_despite_reversal(
            self, tiny_model, queries, tmp_path, monkeypatch):
        import time

        import repro.scheduler.worker as worker_mod

        chosen = list(queries[:3])
        reference = [execute_query(tiny_model, q)[0] for q in chosen]

        # Delay earlier queries so completion order reverses submission
        # order. The patch lands before the fork pool is created, so the
        # workers inherit it; each stamps its completion time to disk.
        delays = {chosen[0].key(): 2.5, chosen[1].key(): 1.2,
                  chosen[2].key(): 0.0}
        stamp_dir = tmp_path / "stamps"
        stamp_dir.mkdir()
        inner = worker_mod.execute_query

        def delayed(model, query):
            time.sleep(delays.get(query.key(), 0.0))
            result = inner(model, query)
            (stamp_dir / query.key()).write_text(repr(time.monotonic()))
            return result

        monkeypatch.setattr(worker_mod, "execute_query", delayed)
        scheduler = CertScheduler(workers=3)
        try:
            outcomes = scheduler.run(tiny_model, chosen)
        finally:
            scheduler.close()

        stamps = [float((stamp_dir / q.key()).read_text())
                  for q in chosen]
        assert stamps[0] > stamps[2]  # completion genuinely reordered
        assert [o.query for o in outcomes] == chosen
        assert [o.radius for o in outcomes] == reference
        assert all(o.source == "worker" for o in outcomes)


class TestPerfForkSafety:
    """The global recorder across worker processes (reset + merge)."""

    @staticmethod
    def _child_record(counter_value, queue):
        # after_in_child hook must have wiped the parent's recorded data.
        queue.put({"inherited": {"counters": dict(TRACER.counters),
                                 "gauges": dict(TRACER.gauges),
                                 "spans": len(TRACER.spans)}})
        with TRACER.query_scope("child") as record:
            TRACER.count("fuzz_events", counter_value)
            TRACER.gauge_max("peak", counter_value * 10)
        queue.put(record["perf"])

    def test_children_start_clean_and_merge_aggregates(self):
        context = multiprocessing.get_context("fork")
        try:
            with TRACER.collecting():
                # Parent-side data recorded before the fork.
                TRACER.count("fuzz_events", 100)
                TRACER.gauge_max("peak", 1000)
                TRACER.record_op("relu", MultiNormZonotope(np.ones(2)), 0.0)
                queue = context.Queue()
                children = [context.Process(target=self._child_record,
                                            args=(k, queue))
                            for k in (3, 4)]
                for child in children:
                    child.start()
                payloads = [queue.get(timeout=30) for _ in range(4)]
                for child in children:
                    child.join(timeout=30)
        finally:
            TRACER.reset()

        inherited = [p for p in payloads if "inherited" in p]
        snapshots = [p for p in payloads if "inherited" not in p]
        assert len(inherited) == 2 and len(snapshots) == 2
        for payload in inherited:
            assert payload["inherited"] == {"counters": {}, "gauges": {},
                                            "spans": 0}

        merged = merge_perf(snapshots)
        assert merged["counters"]["fuzz_events"] == 7  # counters add
        assert merged["gauges"]["peak"] == 40  # gauges keep the maximum

    def test_merge_ignores_enabled_gate(self):
        """Merging is bookkeeping over recorded data: it folds snapshots
        whatever the tracer's state, and ignores the ``stages`` key of
        entries written by older versions."""
        assert not TRACER.enabled
        merged = merge_perf([
            {"counters": {"a": 2}, "gauges": {"g": 5},
             "stages": {"s": {"seconds": 0.5, "calls": 3}}},
            None,
            {"counters": {"a": 1}, "gauges": {"g": 4}}])
        assert merged == {"counters": {"a": 3}, "gauges": {"g": 5}}

    def test_merge_outcome_perf_key_ordered(self, queries):
        from repro.scheduler import QueryOutcome
        outcomes = [
            QueryOutcome(query=q, radius=0.0, seconds=0.0,
                         perf={"counters": {"n": i + 1}}, source="worker")
            for i, q in enumerate(queries[:2])]
        merged = merge_outcome_perf(outcomes)
        assert merged["counters"]["n"] == 3
        assert merge_outcome_perf(list(reversed(outcomes))) == merged
