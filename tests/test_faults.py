"""Chaos suite: deterministic fault injection against the certification
pipeline. Every fault must still yield a result for every query, and no
fault may ever flip an uncertified query to certified (soundness under
failure). Seeded via REPRO_FUZZ_SEED-style plan seeds for reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.faults import (FaultInjector, FaultPlan, KILL_EXIT_CODE,
                          active_injector, fault_zonotope,
                          install_fault_plan, reset_fault_state)
from repro.scheduler import CertScheduler, ResultCache, expand_word_queries
from repro.scheduler.queries import degrade_query
from repro.trace import TRACER
from repro.verify import (DeepTVerifier, FAST, PRECISE,
                          word_perturbation_region)
from repro.zonotope import MultiNormZonotope

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))


@pytest.fixture(scope="module")
def region(tiny_model, tiny_sentence):
    return word_perturbation_region(tiny_model, tiny_sentence, 1, 0.01, 2.0)


@pytest.fixture(scope="module")
def true_label(tiny_model, tiny_sentence):
    return tiny_model.predict(tiny_sentence)


@pytest.fixture(scope="module")
def clean_result(tiny_model, region, true_label):
    verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
    return verifier.certify_region(region, true_label)


class TestFaultPlan:
    def test_env_roundtrip(self):
        plan = FaultPlan(kind="nan", layer=1, seed=SEED, max_faults=2)
        restored = FaultPlan.from_env({"REPRO_FAULT_PLAN": plan.to_env()})
        assert restored == plan

    def test_no_env_means_no_plan(self):
        assert FaultPlan.from_env({}) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(kind="gremlins")

    def test_hooks_are_noops_without_plan(self):
        reset_fault_state()
        z = MultiNormZonotope(np.ones((2, 2)))
        assert fault_zonotope(z, 0) is z

    def test_install_scope_restores(self):
        with install_fault_plan(FaultPlan(kind="nan", seed=SEED)):
            assert active_injector() is not None
        z = MultiNormZonotope(np.ones((2, 2)))
        assert fault_zonotope(z, 0) is z


class TestInjectorDeterminism:
    def test_same_seed_same_corruption(self):
        z = MultiNormZonotope(np.arange(12.0).reshape(3, 4) + 1.0)
        a = FaultInjector(FaultPlan(kind="nan", seed=SEED))
        b = FaultInjector(FaultPlan(kind="nan", seed=SEED))
        za, zb = a.corrupt_zonotope(z, 0), b.corrupt_zonotope(z, 0)
        assert np.isnan(za.center).sum() == 1
        assert np.array_equal(np.isnan(za.center), np.isnan(zb.center))

    def test_wrong_layer_untouched(self):
        z = MultiNormZonotope(np.ones((2, 2)))
        injector = FaultInjector(FaultPlan(kind="inf", layer=3, seed=SEED))
        assert injector.corrupt_zonotope(z, 0) is z

    def test_max_faults_budget(self):
        z = MultiNormZonotope(np.ones((2, 2)))
        injector = FaultInjector(FaultPlan(kind="nan", seed=SEED,
                                           max_faults=1))
        first = injector.corrupt_zonotope(z, 0)
        assert np.isnan(first.center).any()
        assert injector.corrupt_zonotope(z, 0) is z

    def test_probability_zero_never_fires(self):
        z = MultiNormZonotope(np.ones((2, 2)))
        injector = FaultInjector(FaultPlan(kind="nan", seed=SEED,
                                           probability=0.0))
        for _ in range(10):
            assert injector.corrupt_zonotope(z, 0) is z


class TestPropagationChaos:
    """Corrupted zonotopes mid-propagation: always a result, never an
    invented certification."""

    @pytest.mark.parametrize("kind", ["nan", "inf", "overscale"])
    @pytest.mark.parametrize("layer", [0, 1])
    def test_fault_degrades_soundly(self, tiny_model, region, true_label,
                                    clean_result, kind, layer):
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        plan = FaultPlan(kind=kind, layer=layer, seed=SEED)
        with install_fault_plan(plan):
            result = verifier.certify_region(region, true_label)
        assert result is not None  # a result for every query, no raise
        assert result.degraded
        assert result.fallback_chain[-1] == "ibp"
        assert result.fault is not None
        # Soundness under failure: a fault can lose a certification but
        # can never flip uncertified -> certified vs the clean baseline.
        assert not (result.certified and not clean_result.certified)
        assert result.margin_lower <= clean_result.margin_lower


class TestTraceChaos:
    """Injected faults and degradation-ladder hops must be visible as
    trace events, in rung order, alongside the ordinary op spans."""

    def test_fault_and_ladder_hops_traced(self, tiny_model, region,
                                          true_label):
        verifier = DeepTVerifier(tiny_model, PRECISE(noise_symbol_cap=64))
        plan = FaultPlan(kind="nan", layer=0, seed=SEED)  # unlimited fires
        with install_fault_plan(plan), TRACER.collecting() as tracer:
            result = verifier.certify_region(region, true_label)
        assert result.degraded
        assert result.fallback_chain == ("precise", "fast", "ibp")

        faults = [s for s in tracer.spans if s["op"] == "fault-injected"]
        hops = [s for s in tracer.spans if s["op"] == "degradation-hop"]
        # One injection per zonotope rung (precise, fast; IBP has no
        # zonotope injection point), each pinned to the target layer.
        assert len(faults) == 2
        assert all(s["layer"] == 0 and s["kind"] == "nan" for s in faults)
        # One hop event per failed rung, in ladder order, carrying the
        # originating fault type.
        assert [s["rung"] for s in hops] == ["precise", "fast"]
        assert all(s["fault"] for s in hops)
        # Events are zero-duration. The NaN is caught at the layer-0
        # reduction checkpoint, so each zonotope rung records exactly
        # injection -> guard trip -> hop and no op spans.
        assert all(s["seconds"] == 0.0 for s in faults + hops)
        trips = [s for s in tracer.spans if s["op"] == "guard-trip"]
        assert len(trips) == 2
        assert all(s["layer"] == 0 for s in trips)

    def test_guard_trip_traced(self, tiny_model, region, true_label):
        """A fault the guards catch (overscale blows up downstream, not at
        the injection site) must surface as guard-trip events."""
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        plan = FaultPlan(kind="overscale", layer=0, seed=SEED)
        with install_fault_plan(plan), TRACER.collecting() as tracer:
            result = verifier.certify_region(region, true_label)
        assert result.degraded
        trips = [s for s in tracer.spans if s["op"] == "guard-trip"]
        assert trips
        assert all(s["stage"] and s["detail"] for s in trips)
        # Overscale blows up downstream of the injection, so the failed
        # rungs recorded real op spans before tripping.
        assert any(s["op"] == "affine" for s in tracer.spans)

    def test_clean_run_has_no_event_spans(self, tiny_model, region,
                                          true_label):
        verifier = DeepTVerifier(tiny_model, FAST(noise_symbol_cap=64))
        with TRACER.collecting() as tracer:
            verifier.certify_region(region, true_label)
        events = {"fault-injected", "degradation-hop", "guard-trip"}
        assert not [s for s in tracer.spans if s["op"] in events]


class TestSchedulerChaos:
    """Every lease kills its worker: each query is requeued, then
    quarantined and answered in-process from the IBP floor — degraded,
    under its IBP twin, never lost."""

    @pytest.fixture(scope="class")
    def queries(self, tiny_model, tiny_sentence):
        return expand_word_queries(
            tiny_model, [tiny_sentence], 2.0, verifier="deept",
            config=FAST(noise_symbol_cap=64), n_positions=2,
            n_iterations=3)

    def test_killed_workers_fall_back_to_inprocess(self, tiny_model,
                                                   queries):
        twins = [degrade_query(q, "ibp") for q in queries]
        serial = CertScheduler(workers=0).run(tiny_model, twins)
        scheduler = CertScheduler(workers=2, heartbeat_interval=0.1)
        try:
            with install_fault_plan(FaultPlan(kind="kill-worker",
                                              seed=SEED)):
                chaotic = scheduler.run(tiny_model, queries)
        finally:
            scheduler.close()
        assert [o.radius for o in chaotic] == [o.radius for o in serial]
        assert [o.executed_query for o in chaotic] == twins
        assert all(o.source == "poisoned" for o in chaotic)
        assert all(o.degraded for o in chaotic)
        stats = scheduler.last_stats
        assert stats["retries"] >= 1
        assert stats["executed"]["poisoned"] == len(queries)


class TestCacheChaos:
    def _query(self):
        from repro.scheduler import CertQuery
        return CertQuery(verifier="deept", model_hash="cafe",
                         corpus_fingerprint="f00d", sentence=(1, 2, 3),
                         position=1, p=2.0, config=())

    def test_garbled_shard_recovers_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        query = self._query()
        with install_fault_plan(FaultPlan(kind="cache-garble", seed=SEED)):
            cache.put(query, 0.25, 1.0, None)
        with pytest.warns(UserWarning, match="corrupt result cache"):
            assert cache.get(query) is None
        # Recomputation heals the entry.
        cache.put(query, 0.25, 1.0, None)
        assert cache.get(query)["radius"] == 0.25

    def test_writer_killed_mid_commit_leaves_cache_consistent(self,
                                                              tmp_path):
        """Kill the writer between shard-temp creation and rename: the
        committed cache must be untouched and the lost entry recomputable."""
        script = (
            "import os\n"
            "from repro.scheduler import CertQuery, ResultCache\n"
            "cache = ResultCache(os.environ['CACHE_DIR'])\n"
            "q = CertQuery(verifier='deept', model_hash='cafe',\n"
            "              corpus_fingerprint='f00d', sentence=(1, 2, 3),\n"
            "              position=1, p=2.0, config=())\n"
            "cache.put(q, 0.25, 1.0, None)\n"
            "raise SystemExit(99)  # unreachable: the fault kills us\n"
        )
        env = dict(os.environ,
                   CACHE_DIR=str(tmp_path),
                   REPRO_FAULT_PLAN=json.dumps({"kind": "cache-kill"}),
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.path.dirname(__file__), os.pardir,
                                     "src")]
                       + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == KILL_EXIT_CODE, proc.stderr

        cache = ResultCache(str(tmp_path))
        query = self._query()
        # Nothing was committed: a clean miss, no corrupt JSON, no warning.
        assert cache.get(query) is None
        committed = [f for shard in tmp_path.iterdir() if shard.is_dir()
                     for f in shard.iterdir() if f.suffix == ".json"]
        assert committed == []
        # The exact lost entry is recomputed and committed normally.
        cache.put(query, 0.25, 1.0, None)
        assert cache.get(query)["radius"] == 0.25
