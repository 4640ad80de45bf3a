"""Query execution: the pure radius computation plus fork-pool glue.

:func:`execute_query` is a *pure function* of (model weights, query): it
reruns the exact binary search the serial harness ran — same verifier
construction, same true-label computation, same bracketing parameters — so
a query's certified radius is bitwise identical whether it is computed in
the parent process, in a pool worker, or replayed from a previous run.
That determinism is what makes the scheduler's result cache and its
serial-vs-parallel equivalence guarantee sound.

Pool workers receive the model once, through the fork-context pool
initializer (fork inherits the parent's memory, so no per-query model
pickling), and reset the process-global :data:`repro.perf.PERF` on start
so each worker's snapshots cover only its own queries. Every executed
query returns ``(radius, seconds, perf_snapshot, meta)`` where ``meta``
records whether any certification in the binary search degraded down the
verifier's fallback ladder; the parent merges the snapshots via
:meth:`PerfRecorder.merge` in deterministic key order.
"""

from __future__ import annotations

import time

from ..faults import fault_worker_entry
from ..perf import PERF
from ..trace import TRACER

__all__ = ["execute_query"]

_WORKER_MODEL = None


def _build_verifier(model, query):
    if query.verifier == "deept":
        from ..verify import DeepTVerifier, VerifierConfig
        return DeepTVerifier(model, VerifierConfig(**dict(query.config)))
    if query.verifier == "ibp":
        # The QoS floor: interval propagation; the (deept-shaped) config
        # rides along unused so degraded queries stay round-trippable.
        from ..verify import IBPVerifier
        return IBPVerifier(model)
    from ..baselines.crown import CrownVerifier
    return CrownVerifier(model,
                         backsub_depth=dict(query.config)["backsub_depth"])


def execute_query(model, query):
    """Run one certification query; returns (radius, seconds, perf, meta).

    ``perf`` is the :meth:`repro.perf.PerfRecorder.snapshot` covering
    exactly this query's propagations. ``meta`` reports resilience state:
    ``degraded`` is True when any certification of the binary search fell
    down the verifier's fallback ladder, ``fallback_chain`` is the first
    degraded call's rung sequence and ``fault`` its originating failure.
    """
    from ..verify.radius import binary_search_radius

    start = time.perf_counter()
    token_ids = list(query.sentence)
    meta = {"degraded": False, "fallback_chain": (), "fault": None}
    # query_scope detaches this query's spans from the global list and
    # yields them (at scope exit) so they travel back through meta — the
    # same code path serially and in a pool worker, which is what makes
    # worker-merged traces identical to a serial run's.
    with PERF.collecting() as recorder, \
            TRACER.query_scope(query.key()) as spans:
        verifier = _build_verifier(model, query)
        true_label = model.predict(token_ids)

        def certify(radius):
            result = verifier.certify_word_perturbation(
                token_ids, query.position, radius, query.p,
                true_label=true_label)
            if getattr(result, "degraded", False) and not meta["degraded"]:
                meta["degraded"] = True
                meta["fallback_chain"] = tuple(result.fallback_chain)
                meta["fault"] = result.fault
            return bool(result)

        radius = binary_search_radius(certify, initial=query.initial,
                                      n_iterations=query.n_iterations)
        perf = recorder.snapshot()
    meta["trace"] = tuple(spans)
    return radius, time.perf_counter() - start, perf, meta


def _pool_init(model):
    """Pool initializer: adopt the forked model, start a clean recorder."""
    global _WORKER_MODEL
    _WORKER_MODEL = model
    PERF.reset()
    TRACER.reset()


def _pool_run(query):
    """Pool task: execute one query against the worker's model."""
    # Chaos hook (no-op without an active REPRO_FAULT_PLAN): lets the fault
    # harness kill or stall this worker at query start, exercising the
    # parent's timeout -> retry -> in-process ladder. Deliberately only on
    # the pool path — an injected kill must never take down the parent.
    fault_worker_entry()
    return execute_query(_WORKER_MODEL, query)
