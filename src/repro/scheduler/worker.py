"""Query execution: the pure radius computation and its result record.

:func:`execute_query` is a *pure function* of (model weights, query): it
reruns the exact binary search the serial harness ran — same verifier
construction, same true-label computation, same bracketing parameters — so
a query's certified radius is bitwise identical whether it is computed in
the parent process, in a supervised pool worker, or replayed from a
previous run. That determinism is what makes the scheduler's result cache
and its serial-vs-parallel equivalence guarantee sound.

Every executor — the serial scheduler path, the supervised pool and the
service — returns one :class:`QueryOutcome` per query, and every cache
entry and journal line is written by :func:`commit_outcome` under the
query the outcome names as executed. :func:`ibp_floor_outcome` is the one
answer a quarantined (poisoned) or rescued query gets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..perf import PERF
from ..trace import TRACER
from .queries import degrade_query, rung_for_query

__all__ = ["QueryOutcome", "execute_query", "ibp_floor_outcome",
           "commit_outcome"]


@dataclass(frozen=True)
class QueryOutcome:
    """Result of one executed, cached or journaled query.

    ``source`` records how the radius was obtained: ``"journal"`` (this
    run's crash-recovery record), ``"cache"``, ``"worker"``,
    ``"worker-retry"``, ``"inprocess"`` (the serial path and every
    fallback), ``"executed"`` (the service's in-process executor), or one
    of the IBP-floor answers ``"poisoned"`` (a quarantined query) and
    ``"rescue"`` (a service execution that failed or timed out).
    ``degraded`` is True when any certification of the query's binary
    search fell down the verifier's precision ladder, and always for an
    IBP-floor answer; ``fallback_chain`` / ``fault`` carry the first such
    event's detail.

    ``executed_query`` is the query that actually ran, and the only key
    the answer is stored under. It equals ``query`` except for IBP-floor
    answers, where it is the ``degrade_query(query, "ibp")`` twin — so a
    looser radius never impersonates the submitted query's answer.

    ``trace`` carries the query's certification-trace spans when
    :data:`repro.trace.TRACER` was enabled during execution (empty for
    cache/journal hits — traces are observability data and are not
    persisted; rerun without the cache to trace a query).
    """

    query: object
    radius: float
    seconds: float
    perf: dict | None
    source: str
    degraded: bool = False
    fallback_chain: tuple = ()
    fault: str = None
    trace: tuple = ()
    executed_query: object = None

    def __post_init__(self):
        if self.executed_query is None:
            object.__setattr__(self, "executed_query", self.query)

    @classmethod
    def from_result(cls, query, result, source):
        """Outcome of an :func:`execute_query` ``result`` tuple."""
        radius, seconds, perf, meta = result
        return cls(query=query, radius=radius, seconds=seconds, perf=perf,
                   source=source, **meta)

    @classmethod
    def from_stored(cls, query, entry, source):
        """Outcome of a result-cache payload or journal entry."""
        return cls(query=query, radius=float(entry["radius"]),
                   seconds=float(entry["seconds"]), perf=entry.get("perf"),
                   source=source,
                   degraded=bool(entry.get("degraded", False)),
                   fallback_chain=tuple(entry.get("fallback_chain") or ()),
                   fault=entry.get("fault"))


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


def ibp_floor_outcome(model, query, source, fault):
    """Answer ``query`` in this process from the IBP floor.

    Runs the ``degrade_query(query, "ibp")`` twin, which is sound by
    construction (IBP never flips uncertified to certified), and flags the
    answer degraded with the chain ``(rung of query, "ibp")`` and
    ``fault``. The outcome names the twin as executed, so it is committed
    under the twin's key only.
    """
    twin = degrade_query(query, "ibp")
    radius, seconds, perf, meta = execute_query(model, twin)
    return QueryOutcome(
        query=query, executed_query=twin, radius=radius, seconds=seconds,
        perf=perf, source=source, degraded=True,
        fallback_chain=tuple(dict.fromkeys((rung_for_query(query), "ibp"))),
        fault=fault, trace=meta["trace"])


def commit_outcome(outcome, cache, journal):
    """Store ``outcome`` under ``outcome.executed_query``.

    Writes the result-cache entry and appends the journal line. A cache
    hit is only journaled (its entry is already stored); a journal hit is
    already durable and writes nothing.
    """
    if outcome.source == "journal":
        return
    query = outcome.executed_query
    if cache is not None and outcome.source != "cache":
        cache.put(query, outcome.radius, outcome.seconds, outcome.perf,
                  degraded=outcome.degraded,
                  fallback_chain=outcome.fallback_chain, fault=outcome.fault)
    if journal is not None:
        journal.append(query, outcome.radius, outcome.seconds, outcome.perf,
                       outcome.source, degraded=outcome.degraded,
                       fallback_chain=outcome.fallback_chain,
                       fault=outcome.fault)
