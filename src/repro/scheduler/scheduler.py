"""The certification-query scheduler (fan-out, retry, fallback, memoize).

:class:`CertScheduler` runs a flat list of
:class:`~repro.scheduler.queries.CertQuery` records and returns one
:class:`QueryOutcome` per query, *in input order* regardless of completion
order. Execution strategy per run:

1. every query is first looked up in the persistent result cache (when one
   is configured) — hits never touch a worker;
2. misses fan out across a ``multiprocessing`` fork pool of ``workers``
   processes, each guarded by a per-query timeout, one retry, and a final
   graceful fallback to in-process execution (also taken wholesale when
   ``workers == 0``, when the platform lacks fork, or when the pool cannot
   be created); with ``supervised=True`` the fire-and-forget pool is
   replaced by the leased, heartbeat-monitored
   :class:`~repro.scheduler.pool.WorkerSupervisor` (requeue on worker
   death, poison-query quarantine to the IBP floor, graceful drain);
3. completed misses are written back to the cache, and per-worker
   ``repro.perf`` snapshots ride along on each outcome for the caller to
   aggregate (:func:`merge_outcome_perf` — deterministic query-key order,
   not completion order).

Because :func:`~repro.scheduler.worker.execute_query` is a pure function of
(weights, query), the radii are bitwise identical across all of these
paths; parallelism and caching change wall-clock time only.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from ..perf import PerfRecorder
from ..trace import TRACER
from .cache import ResultCache
from .pool import DrainedRun, WorkerSupervisor
from .worker import _pool_init, _pool_run, execute_query

__all__ = ["QueryOutcome", "CertScheduler", "merge_outcome_perf"]


@dataclass(frozen=True)
class QueryOutcome:
    """Result of one scheduled query.

    ``source`` records how the radius was obtained: ``"journal"`` (this
    run's crash-recovery record), ``"cache"``, ``"worker"``,
    ``"worker-retry"``, ``"poisoned"`` (a quarantined query answered from
    the IBP floor under a rewritten key — always degraded, with the
    ``PoisonedQueryError`` detail in ``fault``), or ``"inprocess"`` (the
    serial path and every fallback). ``degraded`` is True when any
    certification of the query's binary search fell down the verifier's
    precision ladder;
    ``fallback_chain`` / ``fault`` carry the first such event's detail.

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


def merge_outcome_perf(outcomes):
    """Aggregate outcome perf snapshots in query-key order.

    Sorting by the content key makes the merged snapshot independent of
    completion order (stage seconds and counters add commutatively, but a
    fixed fold order keeps even float summation reproducible run-to-run).
    """
    recorder = PerfRecorder()
    for outcome in sorted(outcomes, key=lambda o: o.query.key()):
        if outcome.perf:
            recorder.merge(outcome.perf)
    return recorder.snapshot()


def _fork_available():
    return "fork" in multiprocessing.get_all_start_methods()


class CertScheduler:
    """Schedules certification queries across workers with memoization.

    Parameters
    ----------
    workers:
        Pool size; ``0`` keeps the classic serial in-process path.
    supervised:
        With ``workers > 0``, route misses through the
        :class:`~repro.scheduler.pool.WorkerSupervisor` (long-lived leased
        workers, heartbeat liveness, requeue-on-death, poison quarantine,
        graceful drain) instead of the legacy fire-and-forget fork pool.
        A query quarantined as poisoned is answered from the IBP floor
        under an explicitly rewritten query and is journaled/cached only
        under that rewritten key — the looser radius never impersonates
        the original query. A drain request surfaces as
        :class:`~repro.scheduler.pool.DrainedRun` out of :meth:`run`
        (everything completed before the drain is already journaled).
    lease_timeout:
        Supervised mode: seconds a lease may go without *progress* before
        its worker is declared hung and killed (``None`` → 30).
    drain_timeout:
        Supervised mode: seconds granted to in-flight leases after a
        drain request before they are killed and left for ``--resume``.
    cache_dir:
        Directory for the persistent result cache; ``None`` disables
        memoization entirely.
    timeout:
        Per-query seconds to wait for a worker result before the
        retry/fallback ladder kicks in; ``None`` waits forever.
    journal:
        Optional :class:`~repro.scheduler.journal.RunJournal`. Valid
        journal entries answer their queries without recomputation (they
        take precedence over the cache — the journal is the crash-recovery
        record of *this* run), and every newly computed outcome is
        durably appended the moment it completes, so a killed run resumes
        from exactly the queries it had not finished.

    After every :meth:`run`, ``last_stats`` holds the run's counters
    (cache/journal hits, misses, executed-by-source breakdown, retries,
    fallbacks, degraded queries).
    """

    def __init__(self, workers=0, cache_dir=None, timeout=None,
                 journal=None, supervised=False, lease_timeout=None,
                 heartbeat_interval=None, poison_threshold=2,
                 drain_timeout=30.0):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = int(workers)
        self.timeout = timeout
        self.supervised = bool(supervised)
        self.lease_timeout = 30.0 if lease_timeout is None \
            else float(lease_timeout)
        self.heartbeat_interval = 0.5 if heartbeat_interval is None \
            else float(heartbeat_interval)
        self.poison_threshold = int(poison_threshold)
        self.drain_timeout = float(drain_timeout)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.journal = journal
        self.last_stats = None
        self._supervisor = None
        self._drain_requested = False
        self._drain_timeout_override = None

    # ------------------------------------------------------------------ run
    def run(self, model, queries):
        """Execute ``queries`` against ``model``; outcomes in input order."""
        queries = list(queries)
        outcomes = [None] * len(queries)
        stats = {
            "queries": len(queries), "workers": self.workers,
            "cache_hits": 0, "cache_misses": 0, "journal_hits": 0,
            "executed": {"worker": 0, "worker-retry": 0, "inprocess": 0,
                         "poisoned": 0},
            "retries": 0, "fallbacks": 0, "degraded": 0,
        }

        journaled = self.journal.replay() if self.journal else {}
        miss_indices = []
        for index, query in enumerate(queries):
            entry = journaled.get(query.key())
            if entry is not None:
                stats["journal_hits"] += 1
                outcomes[index] = QueryOutcome(
                    query=query, radius=float(entry["radius"]),
                    seconds=float(entry["seconds"]),
                    perf=entry.get("perf"), source="journal",
                    degraded=bool(entry.get("degraded", False)),
                    fallback_chain=tuple(entry.get("fallback_chain") or ()),
                    fault=entry.get("fault"))
                if outcomes[index].degraded:
                    stats["degraded"] += 1
                continue
            payload = self.cache.get(query) if self.cache else None
            if payload is not None:
                stats["cache_hits"] += 1
                outcomes[index] = QueryOutcome(
                    query=query, radius=float(payload["radius"]),
                    seconds=float(payload["seconds"]),
                    perf=payload.get("perf"), source="cache",
                    degraded=bool(payload.get("degraded", False)),
                    fallback_chain=tuple(payload.get("fallback_chain") or ()),
                    fault=payload.get("fault"))
                if outcomes[index].degraded:
                    stats["degraded"] += 1
                self._journal_append(outcomes[index])
            else:
                stats["cache_misses"] += 1
                miss_indices.append(index)

        if miss_indices:
            if self.supervised and self.workers > 0 and _fork_available():
                self._run_supervised(model, queries, miss_indices,
                                     outcomes, stats)
            elif self.workers > 0 and len(miss_indices) > 1 \
                    and _fork_available():
                self._run_pool(model, queries, miss_indices, outcomes,
                               stats)
            else:
                for index in miss_indices:
                    outcomes[index] = self._run_inprocess(model,
                                                          queries[index],
                                                          stats)
                    self._journal_append(outcomes[index])
            for index in miss_indices:
                if outcomes[index].degraded:
                    stats["degraded"] += 1
            if self.cache:
                for index in miss_indices:
                    outcome = outcomes[index]
                    if outcome.source == "poisoned":
                        # Poisoned answers are cached under the rewritten
                        # IBP query only (done at commit time) — never
                        # under the original key.
                        continue
                    self.cache.put(outcome.query, outcome.radius,
                                   outcome.seconds, outcome.perf,
                                   degraded=outcome.degraded,
                                   fallback_chain=outcome.fallback_chain,
                                   fault=outcome.fault)

        if TRACER.enabled:
            # Re-absorb per-query traces (query_scope detached them from
            # the recording tracer, worker-side or serially) in query-key
            # order, so the merged global trace is identical regardless of
            # worker count or completion order.
            for outcome in sorted(
                    (o for o in outcomes if o.trace),
                    key=lambda o: o.query.key()):
                TRACER.absorb(outcome.trace)

        self.last_stats = stats
        return outcomes

    def _journal_append(self, outcome):
        """Durably record one completed outcome in the run journal."""
        if self.journal is not None and outcome.source != "journal":
            self.journal.append(outcome.query, outcome.radius,
                                outcome.seconds, outcome.perf,
                                outcome.source, degraded=outcome.degraded,
                                fallback_chain=outcome.fallback_chain,
                                fault=outcome.fault)

    # ------------------------------------------------------------ execution
    def _run_inprocess(self, model, query, stats):
        radius, seconds, perf, meta = execute_query(model, query)
        stats["executed"]["inprocess"] += 1
        return QueryOutcome(query=query, radius=radius, seconds=seconds,
                            perf=perf, source="inprocess", **meta)

    # ----------------------------------------------------- supervised pool
    def request_drain(self, timeout=None):
        """Ask a supervised run to drain (signal-handler safe).

        The in-flight leases finish (or are killed at the drain
        deadline); :meth:`run` then raises
        :class:`~repro.scheduler.pool.DrainedRun`. Every outcome
        completed before the drain is already journaled.
        """
        self._drain_requested = True
        self._drain_timeout_override = timeout
        if self._supervisor is not None:
            self._supervisor.request_drain(timeout)

    def close(self):
        """Terminate the supervised worker fleet, if one was started."""
        if self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None

    def _ensure_supervisor(self, model):
        """Lazily build the fleet; ``None`` when it cannot be created."""
        if self._supervisor is not None:
            return self._supervisor
        try:
            context = multiprocessing.get_context("fork")
            supervisor = WorkerSupervisor(
                model, workers=self.workers, context=context,
                heartbeat_interval=self.heartbeat_interval,
                lease_timeout=self.lease_timeout,
                poison_threshold=self.poison_threshold,
                drain_timeout=self.drain_timeout)
            supervisor.start()
        except Exception:
            return None
        if self._drain_requested:
            supervisor.request_drain(self._drain_timeout_override)
        self._supervisor = supervisor
        return supervisor

    def _run_supervised(self, model, queries, miss_indices, outcomes,
                        stats):
        """Route misses through the supervised leased-worker fleet.

        Outcomes commit (and journal) incrementally through the
        supervisor's ``on_result`` hook, so a drained or killed run keeps
        everything that completed. Poisoned results journal and cache
        under the rewritten IBP query; the outcome slot keeps the
        *original* query so callers see which submission degraded.
        """
        supervisor = self._ensure_supervisor(model)
        if supervisor is None:
            stats["fallbacks"] += 1
            for index in miss_indices:
                outcomes[index] = self._run_inprocess(model, queries[index],
                                                      stats)
                self._journal_append(outcomes[index])
            return

        def on_result(result):
            source = result.source
            stats["executed"][source] = \
                stats["executed"].get(source, 0) + 1
            if result.attempts > 1 and source == "worker-retry":
                stats["retries"] += result.attempts - 1
            outcome = QueryOutcome(
                query=result.query, radius=result.radius,
                seconds=result.seconds, perf=result.perf,
                source=source, **result.meta)
            outcomes[miss_indices[result.index]] = outcome
            if result.poisoned:
                twin_outcome = QueryOutcome(
                    query=result.executed_query, radius=result.radius,
                    seconds=result.seconds, perf=result.perf,
                    source=source, **result.meta)
                self._journal_append(twin_outcome)
                if self.cache:
                    self.cache.put(
                        twin_outcome.query, twin_outcome.radius,
                        twin_outcome.seconds, twin_outcome.perf,
                        degraded=twin_outcome.degraded,
                        fallback_chain=twin_outcome.fallback_chain,
                        fault=twin_outcome.fault)
            else:
                self._journal_append(outcome)

        before = dict(supervisor.stats)
        try:
            supervisor.run([queries[index] for index in miss_indices],
                           on_result=on_result)
        finally:
            stats["supervised"] = {
                key: supervisor.stats[key] - before.get(key, 0)
                for key in supervisor.stats}
            if supervisor.drain_seconds is not None:
                stats["supervised"]["drain_seconds"] = \
                    supervisor.drain_seconds

    def _run_pool(self, model, queries, miss_indices, outcomes, stats):
        """Fan misses across a fork pool; never raises — falls back."""
        context = multiprocessing.get_context("fork")
        try:
            pool = context.Pool(min(self.workers, len(miss_indices)),
                                initializer=_pool_init, initargs=(model,))
        except Exception:
            stats["fallbacks"] += 1
            for index in miss_indices:
                outcomes[index] = self._run_inprocess(model, queries[index],
                                                      stats)
                self._journal_append(outcomes[index])
            return
        try:
            handles = [pool.apply_async(_pool_run, (queries[index],))
                       for index in miss_indices]
            for index, handle in zip(miss_indices, handles):
                outcomes[index] = self._collect(pool, model, queries[index],
                                                handle, stats)
                self._journal_append(outcomes[index])
        finally:
            pool.terminate()
            pool.join()

    def _collect(self, pool, model, query, handle, stats):
        """One result, through the timeout → retry → in-process ladder."""
        try:
            radius, seconds, perf, meta = handle.get(self.timeout)
            stats["executed"]["worker"] += 1
            return QueryOutcome(query=query, radius=radius,
                                seconds=seconds, perf=perf, source="worker",
                                **meta)
        except Exception:
            stats["retries"] += 1
        try:
            retry = pool.apply_async(_pool_run, (query,))
            radius, seconds, perf, meta = retry.get(self.timeout)
            stats["executed"]["worker-retry"] += 1
            return QueryOutcome(query=query, radius=radius,
                                seconds=seconds, perf=perf,
                                source="worker-retry", **meta)
        except Exception:
            stats["fallbacks"] += 1
            return self._run_inprocess(model, query, stats)
