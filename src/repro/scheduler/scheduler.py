"""The certification-query scheduler (fan-out, requeue, memoize).

:class:`CertScheduler` runs a flat list of
:class:`~repro.scheduler.queries.CertQuery` records and returns one
:class:`~repro.scheduler.worker.QueryOutcome` per query, *in input order*
regardless of completion order. Execution strategy per run:

1. every query is first looked up in the run journal and the persistent
   result cache (when configured) — hits never touch a worker;
2. the misses go to one :class:`~repro.scheduler.pool.WorkerSupervisor`
   of ``workers`` processes: with ``workers > 0`` they are leased to its
   fleet (heartbeat liveness, requeue on worker death, poison-query
   quarantine to the IBP floor, graceful drain); with ``workers == 0``,
   or when the fleet cannot start, the supervisor is a fleet of none and
   answers them one by one on the calling thread;
3. every completed outcome is committed the moment it completes, through
   :func:`~repro.scheduler.worker.commit_outcome`, under the query it
   executed; each query's counters and gauges ride along on its outcome
   for the caller to aggregate (:func:`merge_outcome_perf` —
   deterministic query-key order, not completion order).

Because :func:`~repro.scheduler.worker.execute_query` is a pure function of
(weights, query), the radii are bitwise identical across all of these
paths; parallelism and caching change wall-clock time only.
"""

from __future__ import annotations

import weakref

from ..trace import TRACER, merge_perf
from .cache import ResultCache
from .pool import WorkerSupervisor
# execute_query is not called here; it stays importable from this module
# because the paper-workload benchmark wraps it under this module's name.
from .worker import QueryOutcome, commit_outcome, execute_query  # noqa: F401

__all__ = ["QueryOutcome", "CertScheduler", "merge_outcome_perf"]


def merge_outcome_perf(outcomes):
    """Aggregate outcome perf snapshots (:func:`repro.trace.merge_perf`)
    in query-key order, so the result is independent of completion order.
    """
    return merge_perf(outcome.perf for outcome in
                      sorted(outcomes, key=lambda o: o.query.key()))


class CertScheduler:
    """Schedules certification queries across workers with memoization.

    Parameters
    ----------
    workers:
        Size of the supervised worker fleet; ``0`` answers every query on
        the calling thread (the fleet of none). The fleet is forked with
        the model of the first :meth:`run` and re-forked whenever a run
        passes a different model object, or after a run whose fleet
        could not start. A query quarantined as poisoned is answered from
        the IBP floor and stored only under its rewritten IBP query. A
        drain request surfaces as
        :class:`~repro.scheduler.pool.DrainedRun` out of :meth:`run`
        (everything completed before the drain is already committed).
    cache_dir:
        Directory for the persistent result cache; ``None`` disables
        memoization entirely.
    journal:
        Optional :class:`~repro.scheduler.journal.RunJournal`. Valid
        journal entries answer their queries without recomputation (they
        take precedence over the cache — the journal is the crash-recovery
        record of *this* run), and every newly computed outcome is
        durably appended the moment it completes, so a killed run resumes
        from exactly the queries it had not finished.
    lease_timeout:
        Seconds a lease may go without *progress* before its worker is
        declared hung and killed.
    heartbeat_interval:
        Worker heartbeat cadence in seconds.
    drain_timeout:
        Seconds granted to in-flight leases after a drain request before
        they are killed and left for ``--resume``.

    After every :meth:`run`, ``last_stats`` holds the run's counters
    (cache/journal hits, misses, executed-by-source breakdown, retries,
    fallbacks, degraded queries, and the fleet's counters under
    ``"supervised"``). ``pooled_run_active`` is true while a run executes
    on worker processes, i.e. while a drain request takes effect at once.
    """

    def __init__(self, workers=0, cache_dir=None, journal=None,
                 lease_timeout=30.0, heartbeat_interval=0.5,
                 drain_timeout=30.0):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = int(workers)
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.drain_timeout = float(drain_timeout)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.journal = journal
        self.last_stats = None
        self.pooled_run_active = False
        self._supervisor = None
        self._stop_fleet = None
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
            entry, source = journaled.get(query.key()), "journal"
            if entry is None and self.cache:
                entry, source = self.cache.get(query), "cache"
            if entry is None:
                stats["cache_misses"] += 1
                miss_indices.append(index)
                continue
            stats[f"{source}_hits"] += 1
            outcomes[index] = QueryOutcome.from_stored(query, entry, source)
            commit_outcome(outcomes[index], self.cache, self.journal)

        def on_result(outcome):
            executed = stats["executed"]
            executed[outcome.source] = executed.get(outcome.source, 0) + 1
            commit_outcome(outcome, self.cache, self.journal)

        if miss_indices:
            results = self._execute(model,
                                    [queries[i] for i in miss_indices],
                                    on_result, stats)
            for index, outcome in zip(miss_indices, results):
                outcomes[index] = outcome
        stats["degraded"] = sum(outcome.degraded for outcome in outcomes)

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

    # ------------------------------------------------------------ execution
    def _execute(self, model, queries, on_result, stats):
        """Run misses on the supervisor; outcomes in input order.

        ``on_result`` fires once per outcome as it completes, so a drained
        or killed run has committed everything that finished.
        """
        supervisor = self._ensure_supervisor(model)
        before = dict(supervisor.stats)  # a failed start lands in the diff
        try:
            supervisor.start()
            self.pooled_run_active = supervisor.workers > 0
            return supervisor.run(queries, on_result=on_result)
        finally:
            self.pooled_run_active = False
            stats["supervised"] = {
                key: supervisor.stats[key] - before.get(key, 0)
                for key in supervisor.stats}
            stats["retries"] = stats["supervised"]["requeued_leases"]
            stats["fallbacks"] = stats["supervised"]["fallbacks"]
            if supervisor.drain_seconds is not None:
                stats["supervised"]["drain_seconds"] = \
                    supervisor.drain_seconds

    # ----------------------------------------------------- supervised pool
    def request_drain(self, timeout=None):
        """Ask a pooled run to drain (signal-handler safe).

        The in-flight leases finish (or are killed at the drain
        deadline); :meth:`run` then raises
        :class:`~repro.scheduler.pool.DrainedRun`. Every outcome
        completed before the drain is already committed.
        """
        self._drain_requested = True
        self._drain_timeout_override = timeout
        if self._supervisor is not None:
            self._supervisor.request_drain(timeout)

    def close(self):
        """Stop the supervisor and its worker fleet, if any.

        A scheduler that is garbage-collected, or still open at interpreter
        exit, closes itself the same way.
        """
        if self._supervisor is not None:
            self._stop_fleet()
            self._supervisor = None

    def _ensure_supervisor(self, model):
        """The supervisor serving ``model``, made (not started) on demand.

        One forked with another model object is stopped first: its
        workers would answer with that model's weights. So is one whose
        fleet could not start, so that each run tries to fork afresh and
        counts its own fallback.
        """
        if self._supervisor is not None:
            if self._supervisor.model is model \
                    and self._supervisor.workers == self.workers:
                return self._supervisor
            self.close()
        supervisor = WorkerSupervisor(
            model, workers=self.workers,
            heartbeat_interval=self.heartbeat_interval,
            lease_timeout=self.lease_timeout,
            drain_timeout=self.drain_timeout)
        if self._drain_requested:
            supervisor.request_drain(self._drain_timeout_override)
        self._supervisor = supervisor
        self._stop_fleet = weakref.finalize(self, supervisor.stop)
        return supervisor
