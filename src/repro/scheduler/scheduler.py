"""The certification-query scheduler (fan-out, requeue, memoize).

:class:`CertScheduler` runs a flat list of
:class:`~repro.scheduler.queries.CertQuery` records and returns one
:class:`~repro.scheduler.worker.QueryOutcome` per query, *in input order*
regardless of completion order. Execution strategy per run:

1. every query is first looked up in the run journal and the persistent
   result cache (when configured) — hits never touch a worker;
2. with ``workers > 0`` the misses are leased to the supervised
   :class:`~repro.scheduler.pool.WorkerSupervisor` fleet (heartbeat
   liveness, requeue on worker death, poison-query quarantine to the IBP
   floor, graceful drain); with ``workers == 0``, when the platform lacks
   fork, or when the fleet cannot be started they run serially in this
   process;
3. every completed outcome is committed the moment it completes, through
   :func:`~repro.scheduler.worker.commit_outcome`, under the query it
   executed; per-worker ``repro.perf`` snapshots ride along on each
   outcome for the caller to aggregate (:func:`merge_outcome_perf` —
   deterministic query-key order, not completion order).

Because :func:`~repro.scheduler.worker.execute_query` is a pure function of
(weights, query), the radii are bitwise identical across all of these
paths; parallelism and caching change wall-clock time only.
"""

from __future__ import annotations

import multiprocessing
import weakref

from ..perf import PerfRecorder
from ..trace import TRACER
from .cache import ResultCache
from .pool import WorkerSupervisor
from .worker import QueryOutcome, commit_outcome, execute_query

__all__ = ["QueryOutcome", "CertScheduler", "merge_outcome_perf"]


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
        Size of the supervised worker fleet; ``0`` keeps the classic
        serial in-process path. The fleet is forked with the model of the
        first :meth:`run` and re-forked whenever a run passes a different
        model object. A query quarantined as poisoned is answered from the
        IBP floor and stored only under its rewritten IBP query. A drain
        request surfaces as :class:`~repro.scheduler.pool.DrainedRun` out
        of :meth:`run` (everything completed before the drain is already
        committed).
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
        declared hung and killed (``None`` → 30).
    heartbeat_interval / poison_threshold:
        Worker heartbeat cadence (``None`` → 0.5 s) and the worker kills
        after which a query is quarantined.
    drain_timeout:
        Seconds granted to in-flight leases after a drain request before
        they are killed and left for ``--resume``.

    After every :meth:`run`, ``last_stats`` holds the run's counters
    (cache/journal hits, misses, executed-by-source breakdown, retries,
    fallbacks, degraded queries, and the fleet's counters under
    ``"supervised"``). ``pooled_run_active`` is true while a run executes
    on the fleet, i.e. while a drain request takes effect at once.
    """

    def __init__(self, workers=0, cache_dir=None, journal=None,
                 lease_timeout=None, heartbeat_interval=None,
                 poison_threshold=2, drain_timeout=30.0):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = int(workers)
        self.lease_timeout = 30.0 if lease_timeout is None \
            else float(lease_timeout)
        self.heartbeat_interval = 0.5 if heartbeat_interval is None \
            else float(heartbeat_interval)
        self.poison_threshold = int(poison_threshold)
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
        """Run misses on the fleet, else serially; outcomes in order.

        ``on_result`` fires once per outcome as it completes, so a drained
        or killed run has committed everything that finished.
        """
        supervisor = None
        if self.workers > 0 and _fork_available():
            supervisor = self._ensure_supervisor(model)
            if supervisor is None:
                stats["fallbacks"] += 1
        if supervisor is None:
            results = []
            for query in queries:
                results.append(QueryOutcome.from_result(
                    query, execute_query(model, query), "inprocess"))
                on_result(results[-1])
            return results

        before = dict(supervisor.stats)
        self.pooled_run_active = True
        try:
            return supervisor.run(queries, on_result=on_result)
        finally:
            self.pooled_run_active = False
            stats["supervised"] = {
                key: supervisor.stats[key] - before.get(key, 0)
                for key in supervisor.stats}
            stats["retries"] = stats["supervised"]["requeued_leases"]
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
        """Terminate the worker fleet, if one was started.

        A scheduler that is garbage-collected, or still open at interpreter
        exit, closes itself the same way.
        """
        if self._supervisor is not None:
            self._stop_fleet()
            self._supervisor = None

    def _ensure_supervisor(self, model):
        """The fleet serving ``model``; ``None`` when it cannot start.

        A fleet forked with another model object is stopped first: its
        workers would answer with that model's weights.
        """
        if self._supervisor is not None:
            if self._supervisor.model is model:
                return self._supervisor
            self.close()
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
        self._stop_fleet = weakref.finalize(self, supervisor.stop)
        return supervisor
