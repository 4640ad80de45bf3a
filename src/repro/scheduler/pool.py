"""Supervised multi-process execution pool: leases, heartbeats, quarantine.

This is the one multi-process executor: the scheduler (``workers > 0``)
and the service both run their queries on it.

* :class:`WorkerSupervisor` owns N long-lived worker processes (fork
  context — the model is inherited, never pickled), each connected by a
  duplex pipe. Every query is handed out under a **lease** ``(lease id,
  query key, worker id, deadline)``.
* Workers send **heartbeats** carrying a progress counter derived from
  the process-global PERF/TRACER recorders (stage calls, event counters,
  trace spans — all of which advance during real propagation and stand
  still during a stall). A heartbeat only extends the lease deadline when
  the progress value *changed*, so a slow-but-alive precise pass is
  distinguishable from a hung worker that still pumps heartbeats.
* A missed deadline or a dead PID kills the worker, **requeues the
  lease**, and respawns the slot with exponential backoff plus seeded
  jitter. Results commit **at most once** per query position: a late
  duplicate from a worker presumed dead is counted and dropped, and the
  caller's journal append (driven by ``on_result``) therefore happens
  exactly once per answered query.
* A lease carries exactly one query. A query whose lease kills its worker
  ``poison_threshold`` times (default 2) is **poisoned**: quarantined in a
  per-query circuit breaker and answered in-process by
  :func:`~repro.scheduler.worker.ibp_floor_outcome` — sound by
  construction (IBP never flips uncertified to certified) and executed
  under the query rewritten by
  :func:`~repro.scheduler.queries.degrade_query`, the only key it is
  stored under, so the looser radius can never impersonate the
  full-precision answer. The typed :class:`PoisonedQueryError` detail
  travels in the outcome's ``fault`` field.
* **Graceful drain**: :meth:`WorkerSupervisor.request_drain` (safe to
  call from a signal handler) stops leasing; in-flight leases finish
  under a drain deadline, then :meth:`run` raises :class:`DrainedRun`
  carrying the completed results (already committed through
  ``on_result``, i.e. journaled) and the queries left for ``--resume``.

Fault injection is parent-side: the supervisor consults
:func:`repro.faults.fault_lease_directives` /
:func:`~repro.faults.fault_spawn_directive` in its own process and ships
the directive inside the lease or spawn message, keeping the seeded
``max_faults`` accounting deterministic in one place.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as _connection_wait

from ..faults import (KILL_EXIT_CODE, fault_lease_directives,
                      fault_spawn_directive)
from ..perf import PERF
from ..trace import TRACER
from . import worker as worker_mod
from .worker import QueryOutcome, ibp_floor_outcome

__all__ = ["WorkerSupervisor", "PoisonedQueryError", "DrainedRun"]


class PoisonedQueryError(RuntimeError):
    """A query crossed the worker-kill quarantine threshold.

    Carried (as a string) in the poisoned outcome's ``fault`` field and
    surfaced through scheduler stats and service ``/metrics``; the query
    itself is still answered — from the IBP floor, under a rewritten
    key — so poisoning degrades, never drops.
    """

    def __init__(self, key, kills):
        self.key = key
        self.kills = kills
        super().__init__(
            f"query {key[:16]} killed its worker {kills}x; quarantined "
            f"to the IBP floor")


class DrainedRun(RuntimeError):
    """A supervised run stopped by graceful drain.

    ``completed`` holds the :class:`~repro.scheduler.worker.QueryOutcome`
    records that committed before the drain (each already delivered
    through ``on_result``, so a journaling caller has them durably
    recorded); ``remaining`` the queries left for a ``--resume`` restart.
    """

    def __init__(self, completed, remaining):
        self.completed = list(completed)
        self.remaining = list(remaining)
        super().__init__(
            f"drained: {len(self.completed)} completed, "
            f"{len(self.remaining)} left for --resume")


# --------------------------------------------------------------- worker side

def _worker_main(conn, model, worker_id, heartbeat_interval,
                 boot_directive):  # pragma: no cover - forked child
    """Long-lived worker loop (runs in the forked child).

    Protocol (parent -> worker): ``("run", lease_id, query, directives)``
    or ``("exit",)``. Worker -> parent: ``("heartbeat", lease_id,
    progress)``, ``("result", lease_id, (radius, seconds, perf, meta))``
    or ``("error", lease_id, message)``. A ``suppress`` directive
    silences *every* outgoing message (partition simulation); ``kill``
    exits with :data:`KILL_EXIT_CODE`; ``stall`` sleeps at lease start
    with heartbeats flowing but zero progress.

    The worker also exits once its parent is gone. A parent killed by
    SIGKILL sends no EOF: every worker holds inherited copies of the
    parent-side pipe ends. So the heartbeat thread watches the parent pid.
    """
    parent_pid = os.getppid()
    if boot_directive and boot_directive.get("boot_kill"):
        os._exit(KILL_EXIT_CODE)
    PERF.reset()
    TRACER.reset()
    send_lock = threading.Lock()
    state = {"lease": None, "suppress": False, "progress": 0}

    def progress():
        # PERF/TRACER are mutated by the executing main thread; the dicts
        # are replaced wholesale by reset() (safe) but can change size
        # mid-iteration — fall back to the previous value on that race.
        try:
            return (len(TRACER.spans) + sum(PERF.stage_calls.values())
                    + sum(PERF.counters.values()))
        except RuntimeError:
            return state["progress"]

    def send(message):
        if state["suppress"]:
            return
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                os._exit(0)  # parent is gone; nothing left to serve

    def heartbeat_loop():
        while True:
            time.sleep(heartbeat_interval)
            if os.getppid() != parent_pid:
                os._exit(0)  # orphaned: re-parented after the parent died
            lease = state["lease"]
            if lease is None:
                continue
            state["progress"] = progress()
            send(("heartbeat", lease, state["progress"]))

    threading.Thread(target=heartbeat_loop, daemon=True).start()
    # Announce liveness: the supervisor only leases to workers that have
    # proven they survived boot, so a boot-killed worker can never be
    # blamed on the query it would have received.
    send(("ready", None, None))
    # Resolve execute_query through the module at call time so a
    # monkeypatch installed before the fork is honoured (tests rely on it).
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        if message[0] == "exit":
            os._exit(0)
        _, lease_id, query, directives = message
        directives = directives or {}
        state["suppress"] = bool(directives.get("suppress"))
        state["lease"] = lease_id
        if directives.get("kill"):
            os._exit(KILL_EXIT_CODE)
        if directives.get("stall"):
            time.sleep(float(directives["stall"]))
        try:
            payload = worker_mod.execute_query(model, query)
            state["lease"] = None
            send(("result", lease_id, payload))
        except BaseException as error:
            state["lease"] = None
            send(("error", lease_id, f"{type(error).__name__}: {error}"))
        state["suppress"] = False


# ----------------------------------------------------------- parent-side run

class _Task:
    """Unit of leased work: one query bound to its input index."""

    __slots__ = ("index", "query", "attempts")

    def __init__(self, index, query, attempts=0):
        self.index = index
        self.query = query
        self.attempts = attempts


class _Lease:
    __slots__ = ("id", "task", "slot", "deadline", "last_progress")

    def __init__(self, lease_id, task, slot, deadline):
        self.id = lease_id
        self.task = task
        self.slot = slot
        self.deadline = deadline
        self.last_progress = None


class _Slot:
    """One supervised worker position (process may be dead between spawns)."""

    __slots__ = ("id", "process", "conn", "lease_id", "ready",
                 "boot_failures", "next_spawn_at", "disabled")

    def __init__(self, slot_id):
        self.id = slot_id
        self.process = None
        self.conn = None
        self.lease_id = None
        self.ready = False
        self.boot_failures = 0
        self.next_spawn_at = 0.0
        self.disabled = False

    @property
    def live(self):
        return self.process is not None and self.process.is_alive()


class WorkerSupervisor:
    """Owns a fleet of leased worker processes; never hangs, never lies.

    Parameters
    ----------
    model:
        The transformer served to every worker via fork inheritance.
    workers:
        Fleet size (>= 1).
    context:
        A ``multiprocessing`` context providing ``Pipe``/``Process``;
        defaults to the fork context. Injected by the scheduler so its
        pool-creation-failure fallback semantics stay testable.
    heartbeat_interval / lease_timeout:
        Workers heartbeat every ``heartbeat_interval`` seconds; a lease
        whose progress counter has not *changed* for ``lease_timeout``
        seconds is declared dead (worker killed, lease requeued).
    poison_threshold:
        Worker kills after which a query is quarantined.
    respawn_backoff / respawn_cap / max_boot_failures:
        Exponential backoff (seeded jitter) between respawns of a slot
        that keeps dying at boot; after ``max_boot_failures`` consecutive
        boot deaths the slot is disabled, and with every slot disabled
        remaining work falls back in-process (the run still completes).
    drain_timeout:
        Seconds granted to in-flight leases after a drain request.
    seed:
        Seeds the jitter only — no scheduling decision depends on it.
    """

    def __init__(self, model, workers=2, *, context=None,
                 heartbeat_interval=0.5, lease_timeout=30.0,
                 poison_threshold=2, respawn_backoff=0.05,
                 respawn_cap=2.0, max_boot_failures=3, drain_timeout=30.0,
                 seed=0):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.model = model
        self.workers = int(workers)
        self.heartbeat_interval = float(heartbeat_interval)
        self.lease_timeout = float(lease_timeout)
        self.poison_threshold = int(poison_threshold)
        self.respawn_backoff = float(respawn_backoff)
        self.respawn_cap = float(respawn_cap)
        self.max_boot_failures = int(max_boot_failures)
        self.drain_timeout = float(drain_timeout)
        self._context = context
        self._rng = random.Random(seed)
        self._slots = []
        self._lease_seq = 0
        self._kill_counts = {}
        self._poisoned = {}        # key -> PoisonedQueryError message
        self._poison_memo = {}     # key -> committed poisoned QueryOutcome
        self._drain = threading.Event()
        self._started = False
        self.drain_seconds = None
        self.stats = {
            "leases": 0, "heartbeats": 0, "respawns": 0,
            "requeued_leases": 0, "poisoned_queries": 0,
            "worker_deaths": 0, "lease_deaths": 0, "lease_timeouts": 0,
            "duplicate_results_dropped": 0, "errored_leases": 0,
            "dead_slots": 0, "fallbacks": 0, "drains": 0,
        }

    # ------------------------------------------------------------- lifecycle
    def start(self):
        """Spawn the fleet (idempotent). Raises if no worker can start."""
        if self._started:
            return self
        if self._context is None:
            import multiprocessing
            self._context = multiprocessing.get_context("fork")
        self._slots = [_Slot(i) for i in range(self.workers)]
        try:
            for slot in self._slots:
                self._spawn(slot, initial=True)
        except BaseException:
            self.stop()  # no worker outlives a fleet that failed to start
            raise
        self._started = True
        return self

    def _spawn(self, slot, initial=False):
        directive = fault_spawn_directive()
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, self.model, slot.id,
                  self.heartbeat_interval, directive),
            daemon=True, name=f"cert-pool-{slot.id}")
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.lease_id = None
        slot.ready = False
        if not initial:
            self.stats["respawns"] += 1

    def stop(self):
        """Terminate the fleet (graceful exit message, then SIGKILL)."""
        for slot in self._slots:
            if slot.live and slot.conn is not None:
                try:
                    slot.conn.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
        for slot in self._slots:
            if slot.process is not None:
                slot.process.join(timeout=1.0)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(timeout=1.0)
            if slot.conn is not None:
                slot.conn.close()
            slot.process = None
            slot.conn = None
            slot.lease_id = None
        self._started = False

    def request_drain(self, timeout=None):
        """Stop leasing; finish in-flight leases, then raise DrainedRun.

        Only sets flags — safe to call from a signal handler.
        """
        if timeout is not None:
            self.drain_timeout = float(timeout)
        self._drain.set()

    # ------------------------------------------------------------------- run
    def run(self, queries, *, on_result=None):
        """Execute ``queries``; one ``QueryOutcome`` each, in input order.

        Each query is leased on its own. ``on_result`` fires once per
        committed result, in completion order — the journaling hook that
        makes commitment at-most-once durable. Raises :class:`DrainedRun`
        if a drain request lands mid-run.
        """
        self.start()
        queries = list(queries)
        results = [None] * len(queries)
        state = {"remaining": len(queries)}

        def commit(index, result):
            if results[index] is not None:
                self.stats["duplicate_results_dropped"] += 1
                return
            results[index] = result
            state["remaining"] -= 1
            if on_result is not None:
                on_result(result)

        def poison_answer(index, query):
            key = query.key()
            if key not in self._poison_memo:
                self._poison_memo[key] = ibp_floor_outcome(
                    self.model, query, "poisoned", self._poisoned[key])
            commit(index, self._poison_memo[key])

        def requeue_or_poison(task):
            key = task.query.key()
            kills = self._kill_counts.get(key, 0) + 1
            self._kill_counts[key] = kills
            if kills >= self.poison_threshold:
                error = PoisonedQueryError(key, kills)
                self._poisoned[key] = f"PoisonedQueryError: {error}"
                self.stats["poisoned_queries"] += 1
                poison_answer(task.index, task.query)
            else:
                self.stats["requeued_leases"] += 1
                pending.appendleft(task)

        def handle_death(slot, now):
            """A dead PID (or EOF pipe): bury, requeue, schedule respawn."""
            if slot.process is not None:
                slot.process.join(timeout=1.0)
            if slot.conn is not None:
                slot.conn.close()
            self.stats["worker_deaths"] += 1
            lease = active.pop(slot.lease_id, None) \
                if slot.lease_id is not None else None
            boot_death = lease is None and not slot.ready
            slot.process = None
            slot.conn = None
            slot.lease_id = None
            if lease is not None:
                self.stats["lease_deaths"] += 1
                slot.boot_failures = 0
                requeue_or_poison(lease.task)
            elif boot_death:
                slot.boot_failures += 1
                if slot.boot_failures >= self.max_boot_failures:
                    slot.disabled = True
                    self.stats["dead_slots"] += 1
                    return
            backoff = min(self.respawn_cap,
                          self.respawn_backoff * 2 ** slot.boot_failures)
            slot.next_spawn_at = now + backoff * (1.0 + self._rng.random())

        def kill_slot(slot):
            if slot.live:
                try:
                    os.kill(slot.process.pid, signal.SIGKILL)
                except (ProcessLookupError, OSError):
                    pass
                slot.process.join(timeout=2.0)

        # Seed the work list; quarantined keys never touch a worker again.
        pending = deque()
        active = {}
        for index, query in enumerate(queries):
            if query.key() in self._poisoned:
                poison_answer(index, query)
            else:
                pending.append(_Task(index, query))

        drain_started = None
        drain_deadline = None
        while state["remaining"] > 0:
            now = time.monotonic()

            # 1. Reap dead PIDs (covers kills we issued and injected ones).
            for slot in self._slots:
                if slot.process is not None and not slot.process.is_alive():
                    handle_death(slot, now)

            # 2. Drain: stop leasing; once in-flight leases resolve (or
            #    the drain deadline passes), hand back what completed.
            if self._drain.is_set():
                if drain_started is None:
                    drain_started = now
                    drain_deadline = now + self.drain_timeout
                if not active or now >= drain_deadline:
                    for lease in list(active.values()):
                        kill_slot(lease.slot)
                    active.clear()
                    self.drain_seconds = time.monotonic() - drain_started
                    self.stats["drains"] += 1
                    raise DrainedRun(
                        [r for r in results if r is not None],
                        [queries[i] for i, r in enumerate(results)
                         if r is None])
            else:
                # 3. Respawn slots whose backoff matured, if work remains.
                want = len(pending) + len(active)
                for slot in self._slots:
                    if (want > 0 and slot.process is None
                            and not slot.disabled
                            and now >= slot.next_spawn_at):
                        self._spawn(slot)
                # 4. Lease pending work onto idle live workers that have
                #    proven boot liveness (sent "ready").
                for slot in self._slots:
                    if not pending:
                        break
                    if not slot.live or not slot.ready \
                            or slot.lease_id is not None:
                        continue
                    task = pending.popleft()
                    if task.query.key() in self._poisoned:
                        poison_answer(task.index, task.query)
                        continue
                    task.attempts += 1
                    self._lease_seq += 1
                    lease = _Lease(self._lease_seq, task, slot,
                                   deadline=now + self.lease_timeout)
                    directives = fault_lease_directives(task.query.key())
                    active[lease.id] = lease
                    slot.lease_id = lease.id
                    self.stats["leases"] += 1
                    try:
                        slot.conn.send(("run", lease.id, task.query,
                                        directives))
                    except (BrokenPipeError, OSError):
                        pass  # death will be reaped; the lease requeues

            # 5. No worker will ever serve the rest: finish in-process.
            if pending and not active \
                    and all(slot.disabled for slot in self._slots):
                self.stats["fallbacks"] += 1
                while pending:
                    self._commit_inprocess(pending.popleft(), commit)
                continue

            if state["remaining"] <= 0:
                break

            # 6. Wait for messages / deadlines / respawn timers.
            timeout = self.heartbeat_interval
            for lease in active.values():
                timeout = min(timeout, lease.deadline - now)
            for slot in self._slots:
                if slot.process is None and not slot.disabled:
                    timeout = min(timeout, slot.next_spawn_at - now)
            if drain_deadline is not None:
                timeout = min(timeout, drain_deadline - now)
            timeout = max(0.005, timeout)
            conns = {slot.conn: slot for slot in self._slots
                     if slot.conn is not None and slot.process is not None}
            ready = _connection_wait(list(conns), timeout) if conns \
                else time.sleep(timeout)

            # 7. Drain every readable pipe.
            for conn in ready or ():
                slot = conns[conn]
                try:
                    while conn.poll():
                        self._handle_message(slot, conn.recv(), active,
                                             pending, commit)
                except (EOFError, OSError):
                    handle_death(slot, time.monotonic())

            # 8. Expire leases whose progress-extended deadline passed.
            now = time.monotonic()
            for lease in list(active.values()):
                if now >= lease.deadline:
                    self.stats["lease_timeouts"] += 1
                    kill_slot(lease.slot)
                    handle_death(lease.slot, now)

        return results

    def run_batch(self, queries):
        """Service-executor entry: :meth:`run` without a commit hook."""
        return self.run(queries)

    # --------------------------------------------------------------- helpers
    def _handle_message(self, slot, message, active, pending, commit):
        kind = message[0]
        if kind == "ready":
            slot.ready = True
            return
        lease = active.get(message[1]) if len(message) > 1 else None
        if kind == "heartbeat":
            self.stats["heartbeats"] += 1
            if lease is not None:
                progress = message[2]
                if progress != lease.last_progress:
                    lease.last_progress = progress
                    lease.deadline = time.monotonic() + self.lease_timeout
            return
        if lease is None:
            # Result/error for a lease we already requeued or resolved.
            if kind in ("result", "error"):
                self.stats["duplicate_results_dropped"] += 1
            return
        task = lease.task
        if kind == "result":
            active.pop(lease.id, None)
            lease.slot.lease_id = None
            source = "worker" if task.attempts == 1 else "worker-retry"
            commit(task.index,
                   QueryOutcome.from_result(task.query, message[2], source))
        elif kind == "error":
            # The worker survived but the engine raised: retry once on a
            # (possibly different) worker, then fall back in-process.
            active.pop(lease.id, None)
            lease.slot.lease_id = None
            self.stats["errored_leases"] += 1
            if task.attempts < 2:
                self.stats["requeued_leases"] += 1
                pending.appendleft(task)
            else:
                self._commit_inprocess(task, commit)

    def _commit_inprocess(self, task, commit):
        """Answer a task in this process (no worker will serve it)."""
        # Through the module attribute so monkeypatched engines (tests)
        # behave identically in the parent and in forked workers.
        result = worker_mod.execute_query(self.model, task.query)
        commit(task.index,
               QueryOutcome.from_result(task.query, result, "inprocess"))
