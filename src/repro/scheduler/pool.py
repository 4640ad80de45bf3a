"""Supervised multi-process execution pool: leases, heartbeats, quarantine.

This is the one executor: the scheduler and the service both run every
query they execute through a :class:`WorkerSupervisor`.

* :class:`WorkerSupervisor` owns N long-lived worker processes (fork
  context — the model is inherited, never pickled), each connected by a
  duplex pipe. Every query is handed out under a **lease** ``(lease id,
  query key, worker id, deadline)``.
* ``workers=0`` is a **fleet of none**: no process and no thread starts,
  and :meth:`~WorkerSupervisor.run` answers each query on the calling
  thread, under the fault directives a lease would carry (``stall``
  sleeps; ``kill`` raises :class:`~repro.faults.InjectedWorkerDeath`,
  since there is no process to exit). A fleet that cannot start (no fork
  context, a failed spawn) stops the workers it forked, counts a
  fallback and serves as a fleet of none.
* One **lease loop** thread, started by the first submission, owns the
  slots, leases, kill counts, poison memo and respawns. :meth:`run` and
  :meth:`run_batch` are thread-safe: a caller puts its queries in the
  loop's inbox, wakes the loop through a pipe, and blocks until its own
  answers arrive, so N concurrent callers keep N workers leased.
  ``on_result`` fires on the calling thread. :meth:`start`, :meth:`stop`
  and :meth:`request_drain` may be called from any thread.
* Workers send **heartbeats** carrying the recorder's monotone
  ``TRACER.events`` count (every counter event and span; each
  binary-search probe counts one, whatever the verifier, so it advances
  during real work and stands still during a stall). A heartbeat only
  extends the lease deadline when the progress value *changed*, so a
  slow-but-alive precise pass is distinguishable from a hung worker that
  still pumps heartbeats.
* A missed deadline or a dead PID kills the worker, **requeues the
  lease**, and respawns the slot with exponential backoff plus seeded
  jitter. Results commit **at most once** per query position: a late
  duplicate from a worker presumed dead is counted and dropped, and the
  caller's journal append (driven by ``on_result``) therefore happens
  exactly once per answered query.
* A lease carries exactly one query. A query whose lease kills its worker
  :data:`POISON_THRESHOLD` times is **poisoned**: quarantined in a
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
  under a drain deadline, then every waiting :meth:`run` raises its own
  :class:`DrainedRun`, carrying that caller's completed results (already
  committed through ``on_result``, i.e. journaled) and its queries left
  for ``--resume``. The fleet of none ignores drain requests.

Fault injection is parent-side: the supervisor consults
:func:`repro.faults.fault_lease_directives` /
:func:`~repro.faults.fault_spawn_directive` in its own process and ships
the directive inside the lease or spawn message, keeping the seeded
``max_faults`` accounting deterministic in one place.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as _connection_wait

from ..faults import (KILL_EXIT_CODE, InjectedWorkerDeath,
                      fault_lease_directives, fault_spawn_directive)
from ..trace import TRACER
from . import worker as worker_mod
from .worker import QueryOutcome, ibp_floor_outcome

__all__ = ["WorkerSupervisor", "PoisonedQueryError", "DrainedRun",
           "POISON_THRESHOLD"]

# Worker kills after which a query is quarantined to the IBP floor.
POISON_THRESHOLD = 2
# A slot that keeps dying at boot respawns after RESPAWN_BACKOFF * 2**k
# seconds (k boot deaths in a row, capped at RESPAWN_CAP) times a seeded
# jitter factor in [1, 2); after MAX_BOOT_FAILURES in a row it is
# disabled, and with every slot disabled the rest is answered in-process.
RESPAWN_BACKOFF = 0.05
RESPAWN_CAP = 2.0
MAX_BOOT_FAILURES = 3


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
    TRACER.reset()
    send_lock = threading.Lock()
    state = {"lease": None, "suppress": False}

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
            send(("heartbeat", lease, TRACER.events))

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

class _Call:
    """One :meth:`WorkerSupervisor.run` caller: its queries and answers.

    The lease loop writes ``results`` and posts each committed outcome (or
    the exception that ends the run) to the caller, who blocks in
    :meth:`take`.
    """

    __slots__ = ("queries", "results", "remaining", "_posted", "_items")

    def __init__(self, queries):
        self.queries = queries
        self.results = [None] * len(queries)
        self.remaining = len(queries)
        self._posted = threading.Semaphore(0)
        self._items = deque()

    def post(self, item):
        self._items.append(item)
        self._posted.release()

    def take(self):
        self._posted.acquire()
        return self._items.popleft()


class _Task:
    """Unit of leased work: one query of one caller's run."""

    __slots__ = ("call", "index", "query", "attempts")

    def __init__(self, call, index, query):
        self.call = call
        self.index = index
        self.query = query
        self.attempts = 0


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
        Fleet size; ``0`` is the fleet of none, which answers on the
        calling thread. A fleet that cannot start drops to ``0``.
    heartbeat_interval / lease_timeout:
        Workers heartbeat every ``heartbeat_interval`` seconds; a lease
        whose progress counter has not *changed* for ``lease_timeout``
        seconds is declared dead (worker killed, lease requeued).
    drain_timeout:
        Seconds granted to in-flight leases after a drain request.
    """

    def __init__(self, model, workers=2, *, heartbeat_interval=0.5,
                 lease_timeout=30.0, drain_timeout=30.0):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.model = model
        self.workers = int(workers)
        self.heartbeat_interval = float(heartbeat_interval)
        self.lease_timeout = float(lease_timeout)
        self.drain_timeout = float(drain_timeout)
        self._rng = random.Random(0)  # seeds the respawn jitter only
        self._context = None       # the fork context, taken by start()
        self._slots = []
        self._lease_seq = 0
        self._kill_counts = {}
        self._poisoned = {}        # key -> PoisonedQueryError message
        self._poison_memo = {}     # key -> committed poisoned QueryOutcome
        self._drain = threading.Event()
        self._started = False
        self._stopped = False
        self.drain_seconds = None
        self.stats = {
            "leases": 0, "heartbeats": 0, "respawns": 0,
            "requeued_leases": 0, "poisoned_queries": 0,
            "worker_deaths": 0, "lease_deaths": 0, "lease_timeouts": 0,
            "duplicate_results_dropped": 0, "errored_leases": 0,
            "dead_slots": 0, "fallbacks": 0, "drains": 0,
        }
        # Guards start, submission and stop; the lease loop never takes it.
        self._lock = threading.RLock()
        self._inbox = deque()      # submitted _Calls the loop has not seen
        self._thread = None        # the lease loop, started on submission
        self._wake_r = self._wake_w = None  # its wake pipe, made by start()
        # Owned by the lease loop thread (by stop() once it has joined).
        self._calls = set()        # admitted _Calls still owed outcomes
        self._pending = deque()    # _Tasks waiting for a ready worker
        self._active = {}          # lease id -> _Lease

    # ------------------------------------------------------------- lifecycle
    def start(self):
        """Spawn the fleet (idempotent); the fleet of none spawns nothing.

        A fleet that cannot start (no fork context, a failed spawn) stops
        the workers it forked, counts ``stats["fallbacks"]`` and serves
        as a fleet of none. Raises once the supervisor is stopped.
        """
        with self._lock:
            if self._stopped:
                raise RuntimeError("worker supervisor is stopped")
            if self._started:
                return self
            if self.workers:
                try:
                    self._context = multiprocessing.get_context("fork")
                    self._wake_r, self._wake_w = os.pipe()
                    os.set_blocking(self._wake_w, False)
                    self._slots = [_Slot(i) for i in range(self.workers)]
                    for slot in self._slots:
                        self._spawn(slot, initial=True)
                except Exception:
                    # No forked worker outlives the failed start.
                    self._stop_workers()
                    self.workers = 0
                    self.stats["fallbacks"] += 1
                except BaseException:
                    self.stop()
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
        """Stop the lease loop, then the fleet; fail every waiting run.

        The loop finishes the step it is in (an in-process answer in
        progress included) and exits; then each worker gets an exit
        message, then SIGKILL. Every caller still waiting in :meth:`run`
        raises ``RuntimeError``; a fleet of none's caller raises it before
        its next engine call. A stopped supervisor serves no more runs.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True  # no run() gets past start() from here
            thread = self._thread
            if thread is not None:
                self._wake()
        if thread is not None:
            thread.join()
        self._stop_workers()
        self._fail_calls("worker supervisor stopped")

    def _stop_workers(self):
        """Close the wake pipe, then exit (or kill) every worker."""
        if self._wake_r is not None:
            os.close(self._wake_r)
            os.close(self._wake_w)
            self._wake_r = self._wake_w = None
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

    def request_drain(self, timeout=None):
        """Stop leasing; finish in-flight leases, then raise DrainedRun.

        Only sets flags — safe to call from a signal handler. The lease
        loop sees them within one ``heartbeat_interval``; the fleet of
        none ignores them.
        """
        if timeout is not None:
            self.drain_timeout = float(timeout)
        self._drain.set()

    # ------------------------------------------------------------------- run
    def run(self, queries, *, on_result=None):
        """Execute ``queries``; one ``QueryOutcome`` each, in input order.

        Thread-safe: the queries join the lease loop's work list and this
        thread blocks until all of them are answered, so concurrent
        callers share the fleet. ``on_result`` fires once per committed
        result, in completion order, on this thread — the journaling hook
        that makes commitment at-most-once durable. Raises
        :class:`DrainedRun` (this caller's own completed and remaining
        queries) if a drain request lands mid-run, and ``RuntimeError`` if
        the supervisor stops first. The fleet of none answers on this
        thread instead (:meth:`_run_here`).
        """
        call = _Call(list(queries))
        with self._lock:
            self.start()
            leased = self.workers > 0
            if leased:
                if self._thread is None:
                    self._thread = threading.Thread(
                        target=self._lease_loop, name="cert-lease-loop",
                        daemon=True)
                    self._thread.start()
                self._inbox.append(call)
                self._wake()
        if not leased:
            return self._run_here(call.queries, on_result)
        for _ in call.queries:
            item = call.take()
            if isinstance(item, BaseException):
                raise item
            if on_result is not None:
                on_result(item)
        return call.results

    def run_batch(self, queries):
        """Service-executor entry: :meth:`run` without a commit hook."""
        return self.run(queries)

    def _run_here(self, queries, on_result):
        """The fleet of none: each query on the calling thread, under the
        directives a lease would carry (``suppress`` has nothing to
        silence); once stopped, raise before the engine runs."""
        results = []
        for query in queries:
            with self._lock:
                directives = fault_lease_directives(query.key()) or {}
            if directives.get("kill"):
                raise InjectedWorkerDeath("injected worker death at query "
                                          "start")
            if directives.get("stall"):
                time.sleep(float(directives["stall"]))
            if self._stopped:
                raise RuntimeError("worker supervisor stopped")
            results.append(self._execute_inprocess(query))
            if on_result is not None:
                on_result(results[-1])
        return results

    def _wake(self):
        """Interrupt the lease loop's wait (caller holds ``_lock``)."""
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # the pipe is full of wake-ups the loop has yet to read

    # ------------------------------------------------------------ lease loop
    def _lease_loop(self):
        try:
            self._serve_leases()
        except BaseException as error:
            # A failed step must not leave a caller waiting forever; the
            # next submission starts a fresh loop over the same fleet.
            with self._lock:
                self._thread = None
                self._fail_calls(
                    f"lease loop failed: {type(error).__name__}: {error}")
            raise

    def _serve_leases(self):
        drain_started = drain_deadline = None
        while not self._stopped:
            now = time.monotonic()

            # 1. Admit submitted runs.
            while self._inbox:
                self._admit(self._inbox.popleft())

            # 2. Reap dead PIDs (covers kills we issued and injected ones).
            for slot in self._slots:
                if slot.process is not None and not slot.process.is_alive():
                    self._handle_death(slot, now)

            # 3. Drain: stop leasing; once in-flight leases resolve (or
            #    the drain deadline passes), hand each waiting run back
            #    what it completed.
            if self._drain.is_set():
                if self._calls and drain_started is None:
                    drain_started = now
                    drain_deadline = now + self.drain_timeout
                if self._calls and (not self._active
                                    or now >= drain_deadline):
                    for lease in list(self._active.values()):
                        self._kill_slot(lease.slot)
                    self._active.clear()
                    self.drain_seconds = time.monotonic() - drain_started
                    self.stats["drains"] += 1
                    for call in list(self._calls):
                        self._end(call, DrainedRun(
                            [r for r in call.results if r is not None],
                            [q for q, r in zip(call.queries, call.results)
                             if r is None]))
                    drain_started = drain_deadline = None
            else:
                # 4. Respawn slots whose backoff matured, work or not: an
                #    idle fleet is back at full size for the next query.
                for slot in self._slots:
                    if (slot.process is None and not slot.disabled
                            and now >= slot.next_spawn_at):
                        self._spawn(slot)
                # 5. Lease pending work onto idle live workers that have
                #    proven boot liveness (sent "ready").
                for slot in self._slots:
                    if not self._pending:
                        break
                    if not slot.live or not slot.ready \
                            or slot.lease_id is not None:
                        continue
                    task = self._pending.popleft()
                    if task.query.key() in self._poisoned:
                        self._answer_inprocess(task, self._poison_outcome)
                        continue
                    task.attempts += 1
                    self._lease_seq += 1
                    lease = _Lease(self._lease_seq, task, slot,
                                   deadline=now + self.lease_timeout)
                    directives = fault_lease_directives(task.query.key())
                    self._active[lease.id] = lease
                    slot.lease_id = lease.id
                    self.stats["leases"] += 1
                    try:
                        slot.conn.send(("run", lease.id, task.query,
                                        directives))
                    except (BrokenPipeError, OSError):
                        pass  # death will be reaped; the lease requeues

            # 6. No worker will ever serve the rest: finish in-process.
            if self._pending and not self._active \
                    and all(slot.disabled for slot in self._slots):
                self.stats["fallbacks"] += 1
                while self._pending and not self._stopped:
                    self._answer_inprocess(self._pending.popleft(),
                                           self._execute_inprocess)
                continue

            # 7. Wait for a submission or a message, or until the next
            #    lease deadline, respawn timer (a matured one only lingers
            #    while draining), drain deadline or, with work in hand,
            #    heartbeat tick. An idle loop blocks.
            deadlines = [lease.deadline for lease in self._active.values()]
            deadlines += [slot.next_spawn_at for slot in self._slots
                          if slot.process is None and not slot.disabled
                          and slot.next_spawn_at > now]
            if drain_deadline is not None:
                deadlines.append(drain_deadline)
            if self._pending or self._active:
                deadlines.append(now + self.heartbeat_interval)
            timeout = max(0.005, min(deadlines) - now) if deadlines \
                else None
            conns = {slot.conn: slot for slot in self._slots
                     if slot.conn is not None and slot.process is not None}
            ready = _connection_wait([self._wake_r, *conns], timeout)

            # 8. Drain every readable pipe.
            for conn in ready:
                slot = conns.get(conn)
                if slot is None:
                    os.read(self._wake_r, 4096)  # submissions' wake-ups
                    continue
                try:
                    while conn.poll():
                        self._handle_message(slot, conn.recv())
                except (EOFError, OSError):
                    self._handle_death(slot, time.monotonic())

            # 9. Expire leases whose progress-extended deadline passed.
            now = time.monotonic()
            for lease in list(self._active.values()):
                if now >= lease.deadline:
                    self.stats["lease_timeouts"] += 1
                    self._kill_slot(lease.slot)
                    self._handle_death(lease.slot, now)

    # --------------------------------------------------------------- helpers
    def _admit(self, call):
        """Queue a run's queries; quarantined keys never touch a worker."""
        if call.queries:
            self._calls.add(call)
        for index, query in enumerate(call.queries):
            task = _Task(call, index, query)
            if query.key() in self._poisoned:
                self._answer_inprocess(task, self._poison_outcome)
            elif call in self._calls:
                self._pending.append(task)

    def _commit(self, task, outcome):
        """At most once per query position: a late duplicate is dropped."""
        call = task.call
        if call.results[task.index] is not None:
            self.stats["duplicate_results_dropped"] += 1
            return
        call.results[task.index] = outcome
        call.remaining -= 1
        if call.remaining == 0:
            self._calls.discard(call)
        call.post(outcome)

    def _end(self, call, error):
        """Raise ``error`` in a waiting run; its pending queries drop."""
        if call not in self._calls:
            return
        self._calls.discard(call)
        self._pending = deque(task for task in self._pending
                              if task.call is not call)
        call.post(error)

    def _fail_calls(self, message):
        """End every submitted run still waiting (stop or loop failure)."""
        self._calls.update(self._inbox)
        self._inbox.clear()
        for call in list(self._calls):
            self._end(call, RuntimeError(message))

    def _answer_inprocess(self, task, answer):
        """Commit ``answer(query)`` computed in this process; an engine
        error ends the task's run, as it would have raised there."""
        try:
            outcome = answer(task.query)
        except Exception as error:
            self._end(task.call, error)
        else:
            self._commit(task, outcome)

    def _execute_inprocess(self, query):
        """Answer a query in this process (no worker will serve it)."""
        # Through the module attribute so monkeypatched engines (tests)
        # behave identically in the parent and in forked workers.
        result = worker_mod.execute_query(self.model, query)
        return QueryOutcome.from_result(query, result, "inprocess")

    def _poison_outcome(self, query):
        key = query.key()
        if key not in self._poison_memo:
            self._poison_memo[key] = ibp_floor_outcome(
                self.model, query, "poisoned", self._poisoned[key])
        return self._poison_memo[key]

    def _requeue_or_poison(self, task):
        key = task.query.key()
        kills = self._kill_counts.get(key, 0) + 1
        self._kill_counts[key] = kills
        if kills >= POISON_THRESHOLD:
            error = PoisonedQueryError(key, kills)
            self._poisoned[key] = f"PoisonedQueryError: {error}"
            self.stats["poisoned_queries"] += 1
            self._answer_inprocess(task, self._poison_outcome)
        else:
            self.stats["requeued_leases"] += 1
            self._pending.appendleft(task)

    def _handle_death(self, slot, now):
        """A dead PID (or EOF pipe): bury, requeue, schedule respawn."""
        if slot.process is not None:
            slot.process.join(timeout=1.0)
        if slot.conn is not None:
            slot.conn.close()
        self.stats["worker_deaths"] += 1
        lease = self._active.pop(slot.lease_id, None) \
            if slot.lease_id is not None else None
        boot_death = lease is None and not slot.ready
        slot.process = None
        slot.conn = None
        slot.lease_id = None
        if lease is not None:
            self.stats["lease_deaths"] += 1
            slot.boot_failures = 0
            self._requeue_or_poison(lease.task)
        elif boot_death:
            slot.boot_failures += 1
            if slot.boot_failures >= MAX_BOOT_FAILURES:
                slot.disabled = True
                self.stats["dead_slots"] += 1
                return
        backoff = min(RESPAWN_CAP,
                      RESPAWN_BACKOFF * 2 ** slot.boot_failures)
        slot.next_spawn_at = now + backoff * (1.0 + self._rng.random())

    def _kill_slot(self, slot):
        if slot.live:
            try:
                os.kill(slot.process.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass
            slot.process.join(timeout=2.0)

    def _handle_message(self, slot, message):
        kind = message[0]
        if kind == "ready":
            slot.ready = True
            return
        lease = self._active.get(message[1]) if len(message) > 1 else None
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
            self._active.pop(lease.id, None)
            lease.slot.lease_id = None
            source = "worker" if task.attempts == 1 else "worker-retry"
            self._commit(task, QueryOutcome.from_result(
                task.query, message[2], source))
        elif kind == "error":
            # The worker survived but the engine raised: retry once on a
            # (possibly different) worker, then fall back in-process.
            self._active.pop(lease.id, None)
            lease.slot.lease_id = None
            self.stats["errored_leases"] += 1
            if task.attempts < 2:
                self.stats["requeued_leases"] += 1
                self._pending.appendleft(task)
            else:
                self._answer_inprocess(task, self._execute_inprocess)
