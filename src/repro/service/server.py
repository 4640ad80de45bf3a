"""The certification service: an asyncio front end over the query engine.

:class:`CertService` turns the batch-harness stack — pure
:func:`~repro.scheduler.worker.execute_query`, the sharded
:class:`~repro.scheduler.cache.ResultCache`, the crash-safe
:class:`~repro.scheduler.journal.RunJournal`, the
:data:`~repro.trace.TRACER` — into a long-running server that accepts JSON
:class:`~repro.scheduler.queries.CertQuery` submissions over HTTP and
answers them with certified radii. The request path, in order:

1. **parse + rate limit** — typed 400s for malformed submissions, a
   per-tenant token bucket (429) before any work is considered;
2. **dedup** — completed results (memory, then journal seed, then result
   cache) answer instantly; a submission whose sha256 key is already
   *in flight* attaches to the existing computation (one execution, N
   waiters) and never touches the queue;
3. **admission control** — queue depth maps to a QoS rung via
   :class:`~repro.service.admission.AdmissionController`: under load the
   query itself is rewritten down the degradation ladder
   (full -> fast -> IBP) or shed with a typed 503;
4. **execution** — while fewer queries run than the executor has room
   for, the dispatcher pops the oldest queued query and runs it on an
   executor thread so the event loop keeps serving; a deadline
   (``query_timeout``) plus an IBP *rescue* rung guarantee every waiter
   resolves with a done, degraded or typed-error payload — never a hang.

Completed outcomes flow through the result cache and the run journal keyed
by the query that actually executed
(:func:`~repro.scheduler.worker.commit_outcome`) — a degraded answer lives
under the degraded query's key, so it can never impersonate the
full-precision result — and a restart with ``resume=True`` replays the
journal so previously answered queries are served without recomputation.

Concurrency note: the ``cert-exec`` executor has one thread per worker
of the service's :class:`~repro.scheduler.pool.WorkerSupervisor` (at
least one), and the dispatcher runs at most that many executions at
once. Each thread hands its query to the supervisor: with
``ServiceConfig.workers > 0`` its lease loop keeps one lease per worker
in flight (leased worker processes with heartbeat liveness,
requeue-on-death, and poison-query quarantine to the IBP floor,
journaled/cached only under the rewritten IBP key, like the rescue
rung's answer); with ``workers=0``, or a fleet that could not start, the
fleet of none runs the engine on that thread. An execution abandoned at
its deadline holds its slot until its thread returns, so the number of
engines running stays bounded and the next query's deadline starts only
once it can run. Every answer commits on the event-loop thread, through
one ``_finish``. The rescue rung runs on its own thread so a stalled
execution cannot wedge recovery; ``TRACER`` keeps query scopes per
thread, so the stalled execution and its rescue each get their own
record.

``POST /drain`` — or SIGTERM via
the CLI — triggers a graceful drain: new submissions get a typed 503
(``draining``) while every already-accepted waiter resolves
(done/degraded/typed-error) under ``drain_timeout``; ``drain_seconds``
and the supervisor counters (``respawns``, ``requeued_leases``,
``poisoned_queries``) surface in ``/metrics``.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from urllib.parse import parse_qs, urlsplit

from ..scheduler.cache import ResultCache
from ..scheduler.journal import RunJournal
from ..scheduler.pool import WorkerSupervisor
from ..scheduler.queries import (degrade_query, model_weight_hash,
                                 rung_for_query)
from ..scheduler.worker import (QueryOutcome, commit_outcome,
                                 ibp_floor_outcome)
from ..trace import merge_perf, write_jsonl
from .admission import AdmissionController
from .protocol import (MAX_BODY_BYTES, REQUEST_READ_SECONDS, BadRequest,
                       Draining, NotFound, Overloaded, RateLimited,
                       ServiceError, error_payload, outcome_payload,
                       parse_submission)
from .tenancy import TenantPolicy, TenantRegistry

__all__ = ["ServiceConfig", "CertService"]


@dataclass
class ServiceConfig:
    """Service knobs (admission thresholds, deadlines, pool)."""

    degrade_fast_at: int = 8       # queue depth that degrades to "fast"
    degrade_ibp_at: int = 16       # ... to the IBP floor
    reject_at: int = 32            # ... sheds with a typed 503
    query_timeout: float = 120.0   # execution deadline before rescue
    default_rate: float = 50.0     # tenant bucket: tokens per second
    default_burst: int = 20        # tenant bucket: capacity
    workers: int = 0               # >0: pool size = queries run at once
    lease_timeout: float = 30.0    # supervised: no-progress kill deadline
    heartbeat_interval: float = 0.5  # supervised: worker heartbeat cadence
    drain_timeout: float = 30.0    # graceful-drain deadline (seconds)


class _Entry:
    """One admitted, not-yet-completed query and its waiters."""

    __slots__ = ("query", "tenant", "rung", "future", "state",
                 "enqueued_at", "started_at")

    def __init__(self, query, tenant, rung, future, now):
        self.query = query
        self.tenant = tenant
        self.rung = rung
        self.future = future
        self.state = "queued"
        self.enqueued_at = now
        self.started_at = None


class CertService:
    """Serves certification queries against one fixed model.

    Parameters
    ----------
    model:
        The transformer classifier every submission certifies against
        (its weight hash becomes part of every query key).
    config:
        :class:`ServiceConfig`; defaults are production-shaped, tests pass
        tight thresholds.
    cache_dir:
        Enables the persistent :class:`ResultCache` there.
    journal_path / resume:
        Enables the crash-safe :class:`RunJournal`; with ``resume=True``
        an existing journal is replayed at startup and its outcomes are
        served without recomputation.
    tenant_policies:
        Optional ``{tenant: TenantPolicy}`` overrides of the default
        bucket.
    trace_path:
        JSONL file each executed outcome's spans are appended to
        (``serve --trace-dir DIR`` passes ``DIR/serve.jsonl``). Spans
        exist only while :data:`repro.trace.TRACER` is enabled.
    """

    def __init__(self, model, config=None, cache_dir=None,
                 journal_path=None, resume=False, tenant_policies=None,
                 trace_path=None):
        self.model = model
        self.config = config or ServiceConfig()
        self.model_hash = model_weight_hash(model)
        self.admission = AdmissionController(
            degrade_fast_at=self.config.degrade_fast_at,
            degrade_ibp_at=self.config.degrade_ibp_at,
            reject_at=self.config.reject_at)
        self.tenants = TenantRegistry(
            TenantPolicy(rate=self.config.default_rate,
                         burst=self.config.default_burst),
            tenant_policies)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.journal = RunJournal(journal_path, resume=resume) \
            if journal_path else None
        self.trace_path = trace_path

        self._results = {}    # key -> done payload (sound answers only)
        self._errors = {}     # key -> last error payload (retryable)
        self._inflight = {}   # key -> _Entry (queued or running)
        self._pending = []    # FIFO of queued _Entry objects
        self._metrics = {}
        self._perf = {"counters": {}, "gauges": {}}  # merged outcome perf
        self._started_monotonic = None
        self._loop = None
        self._server = None
        self._dispatcher = None
        self._executor = None
        self._capacity = 1    # executions at once: the fleet's workers
        self._running = set()  # _execute tasks in flight
        self._rescue_executor = None
        self._wakeup = None
        self._supervisor = None
        self._draining = False
        self._drain_seconds = None

        if self.journal is not None:
            for key, entry in self.journal.replay().items():
                self._results[key] = outcome_payload(
                    key, radius=entry["radius"], seconds=entry["seconds"],
                    source="journal", tenant=None, qos_rung=None,
                    degraded=entry.get("degraded", False),
                    fallback_chain=entry.get("fallback_chain") or (),
                    fault=entry.get("fault"))
                self._count("journal_seeded")

    # ------------------------------------------------------------- lifecycle
    async def start(self, host="127.0.0.1", port=8100):
        """Bind the listener and start the dispatcher; returns the port."""
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._supervisor = WorkerSupervisor(
            self.model, workers=self.config.workers,
            heartbeat_interval=self.config.heartbeat_interval,
            lease_timeout=self.config.lease_timeout,
            drain_timeout=self.config.drain_timeout).start()
        self._capacity = max(1, self._supervisor.workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self._capacity, thread_name_prefix="cert-exec")
        self._rescue_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="cert-rescue")
        self._started_monotonic = self._loop.time()
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._server = await asyncio.start_server(self._handle_connection,
                                                  host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_forever(self):
        await self._server.serve_forever()

    async def stop(self):
        """Close the listener; unresolved waiters get a typed error."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        running = list(self._running)
        for task in running:
            task.cancel()
        await asyncio.gather(*running, return_exceptions=True)
        for entry in list(self._inflight.values()):
            if not entry.future.done():
                entry.future.set_result({
                    "status": "error", "code": "shutting-down",
                    "key": entry.query.key(),
                    "error": "service stopped before completion"})
        self._inflight.clear()
        self._pending.clear()
        for executor in (self._executor, self._rescue_executor):
            if executor is not None:
                executor.shutdown(wait=False)
        if self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None

    # --------------------------------------------------------------- metrics
    def _count(self, name, k=1):
        self._metrics[name] = self._metrics.get(name, 0) + k

    def _now(self):
        return self._loop.time() if self._loop is not None \
            else time.monotonic()

    def health_payload(self):
        return {
            "status": "ok",
            "model_hash": self.model_hash,
            "uptime_seconds": round(
                self._now() - self._started_monotonic, 3)
            if self._started_monotonic is not None else None,
            "queue_depth": len(self._pending),
            "inflight": len(self._inflight),
        }

    def metrics_payload(self):
        hits = self._metrics.get("cache_hits", 0)
        misses = self._metrics.get("cache_misses", 0)
        return {
            "model_hash": self.model_hash,
            "uptime_seconds": round(
                self._now() - self._started_monotonic, 3)
            if self._started_monotonic is not None else None,
            "queue_depth": len(self._pending),
            "inflight": len(self._inflight),
            "results_held": len(self._results),
            "counters": dict(sorted(self._metrics.items())),
            "cache_hit_rate": hits / (hits + misses)
            if hits + misses else None,
            "tenants": self.tenants.snapshot(self._now()),
            "perf": self._perf,
            "draining": self._draining,
            "drain_seconds": self._drain_seconds,
            "supervisor": dict(self._supervisor.stats)
            if self._supervisor is not None else None,
        }

    # ---------------------------------------------------------------- submit
    async def submit(self, payload):
        """Admit one submission; returns its ack (raises ServiceError)."""
        query, tenant = parse_submission(payload, self.model_hash)
        self._check_embeddable(query.sentence)
        now = self._now()
        self._count("submitted")
        if self._draining:
            self._count("rejected_draining")
            raise Draining("service is draining for restart; "
                           "resubmit once it is back")
        if not self.tenants.try_acquire(tenant, now):
            self._count("rejected_rate_limited")
            raise RateLimited(
                f"tenant {tenant!r} exceeded its request rate")

        # Dedup before load shedding: an answered or in-flight duplicate
        # costs nothing, so it must never be degraded or rejected.
        hit = self._lookup(query, tenant)
        if hit is not None:
            return hit

        depth = len(self._pending)
        action, rung = self.admission.decide(depth)
        if action == "reject":
            self._count("rejected_overloaded")
            self.tenants.count(tenant, "rejected_overloaded")
            raise Overloaded(
                f"queue depth {depth} >= {self.admission.reject_at}; "
                f"resubmit later")
        admitted = degrade_query(query, rung)
        applied_rung = rung_for_query(admitted)
        if admitted.key() != query.key():
            self._count(f"qos_degraded_{applied_rung}")
            self.tenants.count(tenant, f"qos_degraded_{applied_rung}")
            # The rewrite changed the key: the degraded twin may itself
            # already be answered or in flight.
            hit = self._lookup(admitted, tenant, count_miss=False)
            if hit is not None:
                return hit

        key = admitted.key()
        entry = _Entry(admitted, tenant, applied_rung,
                       self._loop.create_future(), now)
        self._inflight[key] = entry
        self._pending.append(entry)
        self._errors.pop(key, None)  # a retry supersedes an old error
        self._wakeup.set()
        return {"status": "queued", "key": key, "tenant": tenant,
                "qos_rung": applied_rung, "position": depth}

    def _check_embeddable(self, sentence):
        """Typed 400 for a sentence the served model cannot embed.

        Caught here, before admission, instead of as an engine error after
        leases and a rescue (a negative id would even index from the end
        of the embedding table).
        """
        if len(sentence) > self.model.max_len:
            raise BadRequest(f"sentence exceeds the served model's "
                             f"{self.model.max_len} tokens")
        vocab = self.model.vocab_size
        outside = sorted({t for t in sentence if not 0 <= t < vocab})
        if outside:
            raise BadRequest(f"token ids {outside} outside the served "
                             f"vocabulary [0, {vocab})")

    def _lookup(self, query, tenant, count_miss=True):
        """Answer from memory, in-flight attach, or the result cache."""
        key = query.key()
        done = self._results.get(key)
        if done is not None:
            self._count("result_hits")
            self.tenants.count(tenant, "result_hits")
            return done
        entry = self._inflight.get(key)
        if entry is not None:
            self._count("dedup_hits")
            self.tenants.count(tenant, "dedup_hits")
            return {"status": entry.state, "key": key, "tenant": tenant,
                    "qos_rung": entry.rung, "deduped": True}
        if self.cache is not None:
            cached = self.cache.get(query)
            if cached is not None:
                self._count("cache_hits")
                return self._finish(
                    QueryOutcome.from_stored(query, cached, "cache"),
                    tenant)
            if count_miss:
                self._count("cache_misses")
        return None

    # ----------------------------------------------------------------- poll
    def result_payload(self, key):
        """(http_status, payload) for ``GET /result/<key>``."""
        done = self._results.get(key)
        if done is not None:
            return 200, done
        error = self._errors.get(key)
        if error is not None:
            return 200, error
        entry = self._inflight.get(key)
        if entry is None:
            raise NotFound(f"unknown result key {key!r}")
        progress = {"status": entry.state, "key": key,
                    "tenant": entry.tenant, "qos_rung": entry.rung}
        if entry.state == "queued":
            progress["position"] = self._pending.index(entry) \
                if entry in self._pending else None
        else:
            progress["seconds_running"] = round(
                self._now() - entry.started_at, 3)
        return 202, progress

    async def wait_result(self, key, timeout):
        """Wait for ``key`` to resolve; a typed timeout, never a hang."""
        done = self._results.get(key)
        if done is not None:
            return done
        error = self._errors.get(key)
        if error is not None:
            return error
        entry = self._inflight.get(key)
        if entry is None:
            raise NotFound(f"unknown result key {key!r}")
        try:
            return await asyncio.wait_for(asyncio.shield(entry.future),
                                          timeout)
        except asyncio.TimeoutError:
            return {"status": "timeout", "key": key, "code": "wait-timeout",
                    "error": f"result not ready within {timeout}s; "
                             f"poll /result/{key}"}

    # ------------------------------------------------------------ dispatcher
    async def _dispatch_loop(self):
        while True:
            if not self._pending or len(self._running) >= self._capacity:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            task = asyncio.ensure_future(
                self._execute(self._pending.pop(0)))
            self._running.add(task)
            task.add_done_callback(self._execution_done)

    def _execution_done(self, task):
        self._running.discard(task)
        self._wakeup.set()  # a free slot: dispatch the next queued query

    # ------------------------------------------------------------- execution
    def _run_query(self, query):
        """Executor-thread entry: one query's :class:`QueryOutcome`.

        The supervisor answers it, on a leased worker or, for the fleet
        of none, on this thread; either way under the query's fault
        directives, and a supervisor stopped meanwhile (by :meth:`stop`)
        runs no engine.
        """
        return self._supervisor.run_batch([query])[0]

    async def _execute(self, entry):
        entry.state = "running"
        entry.started_at = self._now()
        execution = self._loop.run_in_executor(
            self._executor, self._run_query, entry.query)
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(execution),
                timeout=self.config.query_timeout)
        except asyncio.TimeoutError:
            self._count("execution_timeouts")
            await self._rescue(entry, "execution deadline exceeded")
            # The abandoned execution keeps its executor thread until it
            # returns, so it keeps its slot too: the next query starts,
            # and its deadline with it, only once a thread is free.
            await asyncio.wait([execution])
            return
        except Exception as error:
            self._count("execution_errors")
            await self._rescue(entry, f"{type(error).__name__}: {error}")
            return
        self._count("executed_queries")
        if outcome.source == "poisoned":
            self._count("poisoned_queries")
            self.tenants.count(entry.tenant, "poisoned")
        elif outcome.source == "worker-retry":
            self._count("requeued_leases_served")
        self._finish(outcome, entry.tenant, entry)

    async def _rescue(self, entry, reason):
        """Degraded-or-error: the waiters of a failed execution resolve.

        The query is answered once from the IBP floor
        (:func:`~repro.scheduler.worker.ibp_floor_outcome`, the pool's
        quarantine answer) — on a dedicated executor thread, so a stalled
        primary execution cannot block recovery, and under no fault
        plan. The answer is stored under the IBP twin's key only, so
        it is never replayable as the original query's answer; only this
        process's in-memory result map (where the payload is flagged
        degraded) serves it for the original key. A query already at the
        floor, or whose rescue also fails, resolves with a typed error
        payload.
        """
        key = entry.query.key()
        if entry.query.verifier == "ibp":
            self._fail(entry, key, reason)
            return
        try:
            outcome = await asyncio.wait_for(
                self._loop.run_in_executor(
                    self._rescue_executor, ibp_floor_outcome,
                    self.model, entry.query, "rescue", reason),
                timeout=self.config.query_timeout)
        except Exception:
            self._fail(entry, key, reason)
            return
        self._count("rescued_queries")
        self._finish(outcome, entry.tenant, entry)

    def _fail(self, entry, key, reason, code="execution-failed"):
        self._count("failed_queries")
        self.tenants.count(entry.tenant, "failed")
        payload = {"status": "error", "code": code,
                   "key": key, "tenant": entry.tenant,
                   "qos_rung": entry.rung, "error": reason}
        self._errors[key] = payload
        self._inflight.pop(key, None)
        if not entry.future.done():
            entry.future.set_result(payload)

    def _finish(self, outcome, tenant, entry=None):
        """Record one sound outcome: memory, waiters, cache, journal.

        Returns the ``done`` payload. Its ``qos_rung`` is the rung of the
        query that executed: "ibp" for poisoned and rescued answers, the
        admitted rung otherwise.
        """
        key = outcome.query.key()
        payload = outcome_payload(
            key, radius=outcome.radius, seconds=outcome.seconds,
            source=outcome.source, tenant=tenant,
            qos_rung=rung_for_query(outcome.executed_query),
            degraded=outcome.degraded,
            fallback_chain=outcome.fallback_chain, fault=outcome.fault,
            rescued=outcome.fault if outcome.source == "rescue" else None)
        self._results[key] = payload
        self._inflight.pop(key, None)
        self._count("completed")
        if outcome.source != "cache":  # work this service did
            self._perf = merge_perf((self._perf, outcome.perf))
        if self.trace_path is not None and outcome.trace:
            # Straight to the file: the process-wide span list of a
            # long-running service would only grow.
            write_jsonl(outcome.trace, self.trace_path, append=True)
        if entry is not None:
            self.tenants.count(entry.tenant, "completed")
            if not entry.future.done():
                entry.future.set_result(payload)
        commit_outcome(outcome, self.cache, self.journal)
        return payload

    # ------------------------------------------------------------------ drain
    async def drain(self, reason="drain requested"):
        """Gracefully drain: refuse new work, resolve every waiter.

        New submissions get a typed 503 (``draining``) immediately; the
        dispatcher keeps executing already-accepted queries. Waiters
        still unresolved at ``drain_timeout`` fail with a typed
        ``drained`` error — done, degraded or typed-error for every
        accepted query, never a hang. Journaled completions survive into
        a ``--resume`` restart. Returns the drain report (also the body
        of ``POST /drain``). Idempotent; concurrent calls share one
        drain.
        """
        if self._draining:
            return {"status": "draining", "drain_seconds":
                    self._drain_seconds, "reason": reason}
        self._draining = True
        self._count("drains")
        start = self._now()
        deadline = start + self.config.drain_timeout
        while (self._pending or self._inflight) and self._now() < deadline:
            await asyncio.sleep(0.02)
        timed_out = 0
        for entry in list(self._inflight.values()):
            if not entry.future.done():
                timed_out += 1
            self._fail(entry, entry.query.key(),
                       f"drained before completion: {reason}",
                       code="drained")
        self._pending.clear()
        self._drain_seconds = round(self._now() - start, 6)
        if self._supervisor is not None:
            self._supervisor.request_drain()
        return {"status": "drained", "reason": reason,
                "drain_seconds": self._drain_seconds,
                "timed_out": timed_out,
                "results_held": len(self._results)}

    # ------------------------------------------------------------ HTTP layer
    async def _handle_connection(self, reader, writer):
        try:
            status, payload = await self._handle_request(reader)
        except ServiceError as error:
            status, payload = error.status, error.payload()
        except Exception as error:  # never leak a traceback to the wire
            status, payload = 500, error_payload(ServiceError(str(error)))
        body = json.dumps(payload).encode()
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        try:
            writer.write(head + body)
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(self, reader):
        try:
            method, target, body = await asyncio.wait_for(
                self._read_request(reader), REQUEST_READ_SECONDS)
        except asyncio.TimeoutError:
            raise BadRequest(f"request not received within "
                             f"{REQUEST_READ_SECONDS} s") from None
        url = urlsplit(target)
        return await self._route(method, url.path, parse_qs(url.query),
                                 body)

    @staticmethod
    async def _read_request(reader):
        """The request line's method and target, and the body."""
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise BadRequest("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise BadRequest("Content-Length must be a non-negative integer")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    async def _route(self, method, path, params, body):
        if method == "POST" and path == "/submit":
            try:
                payload = json.loads(body.decode() or "null")
            except (ValueError, UnicodeDecodeError):
                raise BadRequest("submission body is not valid JSON")
            ack = await self.submit(payload)
            wait = params.get("wait")
            if wait and ack.get("status") in ("queued", "running"):
                try:
                    timeout = float(wait[0])
                except ValueError:
                    raise BadRequest("wait must be a number of seconds")
                result = await self.wait_result(ack["key"], timeout)
                return (200 if result.get("status") in ("done", "error")
                        else 202), result
            return (200 if ack.get("status") == "done" else 202), ack
        if method == "GET" and path.startswith("/result/"):
            return self.result_payload(path[len("/result/"):])
        if method == "GET" and path == "/health":
            return 200, self.health_payload()
        if method == "GET" and path == "/metrics":
            return 200, self.metrics_payload()
        if method == "POST" and path == "/drain":
            return 200, await self.drain("drain endpoint")
        raise NotFound(f"no route for {method} {path}")


_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}
