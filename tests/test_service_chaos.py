"""Chaos tests for the certification service: fault injection in-process.

Extends the ``repro.faults`` harness into the serving path: an injected
worker death or stall mid-request must resolve every waiter with a
degraded-or-error payload — never a hang — a garbled cache shard must
self-heal on recompute, and a restart over the run journal must answer
previously completed queries without recomputation. The supervised-pool
battery at the bottom replays the same faults against the multi-process
executor: a killed worker requeues its lease, a poison query quarantines
to the IBP floor under its rewritten key, and a drain resolves every
accepted waiter; two submissions to a two-worker fleet hold both
leases at once, and a stop with a lease in flight leaves no worker alive.
"""

import asyncio
import multiprocessing
import os
import threading
import time

import pytest

from repro.faults import FaultPlan, install_fault_plan
from repro.scheduler import ResultCache
from repro.scheduler.queries import model_weight_hash
from repro.scheduler.worker import execute_query
from repro.service import (ServiceConfig, degrade_query, parse_submission)
from tests.service_utils import make_sentences, serving, submission
from tests.test_pool import _running


@pytest.fixture(scope="module")
def sentences(tiny_corpus):
    return make_sentences(len(tiny_corpus.vocab), 4, seed=21)


class TestWorkerDeath:
    def test_killed_worker_rescues_to_degraded_ibp(self, tiny_model,
                                                   sentences, tmp_path):
        """A dead executor resolves the waiter via the IBP rescue rung."""
        cache_dir = str(tmp_path / "cache")
        payload = submission(sentences[0])
        plan = FaultPlan(kind="kill-worker", max_faults=1)

        async def main():
            config = ServiceConfig(query_timeout=60.0)
            async with serving(tiny_model, config=config,
                               cache_dir=cache_dir) as (service, client):
                with install_fault_plan(plan):
                    status, ack = await client.submit(payload)
                    assert status == 202
                    status, done = await client.wait(ack["key"],
                                                     timeout=60)
                return status, done, service.metrics_payload()["counters"]

        status, done, counters = asyncio.run(main())
        assert status == 200
        assert done["status"] == "done"
        assert done["degraded"] is True
        assert done["qos_rung"] == "ibp"
        assert done["source"] == "rescue"
        assert done["rescued"]
        assert tuple(done["fallback_chain"])[-1] == "ibp"
        assert counters["execution_errors"] == 1
        assert counters["rescued_queries"] == 1

        # Soundness of the rescue path: the IBP radius is cached under the
        # *rescue* query's key, never under the full-precision key.
        query, _ = parse_submission(payload,
                                    model_weight_hash(tiny_model))
        cache = ResultCache(cache_dir)
        assert cache.get(query) is None
        rescued = cache.get(degrade_query(query, "ibp"))
        assert rescued is not None
        assert rescued["degraded"] is True
        assert rescued["radius"] == done["radius"]

    def test_killed_ibp_query_fails_typed_then_retries(self, tiny_model,
                                                       sentences):
        """At the ladder floor there is no rescue: a typed, retryable
        error reaches the waiter, and a resubmission recomputes."""
        payload = submission(sentences[1], verifier="ibp")
        plan = FaultPlan(kind="kill-worker", max_faults=1)

        async def main():
            config = ServiceConfig(query_timeout=60.0)
            async with serving(tiny_model, config=config) as (service,
                                                              client):
                with install_fault_plan(plan):
                    status, ack = await client.submit(payload)
                    assert status == 202
                    status, failed = await client.wait(ack["key"],
                                                       timeout=60)
                    assert status == 200
                    assert failed["status"] == "error"
                    assert failed["code"] == "execution-failed"
                # The error is not sticky: resubmitting retries.
                status, ack = await client.submit(payload)
                assert status == 202 and ack["status"] == "queued"
                status, done = await client.wait(ack["key"], timeout=60)
                return done, service.metrics_payload()["counters"]

        done, counters = asyncio.run(main())
        assert done["status"] == "done"
        query, _ = parse_submission(payload,
                                    model_weight_hash(tiny_model))
        assert done["radius"] == execute_query(tiny_model, query)[0]
        assert counters["failed_queries"] == 1
        assert counters["executed_queries"] == 1


class TestStall:
    def test_stalled_execution_times_out_to_rescue_not_a_hang(
            self, tiny_model, sentences):
        """A stall past the deadline resolves the waiter before the stall
        itself would have ended — the no-hang guarantee."""
        payload = submission(sentences[2], n_iterations=1)
        plan = FaultPlan(kind="stall", stall_seconds=5.0, max_faults=1)

        async def main():
            config = ServiceConfig(query_timeout=0.4)
            async with serving(tiny_model, config=config) as (service,
                                                              client):
                loop = asyncio.get_running_loop()
                with install_fault_plan(plan):
                    start = loop.time()
                    status, ack = await client.submit(payload)
                    assert status == 202
                    status, done = await client.wait(ack["key"],
                                                     timeout=30)
                    elapsed = loop.time() - start
                return (status, done, elapsed,
                        service.metrics_payload()["counters"])

        status, done, elapsed, counters = asyncio.run(main())
        assert status == 200
        assert done["status"] in ("done", "error")  # degraded-or-error
        assert done["status"] != "done" or done["degraded"] is True
        assert elapsed < 5.0  # resolved while the stall was still running
        assert counters["execution_timeouts"] == 1

    def test_stall_outliving_the_service_runs_no_engine(
            self, tiny_model, sentences, monkeypatch):
        """The stalled primary wakes after the service stopped; only the
        rescue may have run the engine (the process-global tracer and
        perf recorders must not see work from a stopped service)."""
        from repro.scheduler import worker

        calls = []
        real = worker.execute_query

        def counting(model, query):
            calls.append(query.verifier)
            return real(model, query)

        monkeypatch.setattr(worker, "execute_query", counting)
        payload = submission(sentences[2], n_iterations=1)
        plan = FaultPlan(kind="stall", stall_seconds=1.0, max_faults=1)

        async def main():
            config = ServiceConfig(query_timeout=0.2)
            async with serving(tiny_model, config=config) as (service,
                                                              client):
                with install_fault_plan(plan):
                    status, ack = await client.submit(payload)
                    assert status == 202
                    await client.wait(ack["key"], timeout=30)
            return service._executor

        executor = asyncio.run(main())
        executor.shutdown(wait=True)  # joins the thread once it wakes
        assert calls == ["ibp"]

    def test_query_behind_a_timed_out_execution_runs_in_full(
            self, tiny_model, sentences):
        """An execution abandoned at its deadline holds its slot until its
        thread returns, so the query queued behind it is dispatched only
        then and runs undegraded, instead of waiting out its own deadline
        behind the stall."""
        first = submission(sentences[2], n_iterations=1)
        second = submission(sentences[3], n_iterations=1)
        plan = FaultPlan(kind="stall", stall_seconds=3.0, max_faults=1)

        async def main():
            config = ServiceConfig(query_timeout=1.0)
            async with serving(tiny_model, config=config) as (service,
                                                              client):
                with install_fault_plan(plan):
                    _, ack_first = await client.submit(first)
                    await asyncio.sleep(0.2)
                    _, ack_second = await client.submit(second)
                    answers = [(await client.wait(ack["key"], timeout=30))[1]
                               for ack in (ack_first, ack_second)]
                return answers, service.metrics_payload()["counters"]

        (stalled, queued), counters = asyncio.run(main())
        assert stalled["source"] == "rescue" and stalled["degraded"] is True
        assert queued["status"] == "done"
        assert queued["source"] == "inprocess"
        assert queued["degraded"] is False
        assert counters["execution_timeouts"] == 1
        assert counters["rescued_queries"] == 1

    def test_timed_out_executions_never_run_two_engines_at_once(
            self, tiny_model, sentences, monkeypatch):
        """At ``workers=0`` two queries that both outlast the deadline run
        their engines one after the other: an abandoned execution keeps
        the one slot, so timeouts cannot pile up engine threads."""
        from repro.scheduler import worker

        real = worker.execute_query
        lock = threading.Lock()
        running, peak = [], [0]

        def slow(model, query):
            if query.verifier == "ibp":  # the rescue rung
                return real(model, query)
            with lock:
                running.append(query)
                peak[0] = max(peak[0], len(running))
            try:
                time.sleep(1.0)
                return real(model, query)
            finally:
                with lock:
                    running.remove(query)

        monkeypatch.setattr(worker, "execute_query", slow)
        first = submission(sentences[2], n_iterations=1)
        second = submission(sentences[3], n_iterations=1)

        async def main():
            config = ServiceConfig(query_timeout=0.3)
            async with serving(tiny_model, config=config) as (service,
                                                              client):
                _, ack_first = await client.submit(first)
                await asyncio.sleep(0.1)
                _, ack_second = await client.submit(second)
                answers = [(await client.wait(ack["key"], timeout=30))[1]
                           for ack in (ack_first, ack_second)]
                return answers, service

        answers, service = asyncio.run(main())
        assert peak[0] == 1
        service._executor.shutdown(wait=True)  # the second engine's end
        counters = service.metrics_payload()["counters"]
        assert all(a["source"] == "rescue" and a["degraded"] is True
                   for a in answers)
        assert counters["execution_timeouts"] == 2
        assert counters["rescued_queries"] == 2


class TestCacheGarble:
    def test_garbled_shard_self_heals_on_recompute(self, tiny_model,
                                                   sentences, tmp_path):
        cache_dir = str(tmp_path / "cache")
        payload = submission(sentences[3], verifier="ibp")
        config = ServiceConfig()

        async def run_once():
            async with serving(tiny_model, config=config,
                               cache_dir=cache_dir) as (service, client):
                status, ack = await client.submit(payload)
                if ack.get("status") == "done":
                    return ack, service.metrics_payload()["counters"]
                status, done = await client.wait(ack["key"], timeout=60)
                assert status == 200
                return done, service.metrics_payload()["counters"]

        # Run 1: compute and cache, then the fault garbles the shard on
        # disk right after its successful commit.
        plan = FaultPlan(kind="cache-garble", max_faults=1)
        with install_fault_plan(plan):
            first, _ = asyncio.run(run_once())
        assert first["status"] == "done"

        # Run 2 (fresh service, same cache dir): the corrupt shard is a
        # miss — warned about, deleted — and the query recomputes to the
        # identical radius.
        with pytest.warns(UserWarning, match="corrupt result cache"):
            second, counters = asyncio.run(run_once())
        assert second["status"] == "done"
        assert second["source"] == "inprocess"
        assert second["radius"] == first["radius"]
        assert counters["executed_queries"] == 1

        # Run 3: the rewritten shard is healthy again — a pure cache hit.
        third, counters = asyncio.run(run_once())
        assert third["source"] == "cache"
        assert third["radius"] == first["radius"]
        assert counters["cache_hits"] == 1


class TestJournalRestart:
    def test_restart_with_journal_resumes_without_recompute(
            self, tiny_model, sentences, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        payloads = [submission(s, verifier="ibp") for s in sentences[:2]]

        async def first_run():
            config = ServiceConfig()
            async with serving(tiny_model, config=config,
                               journal_path=journal_path) as (service,
                                                              client):
                radii = []
                for payload in payloads:
                    status, ack = await client.submit(payload)
                    status, done = await client.wait(ack["key"],
                                                     timeout=60)
                    assert done["status"] == "done"
                    radii.append(done["radius"])
                return radii

        async def restarted_run():
            config = ServiceConfig()
            async with serving(tiny_model, config=config,
                               journal_path=journal_path,
                               resume=True) as (service, client):
                seeded = service.metrics_payload()["counters"]
                answers = []
                for payload in payloads:
                    status, body = await client.submit(payload)
                    answers.append((status, body))
                return seeded, answers, \
                    service.metrics_payload()["counters"]

        radii = asyncio.run(first_run())
        seeded, answers, counters = asyncio.run(restarted_run())

        assert seeded["journal_seeded"] == 2
        for (status, body), radius in zip(answers, radii):
            # Answered straight from the replayed journal: a 200 on
            # /submit, no queueing, no execution.
            assert status == 200
            assert body["status"] == "done"
            assert body["source"] == "journal"
            assert body["radius"] == radius
        assert counters["result_hits"] == 2
        assert "executed_queries" not in counters


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervised pool requires the fork start method")
class TestSupervisedPool:
    """The same chaos, against the multi-process supervised executor."""

    @staticmethod
    def _config(**overrides):
        kwargs = dict(workers=2, query_timeout=60.0, lease_timeout=10.0,
                      heartbeat_interval=0.1)
        kwargs.update(overrides)
        return ServiceConfig(**kwargs)

    def test_worker_killed_mid_lease_is_requeued_exactly_once(
            self, tiny_model, sentences):
        """An injected worker death requeues the lease onto a respawned
        worker; the waiter gets the full-precision answer, not a rescue."""
        payload = submission(sentences[0])
        plan = FaultPlan(kind="kill-worker", probability=1.0, max_faults=1)

        async def main():
            async with serving(tiny_model,
                               config=self._config()) as (service, client):
                with install_fault_plan(plan):
                    status, ack = await client.submit(payload)
                    assert status == 202
                    status, done = await client.wait(ack["key"],
                                                     timeout=60)
                assert service.metrics_payload()["supervisor"] is not None
                # The killed slot respawns once its backoff matures, which
                # can be after the retried answer arrives: wait for it (a
                # missing or double respawn still fails below).
                deadline = time.monotonic() + 5.0
                while (service.metrics_payload()["supervisor"]["respawns"]
                       < 1 and time.monotonic() < deadline):
                    await asyncio.sleep(0.02)
                return status, done, service.metrics_payload()

        status, done, metrics = asyncio.run(main())
        assert status == 200
        assert done["status"] == "done"
        assert done["source"] == "worker-retry"
        assert done["degraded"] is False  # a clean retry, not a rescue
        query, _ = parse_submission(payload,
                                    model_weight_hash(tiny_model))
        assert done["radius"] == execute_query(tiny_model, query)[0]
        assert metrics["counters"]["requeued_leases_served"] == 1
        supervisor = metrics["supervisor"]
        assert supervisor["worker_deaths"] == 1
        assert supervisor["requeued_leases"] == 1
        assert supervisor["respawns"] == 1
        assert supervisor["poisoned_queries"] == 0

    def test_poison_query_quarantined_under_rewritten_key(
            self, tiny_model, sentences, tmp_path):
        """A query that keeps killing workers is answered from the IBP
        floor, cached/journaled only under its rewritten twin key."""
        cache_dir = str(tmp_path / "cache")
        payload = submission(sentences[1])
        query, _ = parse_submission(payload,
                                    model_weight_hash(tiny_model))
        plan = FaultPlan(kind="kill-worker", probability=0.0, max_faults=0,
                        poison_key=query.key())

        async def main():
            async with serving(tiny_model, config=self._config(),
                               cache_dir=cache_dir) as (service, client):
                with install_fault_plan(plan):
                    status, ack = await client.submit(payload)
                    assert status == 202
                    status, done = await client.wait(ack["key"],
                                                     timeout=60)
                return status, done, service.metrics_payload()

        status, done, metrics = asyncio.run(main())
        assert status == 200
        assert done["status"] == "done"
        assert done["source"] == "poisoned"
        assert done["degraded"] is True
        assert done["qos_rung"] == "ibp"
        assert "PoisonedQueryError" in done["fault"]
        assert metrics["counters"]["poisoned_queries"] == 1
        assert metrics["supervisor"]["poisoned_queries"] == 1

        # Impersonation rule: nothing under the full-precision key; the
        # quarantined radius lives only under the rewritten IBP twin.
        cache = ResultCache(cache_dir)
        assert cache.get(query) is None
        twin_entry = cache.get(degrade_query(query, "ibp"))
        assert twin_entry is not None
        assert twin_entry["degraded"] is True
        assert twin_entry["radius"] == done["radius"]

    def test_drain_resolves_every_accepted_waiter(self, tiny_model,
                                                  sentences):
        """POST /drain mid-flight: every accepted query settles (done or
        typed ``drained`` error — zero hangs), later submissions get a
        typed 503, and the drain telemetry surfaces in /metrics."""
        payloads = [submission(s) for s in sentences]

        async def main():
            config = self._config(drain_timeout=30.0)
            async with serving(tiny_model, config=config) as (service,
                                                              client):
                keys = []
                for payload in payloads:
                    status, ack = await client.submit(payload)
                    assert status == 202
                    keys.append(ack["key"])
                status, report = await client.request("POST", "/drain")
                assert status == 200

                # Every accepted waiter settles; wait() raising would be
                # the hang this battery exists to rule out.
                settled = []
                for key in keys:
                    status, body = await client.wait(key, timeout=30)
                    assert status == 200
                    settled.append(body)

                status, refused = await client.submit(
                    submission(sentences[0], n_iterations=1))
                return report, settled, (status, refused), \
                    service.metrics_payload()

        report, settled, (status, refused), metrics = asyncio.run(main())
        assert report["status"] == "drained"
        assert report["results_held"] == len(payloads)
        for body in settled:
            assert body["status"] in ("done", "error")
            if body["status"] == "error":
                assert body["code"] == "drained"
        assert status == 503
        assert refused["code"] == "draining"
        assert metrics["draining"] is True
        assert metrics["drain_seconds"] is not None
        assert metrics["counters"]["drains"] == 1
        assert metrics["counters"]["rejected_draining"] == 1

    def test_two_submissions_hold_two_leases_at_once(
            self, tiny_model, sentences, rendezvous_engine):
        """Both queries are leased while the other runs. The 2 s heartbeat
        outlasts the 1 s rendezvous, so only a lease loop woken by the
        second submission itself leases it in time."""
        payloads = [submission(sentences[0]), submission(sentences[1])]

        async def main():
            config = self._config(heartbeat_interval=2.0)
            async with serving(tiny_model, config=config) as (_, client):
                return await asyncio.gather(
                    *(client.submit(payload, wait=60)
                      for payload in payloads))

        answers = asyncio.run(main())
        for status, done in answers:
            assert status == 200
            assert done["status"] == "done"
            assert done["source"] == "worker"
        assert rendezvous_engine() == 2

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
    def test_stop_with_a_lease_in_flight_leaks_no_worker(self, tiny_model,
                                                         sentences):
        """Leaving the service while a worker stalls mid-lease: stop()
        raises nothing, the waiter gets the typed shutting-down error,
        and no worker process outlives the service."""
        plan = FaultPlan(kind="stall", stall_seconds=3.0, max_faults=1)
        before = set(_children())

        async def main():
            config = self._config(workers=1, lease_timeout=1.0)
            with install_fault_plan(plan):
                async with serving(tiny_model, config=config) as (service,
                                                                  client):
                    status, ack = await client.submit(
                        submission(sentences[2]))
                    assert status == 202
                    waiter = asyncio.ensure_future(
                        service.wait_result(ack["key"], 30))
                    await asyncio.sleep(0.5)
            return await asyncio.wait_for(waiter, 5)

        answer = asyncio.run(main())
        assert answer["status"] == "error"
        assert answer["code"] == "shutting-down"
        time.sleep(2.0)
        assert not [pid for pid in _children()
                    if pid not in before and _running(pid)]


def _children():
    """PIDs whose parent is this process, from procfs."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                parent = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if parent == os.getpid():
            pids.append(int(name))
    return pids
