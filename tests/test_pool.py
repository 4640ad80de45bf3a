"""Tests for the supervised execution pool: leases, heartbeats, requeue,
poison quarantine, drain, and the scheduler integration behind
``workers > 0``.

Everything runs against the real fork-based fleet on the tiny model (each
query is a 3-iteration binary search, sub-second), with faults injected
parent-side through ``fault_lease_directives`` / ``fault_spawn_directive``
so the seeded accounting stays deterministic.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.faults import FaultPlan, install_fault_plan
from repro.scheduler import (CertScheduler, DrainedRun, PoisonedQueryError,
                             QueryOutcome, RunJournal, WorkerSupervisor,
                             expand_word_queries)
from repro.service import degrade_query, rung_for_query
from repro.verify import FAST, PRECISE

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervised pool requires the fork start method")


@pytest.fixture(scope="module")
def sentences(tiny_corpus):
    return [s for s in tiny_corpus.test_sequences if len(s) <= 8][:3]


@pytest.fixture(scope="module")
def queries(tiny_model, sentences):
    return expand_word_queries(
        tiny_model, sentences, 2.0, verifier="deept",
        config=FAST(noise_symbol_cap=64), n_positions=2, n_iterations=3)


@pytest.fixture(scope="module")
def serial_outcomes(tiny_model, queries):
    return CertScheduler(workers=0).run(tiny_model, queries)


def _supervised(**overrides):
    kwargs = dict(workers=2, lease_timeout=10.0, heartbeat_interval=0.1)
    kwargs.update(overrides)
    return CertScheduler(**kwargs)


class TestSupervisedMatchesSerial:
    def test_radii_bitwise_identical_and_sources_worker(
            self, tiny_model, queries, serial_outcomes):
        scheduler = _supervised()
        try:
            outcomes = scheduler.run(tiny_model, queries)
        finally:
            scheduler.close()
        assert [o.radius for o in outcomes] == \
            [o.radius for o in serial_outcomes]
        assert all(o.source == "worker" for o in outcomes)
        stats = scheduler.last_stats
        assert stats["executed"]["worker"] == len(queries)
        assert stats["supervised"]["leases"] == len(queries)
        assert stats["supervised"]["worker_deaths"] == 0

    def test_fleet_survives_run_boundaries(self, tiny_model, queries,
                                           serial_outcomes):
        """One supervisor serves several runs; workers stay leased-out,
        not respawned per run."""
        scheduler = _supervised()
        try:
            first = scheduler.run(tiny_model, queries[:2])
            second = scheduler.run(tiny_model, queries[2:])
        finally:
            scheduler.close()
        radii = [o.radius for o in first + second]
        assert radii == [o.radius for o in serial_outcomes]
        assert scheduler.last_stats["supervised"]["respawns"] == 0


class TestLeaseRequeue:
    def test_killed_worker_requeues_exactly_once(self, tiny_model, queries,
                                                 serial_outcomes):
        plan = FaultPlan(kind="kill-worker", probability=1.0, max_faults=1,
                        seed=3)
        scheduler = _supervised()
        try:
            with install_fault_plan(plan):
                outcomes = scheduler.run(tiny_model, queries)
        finally:
            scheduler.close()
        assert [o.radius for o in outcomes] == \
            [o.radius for o in serial_outcomes]
        supervised = scheduler.last_stats["supervised"]
        assert supervised["worker_deaths"] == 1
        assert supervised["lease_deaths"] == 1
        assert supervised["requeued_leases"] == 1
        assert supervised["respawns"] == 1
        assert supervised["poisoned_queries"] == 0
        retried = [o for o in outcomes if o.source == "worker-retry"]
        assert len(retried) == 1
        assert not retried[0].degraded  # a clean retry is full precision

    def test_heartbeat_suppressed_worker_detected_and_requeued(
            self, tiny_model, queries, serial_outcomes):
        """A worker that executes but sends nothing (partition) is killed
        on missed heartbeats; the lease completes elsewhere."""
        plan = FaultPlan(kind="heartbeat-suppress", probability=1.0,
                        max_faults=1, seed=0)
        scheduler = _supervised(lease_timeout=1.0)
        try:
            with install_fault_plan(plan):
                outcomes = scheduler.run(tiny_model, queries)
        finally:
            scheduler.close()
        assert [o.radius for o in outcomes] == \
            [o.radius for o in serial_outcomes]
        supervised = scheduler.last_stats["supervised"]
        assert supervised["lease_timeouts"] >= 1
        assert supervised["requeued_leases"] >= 1

    def test_stalled_worker_killed_before_stall_ends(self, tiny_model,
                                                     queries,
                                                     serial_outcomes):
        """Heartbeats with frozen progress do NOT extend the lease: a 60s
        stall dies at the 1s lease deadline, not after the sleep."""
        plan = FaultPlan(kind="stall", stall_seconds=60.0, probability=1.0,
                        max_faults=1, seed=0)
        scheduler = _supervised(lease_timeout=1.0)
        start = time.monotonic()
        try:
            with install_fault_plan(plan):
                outcomes = scheduler.run(tiny_model, queries)
        finally:
            scheduler.close()
        wall = time.monotonic() - start
        assert wall < 30.0, f"stall was not preempted ({wall:.1f}s)"
        assert [o.radius for o in outcomes] == \
            [o.radius for o in serial_outcomes]
        assert scheduler.last_stats["supervised"]["lease_timeouts"] >= 1

    def test_slow_but_alive_worker_is_not_killed(self, tiny_model,
                                                 queries):
        """Progress-bearing heartbeats extend the deadline: a query whose
        wall time exceeds the lease timeout still completes, because the
        worker keeps proving progress."""
        slow = dataclasses.replace(queries[0], n_iterations=12)
        serial = CertScheduler(workers=0)
        start = time.monotonic()
        reference = serial.run(tiny_model, [slow])[0]
        serial_wall = time.monotonic() - start
        lease = max(0.3, serial_wall / 2)  # strictly under the wall time
        scheduler = _supervised(lease_timeout=lease,
                                heartbeat_interval=0.05)
        try:
            outcomes = scheduler.run(tiny_model, [slow])
        finally:
            scheduler.close()
        assert outcomes[0].radius == reference.radius
        # No false-positive kills of a worker that was merely slow.
        assert scheduler.last_stats["supervised"]["worker_deaths"] == 0
        assert scheduler.last_stats["supervised"]["lease_timeouts"] == 0

    def test_verifier_that_records_nothing_is_not_killed(
            self, tiny_model, sentences, monkeypatch):
        """CROWN records no counter or span of its own; the probe count of
        execute_query alone must keep its lease alive. Each probe here
        takes 0.2 s, so the query outlives the 0.6 s lease only by
        proving progress probe by probe."""
        from repro.baselines.crown import CrownVerifier

        real = CrownVerifier.certify_word_perturbation

        def slow(self, *args, **kwargs):
            time.sleep(0.2)
            return real(self, *args, **kwargs)

        # Patched before the fleet forks, so the worker runs it too.
        monkeypatch.setattr(CrownVerifier, "certify_word_perturbation",
                            slow)
        query = expand_word_queries(
            tiny_model, sentences[:1], 2.0, verifier="crown",
            backsub_depth=1, n_positions=1, n_iterations=3)[0]
        start = time.monotonic()
        reference = CertScheduler(workers=0).run(tiny_model, [query])[0]
        assert time.monotonic() - start > 2 * 0.6  # outlives the lease
        scheduler = _supervised(workers=1, lease_timeout=0.6,
                                heartbeat_interval=0.05)
        try:
            outcome = scheduler.run(tiny_model, [query])[0]
        finally:
            scheduler.close()
        assert outcome.source == "worker"
        assert not outcome.degraded
        assert outcome.radius == reference.radius
        assert scheduler.last_stats["supervised"]["lease_timeouts"] == 0


class TestPoisonQuarantine:
    def test_poison_query_lands_on_ibp_floor_under_twin_key(
            self, tiny_model, queries, serial_outcomes, tmp_path):
        poison = queries[1]
        plan = FaultPlan(kind="kill-worker", probability=0.0, max_faults=0,
                        seed=0, poison_key=poison.key())
        journal_path = str(tmp_path / "journal.jsonl")
        cache_dir = str(tmp_path / "cache")
        scheduler = _supervised(journal=RunJournal(journal_path),
                                cache_dir=cache_dir)
        try:
            with install_fault_plan(plan):
                outcomes = scheduler.run(tiny_model, queries)
        finally:
            scheduler.close()

        poisoned = outcomes[1]
        assert poisoned.source == "poisoned"
        assert poisoned.degraded is True
        assert "PoisonedQueryError" in poisoned.fault
        assert poisoned.fallback_chain[-1] == "ibp"
        assert poisoned.query.key() == poison.key()
        # IBP never flips uncertified -> certified: the quarantined
        # radius is no looser than the full-precision answer.
        assert poisoned.radius <= serial_outcomes[1].radius
        others = [o.radius for i, o in enumerate(outcomes) if i != 1]
        assert others == [o.radius for i, o in
                          enumerate(serial_outcomes) if i != 1]
        supervised = scheduler.last_stats["supervised"]
        assert supervised["poisoned_queries"] == 1
        assert supervised["lease_deaths"] == scheduler.poison_threshold

        # Journal and cache hold the answer ONLY under the rewritten IBP
        # key — the poisoned radius can never impersonate the original.
        twin = dataclasses.replace(poison, verifier="ibp")
        with open(journal_path) as f:
            journaled = {json.loads(line)["key"] for line in f if
                         line.strip()}
        assert poison.key() not in journaled
        assert twin.key() in journaled
        cache = scheduler.cache
        assert cache.get(poison) is None
        twin_entry = cache.get(twin)
        assert twin_entry is not None and twin_entry["degraded"] is True

    def test_circuit_breaker_answers_repeat_offender_without_leasing(
            self, tiny_model, queries):
        """Once poisoned, a key never touches a worker again — the memoized
        quarantine answer is served in-process."""
        poison = queries[0]
        plan = FaultPlan(kind="kill-worker", probability=0.0, max_faults=0,
                        seed=0, poison_key=poison.key())
        scheduler = _supervised()
        try:
            with install_fault_plan(plan):
                first = scheduler.run(tiny_model, [poison])
                before = dict(scheduler._supervisor.stats)
                second = scheduler.run(tiny_model, [poison])
                after = scheduler._supervisor.stats
        finally:
            scheduler.close()
        assert first[0].source == "poisoned"
        assert second[0].source == "poisoned"
        assert second[0].radius == first[0].radius
        assert after["leases"] == before["leases"]  # no new lease
        assert after["worker_deaths"] == before["worker_deaths"]

    def test_poisoned_chain_follows_the_qos_rung_rule(self, tiny_model,
                                                      sentences):
        """A Precise-variant DeepT query sits at the "full" rung; its
        poisoned answer says so and lands under the ``degrade_query`` IBP
        twin."""
        query, = expand_word_queries(
            tiny_model, sentences[:1], 2.0, verifier="deept",
            config=PRECISE(noise_symbol_cap=64),
            n_positions=1, n_iterations=3)
        assert rung_for_query(query) == "full"
        plan = FaultPlan(kind="kill-worker", probability=0.0, max_faults=0,
                         seed=0, poison_key=query.key())
        supervisor = WorkerSupervisor(tiny_model, workers=1,
                                      lease_timeout=10.0,
                                      heartbeat_interval=0.1)
        try:
            with install_fault_plan(plan):
                result, = supervisor.run([query])
        finally:
            supervisor.stop()
        assert result.source == "poisoned"
        assert result.fallback_chain == ("full", "ibp")
        assert result.executed_query == degrade_query(query, "ibp")
        assert result.executed_query.key() != query.key()

    def test_poisoned_query_error_detail(self):
        error = PoisonedQueryError("deadbeef" * 8, kills=2)
        assert error.key == "deadbeef" * 8
        assert error.kills == 2
        assert "killed its worker 2x" in str(error)


class TestRespawnStorm:
    def test_boot_kill_storm_disables_slots_and_falls_back(
            self, tiny_model, queries, serial_outcomes):
        """Every spawn dies at boot: backoff respawns, then dead-slot
        accounting, then the run completes in-process — never a hang,
        never a poisoned innocent query."""
        plan = FaultPlan(kind="boot-kill", probability=1.0, seed=0)
        scheduler = _supervised(lease_timeout=5.0)
        try:
            with install_fault_plan(plan):
                outcomes = scheduler.run(tiny_model, queries)
        finally:
            scheduler.close()
        assert [o.radius for o in outcomes] == \
            [o.radius for o in serial_outcomes]
        assert all(o.source == "inprocess" for o in outcomes)
        supervised = scheduler.last_stats["supervised"]
        assert supervised["dead_slots"] == 2
        assert supervised["respawns"] >= 2  # exponential backoff ran
        assert supervised["poisoned_queries"] == 0
        assert supervised["fallbacks"] == 1


class TestDrain:
    def test_drain_keeps_completed_and_reports_remaining(self, tiny_model,
                                                         queries,
                                                         tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        scheduler = _supervised(journal=RunJournal(journal_path),
                                drain_timeout=10.0)
        many = queries * 4  # enough work that the drain lands mid-run
        # Journal replay dedups repeats; use distinct n_iterations twins.
        many = [dataclasses.replace(q, n_iterations=3 + i // len(queries))
                for i, q in enumerate(many)]
        timer = threading.Timer(0.4, scheduler.request_drain)
        timer.start()
        try:
            with pytest.raises(DrainedRun) as drained:
                scheduler.run(tiny_model, many)
        finally:
            timer.cancel()
            scheduler.close()
        completed = drained.value.completed
        remaining = drained.value.remaining
        assert len(completed) + len(remaining) == len(many)
        assert len(completed) > 0  # something finished before the drain
        assert len(remaining) > 0  # and the tail was left for --resume
        # Everything completed is durably journaled; nothing else is.
        with open(journal_path) as f:
            journaled = {json.loads(line)["key"] for line in f
                         if line.strip()}
        assert {r.query.key() for r in completed} <= journaled
        assert not ({q.key() for q in remaining} & journaled)

    def test_resume_after_drain_recomputes_only_the_remainder(
            self, tiny_model, queries, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        work = [dataclasses.replace(q, n_iterations=3 + i // len(queries))
                for i, q in enumerate(queries * 3)]
        scheduler = _supervised(journal=RunJournal(journal_path),
                                drain_timeout=10.0)
        timer = threading.Timer(0.3, scheduler.request_drain)
        timer.start()
        try:
            with pytest.raises(DrainedRun) as drained:
                scheduler.run(tiny_model, work)
        finally:
            timer.cancel()
            scheduler.close()
        n_completed = len(drained.value.completed)

        resumed = CertScheduler(
            workers=2, lease_timeout=10.0, heartbeat_interval=0.1,
            journal=RunJournal(journal_path, resume=True))
        try:
            outcomes = resumed.run(tiny_model, work)
        finally:
            resumed.close()
        serial = CertScheduler(workers=0).run(tiny_model, work)
        assert [o.radius for o in outcomes] == [o.radius for o in serial]
        assert resumed.last_stats["journal_hits"] == n_completed

    def test_cli_sigterm_drains_only_a_pooled_run(self, tiny_model,
                                                  queries):
        """The CLI's SIGTERM handler drains a pooled run in flight; at any
        other time it exits at once instead of deferring the signal."""
        import signal

        from repro.experiments.__main__ import _drain_on_sigterm
        scheduler = _supervised(drain_timeout=10.0)
        handler = _drain_on_sigterm(scheduler, 10.0)
        with pytest.raises(SystemExit) as exited:
            handler(signal.SIGTERM, None)
        assert exited.value.code == 128 + signal.SIGTERM
        work = [dataclasses.replace(q, n_iterations=3 + i // len(queries))
                for i, q in enumerate(queries * 3)]
        timer = threading.Timer(0.3, handler, (signal.SIGTERM, None))
        timer.start()
        try:
            with pytest.raises(DrainedRun):
                scheduler.run(tiny_model, work)
        finally:
            timer.cancel()
            scheduler.close()
        assert not scheduler.pooled_run_active


class TestSupervisorEdges:
    def test_worker_exception_retries_on_a_live_fleet(self, tiny_model,
                                                      queries,
                                                      monkeypatch,
                                                      tmp_path):
        """An engine raise inside a worker (not a death) is reported as a
        typed error message, retried once, and the fleet stays alive —
        no kill, no respawn."""
        import repro.scheduler.worker as worker_mod
        real = worker_mod.execute_query
        flag = str(tmp_path / "raised-once")

        def flaky(model, query):
            import os
            if not os.path.exists(flag):
                open(flag, "w").close()
                raise RuntimeError("transient engine failure")
            return real(model, query)

        # Patch before the fleet forks so workers inherit the flaky engine.
        monkeypatch.setattr(worker_mod, "execute_query", flaky)
        supervisor = WorkerSupervisor(tiny_model, workers=1,
                                      heartbeat_interval=0.1,
                                      lease_timeout=10.0)
        try:
            results = supervisor.run([queries[0]])
            stats = dict(supervisor.stats)
        finally:
            supervisor.stop()
        assert isinstance(results[0], QueryOutcome)
        assert results[0].source == "worker-retry"
        assert stats["leases"] == 2  # the query's two attempts
        assert stats["errored_leases"] == 1
        assert stats["worker_deaths"] == 0
        assert stats["respawns"] == 0
        reference = CertScheduler(workers=0).run(tiny_model, [queries[0]])
        assert results[0].radius == reference[0].radius

    def test_supervisor_requires_at_least_one_worker(self, tiny_model):
        with pytest.raises(ValueError):
            WorkerSupervisor(tiny_model, workers=0)

    def test_creation_failure_falls_back_inprocess(self, tiny_model,
                                                   queries, monkeypatch):
        """No usable multiprocessing context: the pooled scheduler
        degrades to the serial path instead of raising."""
        import repro.scheduler.scheduler as sched_mod

        class BrokenContext:
            def get_context(self, method):
                raise OSError("no fork for you")

            def get_all_start_methods(self):
                return ["fork"]

        monkeypatch.setattr(sched_mod, "multiprocessing", BrokenContext())
        scheduler = CertScheduler(workers=2)
        outcomes = scheduler.run(tiny_model, queries[:2])
        assert all(o.source == "inprocess" for o in outcomes)
        assert scheduler.last_stats["fallbacks"] == 1


class TestConcurrentCallers:
    """``run``/``run_batch`` are thread-safe: every caller hands its
    queries to the one lease loop and gets back only its own answers."""

    @staticmethod
    def _in_threads(target, jobs, timeout=60.0):
        """``target(job)`` on one thread per job; bounded joins."""
        answers = [None] * len(jobs)

        def call(index):
            try:
                answers[index] = target(jobs[index])
            except BaseException as error:  # re-raised below
                answers[index] = error

        threads = [threading.Thread(target=call, args=(i,), daemon=True)
                   for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        assert not any(t.is_alive() for t in threads), \
            "a caller was never answered"
        return answers

    def test_three_callers_share_one_worker(self, tiny_model, queries,
                                            serial_outcomes):
        supervisor = WorkerSupervisor(tiny_model, workers=1,
                                      lease_timeout=10.0,
                                      heartbeat_interval=0.1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the callers' threads
        try:
            answers = self._in_threads(
                lambda query: supervisor.run_batch([query])[0],
                queries[:3])
        finally:
            sys.setswitchinterval(interval)
            supervisor.stop()
        assert [a.radius for a in answers] == \
            [o.radius for o in serial_outcomes[:3]]
        assert [a.query for a in answers] == queries[:3]

    def test_two_callers_lease_both_workers_at_once(
            self, tiny_model, queries, serial_outcomes, rendezvous_engine):
        supervisor = WorkerSupervisor(tiny_model, workers=2,
                                      lease_timeout=10.0,
                                      heartbeat_interval=0.1)
        try:
            answers = self._in_threads(
                lambda query: supervisor.run_batch([query])[0],
                queries[:2])
            stats = dict(supervisor.stats)
        finally:
            supervisor.stop()
        assert [a.source for a in answers] == ["worker", "worker"]
        assert [a.radius for a in answers] == \
            [o.radius for o in serial_outcomes[:2]]
        assert stats["leases"] == 2
        assert stats["duplicate_results_dropped"] == 0
        assert rendezvous_engine() == 2  # both leases were in flight

    def test_drain_hands_each_caller_its_own_remainder(self, tiny_model,
                                                       queries):
        work = [dataclasses.replace(q, n_iterations=3 + i // len(queries))
                for i, q in enumerate(queries * 4)]
        shares = [work[0::2], work[1::2]]
        supervisor = WorkerSupervisor(tiny_model, workers=2,
                                      lease_timeout=10.0,
                                      heartbeat_interval=0.1,
                                      drain_timeout=10.0)

        def drain_once_leased():
            deadline = time.monotonic() + 30.0
            while supervisor.stats["leases"] < 2 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            supervisor.request_drain()

        timer = threading.Thread(target=drain_once_leased, daemon=True)
        timer.start()
        try:
            answers = self._in_threads(supervisor.run, shares)
        finally:
            timer.join(30.0)
            supervisor.stop()
        for share, drained in zip(shares, answers):
            assert isinstance(drained, DrainedRun)
            assert sorted([q.key() for q in drained.remaining]
                          + [o.query.key() for o in drained.completed]) \
                == sorted(q.key() for q in share)
        assert any(drained.remaining for drained in answers)

    def test_stopped_supervisor_fails_a_late_caller(self, tiny_model,
                                                    queries):
        supervisor = WorkerSupervisor(tiny_model, workers=1)
        supervisor.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            supervisor.run_batch(queries[:1])


def _running(pid):
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
class TestOrphanedWorkers:
    HEARTBEAT = 0.1

    def test_workers_exit_when_parent_is_sigkilled(self):
        """A SIGKILLed parent sends no EOF (each worker holds inherited
        parent-side pipe ends), so the workers must notice the parent's
        death themselves, within a few heartbeats."""
        script = (
            "import time\n"
            "from repro.scheduler.pool import WorkerSupervisor\n"
            f"sup = WorkerSupervisor(object(), workers=2,\n"
            f"                       heartbeat_interval={self.HEARTBEAT})\n"
            "sup.start()\n"
            "for slot in sup._slots:\n"
            "    assert slot.conn.recv()[0] == 'ready'\n"
            "print(*(slot.process.pid for slot in sup._slots), flush=True)\n"
            "time.sleep(120)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
            + ([os.environ["PYTHONPATH"]]
               if os.environ.get("PYTHONPATH") else [])))
        parent = subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, text=True)
        pids = []
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2 and all(map(_running, pids))
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=10)
            deadline = time.monotonic() + 20 * self.HEARTBEAT
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(self.HEARTBEAT / 4)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait(timeout=10)
            parent.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
