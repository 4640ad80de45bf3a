"""Supervised-pool soak: injected worker deaths, one poison, SIGTERM drain.

Exercises the :class:`repro.scheduler.pool.WorkerSupervisor` the way an
operator would meet it on a bad day. The parent process builds a
deterministic workload of mixed certification queries (DeepT fast at two
iteration depths plus a few IBP-floor queries), computes serial reference
radii, then runs the *same script* twice as a child process with a fault
plan in ``REPRO_FAULT_PLAN``:

* a **victim** query whose first lease is killed (``target_key`` +
  ``max_faults=1`` — exactly one injected death, requeued once);
* a **poison** query whose every lease is killed (``poison_key``), so it
  crosses the quarantine threshold and is answered from the IBP floor
  under its rewritten twin key.

Phase A is SIGTERM'd once the journal shows real progress: the child must
drain gracefully (finish in-flight leases, flush the journal, exit 0).
Phase B restarts with ``--resume`` and must answer everything, recomputing
only what the drain left behind. The soak then asserts the PR's acceptance
criteria before reporting numbers:

* **zero hangs** — both phases exit within their deadlines and every
  query resolves;
* non-poisoned radii **bitwise identical** to serial execution;
* **>= 3 injected worker deaths**, every one requeued or poisoned
  (``lease_deaths == requeued_leases + poisoned_queries``);
* the poison answered **only** from the IBP rung under its rewritten key
  (original key absent from journal and results-by-key check);
* drain + ``--resume`` lose **zero** accepted queries.

Results land in ``benchmarks/results/BENCH_pool.json`` and feed the
``pool`` regression gates of ``python -m repro.experiments report``.

Run standalone (not through pytest):

    PYTHONPATH=src python benchmarks/soak_pool.py [--quick]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

from repro.faults import FaultPlan
from repro.nlp import make_corpus
from repro.nn import TransformerClassifier, train_transformer
from repro.scheduler import (CertScheduler, DrainedRun, RunJournal,
                             expand_word_queries)
from repro.scheduler.worker import execute_query
from repro.verify import FAST

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

STATS_MARKER = "SOAK_STATS "

# Positions in the deterministic workload: the poison query (every lease
# killed -> quarantined) and the victim (killed exactly once -> requeued).
POISON_INDEX = 3
VICTIM_INDEX = 10


def build_workload(quick=False):
    """Deterministic (model, queries): identical in parent and children."""
    corpus = make_corpus("sst-small", n_train=120, n_test=30, seed=1)
    model = TransformerClassifier(len(corpus.vocab), embed_dim=8,
                                  n_heads=2, hidden_dim=8, n_layers=2,
                                  max_len=16, seed=0)
    train_transformer(model, corpus.train_sequences, corpus.train_labels,
                      epochs=2, lr=2e-3)
    sentences = [s for s in corpus.test_sequences if len(s) >= 4][:13]
    base = expand_word_queries(
        model, sentences, 2.0, verifier="deept",
        config=FAST(noise_symbol_cap=64), n_positions=2, n_iterations=2)
    # Mixed workload: two DeepT iteration depths plus a few IBP queries.
    deeper = [dataclasses.replace(q, n_iterations=3) for q in base[:20]]
    floor = [dataclasses.replace(q, verifier="ibp") for q in base[20:24]]
    work = list(base) + deeper + floor  # 26 + 20 + 4 = 50
    if not quick:
        work += [dataclasses.replace(q, n_iterations=4) for q in base[:20]]
    return model, work


def serial_references(model, work):
    """{key: radius} from the pure serial engine (the bitwise oracle)."""
    outcomes = CertScheduler(workers=0).run(model, work)
    return {q.key(): o.radius for q, o in zip(work, outcomes)}


# ------------------------------------------------------------------ child

def run_child(args):
    """One soak phase: a supervised run that drains on SIGTERM."""
    model, work = build_workload(quick=args.quick)
    scheduler = CertScheduler(
        workers=2, lease_timeout=15.0,
        heartbeat_interval=0.1, drain_timeout=args.drain_timeout,
        journal=RunJournal(args.journal, resume=args.resume))

    def on_sigterm(signum, frame):
        scheduler.request_drain(args.drain_timeout)

    signal.signal(signal.SIGTERM, on_sigterm)

    report = {"drained": False, "n_outcomes": 0, "journal_hits": 0}
    try:
        outcomes = scheduler.run(model, work)
        report["n_outcomes"] = len(outcomes)
        report["journal_hits"] = scheduler.last_stats.get(
            "journal_hits", 0)
    except DrainedRun as drained:
        report["drained"] = True
        report["n_completed"] = len(drained.completed)
        report["n_remaining"] = len(drained.remaining)
    finally:
        supervisor = scheduler._supervisor
        if supervisor is not None:
            report["supervisor"] = {name: int(value) for name, value
                                    in sorted(supervisor.stats.items())}
            report["drain_seconds"] = supervisor.drain_seconds
        scheduler.close()
    print(STATS_MARKER + json.dumps(report), flush=True)
    return 0


# ----------------------------------------------------------------- parent

def _spawn_phase(journal, quick, drain_timeout, resume, env):
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--journal", journal, "--drain-timeout", str(drain_timeout)]
    if quick:
        command.append("--quick")
    if resume:
        command.append("--resume")
    return subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def _finish_phase(process, timeout, label):
    """Wait for a phase; a deadline miss is the hang the soak rules out."""
    try:
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        output, _ = process.communicate()
        raise AssertionError(
            f"{label} hung past {timeout}s (a drain or lease deadline "
            f"failed to fire):\n{output}")
    if process.returncode != 0:
        raise AssertionError(f"{label} exited {process.returncode}:\n"
                             f"{output}")
    for line in output.splitlines():
        if line.startswith(STATS_MARKER):
            return json.loads(line[len(STATS_MARKER):]), output
    raise AssertionError(f"{label} printed no {STATS_MARKER!r} line:\n"
                         f"{output}")


def _wait_for_journal(path, n_lines, process, timeout=300.0):
    """Block until the journal holds ``n_lines`` entries (real progress)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            output, _ = process.communicate()
            raise AssertionError(
                f"phase A exited before the SIGTERM could be sent:\n"
                f"{output}")
        try:
            with open(path) as f:
                if sum(1 for line in f if line.strip()) >= n_lines:
                    return
        except FileNotFoundError:
            pass
        time.sleep(0.05)
    raise AssertionError(f"journal never reached {n_lines} entries")


def _read_journal(path):
    entries = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final line from a crash; replay skips too
            entries[record["key"]] = record
    return entries


def run_soak(quick=False, drain_timeout=30.0,
             journal=None, keep_journal=False):
    start = time.perf_counter()
    model, work = build_workload(quick=quick)
    poison, victim = work[POISON_INDEX], work[VICTIM_INDEX]
    twin = dataclasses.replace(poison, verifier="ibp")
    print(f"soak: {len(work)} mixed queries, victim {victim.key()[:12]} "
          f"(1 injected kill), poison {poison.key()[:12]} (every lease "
          f"killed)")
    references = serial_references(model, work)
    twin_reference = execute_query(model, twin)[0]

    plan = FaultPlan(kind="kill-worker", probability=1.0, max_faults=1,
                     seed=0, target_key=victim.key(),
                     poison_key=poison.key())
    env = dict(os.environ)
    env["REPRO_FAULT_PLAN"] = plan.to_env()
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")

    journal = journal or os.path.join(
        RESULTS_DIR, f"soak_pool_journal_{os.getpid()}.jsonl")
    os.makedirs(os.path.dirname(journal), exist_ok=True)
    if os.path.exists(journal):
        os.remove(journal)

    # Phase A: run until the journal shows real progress, then SIGTERM.
    phase_a = _spawn_phase(journal, quick, drain_timeout, resume=False,
                           env=env)
    _wait_for_journal(journal, 5, phase_a)
    phase_a.send_signal(signal.SIGTERM)
    stats_a, _ = _finish_phase(phase_a, drain_timeout + 120,
                               "phase A (drain)")
    assert stats_a["drained"], \
        "SIGTERM mid-soak did not surface as a graceful drain"

    # Phase B: --resume over the same journal; must finish everything.
    phase_b = _spawn_phase(journal, quick, drain_timeout, resume=True,
                           env=env)
    stats_b, _ = _finish_phase(phase_b, 600, "phase B (--resume)")
    assert not stats_b["drained"]
    assert stats_b["n_outcomes"] == len(work), \
        f"resume answered {stats_b['n_outcomes']}/{len(work)} queries"

    entries = _read_journal(journal)
    if not keep_journal:
        os.remove(journal)

    # Radii: every non-poisoned key present and bitwise identical.
    missing = [q.key() for q in work
               if q.key() != poison.key() and q.key() not in entries]
    mismatched = [q.key() for q in work
                  if q.key() != poison.key() and q.key() in entries
                  and entries[q.key()]["radius"] != references[q.key()]]
    radii_identical = not missing and not mismatched
    zero_loss = not missing

    # Poison: answered only from the IBP floor under the rewritten key.
    twin_entry = entries.get(twin.key())
    poison_quarantined = (
        poison.key() not in entries
        and twin_entry is not None
        and twin_entry["degraded"] is True
        and twin_entry["source"] == "poisoned"
        and twin_entry["radius"] == twin_reference
        and twin_entry["radius"] <= references[poison.key()])

    # Fault accounting, summed over both phases: every injected death was
    # either requeued or crossed the poison threshold; nothing vanished.
    def total(name):
        return (stats_a.get("supervisor", {}).get(name, 0)
                + stats_b.get("supervisor", {}).get(name, 0))

    worker_deaths = total("worker_deaths")
    lease_deaths = total("lease_deaths")
    requeued = total("requeued_leases")
    poisoned = total("poisoned_queries")
    errored = total("errored_leases")
    deaths_accounted = (lease_deaths == requeued + poisoned
                        and errored == 0)

    wall_seconds = time.perf_counter() - start
    hangs = 0  # _finish_phase raises on any deadline miss

    assert hangs == 0
    assert radii_identical, (
        f"radii diverged from serial: missing={missing[:3]} "
        f"mismatched={mismatched[:3]}")
    assert worker_deaths >= 3, \
        f"only {worker_deaths} injected worker deaths (need >= 3)"
    assert deaths_accounted, (
        f"death accounting broken: {lease_deaths} lease deaths vs "
        f"{requeued} requeued + {poisoned} poisoned ({errored} errored)")
    assert poisoned >= 1 and poison_quarantined, \
        "poison query was not quarantined to the IBP floor"
    assert zero_loss, f"{len(missing)} accepted queries lost across " \
                      f"drain + --resume"

    print(f"soak    : {wall_seconds:.1f}s wall, {len(work)} queries, "
          f"{hangs} hangs")
    print(f"faults  : {worker_deaths} worker deaths "
          f"({lease_deaths} on leases) -> {requeued} requeued, "
          f"{poisoned} poisoned")
    print(f"drain   : phase A completed {stats_a.get('n_completed')} / "
          f"left {stats_a.get('n_remaining')} "
          f"(drain {stats_a.get('drain_seconds')}s); resume replayed "
          f"{stats_b.get('journal_hits')} from the journal")

    return {
        "benchmark": "pool",
        "model": "sst-small L2 soak",
        "n_queries": len(work),
        "wall_seconds": wall_seconds,
        "hangs": hangs,
        "radii_identical": radii_identical,
        "worker_deaths": worker_deaths,
        "lease_deaths": lease_deaths,
        "requeued_leases": requeued,
        "poisoned_queries": poisoned,
        "deaths_accounted": deaths_accounted,
        "poison_quarantined": poison_quarantined,
        "zero_loss": zero_loss,
        "drain": {
            "drained": stats_a["drained"],
            "n_completed": stats_a.get("n_completed"),
            "n_remaining": stats_a.get("n_remaining"),
            "drain_seconds": stats_a.get("drain_seconds"),
        },
        "resume": {
            "journal_hits": stats_b.get("journal_hits"),
            "n_outcomes": stats_b.get("n_outcomes"),
        },
        "phase_a": stats_a.get("supervisor"),
        "phase_b": stats_b.get("supervisor"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="acceptance scale (50 queries)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--resume", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--journal", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--drain-timeout", type=float, default=30.0)
    parser.add_argument("--out", default=os.path.join(
        RESULTS_DIR, "BENCH_pool.json"))
    args = parser.parse_args(argv)

    if args.child:
        return run_child(args)

    result = run_soak(quick=args.quick, drain_timeout=args.drain_timeout)
    result["quick"] = args.quick
    result["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
