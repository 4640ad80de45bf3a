"""Certification-service soak: concurrent mixed-tenant queries, no hangs.

Starts a real :class:`repro.service.CertService` on an ephemeral port and
fires 50 queries (CI smoke scale) at it concurrently over HTTP from three
tenants. The workload deliberately mixes duplicates (exercising in-flight
dedup) with distinct queries, then injects one worker death to exercise
the IBP rescue rung. The soak asserts the service's acceptance criteria
before reporting numbers:

* every request resolves within its timeout — **zero hangs**;
* every certified radius is **bitwise identical** to a serial
  ``execute_query`` run of the same query;
* the metrics show **in-flight dedup** (> 0 hits);
* the injected fault resolves its waiter **degraded-or-error**, never
  silently and never as a full-precision answer.

Results land in ``benchmarks/results/BENCH_service.json`` (request latency
percentiles, dedup counters, the rescue outcome) and feed the
``service`` regression gates of ``python -m repro.experiments report``.

Run standalone (not through pytest):

    PYTHONPATH=src python benchmarks/soak_service.py [--quick]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import time

import numpy as np

from repro.faults import FaultPlan, install_fault_plan
from repro.nlp import make_corpus
from repro.nn import TransformerClassifier, train_transformer
from repro.scheduler.worker import execute_query
from repro.service import (CertService, ServiceClient, ServiceConfig,
                           parse_submission)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

TENANTS = ("acme", "globex", "initech")

# Cheap-but-real DeepT queries: the fast dot-product variant and a tight
# noise-symbol cap keep one query sub-second on the soak model.
QUERY_CONFIG = {"dot_product_variant": "fast", "noise_symbol_cap": 64}


def build_model(seed=0):
    """A small trained transformer (training cost stays out of the soak)."""
    corpus = make_corpus("sst-small", n_train=120, n_test=30, seed=1)
    model = TransformerClassifier(len(corpus.vocab), embed_dim=8,
                                  n_heads=2, hidden_dim=8, n_layers=2,
                                  max_len=16, seed=seed)
    train_transformer(model, corpus.train_sequences, corpus.train_labels,
                      epochs=2, lr=2e-3)
    return model, len(corpus.vocab)


def make_payloads(vocab_size, n_queries, n_distinct, length=6, seed=7):
    """``n_queries`` submissions cycling ``n_distinct`` same-length
    sentences across the tenants (duplicates dedup)."""
    rng = np.random.default_rng(seed)
    distinct = []
    seen = set()
    while len(distinct) < n_distinct + 1:  # +1 for the fault phase
        sentence = tuple(
            int(t) for t in rng.integers(1, vocab_size, size=length))
        if sentence not in seen:
            seen.add(sentence)
            distinct.append(sentence)
    fault_sentence, distinct = distinct[-1], distinct[:-1]

    def payload(sentence, tenant):
        return {"tenant": tenant, "sentence": list(sentence),
                "position": 1, "p": 2.0, "verifier": "deept",
                "config": dict(QUERY_CONFIG), "n_iterations": 2}

    payloads = [payload(distinct[i % n_distinct],
                        TENANTS[i % len(TENANTS)])
                for i in range(n_queries)]
    return payloads, payload(fault_sentence, TENANTS[0])


async def soak(model, payloads, fault_payload, wait_timeout=120.0):
    """Run the concurrent soak plus the fault phase against one service."""
    config = ServiceConfig(default_rate=200.0,
                           default_burst=max(64, len(payloads)),
                           degrade_fast_at=1000, degrade_ibp_at=1000,
                           reject_at=1000, query_timeout=wait_timeout)
    service = CertService(model, config=config)
    await service.start("127.0.0.1", 0)
    client = ServiceClient("127.0.0.1", service.port)
    latencies = []
    hangs = 0

    async def one(payload):
        nonlocal hangs
        start = time.perf_counter()
        _, ack = await client.submit(payload)
        if ack.get("status") == "done":
            latencies.append(time.perf_counter() - start)
            return ack
        try:
            _, done = await client.wait(ack["key"], timeout=wait_timeout)
        except asyncio.TimeoutError:
            hangs += 1
            return {"status": "hang", "key": ack.get("key")}
        latencies.append(time.perf_counter() - start)
        return done

    try:
        start = time.perf_counter()
        results = await asyncio.gather(*(one(p) for p in payloads))
        wall_seconds = time.perf_counter() - start

        # Fault phase: one injected worker death; the waiter must resolve
        # degraded-or-error within the deadline, never hang.
        plan = FaultPlan(kind="kill-worker", max_faults=1)
        with install_fault_plan(plan):
            rescue = await one(fault_payload)

        metrics = service.metrics_payload()
        model_hash = service.model_hash
    finally:
        await service.stop()
    return (results, rescue, metrics, model_hash, hangs, latencies,
            wall_seconds)


def run_soak(n_queries=50, n_distinct=8, quick=False):
    if quick:
        n_queries, n_distinct = 18, 4
    model, vocab_size = build_model()
    payloads, fault_payload = make_payloads(vocab_size, n_queries,
                                            n_distinct)
    print(f"soak: {n_queries} queries ({n_distinct} distinct) across "
          f"{len(TENANTS)} tenants + 1 injected fault")

    (results, rescue, metrics, model_hash, hangs, latencies,
     wall_seconds) = asyncio.run(soak(model, payloads, fault_payload))

    # Serial references: the pure engine on each distinct query.
    references = {}
    for payload in payloads:
        query, _ = parse_submission(payload, model_hash)
        if query.key() not in references:
            references[query.key()] = execute_query(model, query)[0]
    radii_identical = all(
        done.get("status") == "done"
        and done["radius"] == references[done["key"]]
        for done in results)

    counters = metrics["counters"]
    dedup_hits = counters.get("dedup_hits", 0) \
        + counters.get("result_hits", 0)
    rescue_resolved = (rescue.get("status") == "error"
                       or (rescue.get("status") == "done"
                           and rescue.get("degraded")))

    assert hangs == 0, f"{hangs} requests hung past their timeout"
    assert radii_identical, "service radii diverged from serial execution"
    assert dedup_hits > 0, "soak produced no dedup hits"
    assert rescue_resolved, \
        f"fault phase resolved unsoundly: {rescue.get('status')}"

    latencies = sorted(latencies)
    percentile = lambda q: float(np.percentile(latencies, q))  # noqa: E731
    print(f"soak    : {wall_seconds:.2f}s wall, p50 "
          f"{percentile(50):.2f}s, p95 {percentile(95):.2f}s, "
          f"hangs {hangs}")
    print(f"dedup   : {counters.get('dedup_hits', 0)} in-flight + "
          f"{counters.get('result_hits', 0)} answered, "
          f"{counters.get('executed_queries', 0)} executed")
    print(f"rescue  : {rescue.get('status')} "
          f"(degraded={rescue.get('degraded')}, "
          f"rung={rescue.get('qos_rung')})")

    return {
        "benchmark": "service",
        "model": "sst-small L2 soak",
        "n_queries": n_queries,
        "n_distinct": n_distinct,
        "n_tenants": len(TENANTS),
        "wall_seconds": wall_seconds,
        "latency_p50": percentile(50),
        "latency_p95": percentile(95),
        "latency_max": latencies[-1],
        "hangs": hangs,
        "radii_identical": radii_identical,
        "dedup_hits": int(counters.get("dedup_hits", 0)),
        "result_hits": int(counters.get("result_hits", 0)),
        "executed_queries": int(counters.get("executed_queries", 0)),
        "rescue_status": rescue.get("status"),
        "rescue_degraded": bool(rescue.get("degraded")),
        "rescue_resolved": rescue_resolved,
        "counters": {name: int(value) for name, value
                     in sorted(counters.items())},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller soak (local smoke mode)")
    parser.add_argument("--out", default=os.path.join(
        RESULTS_DIR, "BENCH_service.json"))
    args = parser.parse_args(argv)

    result = run_soak(quick=args.quick)
    result["quick"] = args.quick
    result["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
    print(f"wrote {args.out}")
    return result


if __name__ == "__main__":
    main()
