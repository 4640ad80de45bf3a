"""Trace-layer overhead benchmark: disabled hooks must be (near) free.

Three phases, mirroring ``bench_guard_overhead.py``:

1. **disabled overhead** — the per-hook cost of an idle tracer (one
   attribute check) is measured directly on a microbenchmark, multiplied
   by the spans-per-propagation census of a real traced run, and compared
   against the untraced propagation wall time. The budget is <= 2%; the
   indirect estimate is used because end-to-end wall-clock deltas on a
   shared single-CPU container are noisier than the effect being measured.
2. **result invariance** — certified radii with tracing enabled are
   *identical* (==, not approx) to an untraced run, serial and parallel:
   the tracer only ever reads zonotope statistics through pure queries.
3. **merge determinism** — a ``--workers 2`` traced run produces exactly
   the serial run's spans (modulo wall-time fields), merged in
   deterministic query-key order.

Run standalone (not through pytest):

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py [--quick]
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import time

import numpy as np

from repro.experiments.harness import (SCALE, evaluation_sentences,
                                       get_transformer)
from repro.scheduler import CertScheduler, expand_word_queries
from repro.trace import TRACER, traced
from repro.verify import DeepTVerifier, FAST, word_perturbation_region

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

OVERHEAD_BUDGET = 0.02  # disabled tracing may cost at most 2%


# --------------------------------------------------------- phase 1: overhead
def measure_hook_cost(n_calls=200_000):
    """Per-call cost (seconds) of a disabled @traced hook vs the bare
    function, on a no-op — an upper bound on what every production hook
    pays per application when tracing is off."""

    def bare(z):
        return z

    hooked = traced("noop")(bare)
    TRACER.disable()

    def time_calls(fn):
        start = time.perf_counter()
        for _ in range(n_calls):
            fn(None)
        return time.perf_counter() - start

    # Interleave and keep the best of 3 to shed scheduler noise.
    bare_seconds = min(time_calls(bare) for _ in range(3))
    hooked_seconds = min(time_calls(hooked) for _ in range(3))
    return max(hooked_seconds - bare_seconds, 0.0) / n_calls


def measure_propagation(verifier, region, true_label, repeats):
    """(untraced seconds per propagation, spans per propagation, margin)."""
    result = verifier.certify_region(region, true_label)  # warm-up
    start = time.perf_counter()
    for _ in range(repeats):
        verifier.certify_region(region, true_label)
    untraced_seconds = (time.perf_counter() - start) / repeats

    with TRACER.collecting() as tracer:
        traced_result = verifier.certify_region(region, true_label)
    assert traced_result.margin_lower == result.margin_lower, \
        "tracing changed a certification margin"
    return untraced_seconds, len(tracer.spans), result.margin_lower


# ------------------------------------------------- phases 2 + 3: equivalence
def strip_seconds(spans):
    return [{k: v for k, v in s.items() if k != "seconds"} for s in spans]


def run_scheduler(model, queries, workers, trace):
    scheduler = CertScheduler(workers=workers)
    try:
        if trace:
            with TRACER.collecting() as tracer:
                outcomes = scheduler.run(model, queries)
            return [o.radius for o in outcomes], tracer.snapshot()
        outcomes = scheduler.run(model, queries)
        return [o.radius for o in outcomes], None
    finally:
        scheduler.close()


def run_benchmark(quick=False):
    n_layers = 2 if quick else 3
    repeats = 3 if quick else 5
    model, dataset, _ = get_transformer("sst-small", n_layers=n_layers)
    sentences = evaluation_sentences(model, dataset, 1)
    config = FAST(noise_symbol_cap=SCALE.noise_symbol_cap)
    verifier = DeepTVerifier(model, config)
    token_ids = list(sentences[0])
    true_label = model.predict(token_ids)
    region = word_perturbation_region(model, token_ids, 1, 0.01, 2.0)

    # Phase 1: disabled-tracing overhead estimate.
    hook_cost = measure_hook_cost()
    untraced_seconds, spans_per_prop, _ = measure_propagation(
        verifier, region, true_label, repeats)
    overhead = hook_cost * spans_per_prop / untraced_seconds
    print(f"disabled hook: {hook_cost * 1e9:.0f}ns/call x "
          f"{spans_per_prop} hooks = "
          f"{hook_cost * spans_per_prop * 1e6:.1f}us per "
          f"{untraced_seconds * 1e3:.0f}ms propagation "
          f"({overhead:.4%} overhead)")
    assert overhead <= OVERHEAD_BUDGET, \
        f"disabled tracing overhead {overhead:.4%} exceeds " \
        f"{OVERHEAD_BUDGET:.0%}"

    # Phase 2 + 3: identical radii and deterministic span merging.
    queries = expand_word_queries(
        model, sentences, 2.0, verifier="deept", config=config,
        n_positions=2, n_iterations=2 if quick else 3)
    base_radii, _ = run_scheduler(model, queries, 0, trace=False)
    serial_radii, serial_spans = run_scheduler(model, queries, 0,
                                               trace=True)
    pool_radii, pool_spans = run_scheduler(model, queries, 2, trace=True)
    assert base_radii == serial_radii == pool_radii, \
        "tracing or parallelism changed certified radii"
    assert strip_seconds(serial_spans) == strip_seconds(pool_spans), \
        "worker trace merge is not deterministic"
    print(f"radii identical across untraced/serial/parallel: "
          f"{len(queries)} queries, {len(serial_spans)} spans each run")

    # Span census: exactly one span per abstract-transformer application.
    per_query = collections.Counter(
        s["op"] for s in serial_spans
        if s["query"] == queries[0].key())
    propagations = per_query["tanh"]  # one tanh per propagation
    assert propagations > 0
    expected = {"affine": 6 * n_layers + 2, "relu": n_layers,
                "dot-fast": 2 * n_layers, "softmax": n_layers,
                "exp": n_layers, "reciprocal": n_layers,
                "softmax-sum-refine": n_layers, "tanh": 1}
    for op, count in expected.items():
        assert per_query[op] == count * propagations, \
            (op, per_query[op], count * propagations)
    print(f"span census ok: {propagations} propagations x "
          f"{sum(expected.values())}+ spans for query 0")

    return {
        "benchmark": "trace_overhead",
        "model": f"sst-small L{n_layers}",
        "hook_cost_ns": hook_cost * 1e9,
        "spans_per_propagation": spans_per_prop,
        "untraced_propagation_seconds": untraced_seconds,
        "disabled_overhead_fraction": overhead,
        "overhead_budget": OVERHEAD_BUDGET,
        "n_queries": len(queries),
        "spans_per_run": len(serial_spans),
        "radii_identical": True,
        "merge_deterministic": True,
        "cpu_count": os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload (CI smoke mode)")
    parser.add_argument("--out", default=os.path.join(
        RESULTS_DIR, "BENCH_trace.json"))
    args = parser.parse_args(argv)

    result = run_benchmark(quick=args.quick)
    result["quick"] = args.quick
    result["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
    print(f"wrote {args.out}")
    return result


if __name__ == "__main__":
    main()
