"""Resilience benchmark: guard overhead, ladder invisibility, chaos sweep.

Three phases over a small Table 1-style workload (``sst-small`` 2-layer
transformer, DeepT-Fast, ℓ2):

1. **unguarded** — one pass with ``propagation.check_zonotope`` patched to
                   the identity (the engine without its guard): the
                   reference radii;
2. **guarded**   — the shipping engine, several passes. The certified radii
                   must be *bitwise identical* to the unguarded pass and
                   the merged counters must show zero degradations and
                   zero guard trips: on healthy inputs the resilience
                   layer is invisible except for its cost. The headline
                   number is the guard's own share of each pass: the
                   seconds spent inside ``check_zonotope`` (timed by a
                   ``perf_counter`` wrapper) over the rest of the pass,
                   median over the passes. Both sides of the ratio come
                   from the same pass, so a drifting CPU speed cancels;
3. **chaos**     — the guarded workload re-run under each zonotope fault
                   kind (NaN / Inf / overscale injected at layer 0). Every
                   query must still produce a radius, every radius must be
                   <= the healthy radius (a fault can shrink certified
                   regions but never grow them), and every query must
                   report degradation.

Results land in ``benchmarks/results/BENCH_resilience.json``.

Run standalone (not through pytest):

    PYTHONPATH=src python benchmarks/bench_guard_overhead.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from contextlib import contextmanager

# One BLAS thread, set before numpy loads, so idle BLAS threads do not
# spin-wait beside the engine and inflate its passes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from repro.experiments.harness import SCALE, get_transformer, \
    evaluation_sentences
from repro.faults import FaultPlan, install_fault_plan
from repro.scheduler import (CertScheduler, expand_word_queries,
                             merge_outcome_perf, model_weight_hash)
from repro.verify import FAST, propagation

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

CHAOS_KINDS = ("nan", "inf", "overscale")

# Hard ceiling on the guard's share of a healthy pass, asserted in every
# mode (quick included): the cheap min/max finiteness path keeps it around
# 3.5%, and this bound makes a silent return of the old eps_l1-based 30%
# tax impossible.
GUARD_OVERHEAD_BUDGET = 0.05

# Guarded passes behind the overhead gate (the median share is gated).
PASSES = 9


def build_workload(model, sentences, n_positions):
    config = FAST(noise_symbol_cap=SCALE.noise_symbol_cap)
    return expand_word_queries(
        model, sentences, 2.0, verifier="deept", config=config,
        n_positions=n_positions, n_iterations=SCALE.search_iterations,
        model_hash=model_weight_hash(model))


def timed_run(model, queries):
    scheduler = CertScheduler(workers=0)
    start = time.perf_counter()
    outcomes = scheduler.run(model, queries)
    return outcomes, time.perf_counter() - start


@contextmanager
def guard_replaced(replacement):
    """Run with the propagation's guard swapped for ``replacement``."""
    original = propagation.check_zonotope
    propagation.check_zonotope = replacement
    try:
        yield
    finally:
        propagation.check_zonotope = original


def guarded_pass(model, queries):
    """One guarded pass: outcomes, pass seconds, seconds inside the guard."""
    check = propagation.check_zonotope
    inside = 0.0

    def timed_check(z, stage):
        nonlocal inside
        start = time.perf_counter()
        try:
            return check(z, stage)
        finally:
            inside += time.perf_counter() - start

    with guard_replaced(timed_check):
        outcomes, seconds = timed_run(model, queries)
    return outcomes, seconds, inside


def run_benchmark(n_sentences=1, n_positions=4, n_layers=2, seed=0):
    model, dataset, accuracy = get_transformer("sst-small",
                                               n_layers=n_layers)
    sentences = evaluation_sentences(model, dataset, n_sentences)

    queries = build_workload(model, sentences, n_positions)
    print(f"workload: {len(queries)} queries "
          f"({len(sentences)} sentences x {n_positions} positions, "
          f"L{n_layers})")

    # One untimed query absorbs first-touch costs (numpy kernel warm-up,
    # lazy imports) before anything is timed.
    timed_run(model, queries[:1])

    with guard_replaced(lambda z, stage: z):
        unguarded, _ = timed_run(model, queries)
    pass_seconds, guard_seconds = [], []
    for _ in range(PASSES):
        guarded, seconds, inside = guarded_pass(model, queries)
        pass_seconds.append(seconds)
        guard_seconds.append(inside)
    shares = [inside / (seconds - inside)
              for seconds, inside in zip(pass_seconds, guard_seconds)]
    overhead = float(np.median(shares))
    print(f"guarded : {float(np.median(pass_seconds)):.2f} s median pass "
          f"of {PASSES}, guard share {overhead * 100:.2f}% "
          f"({min(shares) * 100:.2f}-{max(shares) * 100:.2f}%)")
    assert overhead < GUARD_OVERHEAD_BUDGET, \
        (f"guard overhead {overhead:.3f} exceeds the "
         f"{GUARD_OVERHEAD_BUDGET:.0%} budget — the cheap guard path "
         f"regressed")

    unguarded_radii = [o.radius for o in unguarded]
    guarded_radii = [o.radius for o in guarded]
    perf = merge_outcome_perf(guarded)
    degradations = perf["counters"].get("degradations", 0)
    guard_trips = perf["counters"].get("guard_trips", 0)
    assert guarded_radii == unguarded_radii, \
        "guards changed certified radii on healthy inputs"
    assert degradations == 0, \
        f"healthy run recorded {degradations} degradation events"
    assert guard_trips == 0, \
        f"healthy run recorded {guard_trips} guard trips"
    assert not any(o.degraded for o in guarded)

    chaos = {}
    for kind in CHAOS_KINDS:
        with install_fault_plan(FaultPlan(kind=kind, layer=0, seed=seed)):
            faulted, chaos_seconds = timed_run(model, queries)
        radii = [o.radius for o in faulted]
        assert len(radii) == len(guarded_radii), \
            f"{kind}: lost queries under fault"
        assert all(r <= h for r, h in zip(radii, guarded_radii)), \
            f"{kind}: a fault grew a certified radius (unsound)"
        assert all(o.degraded for o in faulted), \
            f"{kind}: fault did not surface as degradation"
        chaos[kind] = {
            "seconds": chaos_seconds,
            "avg_radius": float(np.mean(radii)),
            "degraded_queries": sum(o.degraded for o in faulted),
        }
        print(f"chaos/{kind:<9}: {chaos_seconds:.2f}s, every query "
              f"degraded, avg radius {chaos[kind]['avg_radius']:.4f} "
              f"(healthy {float(np.mean(guarded_radii)):.4f})")

    return {
        "benchmark": "resilience",
        "model": f"sst-small L{n_layers}",
        "accuracy": float(accuracy),
        "n_queries": len(queries),
        "passes": PASSES,
        "guarded_pass_seconds": pass_seconds,
        "guard_seconds": guard_seconds,
        "guard_overhead_fraction": overhead,
        "guard_overhead_budget": GUARD_OVERHEAD_BUDGET,
        "radii_identical": guarded_radii == unguarded_radii,
        "healthy_degradations": int(degradations),
        "healthy_guard_trips": int(guard_trips),
        "min_radius": float(min(guarded_radii)),
        "avg_radius": float(np.mean(guarded_radii)),
        "chaos": chaos,
        "fault_seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload (CI smoke mode)")
    parser.add_argument("--seed", type=int,
                        default=int(os.environ.get("REPRO_FUZZ_SEED", "0")))
    parser.add_argument("--out", default=os.path.join(
        RESULTS_DIR, "BENCH_resilience.json"))
    args = parser.parse_args(argv)

    if args.quick:
        result = run_benchmark(n_positions=2, seed=args.seed)
    else:
        result = run_benchmark(n_positions=4, n_layers=3, seed=args.seed)
    result["quick"] = args.quick
    result["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)

    print(f"overhead: {result['guard_overhead_fraction'] * 100:+.1f}% "
          f"(radii identical: {result['radii_identical']}, healthy "
          f"degradations: {result['healthy_degradations']})")
    print(f"wrote {args.out}")
    return result


if __name__ == "__main__":
    main()
