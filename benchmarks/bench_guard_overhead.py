"""Resilience benchmark: guard overhead, ladder invisibility, chaos sweep.

Three phases over a small Table 1-style workload (``sst-small`` 2-layer
transformer, DeepT-Fast, ℓ2):

1. **plain**   — guards and degradation ladder disabled (the pre-resilience
                 engine);
2. **guarded** — guards + ladder enabled (the shipping defaults). The
                 certified radii must be *bitwise identical* to plain and
                 the merged counters must show zero degradations and
                 zero guard trips: on healthy inputs the resilience layer
                 is invisible except for its cost. The headline number is
                 the relative overhead of the median guarded pass over
                 the median plain pass, in CPU seconds, over interleaved
                 plain/guarded pass pairs (the pair order alternates, so
                 a drifting CPU speed hits both sides alike);
3. **chaos**   — the guarded workload re-run under each zonotope fault kind
                 (NaN / Inf / overscale injected at layer 0). Every query
                 must still produce a radius, every radius must be <= the
                 healthy radius (a fault can shrink certified regions but
                 never grow them), and every query must report degradation.

Results land in ``benchmarks/results/BENCH_resilience.json``.

Run standalone (not through pytest):

    PYTHONPATH=src python benchmarks/bench_guard_overhead.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import time

# One BLAS thread, set before numpy loads: the process CPU time then counts
# the engine's work, not idle BLAS threads spin-waiting beside it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from repro.experiments.harness import SCALE, get_transformer, \
    evaluation_sentences
from repro.faults import FaultPlan, install_fault_plan
from repro.scheduler import (CertScheduler, expand_word_queries,
                             merge_outcome_perf, model_weight_hash)
from repro.verify import FAST

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

CHAOS_KINDS = ("nan", "inf", "overscale")

# Hard ceiling on healthy-run guard overhead, asserted in every mode
# (quick included): the cheap min/max finiteness path keeps the measured
# fraction around 1-2%, and this bound makes a silent return of the old
# eps_l1-based 30% tax impossible.
GUARD_OVERHEAD_BUDGET = 0.05


def build_workload(model, sentences, n_positions, **config_overrides):
    config = FAST(noise_symbol_cap=SCALE.noise_symbol_cap,
                  **config_overrides)
    return expand_word_queries(
        model, sentences, 2.0, verifier="deept", config=config,
        n_positions=n_positions, n_iterations=SCALE.search_iterations,
        model_hash=model_weight_hash(model))


# Interleaved plain/guarded pass pairs behind the overhead gate: a single
# pair of ~0.7 s passes read anywhere from -12% to +12% at one commit, so
# the 5% budget is checked against the medians of several pairs.
PAIRS = 9


def timed_run(model, queries, clock=time.perf_counter):
    scheduler = CertScheduler(workers=0)
    start = clock()
    outcomes = scheduler.run(model, queries)
    return outcomes, clock() - start


def paired_cpu_seconds(model, plain_queries, guarded_queries):
    """Interleaved plain/guarded passes; last outcomes and CPU seconds."""
    seconds = {"plain": [], "guarded": []}
    outcomes = {}
    workloads = {"plain": plain_queries, "guarded": guarded_queries}
    for pair in range(PAIRS):
        order = ("plain", "guarded") if pair % 2 == 0 \
            else ("guarded", "plain")
        for name in order:
            outcomes[name], spent = timed_run(model, workloads[name],
                                              clock=time.process_time)
            seconds[name].append(spent)
    return outcomes, seconds


def run_benchmark(n_sentences=1, n_positions=4, n_layers=2, seed=0):
    model, dataset, accuracy = get_transformer("sst-small",
                                               n_layers=n_layers)
    sentences = evaluation_sentences(model, dataset, n_sentences)

    plain_queries = build_workload(model, sentences, n_positions,
                                   guards=False, degradation_ladder=False)
    guarded_queries = build_workload(model, sentences, n_positions)
    print(f"workload: {len(plain_queries)} queries "
          f"({len(sentences)} sentences x {n_positions} positions, "
          f"L{n_layers})")

    # One untimed query absorbs first-touch costs (numpy kernel warm-up,
    # lazy imports) so the plain-vs-guarded comparison is pure guard cost.
    timed_run(model, plain_queries[:1])

    outcomes, seconds = paired_cpu_seconds(model, plain_queries,
                                           guarded_queries)
    plain, guarded = outcomes["plain"], outcomes["guarded"]
    plain_seconds = float(np.median(seconds["plain"]))
    guarded_seconds = float(np.median(seconds["guarded"]))
    overhead = guarded_seconds / plain_seconds - 1.0
    print(f"plain   : {plain_seconds:.2f} CPU-s median of {PAIRS} "
          f"(guards off, ladder off)")
    print(f"guarded : {guarded_seconds:.2f} CPU-s median of {PAIRS} "
          f"(overhead {overhead * 100:+.1f}%)")
    assert overhead < GUARD_OVERHEAD_BUDGET, \
        (f"guard overhead {overhead:.3f} exceeds the "
         f"{GUARD_OVERHEAD_BUDGET:.0%} budget — the cheap guard path "
         f"regressed")

    plain_radii = [o.radius for o in plain]
    guarded_radii = [o.radius for o in guarded]
    perf = merge_outcome_perf(guarded)
    degradations = perf["counters"].get("degradations", 0)
    guard_trips = perf["counters"].get("guard_trips", 0)
    assert guarded_radii == plain_radii, \
        "guards changed certified radii on healthy inputs"
    assert degradations == 0, \
        f"healthy run recorded {degradations} degradation events"
    assert guard_trips == 0, \
        f"healthy run recorded {guard_trips} guard trips"
    assert not any(o.degraded for o in guarded)

    chaos = {}
    for kind in CHAOS_KINDS:
        with install_fault_plan(FaultPlan(kind=kind, layer=0, seed=seed)):
            faulted, chaos_seconds = timed_run(model, guarded_queries)
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
        "n_queries": len(plain_queries),
        "pairs": PAIRS,
        "plain_seconds": plain_seconds,
        "guarded_seconds": guarded_seconds,
        "plain_pass_cpu_seconds": seconds["plain"],
        "guarded_pass_cpu_seconds": seconds["guarded"],
        "guard_overhead_fraction": overhead,
        "guard_overhead_budget": GUARD_OVERHEAD_BUDGET,
        "radii_identical": guarded_radii == plain_radii,
        "healthy_degradations": int(degradations),
        "healthy_guard_trips": int(guard_trips),
        "min_radius": float(min(plain_radii)),
        "avg_radius": float(np.mean(plain_radii)),
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
