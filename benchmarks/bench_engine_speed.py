"""Engine speed benchmark: structured fast path vs the dense baseline.

Times a full DeepT-Fast propagation through the standard 3-layer
``sst-small`` transformer twice — once on the structured engine (lazy eps
tails, amortized symbol buffers, padding-free matmul) and once under
``dense_engine()``, which reproduces the pre-optimization dense
representation and compute strategy. The two runs must produce identical
output-logit bounds (``np.allclose``, rtol 1e-10); the benchmark asserts
this before reporting.

Run standalone (not through pytest):

    PYTHONPATH=src python benchmarks/bench_engine_speed.py [--quick]

Writes ``benchmarks/results/BENCH_engine.json`` with wall-clock times, the
speedup factor, the bounds check, and the ``repro.trace.TRACER`` counters
and gauges of one fast run (materialization and buffer counts, peak symbol
rows). ``--quick`` lowers the repetition count for CI smoke runs.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.experiments.harness import get_transformer, evaluation_sentences
from repro.trace import TRACER
from repro.verify import VerifierConfig
from repro.verify.propagation import propagate_classifier
from repro.verify.regions import word_perturbation_region
from repro.zonotope import dense_engine

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")


def _propagate(model, sentence, p, radius, config):
    region = word_perturbation_region(model, sentence, 1, radius, p)
    return propagate_classifier(model, region, config)


def _time_once(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _time_interleaved(fast_fn, dense_fn, reps):
    """Best-of-reps for both engines, alternating runs.

    Interleaving keeps slow drift (thermal, background load) from landing
    entirely in one engine's timing window; taking the min discards
    scheduling noise, which only ever adds time.
    """
    fast_times, dense_times = [], []
    for _ in range(reps):
        fast_times.append(_time_once(fast_fn))
        dense_times.append(_time_once(dense_fn))
    return float(np.min(fast_times)), float(np.min(dense_times))


def run_benchmark(reps=5, p=2.0, radius=0.05, n_layers=3):
    model, dataset, accuracy = get_transformer("sst-small",
                                               n_layers=n_layers)
    # The longest evaluation sentence stresses the attention blocks most.
    sentence = max(evaluation_sentences(model, dataset, 10), key=len)
    config = VerifierConfig()  # DeepT-Fast defaults

    def fast_run():
        return _propagate(model, sentence, p, radius, config)

    def dense_run():
        with dense_engine():
            return _propagate(model, sentence, p, radius, config)

    # Warm-up + equivalence gate: both paths must agree to rtol 1e-10.
    fast_out, dense_out = fast_run(), dense_run()
    fl, fu = fast_out.bounds()
    dl, du = dense_out.bounds()
    allclose = bool(np.allclose(fl, dl, rtol=1e-10)
                    and np.allclose(fu, du, rtol=1e-10))
    assert allclose, "fast and dense engines disagree on output bounds"
    max_diff = float(max(np.abs(fl - dl).max(), np.abs(fu - du).max()))

    fast_seconds, dense_seconds = _time_interleaved(fast_run, dense_run,
                                                    reps)
    # Counter snapshot from one dedicated fast-engine run (outside timing).
    with TRACER.query_scope(None) as record:
        fast_run()
    perf = record["perf"]

    return {
        "benchmark": "engine_speed",
        "model": f"sst-small L{n_layers}",
        "accuracy": float(accuracy),
        "tokens": len(sentence),
        "p": p,
        "radius": radius,
        "config": "DeepT-Fast defaults",
        "reps": reps,
        "fast_seconds": fast_seconds,
        "dense_seconds": dense_seconds,
        "speedup": dense_seconds / fast_seconds,
        "bounds_allclose_rtol1e10": allclose,
        "bounds_max_abs_diff": max_diff,
        "perf": perf,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions (CI smoke mode)")
    parser.add_argument("--out", default=os.path.join(RESULTS_DIR,
                                                      "BENCH_engine.json"))
    args = parser.parse_args(argv)

    result = run_benchmark(reps=3 if args.quick else 9)
    result["quick"] = args.quick
    result["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)

    print(f"fast   : {result['fast_seconds']:.4f}s")
    print(f"dense  : {result['dense_seconds']:.4f}s")
    print(f"speedup: {result['speedup']:.2f}x "
          f"(bounds allclose: {result['bounds_allclose_rtol1e10']}, "
          f"max |diff| {result['bounds_max_abs_diff']:.2e})")
    print(f"wrote {args.out}")
    return result


if __name__ == "__main__":
    main()
