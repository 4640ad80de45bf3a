"""Ablation: the noise-symbol reduction cap (DESIGN §7 extras).

Not a paper table — an ablation of the Section 5.1 cap's precision/speed
trade-off under the paper's DecorrelateMin_k heuristic, the only scoring
(EXPERIMENTS.md, "Extra ablation", says why). Expected shape: a larger
cap never certifies less.
"""

import time

from repro.experiments.harness import (get_transformer,
                                       evaluation_sentences, SCALE)
from repro.verify import DeepTVerifier, FAST, max_certified_radius


def test_reduction_ablation(once):
    def run():
        model, dataset, _ = get_transformer("sst-small", n_layers=6)
        sentence = evaluation_sentences(model, dataset, 1)[0]
        print("\n=== Ablation: noise-symbol reduction cap ===")
        cap_results = {}
        for cap in (32, 128, 512):
            verifier = DeepTVerifier(model, FAST(noise_symbol_cap=cap))
            start = time.perf_counter()
            radius = max_certified_radius(verifier, sentence, 1, 2,
                                          n_iterations=5)
            seconds = time.perf_counter() - start
            cap_results[cap] = (radius, seconds)
            print(f"cap={cap:<5} radius={radius:.4f} ({seconds:.1f}s)")
        return cap_results

    cap_results = once(run)
    assert all(radius > 0 for radius, _ in cap_results.values())
    # A larger cap never certifies less (up to bisection granularity).
    assert cap_results[512][0] >= cap_results[32][0] * 0.9
