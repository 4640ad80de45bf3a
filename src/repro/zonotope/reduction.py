"""Noise-symbol reduction (Section 5.1, DecorrelateMin_k).

Every non-affine transformer appends fresh ℓ∞ symbols, so the eps block
grows with network depth; reduction keeps memory bounded and creates the
paper's tunable precision/speed trade-off. Following Mirman et al.'s
DecorrelateMin_k heuristic, each symbol j is scored by its total coefficient
mass ``m_j = sum_i |B_ij|``; the top-k symbols are kept and the rest are
collapsed into one *independent* fresh symbol per variable whose magnitude
is the dropped symbols' absolute row sum. phi symbols (the input region) are
never reduced. Mass is the only scoring: on Table 1's nine rows it
certified at least as much as a symbol's peak coefficient or its mass
times the number of variables it touches (EXPERIMENTS.md, "Extra
ablation").

The verifier applies reduction to the layer-input embeddings, before the
residual connection branches (Section 5.1), so both branches agree on the
symbol space.
"""

from __future__ import annotations

import numpy as np

from ..trace import TRACER
from .multinorm import MultiNormZonotope

__all__ = ["reduce_noise_symbols", "symbol_scores"]


def symbol_scores(z):
    """DecorrelateMin_k scores: each symbol's mass ``sum_i |B_ij|``."""
    if z.n_eps == 0:
        return np.zeros(0)
    rows = z.eps
    return np.abs(rows.reshape(rows.shape[0], -1)).sum(axis=1)


def reduce_noise_symbols(z, k):
    """Reduce the eps block of ``z`` to the ``k`` highest-mass symbols.

    The dropped symbols' mass is over-approximated per variable by a fresh
    independent symbol (a box), so the result always contains ``z``. When
    ``z`` already has at most ``k`` eps symbols it is returned unchanged.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if z.n_eps <= k:
        return z
    started = TRACER.start()
    scores = symbol_scores(z)
    keep = np.sort(np.argsort(scores)[::-1][:k])
    drop_mask = np.ones(z.n_eps, dtype=bool)
    drop_mask[keep] = False
    dropped_mass = np.abs(z.eps[drop_mask]).sum(axis=0)
    reduced = MultiNormZonotope(z.center, z.phi, z.eps[keep], z.p)
    out = reduced.append_fresh_eps(dropped_mass)
    TRACER.finish(started, "reduce", out, eps_before=z.n_eps)
    return out
