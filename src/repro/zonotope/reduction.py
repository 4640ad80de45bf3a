"""Noise-symbol reduction (Section 5.1, DecorrelateMin_k).

Every non-affine transformer appends fresh ℓ∞ symbols, so the eps block
grows with network depth; reduction keeps memory bounded and creates the
paper's tunable precision/speed trade-off. Following Mirman et al.'s
DecorrelateMin_k heuristic, each symbol j is scored by its total coefficient
mass ``m_j = sum_i |B_ij|``; the top-k symbols are kept and the rest are
collapsed into one *independent* fresh symbol per variable whose magnitude
is the dropped symbols' absolute row sum. phi symbols (the input region) are
never reduced.

The verifier applies reduction to the layer-input embeddings, before the
residual connection branches (Section 5.1), so both branches agree on the
symbol space.
"""

from __future__ import annotations

import numpy as np

from ..trace import TRACER
from .multinorm import MultiNormZonotope

__all__ = ["reduce_noise_symbols", "symbol_scores", "REDUCTION_STRATEGIES"]


def _mass_rows(rows):
    """DecorrelateMin_k: total coefficient mass, sum_i |B_ij|."""
    return np.abs(rows.reshape(rows.shape[0], -1)).sum(axis=1)


def _peak_rows(rows):
    """Peak contribution: max_i |B_ij| — favours symbols that dominate a
    single variable over symbols spread thin across many."""
    return np.abs(rows.reshape(rows.shape[0], -1)).max(axis=1)


def _spread_rows(rows):
    """Correlation spread: mass times the number of variables touched —
    keeping widely-shared symbols preserves more cross-variable
    correlation per kept row."""
    flat = np.abs(rows.reshape(rows.shape[0], -1))
    return flat.sum(axis=1) * np.count_nonzero(flat, axis=1)


# Row scorers: each maps an eps block (E, *S) to one score per symbol.
REDUCTION_STRATEGIES = {
    "mass": _mass_rows,
    "peak": _peak_rows,
    "spread": _spread_rows,
}


def symbol_scores(z, strategy="mass"):
    """Per-symbol heuristic scores (see :data:`REDUCTION_STRATEGIES`)."""
    if z.n_eps == 0:
        return np.zeros(0)
    return REDUCTION_STRATEGIES[strategy](z.eps)


def reduce_noise_symbols(z, k, strategy="mass"):
    """Reduce the eps block of ``z`` to the ``k`` highest-scoring symbols.

    The dropped symbols' mass is over-approximated per variable by a fresh
    independent symbol (a box), so the result always contains ``z``
    regardless of the scoring ``strategy``. When ``z`` already has at most
    ``k`` eps symbols it is returned unchanged. ``"mass"`` is the paper's
    DecorrelateMin_k heuristic; the alternatives support the reduction
    ablation bench.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if z.n_eps <= k:
        return z
    started = TRACER.start()
    scores = symbol_scores(z, strategy)
    keep = np.sort(np.argsort(scores)[::-1][:k])
    drop_mask = np.ones(z.n_eps, dtype=bool)
    drop_mask[keep] = False
    dropped_mass = np.abs(z.eps[drop_mask]).sum(axis=0)
    reduced = MultiNormZonotope(z.center, z.phi, z.eps[keep], z.p)
    out = reduced.append_fresh_eps(dropped_mass)
    TRACER.finish(started, "reduce", out, eps_before=z.n_eps)
    return out
