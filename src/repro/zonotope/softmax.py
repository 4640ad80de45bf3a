"""Softmax abstract transformer (Section 5.2).

Instead of composing exp / sum / reciprocal / multiply on the raw
definition, the transformer works on the mathematically equivalent but
abstractly favourable form

    sigma_i(nu) = 1 / sum_j exp(nu_j - nu_i).

The differences cancel shared noise symbols (shrinking the exp transformer's
input ranges), the multiplication transformer is avoided entirely, and the
output is guaranteed to lie in (0, 1] because the denominator contains
exp(0) = 1 plus positive terms.

Numerical fallback: when the perturbation region is very large, the exp
transformer's center and fresh-symbol magnitude both blow up and their
difference — the denominator's true positive lower bound — is lost to
floating-point cancellation (or overflows outright). Entries whose
denominator bound is non-positive or non-finite are soundly replaced by the
trivial box [0, 1] (the softmax output range); certification at such radii
fails anyway, but the propagation stays well-defined, which the radius
binary search relies on.
"""

from __future__ import annotations

import numpy as np

from ..trace import TRACER
from .multinorm import MultiNormZonotope
from .elementwise import exp, reciprocal
from .numeric import propagation_errstate

__all__ = ["softmax"]


def softmax(scores, refine_sum=False):
    """Row-wise softmax of an (n, m) score zonotope.

    Parameters
    ----------
    scores:
        Zonotope over attention scores; the softmax normalizes the last
        axis, independently per row.
    refine_sum:
        If True, apply the softmax-sum constraint refinement (Section 5.3)
        and return ``(zonotope, rewrites)`` where ``rewrites`` are global
        eps-symbol tightenings the caller should apply to all other live
        zonotopes (see :mod:`repro.zonotope.refinement`). If False, return
        just the zonotope.
    """
    if scores.ndim != 2:
        raise ValueError(f"softmax expects an (n, m) zonotope, got {scores.shape}")
    started = TRACER.start()
    # d[i, j, j'] = scores[i, j'] - scores[i, j]; the j' = j diagonal is an
    # exact zero (all coefficients cancel), so exp maps it exactly to 1.
    diffs = scores.expand_dims(1) - scores.expand_dims(2)
    with propagation_errstate():
        exps = exp(diffs)
        denom = exps.sum_vars(axis=2)
        lower, _ = denom.bounds()
        usable = np.isfinite(lower) & (lower > 0)
        if not np.all(usable):
            denom = _mask_unusable(denom, usable)
        out = reciprocal(denom)
        if not np.all(usable):
            out = _box_fallback(out, usable)
    # The span covers the whole composed form (the nested exp/reciprocal
    # applications also record their own spans); the Section 5.3 refinement
    # is attributed separately by refine_softmax_rows.
    TRACER.finish(started, "softmax", out)
    if not refine_sum:
        return out
    from .refinement import refine_softmax_rows
    return refine_softmax_rows(out)


def _mask_unusable(denom, usable):
    """Replace unusable denominator entries by the exact point 1.0.

    The replaced entries are then overwritten by :func:`_box_fallback`
    after the reciprocal, so the placeholder value never surfaces; it only
    keeps the reciprocal transformer's positivity precondition satisfied.
    """
    center = np.where(usable, denom.center, 1.0)
    phi = np.where(usable, denom.phi, 0.0)
    eps = np.where(usable, denom.eps, 0.0)
    return MultiNormZonotope(center, phi, eps, denom.p)


def _box_fallback(out, usable):
    """Soundly replace unusable entries by the box [0, 1]."""
    center = np.where(usable, out.center, 0.5)
    phi = np.where(usable, out.phi, 0.0)
    eps = np.where(usable, out.eps, 0.0)
    boxed = MultiNormZonotope(center, phi, eps, out.p)
    return boxed.append_fresh_eps(np.where(usable, 0.0, 0.5))
