"""Fused elementwise chains (single multi-array passes).

The layer-norm and elementwise-response pipelines are chains of exact
affine transformers; executed op by op, each link allocates a full
intermediate zonotope (center + phi + eps temporaries). These fused
versions compute the same per-element expression trees in one pass per
coefficient array, so results are bitwise identical to the chained ops
(every reassociation avoided, only temporaries removed — IEEE
multiplication commutativity covers the two ``a*b`` orderings involved).
"""

from __future__ import annotations

import numpy as np

from ..trace import TRACER
from .multinorm import MultiNormZonotope
from .storage import EpsBuffer, EpsTail

__all__ = ["fused_affine_response", "fused_layer_norm"]


def fused_affine_response(x, lam, mu, beta_new, tol=0.0):
    """``affine_image(lam, mu)`` + ``append_fresh_eps(beta_new)`` in one pass.

    Identical arithmetic to the chained calls; skips the intermediate
    zonotope between them, rescaling the lazy tail and concatenating the
    fresh symbols directly into the output.
    """
    TRACER.count("fused_affine_responses")
    lam = np.asarray(lam, dtype=np.float64)
    center = lam * x.center
    if mu is not None:
        center = center + mu
    phi = lam * x.phi
    dense = lam * x._dense_rows()
    tail = x._eps_tail
    if tail is not None:
        lam_flat = np.broadcast_to(lam, x.shape).reshape(-1)
        tail = tail.scale_flat(lam_flat)
    fresh = EpsTail.from_magnitudes(beta_new, tol=tol)
    if len(fresh):
        TRACER.gauge_max("peak_eps_rows", x.n_eps + len(fresh))
        tail = EpsTail.concatenated(tail, fresh)
    return MultiNormZonotope._build(center, phi, EpsBuffer.from_rows(dense),
                                    dense.shape[0], tail, x.p)


def _normalized(block, inv, gamma):
    """One fused pass of ``(block - mean(block)) * gamma`` over the last axis.

    Matches the chained engine per element: row sum, then ``* inv`` (the
    ``mean_vars`` scale), then the subtraction, then the ``gamma`` scale.
    """
    mean = block.sum(axis=-1, keepdims=True)
    mean = mean * inv
    out = block - mean
    out *= gamma
    return out


def fused_layer_norm(z, gamma, beta):
    """No-division layer norm ``gamma * (x - mean(x)) + beta``, fused.

    Collapses the serial chain ``(z - z.mean_vars(-1, keepdims=True))
    .scale(gamma) + beta`` — five intermediate zonotopes — into one pass
    per coefficient array. The eps tail is materialized once (the serial
    chain densifies it inside the subtraction anyway), so the fused form
    does strictly less allocation for the same arithmetic.
    """
    TRACER.count("fused_layer_norms")
    inv = 1.0 / z.shape[-1]
    center = _normalized(z.center, inv, gamma) + beta
    phi = _normalized(z.phi, inv, gamma)
    eps = _normalized(z.eps, inv, gamma)
    return MultiNormZonotope._build(center, phi, EpsBuffer.from_rows(eps),
                                    eps.shape[0], None, z.p)
