"""Fused layer norm (a single multi-array pass).

The no-division layer norm is a chain of exact affine transformers;
executed op by op, each link allocates a full intermediate zonotope
(center + phi + eps temporaries). The fused version computes the same
per-element expression tree in one pass per coefficient array, so results
are bitwise identical to the chained ops (every reassociation avoided,
only temporaries removed — IEEE multiplication commutativity covers the
``a*b`` orderings involved).
"""

from __future__ import annotations

import numpy as np

from ..trace import TRACER
from .multinorm import MultiNormZonotope

__all__ = ["fused_layer_norm"]


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
    return MultiNormZonotope._build(center, phi, eps, None, z.p)
