"""Linear relaxations of the graph operations (CROWN baseline substrate).

Each nonlinearity f over an interval [l, u] gets linear lower/upper bounds

    a_l * x + b_l  <=  f(x)  <=  a_u * x + b_u   for x in [l, u];

bilinear products get McCormick planes. These are the relaxation shapes used
by Shi et al.'s Transformer verifier, which DeepT compares against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["relu_relaxation", "tanh_relaxation", "exp_relaxation",
           "reciprocal_relaxation", "rsqrt_relaxation", "mul_relaxation",
           "unary_relaxation"]

_POINT_TOL = 1e-12


def relu_relaxation(lower, upper):
    """CROWN ReLU planes: chord above, {0, x} below (picked per |l| vs u)."""
    a_l = np.where(upper >= -lower, 1.0, 0.0)
    a_l = np.where(upper <= 0, 0.0, a_l)
    a_l = np.where(lower >= 0, 1.0, a_l)
    b_l = np.zeros_like(lower)

    width = np.maximum(upper - lower, _POINT_TOL)
    a_u = np.where(lower >= 0, 1.0,
                   np.where(upper <= 0, 0.0, upper / width))
    b_u = np.where((lower < 0) & (upper > 0), -lower * upper / width, 0.0)
    return a_l, b_l, a_u, b_u


def tanh_relaxation(lower, upper):
    """Parallel-slope band: slope = min endpoint derivative.

    ``g(x) = tanh(x) - lam*x`` is monotone on [l, u] when ``lam`` is the
    minimum endpoint derivative (1 - tanh^2 is unimodal), so
    ``g(l) <= g(x) <= g(u)`` gives valid planes for every sign pattern.
    """
    point = (upper - lower) <= _POINT_TOL
    lam = np.minimum(1.0 - np.tanh(lower) ** 2, 1.0 - np.tanh(upper) ** 2)
    tl, tu = np.tanh(lower), np.tanh(upper)
    a_l = np.where(point, 0.0, lam)
    b_l = np.where(point, tl, tl - lam * lower)
    a_u = np.where(point, 0.0, lam)
    b_u = np.where(point, tu, tu - lam * upper)
    return a_l, b_l, a_u, b_u


def exp_relaxation(lower, upper):
    """Tangent below (at the clamped midpoint), chord above."""
    point = (upper - lower) <= _POINT_TOL
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mid = np.minimum(0.5 * (lower + upper), 700.0)
        a_l = np.exp(mid)
        b_l = a_l * (1.0 - mid)
        width = np.maximum(upper - lower, _POINT_TOL)
        exp_l, exp_u = np.exp(lower), np.exp(upper)
        a_u = (exp_u - exp_l) / width
        b_u = exp_l - a_u * lower
        a_l = np.where(point, 0.0, a_l)
        b_l = np.where(point, exp_l, b_l)
        a_u = np.where(point, 0.0, a_u)
        b_u = np.where(point, exp_u, b_u)
        # Overflowing chords degrade to a vacuous (but sound) upper plane.
        bad = ~np.isfinite(a_u)
        a_u = np.where(bad, 0.0, a_u)
        b_u = np.where(bad, np.inf, b_u)
    return a_l, b_l, a_u, b_u


def reciprocal_relaxation(lower, upper):
    """Tangent below (convex), chord above; requires l >= 0.

    Entries whose lower bound is zero (softmax-denominator exp underflow)
    get the vacuous-but-sound planes 0 <= 1/x <= inf, since the true
    reciprocal input is positive.
    """
    if np.any(lower < 0):
        raise ValueError("reciprocal relaxation requires non-negative bounds")
    degenerate = lower <= 0
    safe_lower = np.where(degenerate, 1.0, lower)
    safe_upper = np.where(degenerate, 1.0, upper)
    point = (safe_upper - safe_lower) <= _POINT_TOL
    mid = 0.5 * (safe_lower + safe_upper)
    a_l = np.where(point, 0.0, -1.0 / mid ** 2)
    b_l = np.where(point, 1.0 / safe_lower, 2.0 / mid)
    a_u = np.where(point, 0.0, -1.0 / (safe_lower * safe_upper))
    b_u = np.where(point, 1.0 / safe_lower,
                   1.0 / safe_lower + 1.0 / safe_upper)
    a_l = np.where(degenerate, 0.0, a_l)
    b_l = np.where(degenerate, 0.0, b_l)
    a_u = np.where(degenerate, 0.0, a_u)
    b_u = np.where(degenerate, np.inf, b_u)
    return a_l, b_l, a_u, b_u


def rsqrt_relaxation(lower, upper, shift=0.0):
    """Planes for ``1/sqrt(x + shift)``: tangent below (convex), chord above.

    Used by standard layer normalization (Table 7). Requires
    ``lower + shift >= 0``; zero-width and zero-lower cases degrade to
    vacuous-but-sound planes like the reciprocal.
    """
    lo = lower + shift
    hi = upper + shift
    if np.any(lo < 0):
        raise ValueError("rsqrt relaxation requires non-negative bounds")
    degenerate = lo <= 0
    safe_lo = np.where(degenerate, 1.0, lo)
    safe_hi = np.where(degenerate, 1.0, hi)
    point = (safe_hi - safe_lo) <= _POINT_TOL

    def f(t):
        return 1.0 / np.sqrt(t)

    mid = 0.5 * (safe_lo + safe_hi)
    a_l = np.where(point, 0.0, -0.5 * mid ** -1.5)
    b_l = np.where(point, f(safe_lo), f(mid) + 0.5 * mid ** -1.5 * mid)
    width = np.maximum(safe_hi - safe_lo, _POINT_TOL)
    chord = (f(safe_hi) - f(safe_lo)) / width
    a_u = np.where(point, 0.0, chord)
    b_u = np.where(point, f(safe_lo), f(safe_lo) - chord * safe_lo)
    # Planes are in terms of the shifted variable t = x + shift:
    # a*t + b = a*x + (b + a*shift).
    b_l = b_l + a_l * shift
    b_u = b_u + a_u * shift
    a_l = np.where(degenerate, 0.0, a_l)
    b_l = np.where(degenerate, 0.0, b_l)
    a_u = np.where(degenerate, 0.0, a_u)
    b_u = np.where(degenerate, np.inf, b_u)
    return a_l, b_l, a_u, b_u


_UNARY = {
    "relu": relu_relaxation,
    "tanh": tanh_relaxation,
    "exp": exp_relaxation,
    "reciprocal": reciprocal_relaxation,
}


def unary_relaxation(op, lower, upper, params=None):
    """Dispatch to the relaxation of a unary graph op."""
    if op == "rsqrt":
        return rsqrt_relaxation(lower, upper,
                                shift=(params or {}).get("shift", 0.0))
    return _UNARY[op](lower, upper)


def mul_relaxation(lx, ux, lz, uz):
    """McCormick planes for ``x * z`` over a box, broadcast elementwise.

    Returns ``(al_x, al_z, gl, au_x, au_z, gu)`` with
    ``al_x*x + al_z*z + gl <= x*z <= au_x*x + au_z*z + gu``. Between the two
    valid planes on each side, the one with the better value at the box
    center is selected (elementwise).
    """
    cx = 0.5 * (lx + ux)
    cz = 0.5 * (lz + uz)
    # Lower planes: x z >= lz x + lx z - lx lz  and  >= uz x + ux z - ux uz.
    low1 = (lz, lx, -lx * lz)
    low2 = (uz, ux, -ux * uz)
    val1 = low1[0] * cx + low1[1] * cz + low1[2]
    val2 = low2[0] * cx + low2[1] * cz + low2[2]
    pick1 = val1 >= val2
    al_x = np.where(pick1, low1[0], low2[0])
    al_z = np.where(pick1, low1[1], low2[1])
    gl = np.where(pick1, low1[2], low2[2])
    # Upper planes: x z <= uz x + lx z - lx uz  and  <= lz x + ux z - ux lz.
    up1 = (uz, lx, -lx * uz)
    up2 = (lz, ux, -ux * lz)
    val1 = up1[0] * cx + up1[1] * cz + up1[2]
    val2 = up2[0] * cx + up2[1] * cz + up2[2]
    pick1 = val1 <= val2
    au_x = np.where(pick1, up1[0], up2[0])
    au_z = np.where(pick1, up1[1], up2[1])
    gu = np.where(pick1, up1[2], up2[2])
    return al_x, al_z, gl, au_x, au_z, gu
