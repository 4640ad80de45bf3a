"""Elementwise abstract transformers (Sections 4.3 - 4.6).

Every transformer here maps a zonotope variable ``x`` with concrete bounds
``[l, u]`` to

    y = lambda * x + mu + beta_new * eps_new,

with ``lambda``, ``mu``, ``beta_new`` chosen per the paper so the output
zonotope soundly over-approximates the function graph on ``[l, u]`` and is
optimal in input-output area (Theorem 3). ``eps_new`` is a fresh ℓ∞ noise
symbol per variable (appended to the eps block; zero-width variables get
none).

The exponential and reciprocal transformers additionally guarantee a
*positive output lower bound*, which the softmax pipeline relies on: the
tangent point is clamped (``t_crit,2``) so the lower envelope stays above
zero (for the exponential, on inputs no wider than
``_EXP_MAX_TANGENT_WIDTH``; wider ones get the lower bound 0). For the
exponential the clamp is an upper bound on the tangent point
(``t_opt = min(t_crit, l + 1 - eps)``, as printed in the paper); for the
convex *decreasing* reciprocal the positivity constraint bounds the tangent
point from *below* (the tangent at t evaluated at u is ``(2t - u)/t^2``,
positive iff ``t > u/2``), so we take ``t_opt = max(t_crit, u/2 + eps)`` —
with ``min`` the band would not cover the chord endpoint whenever
``u < 4l``. The paper's mu/beta formulas, which use the l-endpoint gap, are
exactly the sound ones for this choice.
"""

from __future__ import annotations

import numpy as np

from ..trace import traced
from .numeric import under_propagation_errstate

__all__ = ["relu", "tanh", "exp", "reciprocal", "rsqrt", "sigmoid",
           "gelu", "affine_response"]

# Degenerate-interval threshold: below this width the variable is treated as
# a point and mapped exactly.
_POINT_TOL = 1e-12
# The small positive constant of Sections 4.5/4.6 keeping outputs positive.
_EPS_SHIFT = 0.01
# Widest exp input interval that gets the tangent band: beyond it the band's
# lower offset (about e^l) is below the rounding error of its upper end
# (about e^u, and e^30 is about 1e13).
_EXP_MAX_TANGENT_WIDTH = 30.0


def affine_response(x, lam, mu, beta_new):
    """Assemble ``y = lam*x + mu + beta_new*eps_new`` for arrays of params.

    :meth:`MultiNormZonotope.affine_image` rescales a lazy eps tail in
    O(symbols) instead of densifying it, and
    :meth:`~MultiNormZonotope.append_fresh_eps` extends that tail.
    """
    return x.affine_image(lam, mu).append_fresh_eps(beta_new)


@traced("relu")
@under_propagation_errstate
def relu(x):
    """Minimal-area ReLU transformer (Section 4.3, Eq. 2)."""
    lower, upper = x.bounds()
    lam = np.zeros(x.shape)
    mu = np.zeros(x.shape)
    beta = np.zeros(x.shape)

    positive = lower >= 0
    negative = upper <= 0
    crossing = ~(positive | negative)

    lam[positive] = 1.0
    if np.any(crossing):
        lo = lower[crossing]
        up = upper[crossing]
        lam_c = up / (up - lo)
        mu_c = 0.5 * np.maximum(-lam_c * lo, (1.0 - lam_c) * up)
        lam[crossing] = lam_c
        mu[crossing] = mu_c
        beta[crossing] = mu_c
    return affine_response(x, lam, mu, beta)


@traced("tanh")
@under_propagation_errstate
def tanh(x):
    """Tanh transformer (Section 4.4): secant-slope parallelogram."""
    lower, upper = x.bounds()
    point = (upper - lower) <= _POINT_TOL
    lam = np.minimum(1.0 - np.tanh(lower) ** 2, 1.0 - np.tanh(upper) ** 2)
    tl, tu = np.tanh(lower), np.tanh(upper)
    mu = 0.5 * (tu + tl - lam * (upper + lower))
    beta = 0.5 * (tu - tl - lam * (upper - lower))
    # Degenerate intervals map exactly.
    lam = np.where(point, 0.0, lam)
    mu = np.where(point, np.tanh(x.center), mu)
    beta = np.where(point, 0.0, beta)
    return affine_response(x, lam, mu, beta)


@traced("exp")
@under_propagation_errstate
def exp(x):
    """Exponential transformer (Section 4.5).

    Tangent at ``t_opt = min(t_crit, t_crit,2)`` where ``t_crit`` is the
    point whose tangent is parallel to the chord (area-optimal) and
    ``t_crit,2 = l + 1 - eps`` enforces a positive output lower bound.

    Inputs wider than ``_EXP_MAX_TANGENT_WIDTH`` get the box ``[0, e^u]``
    instead (``lam = 0``, ``mu = beta = e^u / 2``), which floating point
    evaluates exactly. On such an interval the tangent band's lower offset
    is smaller than the rounding error of its upper end, so its computed
    lower bound could exceed ``e^l``; the slope it would carry spans at
    most about ``1e-11`` of the output width.
    """
    lower, upper = x.bounds()
    width = upper - lower
    point = width <= _POINT_TOL
    safe_width = np.where(point, 1.0, width)
    exp_l = np.exp(lower)
    exp_u = np.exp(upper)
    chord = np.where(point, 1.0, (exp_u - exp_l) / safe_width)
    t_crit = np.log(chord)
    t_crit2 = lower + 1.0 - _EPS_SHIFT
    t_opt = np.minimum(t_crit, t_crit2)
    lam = np.exp(t_opt)
    exp_t = lam  # e^{t_opt}
    mu = 0.5 * (exp_t - lam * t_opt + exp_u - lam * upper)
    beta = 0.5 * (lam * t_opt - exp_t + exp_u - lam * upper)
    wide = width > _EXP_MAX_TANGENT_WIDTH
    lam = np.where(wide, 0.0, lam)
    mu = np.where(wide, 0.5 * exp_u, mu)
    beta = np.where(wide, 0.5 * exp_u, beta)
    lam = np.where(point, 0.0, lam)
    mu = np.where(point, np.exp(x.center), mu)
    beta = np.where(point, 0.0, beta)
    return affine_response(x, lam, mu, beta)


def _convex_decreasing_response(x, f, fprime, t_crit, t_min, lower, upper):
    """Shared construction for convex, decreasing f on positive inputs.

    The tangent point is ``t_opt = max(t_crit, t_min)`` (area-optimal point,
    clamped from below for output positivity). For ``t_opt >= t_crit`` the
    largest tangent-chord gap is at the left endpoint, so

        mu   = (f(t) - lam*t + f(l) - lam*l) / 2
        beta = (lam*t - f(t) + f(l) - lam*l) / 2.

    ``lower``/``upper`` are the interval the planes must cover (callers may
    clamp them to the reachable range).
    """
    width = upper - lower
    point = width <= _POINT_TOL
    t_opt = np.maximum(t_crit, t_min)
    lam = fprime(t_opt)
    ft = f(t_opt)
    fl = f(lower)
    mu = 0.5 * (ft - lam * t_opt + fl - lam * lower)
    beta = 0.5 * (lam * t_opt - ft + fl - lam * lower)
    lam = np.where(point, 0.0, lam)
    mu = np.where(point, f(np.maximum(x.center, 1e-300)), mu)
    beta = np.where(point, 0.0, beta)
    return affine_response(x, lam, mu, beta)


@traced("reciprocal")
@under_propagation_errstate
def reciprocal(x):
    """Reciprocal transformer for positive inputs (Section 4.6).

    Requires ``l > 0`` (guaranteed by the softmax pipeline: the denominator
    is a sum of positive exponentials including e^0 = 1).
    """
    lower, upper = x.bounds()
    if np.any(lower <= 0):
        raise ValueError(
            f"reciprocal transformer requires positive inputs, got lower "
            f"bound {float(lower.min()):.3e}")
    t_crit = np.sqrt(upper * lower)
    t_min = 0.5 * upper * (1.0 + _EPS_SHIFT)
    return _convex_decreasing_response(
        x, lambda t: 1.0 / t, lambda t: -1.0 / t ** 2, t_crit, t_min,
        lower, upper)


@traced("rsqrt")
@under_propagation_errstate
def rsqrt(x, shift=0.0, assume_nonnegative=False):
    """Transformer for ``1/sqrt(x + shift)`` on positive inputs.

    Needed only for *standard* layer normalization (division by the
    standard deviation, Table 7 ablation). Same construction as the
    reciprocal: convex decreasing, tangent clamped for positivity — the
    tangent at t evaluated at u is ``t^{-3/2} (1.5 t - 0.5 u)``, positive
    iff ``t > u/3``.

    ``assume_nonnegative`` declares that the *true* input is >= 0 even if
    the abstract lower bound dips below (a variance computed by the
    multiplication transformer): planes are then built on
    ``[max(l, 0) + shift, u + shift]``, which covers every reachable value.
    """
    shifted = x + float(shift) if shift else x
    lower, upper = shifted.bounds()
    if assume_nonnegative:
        lower = np.maximum(lower, float(shift))
        upper = np.maximum(upper, lower)
    if np.any(lower <= 0):
        raise ValueError("rsqrt transformer requires x + shift > 0")

    def f(t):
        return 1.0 / np.sqrt(t)

    def fprime(t):
        return -0.5 * t ** -1.5

    width = upper - lower
    safe_width = np.where(width <= _POINT_TOL, 1.0, width)
    # Tangent parallel to the chord: f'(t) = (f(u) - f(l)) / (u - l) with
    # f'(t) = -0.5 t^{-3/2}  =>  t = (0.5 (u - l) / (f(l) - f(u)))^{2/3}.
    chord_drop = np.maximum(f(lower) - f(upper), 1e-300)
    t_crit = np.where(width <= _POINT_TOL, lower,
                      (0.5 * safe_width / chord_drop) ** (2.0 / 3.0))
    t_min = upper / 3.0 * (1.0 + _EPS_SHIFT)
    return _convex_decreasing_response(shifted, f, fprime, t_crit, t_min,
                                       lower, upper)


@traced("sigmoid")
@under_propagation_errstate
def sigmoid(x):
    """Sigmoid transformer (s-shaped, parallel-slope band).

    Not used by the paper's architecture but provided for BERT-family
    variants. Same construction as tanh: with
    ``lam = min(s'(l), s'(u))`` the gap ``s(x) - lam*x`` is monotone on
    [l, u] (s' is unimodal with its maximum at 0), so the band between the
    endpoint gaps is sound.
    """
    lower, upper = x.bounds()
    point = (upper - lower) <= _POINT_TOL

    def s(t):
        return 1.0 / (1.0 + np.exp(-t))

    sl, su = s(lower), s(upper)
    lam = np.minimum(sl * (1.0 - sl), su * (1.0 - su))
    mu = 0.5 * (su + sl - lam * (upper + lower))
    beta = 0.5 * (su - sl - lam * (upper - lower))
    lam = np.where(point, 0.0, lam)
    mu = np.where(point, s(x.center), mu)
    beta = np.where(point, 0.0, beta)
    return affine_response(x, lam, mu, beta)


@traced("gelu")
@under_propagation_errstate
def gelu(x, n_grid=64):
    """GELU transformer via a sampled parallel-slope band.

    GELU(t) = t * Phi(t) is neither convex nor s-shaped, so instead of a
    closed-form optimum the band slope is the chord slope and the offsets
    come from the extrema of ``gelu(t) - lam*t`` evaluated on a dense grid
    (the function is smooth and the grid is refined around the interval,
    with an explicit safety margin covering the maximal second-derivative
    error between grid points). Supports BERT-style FFNs.
    """
    from scipy.stats import norm as _norm

    lower, upper = x.bounds()
    point = (upper - lower) <= _POINT_TOL

    def g(t):
        return t * _norm.cdf(t)

    width = np.maximum(upper - lower, _POINT_TOL)
    lam = (g(upper) - g(lower)) / width
    # Evaluate the gap on a grid; |gelu''| <= ~1.13 bounds the sampling
    # error by 1.13/8 * h^2 per cell.
    offsets = np.linspace(0.0, 1.0, n_grid)
    grid = lower[None] + offsets.reshape(-1, *([1] * lower.ndim)) * width
    gaps = g(grid) - lam * grid
    safety = 1.13 / 8.0 * (width / (n_grid - 1)) ** 2
    gap_min = gaps.min(axis=0) - safety
    gap_max = gaps.max(axis=0) + safety
    mu = 0.5 * (gap_max + gap_min)
    beta = 0.5 * (gap_max - gap_min)
    lam = np.where(point, 0.0, lam)
    mu = np.where(point, g(x.center), mu)
    beta = np.where(point, 0.0, beta)
    return affine_response(x, lam, mu, beta)
