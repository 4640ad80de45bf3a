"""Softmax-sum Zonotope refinement (Section 5.3, Appendix A.1).

The concrete softmax outputs of a row always satisfy ``sum_j y_j = 1``, but
the abstract transformer's output zonotope admits instantiations violating
it. The refinement intersects the zonotope with that equality constraint,
following Ghorbal et al.'s constrained-zonotope construction. With

    D := 1 - sum_j y_j   (an affine form over the noise symbols)

the constraint set is exactly ``D = 0``, so for any scalar ``s`` the form
``y_i' = y_i + s . D`` agrees with ``y_i`` on the constraint set. Two
refinements are applied per softmax row:

1. every row variable is replaced by ``y_i' = y_i + s_i . D`` where ``s_i``
   minimizes the noise-coefficient mass ``||alpha'||_1 + ||beta'||_1``
   (the weighted-median slope-walk of Appendix A.1). Candidates that would
   zero a phi coefficient are excluded (per the paper, to preserve the
   input-region correlation) and ``s_i = 0`` is always admitted, so a
   variable's coefficient mass never grows. The paper optimizes ``y_1`` this
   way and pins the remaining variables to the pivot-eliminating
   substitution ``s_i = -beta_i_k / beta_D_k`` (one of our candidate
   breakpoints); optimizing every variable is the same construction with a
   uniformly-at-least-as-tight choice.
2. the constraint ``D = 0`` is solved for each eps symbol with significant
   coefficient, restricting its range inside [-1, 1]; tightened symbols are
   rewritten as ``eps = mid + half * eps_new`` so downstream transformers
   keep the [-1, 1] invariant.

Step 2's tightenings are also *returned* (as :class:`EpsRewrite` records) so
the caller can apply the identical rewrite to every other live zonotope of
the propagation — symbols are shared, and applying the rewrite everywhere
preserves correlations (applying it to a subset is still sound: it merely
decorrelates the rewritten copies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..trace import TRACER
from .multinorm import MultiNormZonotope, norm_along_axis0, sum_along

__all__ = ["EpsRewrite", "apply_eps_rewrites", "refine_softmax_rows",
           "minimize_coefficient_mass"]

_PIVOT_TOL = 1e-9
# Only report a tightening if it shrinks the symbol range by at least this
# fraction (avoids churning on no-op rewrites).
_SHRINK_TOL = 1e-6


@dataclass(frozen=True)
class EpsRewrite:
    """Replace eps symbol ``index`` by ``mid + half * eps_fresh``."""

    index: int
    mid: float
    half: float


def apply_eps_rewrites(zonotope, rewrites):
    """Apply symbol-range rewrites to a zonotope (reusing the columns).

    For each rewrite, the center absorbs ``coeff * mid`` and the symbol's
    coefficient row is scaled by ``half``; the row then represents the
    fresh [-1, 1] symbol. Symbol indices beyond the zonotope's eps block
    (fresh symbols it never saw) are ignored.
    """
    if not rewrites:
        return zonotope
    center = zonotope.center.copy()
    eps = zonotope.eps.copy()
    for rewrite in rewrites:
        if rewrite.index >= eps.shape[0]:
            continue
        row = eps[rewrite.index]
        center += row * rewrite.mid
        eps[rewrite.index] = row * rewrite.half
    return MultiNormZonotope(center, zonotope.phi, eps, zonotope.p)


def minimize_coefficient_mass(base_coeffs, direction_coeffs, n_phi):
    """Appendix A.1: minimize ``f(s) = sum_t |r_t + s_t s|`` over ``s``.

    ``base_coeffs`` (r) and ``direction_coeffs`` (s_t) are the concatenated
    [phi | eps] coefficient vectors of the variable and of ``D``; the first
    ``n_phi`` entries are phi coefficients, whose breakpoints are excluded
    from the candidate set. ``s = 0`` is always admitted. Returns the chosen
    ``s``.
    """
    r = np.asarray(base_coeffs, dtype=np.float64)
    s = np.asarray(direction_coeffs, dtype=np.float64)
    return _minimize_scalar(r, s, np.arange(len(r)) < n_phi)


def _minimize_scalar(r, s, is_phi):
    """Scalar slope-walk for one variable (``is_phi`` flags per entry).

    The objective is convex piecewise-linear with breakpoints at
    ``-r_t / s_t``; the global minimizer is found by the O(T log T)
    slope-walk, and if it is phi-derived the best allowed candidate among
    {adjacent allowed breakpoints, 0} is taken (by convexity the restricted
    optimum over breakpoints is adjacent to the global one). Entries with
    ``s_t = 0`` only shift the objective by a constant and are dropped.
    """
    active = np.abs(s) > 0
    if not np.any(active):
        return 0.0
    breaks = -r[active] / s[active]
    weights = np.abs(s[active])
    is_phi = is_phi[active]

    order = np.argsort(breaks)
    breaks = breaks[order]
    weights = weights[order]
    is_phi = is_phi[order]

    cumulative = -weights.sum() + 2.0 * np.cumsum(weights)
    opt_pos = min(int(np.searchsorted(cumulative, 0.0)), len(breaks) - 1)

    def objective(value):
        return np.abs(r + s * value).sum()

    if not is_phi[opt_pos]:
        candidate = float(breaks[opt_pos])
    else:
        allowed = np.flatnonzero(~is_phi)
        neighbours = []
        left = allowed[allowed < opt_pos]
        right = allowed[allowed > opt_pos]
        if len(left):
            neighbours.append(float(breaks[left[-1]]))
        if len(right):
            neighbours.append(float(breaks[right[0]]))
        candidate = min(neighbours, key=objective) if neighbours else 0.0
    return candidate if objective(candidate) < objective(0.0) else 0.0


def _minimize_mass_groups(r, s, is_phi):
    """Step 1 over a *group* of softmax rows with equal active-set sizes.

    ``r``: (R, m, Ta) the coefficients of each row's m variables (its
    lanes), gathered down to the row's symbols with a nonzero D
    coefficient; ``s``: (R, Ta) the matching nonzero D coefficients;
    ``is_phi``: (Ta,) — identical across the group because every row
    gathers its phi entries first. (Symbols with a zero D coefficient only
    add a constant to every mass comparison, so dropping them changes
    nothing.) Returns the chosen ``s`` per (row, variable) lane: 0.0 where
    :func:`_zero_certified` proves the walk answers 0.0, the walk's answer
    (:func:`_walk_lanes`) elsewhere.
    """
    n_rows, n_vars, _ = r.shape
    rows, cols = np.nonzero(~_zero_certified(r, s))
    TRACER.count("refine_lanes", n_rows * n_vars)
    TRACER.count("refine_lanes_walked", len(rows))
    result = np.zeros((n_rows, n_vars))
    if len(rows):
        result[rows, cols] = _walk_lanes(r, s, is_phi, rows, cols)
    return result


# Floor of the certificate's rounding model: absolute errors of subnormal
# intermediates are far below it, and no refinable D row comes near it.
_TINY = 2.0 ** -1000


def _zero_certified(r, s):
    """Lanes of a step-1 group whose slope walk provably returns 0.0.

    Lane (i, j) minimizes ``f(x) = sum_t |r_t + s_t x|`` over its ``n``
    active symbols. With ``A = sum_{r_t != 0} sgn(r_t) s_t`` and ``Z =
    sum_{r_t = 0} |s_t|``, f'(0±) = A ± Z, so for ``a = Z - |A| > 0``
    convexity gives ``f(c) >= f(0) + a |c|`` for every c. The walk (and
    the phi fallback, :func:`_minimize_scalar`) returns a computed
    breakpoint c only if its rounded mass is below the rounded mass at 0;
    with ``W = sum_t |s_t|`` and ``K = 2 (n + 2) 2**-53`` those sums lie
    within ``K (f(c) + W |c|)`` and ``K f(0)`` of their exact values in
    any summation order, so c cannot win once ``a (1 - K) - K W > 0``
    and ``|c| >= 2 K f(0) / (a (1 - K) - K W)``. Zero breakpoints give
    bitwise-equal masses and never win.

    A lane is certified when ``gain = Z - |A| - tol W`` is positive and
    every nonzero breakpoint is at least ``(2 tol f(0)) / gain`` away
    from 0. ``A = sgn(r) @ s`` and ``Z = (r == 0) @ |s|`` are within
    ``gamma_n W`` of their exact values, so ``gain`` is below ``a (1 - K)
    - K W`` once ``tol`` covers ``2 gamma_n + 2 K`` and the rounding of
    these few operations; ``tol = 8 (n + 4) 2**-53`` does with room, and
    its fourfold margin over ``K`` also covers the rounding of the reach
    and of the computed breakpoints. The breakpoint test compares each
    lane's smallest nonzero ``|r_t|`` with its row's largest ``|s_t|``,
    which can only reject. ``_TINY`` bounds the absolute error of
    subnormal intermediates. NaN anywhere in a lane, or an infinite
    ``s_t``, makes ``gain`` NaN or -inf; an infinite ``r_t`` makes the
    reach infinite, so the lane passes only if every nonzero ``r_t`` is
    infinite, and then its rounded mass at 0 is inf and no candidate's
    is below it (each is inf or NaN): the walk answers 0.0 too.
    """
    tol = (r.shape[2] + 4) * 2.0 ** -50
    abs_s = np.abs(s)
    zero = r == 0
    slope = np.matmul(np.sign(r), s[:, :, None])[:, :, 0]
    flat = np.matmul(zero, abs_s[:, :, None])[:, :, 0]
    gain = flat - np.abs(slope) - tol * abs_s.sum(axis=1)[:, None] - _TINY
    abs_r = np.abs(r)
    mass = abs_r.sum(axis=2)
    smallest = np.where(zero, np.inf, abs_r).min(axis=2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        reach = (2.0 * tol * mass + _TINY) / gain
        far = smallest >= reach * abs_s.max(axis=1)[:, None]
    return (gain > 0) & far


def _walk_lanes(r, s, is_phi, rows, cols):
    """The Appendix A.1 slope walk on the lanes ``(rows[k], cols[k])``.

    Each lane takes its global weighted-median breakpoint unless that
    does worse than 0; lanes whose optimum is phi-derived fall back to
    :func:`_minimize_scalar`. The arithmetic is the per-row walk's
    (``minimize_mass_row`` in the tests), which sums a (Ta, m) block over
    its symbol axis: one symbol at a time when m > 1 (a cumsum's last
    entry here) and pairwise when m == 1 (numpy drops the unit axis; a
    contiguous row sum here). Argsort and cumsum see each lane alone, so
    every lane gets bitwise the per-row walk's answer.
    """
    lane_r = r[rows, cols]                      # (L, Ta)
    lane_s = s[rows]
    n_active = lane_r.shape[1]
    if r.shape[1] > 1:
        def mass(terms):
            return np.cumsum(terms, axis=1)[:, -1]
    else:
        def mass(terms):
            return terms.sum(axis=1)
    breaks = -lane_r / lane_s
    order = np.argsort(breaks, axis=1)
    lanes = np.arange(len(rows))[:, None]
    sorted_breaks = breaks[lanes, order]
    cumulative = (-np.abs(s).sum(axis=1)[rows][:, None]
                  + 2.0 * np.cumsum(np.abs(lane_s)[lanes, order], axis=1))
    opt_pos = np.minimum((cumulative < 0).sum(axis=1), n_active - 1)
    chosen = sorted_breaks[lanes[:, 0], opt_pos]
    phi_hit = is_phi[order[lanes[:, 0], opt_pos]]

    mass_at = mass(np.abs(lane_r + lane_s * chosen[:, None]))
    result = np.where(mass_at < mass(np.abs(lane_r)), chosen, 0.0)
    for lane in np.flatnonzero(phi_hit):
        result[lane] = _minimize_scalar(lane_r[lane], lane_s[lane], is_phi)
    return result


def refine_softmax_rows(z):
    """Refine an (n, m) softmax-output zonotope row by row.

    Returns ``(refined_zonotope, rewrites)``. Numerically empty tightened
    ranges (impossible for sound inputs) are collapsed to their midpoint.
    """
    if z.ndim != 2:
        raise ValueError(f"expected an (n, m) zonotope, got {z.shape}")
    started = TRACER.start()
    out, rewrites = _refine_impl(z)
    TRACER.finish(started, "softmax-sum-refine", out,
                  n_rewrites=len(rewrites))
    return out, rewrites


# Upper bound on stacked slope-walk temporaries (elements per chunk): keeps
# the grouped refinement's working set around a few MB regardless of the
# row count or symbol cap.
_GROUP_CHUNK_ELEMS = 1 << 21


def _active_symbols(active, rows, count):
    """(len(rows), count) indices of each row's active symbols, ascending.

    ``active``: (n, S) C-contiguous mask; every listed row has ``count``
    active symbols, so the row-major ``flatnonzero`` reshapes exactly.
    """
    flat = np.flatnonzero(active[rows]).reshape(len(rows), count)
    return flat - active.shape[1] * np.arange(len(rows))[:, None]


def _refine_group_step1(center, phi, eps, d_phi_all, d_eps_all,
                        d_center_all, phi_active, eps_active, rows, len_phi,
                        len_eps):
    """Step 1 for one chunk of rows sharing active-set sizes, in place.

    Row ``i``'s coefficients of symbol ``t`` are row ``t * n + i`` of the
    (symbols * n, m) view of a block, so one flat index gathers both a
    group's coefficients and its D coefficients (``d_*_all`` are (S, n)).
    Only lanes whose answer is nonzero are updated, each of their
    (symbol, row, variable) cells by exactly one ``+= s . value`` — the
    arithmetic of the per-row ``np.outer`` updates. Adding ``s . 0.0``
    changes no value (only a -0.0 coefficient could turn +0.0), so
    skipping the other lanes gives the same abstract element.
    """
    n, n_vars = center.shape
    at = rows[:, None]
    phi_at = _active_symbols(phi_active, rows, len_phi) * n + at
    eps_at = _active_symbols(eps_active, rows, len_eps) * n + at
    lanes = np.concatenate(
        [np.take(phi.reshape(-1, n_vars), phi_at, axis=0).transpose(0, 2, 1),
         np.take(eps.reshape(-1, n_vars), eps_at, axis=0).transpose(0, 2, 1)],
        axis=2)
    s_grp = np.concatenate([np.take(d_phi_all, phi_at),
                            np.take(d_eps_all, eps_at)], axis=1)
    is_phi = np.arange(len_phi + len_eps) < len_phi
    values = _minimize_mass_groups(lanes, s_grp, is_phi)

    moved, cols = np.nonzero(values)
    if not len(moved):
        return
    values = values[moved, cols]
    center[rows[moved], cols] += values * d_center_all[rows[moved]]
    shifts = s_grp[moved] * values[:, None]
    cells = cols[:, None]
    phi.reshape(-1)[phi_at[moved] * n_vars + cells] += shifts[:, :len_phi]
    eps.reshape(-1)[eps_at[moved] * n_vars + cells] += shifts[:, len_phi:]


# Step 2 evaluates a symbol only if ``2 |beta_m| >= mass - |c_D| -
# _FILTER_SLACK . mass``: every other symbol's range provably covers
# [-1, 1] after rounding (see _combined_tightenings).
_FILTER_SLACK = 2.0 ** -40


def _combined_tightenings(refinable, d_center_all, d_phi_mass_all,
                          d_eps_all):
    """Step 2 over all refinable rows: intersected per-symbol ranges.

    Solving row ``i``'s ``0 = c_D + alpha_D.phi + beta_D.eps`` for a
    symbol ``eps_m`` with a significant coefficient restricts its range to
    ``[(-c_D - R_m)/beta_m, (-c_D + R_m)/beta_m]`` (sorted) intersected
    with [-1, 1], where ``R_m = mass - |beta_m|`` is the dual-norm mass of
    the remaining terms. The range is kept only if it does not cover
    [-1, 1], i.e. only if ``R_m - |c_D| < |beta_m|``, i.e. ``2 |beta_m| >
    mass - |c_D|``, so only symbols with ``2 |beta_m| >= mass - |c_D| -
    _FILTER_SLACK . mass`` are evaluated. For every other symbol ``mass -
    |c_D| - 2 |beta_m|`` exceeds ``_FILTER_SLACK . mass``, far above the
    ``4 . 2**-53 . mass`` that rounding of ``R_m`` (``|beta_m| < mass /
    2``), of ``-c_D -+ R_m`` and of the quotient can take off it, so both
    computed ends clamp to -1 and 1. (Rounding alone does tighten ranges
    the exact arithmetic would not: ``R_m`` of a 2**26-scale mass can
    round down by half an ulp, a sizeable share of a symbol of a few
    ulps; a test pins such a row.) The survivors are evaluated in one
    flat pass with the per-row oracle's elementwise operations and its
    per-row (pairwise) mass sums, so every interval is bitwise the
    per-row result; intersection (max/min) does not depend on order.
    Returns a dict ``index -> (lo, hi)``.
    """
    combined = {}
    if not len(refinable):
        return combined
    # C-contiguous rows: the per-row mass sums must reduce over a
    # contiguous axis so numpy applies the same pairwise summation the
    # per-row routine sees on its freshly-allocated |d_eps| vectors.
    abs_all = np.ascontiguousarray(np.abs(d_eps_all[:, refinable]).T)
    mass = d_phi_mass_all[refinable] + abs_all.sum(axis=1)
    neg_center = -d_center_all[refinable]
    floor = mass - np.abs(neg_center) - _FILTER_SLACK * mass
    members, symbols = np.nonzero((abs_all > _PIVOT_TOL)
                                  & (2.0 * abs_all >= floor[:, None]))
    rest = mass[members] - abs_all[members, symbols]
    coeff = d_eps_all[symbols, refinable[members]]
    a = (neg_center[members] - rest) / coeff
    b = (neg_center[members] + rest) / coeff
    lo = np.maximum(np.minimum(a, b), -1.0)
    hi = np.minimum(np.maximum(a, b), 1.0)
    keep = hi - lo < 2.0 - _SHRINK_TOL
    for key, low, high in zip(symbols[keep].tolist(), lo[keep].tolist(),
                              hi[keep].tolist()):
        if key in combined:
            prev_lo, prev_hi = combined[key]
            low, high = max(low, prev_lo), min(high, prev_hi)
        combined[key] = (low, high)
    return combined


def _refine_impl(z):
    center = z.center.copy()
    phi = z.phi.copy()
    eps = z.eps_copy()
    n_phi = z.n_phi

    # Affine form of every row's D at once; each row then gathers only the
    # symbols that actually touch it (the per-row sparsity is what makes
    # softmax refinement cheap even with thousands of live symbols).
    d_center_all = 1.0 - sum_along(center, 1)
    d_phi_all = -sum_along(phi, 2)              # (P, n)
    d_eps_all = -sum_along(eps, 2)              # (T, n)
    d_phi_mass_all = (norm_along_axis0(d_phi_all, z.q)
                      if n_phi else np.zeros(z.shape[0]))

    # Step 1, grouped: rows with equal (|phi_active|, |eps_active|) share
    # one stacked certificate and slope walk (:func:`_minimize_mass_groups`)
    # and one flat gather/scatter. Grouping is safe because step 1 only
    # touches row ``i``'s own slices and step 2 reads the *original* D
    # forms — rows never observe each other, so evaluation order is free.
    refinable = np.flatnonzero(
        np.abs(d_eps_all).max(axis=0, initial=0.0) > _PIVOT_TOL)
    n_vars = z.shape[1]
    phi_active = np.ascontiguousarray(d_phi_all.T) != 0
    eps_active = np.ascontiguousarray(d_eps_all.T) != 0

    groups = {}
    for row, lp, le in zip(refinable.tolist(),
                           phi_active[refinable].sum(axis=1).tolist(),
                           eps_active[refinable].sum(axis=1).tolist()):
        groups.setdefault((lp, le), []).append(row)

    for (len_phi, len_eps), row_list in groups.items():
        # Chunk wide groups so the stacked (rows, vars, active) slope-walk
        # temporaries stay cache-sized — each row's computation is
        # independent, so chunking never changes a bit, only the peak
        # working set (a large symbol cap would otherwise materialize
        # hundreds of MB and thrash).
        per_row = max(1, (len_phi + len_eps) * n_vars)
        chunk = max(1, _GROUP_CHUNK_ELEMS // per_row)
        for start in range(0, len(row_list), chunk):
            _refine_group_step1(center, phi, eps, d_phi_all, d_eps_all,
                                d_center_all, phi_active, eps_active,
                                np.asarray(row_list[start:start + chunk]),
                                len_phi, len_eps)

    # Step 2: symbol tightenings from D = 0 (D is unchanged by step 1 on
    # the constraint set, and its affine form is fixed).
    combined = _combined_tightenings(refinable, d_center_all, d_phi_mass_all,
                                     d_eps_all)

    rewrites = []
    for idx, (lo, hi) in sorted(combined.items()):
        if hi < lo:  # numerically empty; collapse to the midpoint
            lo = hi = 0.5 * (lo + hi)
        rewrites.append(EpsRewrite(
            index=idx, mid=0.5 * (lo + hi), half=0.5 * (hi - lo)))
        # Applied in place on the copied arrays (same update
        # apply_eps_rewrites performs, minus a second full-block copy).
        row = eps[idx]
        center += row * rewrites[-1].mid
        eps[idx] = row * rewrites[-1].half
    return MultiNormZonotope(center, phi, eps, z.p), rewrites
