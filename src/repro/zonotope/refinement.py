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
from .multinorm import MultiNormZonotope

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

    ``r``: (R, Ta, m) stacked per-row coefficient gathers; ``s``: (R, Ta)
    stacked D coefficients; ``is_phi``: (Ta,) — identical across the group
    because every row gathers ``len(phi_active)`` phi entries first. Each
    lane computation (argsort, cumsum, last-/middle-axis sums) reduces
    per-row in exactly the order of the 2D routine, so the returned
    (R, m) choices are bitwise what :func:`_minimize_mass_rows` yields
    row by row.
    """
    n_rows, n_active, n_vars = r.shape
    breaks = -r / s[:, :, None]                  # (R, Ta, m)
    weights = np.abs(s)                          # (R, Ta)

    order = np.argsort(breaks, axis=1)
    sorted_breaks = np.take_along_axis(breaks, order, axis=1)
    sorted_weights = np.take_along_axis(
        np.broadcast_to(weights[:, :, None], breaks.shape), order, axis=1)
    sorted_is_phi = is_phi[order]
    cumulative = (-weights.sum(axis=1)[:, None, None]
                  + 2.0 * np.cumsum(sorted_weights, axis=1))
    opt_pos = np.minimum((cumulative < 0).sum(axis=1), n_active - 1)

    rows_ix = np.arange(n_rows)[:, None]
    cols_ix = np.arange(n_vars)[None, :]
    chosen = sorted_breaks[rows_ix, opt_pos, cols_ix]
    phi_hit = sorted_is_phi[rows_ix, opt_pos, cols_ix]

    mass_at = np.abs(r + s[:, :, None] * chosen[:, None, :]).sum(axis=1)
    mass_at_zero = np.abs(r).sum(axis=1)
    result = np.where(mass_at < mass_at_zero, chosen, 0.0)

    for row, col in zip(*np.nonzero(phi_hit)):
        result[row, col] = _minimize_scalar(r[row, :, col], s[row], is_phi)
    return result


def _minimize_mass_rows(r, s, is_phi):
    """Vectorized step 1 over the ``m`` variables of one softmax row.

    ``r``: (Ta, m) [phi | eps] coefficients of the row variables, already
    gathered down to the symbols with a nonzero D coefficient; ``s``:
    (Ta,) the matching nonzero D coefficients; ``is_phi``: (Ta,) bool.
    Returns the chosen ``s`` per variable. The fast path finds the global
    weighted-median breakpoint per column; columns whose optimum is
    phi-derived fall back to the scalar routine. (Symbols with a zero D
    coefficient only add a constant to every mass comparison, so dropping
    them before the call changes nothing.)
    """
    n_vars = r.shape[1]
    result = np.zeros(n_vars)
    if not len(s):
        return result
    breaks = -r / s[:, None]                 # (Ta, m)
    weights = np.abs(s)

    order = np.argsort(breaks, axis=0)
    sorted_breaks = np.take_along_axis(breaks, order, axis=0)
    sorted_weights = weights[order]
    sorted_is_phi = is_phi[order]
    cumulative = -weights.sum() + 2.0 * np.cumsum(sorted_weights, axis=0)
    opt_pos = np.minimum((cumulative < 0).sum(axis=0), len(s) - 1)

    cols = np.arange(n_vars)
    chosen = sorted_breaks[opt_pos, cols]
    phi_hit = sorted_is_phi[opt_pos, cols]

    # Never-worse-than-zero guard, vectorized.
    mass_at = np.abs(r + s[:, None] * chosen[None, :]).sum(axis=0)
    mass_at_zero = np.abs(r).sum(axis=0)
    chosen = np.where(mass_at < mass_at_zero, chosen, 0.0)

    result[:] = chosen
    for col in np.flatnonzero(phi_hit):
        result[col] = _minimize_scalar(r[:, col], s, is_phi)
    return result


def _tightenings_from_constraint(d_center, d_phi_mass, d_eps):
    """Step 2: per-symbol range restrictions from ``D = 0``.

    Solving ``0 = c_D + alpha_D.phi + beta_D.eps`` for ``eps_m`` restricts
    its range to ``[(-c_D - R_m)/beta_m, (-c_D + R_m)/beta_m]`` (sorted),
    where ``R_m`` is the dual-norm mass of the remaining terms. Returns a
    dict ``index -> (a, b)`` intersected with [-1, 1].
    """
    abs_coeffs = np.abs(d_eps)
    significant = np.flatnonzero(abs_coeffs > _PIVOT_TOL)
    if not len(significant):
        return {}
    rest = d_phi_mass + abs_coeffs.sum() - abs_coeffs[significant]
    a = (-d_center - rest) / d_eps[significant]
    b = (-d_center + rest) / d_eps[significant]
    lo = np.maximum(np.minimum(a, b), -1.0)
    hi = np.minimum(np.maximum(a, b), 1.0)
    keep = hi - lo < 2.0 - _SHRINK_TOL
    return {int(m): (float(l), float(h))
            for m, l, h in zip(significant[keep], lo[keep], hi[keep])}


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


def _refine_group_step1(center, phi, eps, d_phi_all, d_eps_all,
                        d_center_all, row_list, len_phi, len_eps, n_vars):
    """Step 1 for one chunk of rows sharing active-set sizes, in place.

    Every gather is index-pure and ``np.nonzero`` on the (rows, symbols)
    mask emits row-major pairs, i.e. exactly each row's ``flatnonzero``
    order; the flat (symbol, row) scatter pairs are unique, so the fancy
    in-place adds perform exactly one per-element ``+=`` — the same
    arithmetic as the per-row ``np.outer`` updates.
    """
    rows = np.asarray(row_list)
    local_p, pt = np.nonzero(d_phi_all[:, rows].T)
    local_e, et = np.nonzero(d_eps_all[:, rows].T)
    prow = rows[local_p]
    erow = rows[local_e]
    r_grp = np.concatenate([
        phi[pt, prow].reshape(len(rows), len_phi, n_vars),
        eps[et, erow].reshape(len(rows), len_eps, n_vars)], axis=1)
    s_grp = np.concatenate([
        d_phi_all[pt, prow].reshape(len(rows), len_phi),
        d_eps_all[et, erow].reshape(len(rows), len_eps)], axis=1)
    is_phi = np.concatenate([np.ones(len_phi, dtype=bool),
                             np.zeros(len_eps, dtype=bool)])
    if len(rows) == 1:
        values = _minimize_mass_rows(r_grp[0], s_grp[0], is_phi)[None]
    else:
        values = _minimize_mass_groups(r_grp, s_grp, is_phi)

    center[rows] += values * d_center_all[rows, None]
    if len_phi:
        phi[pt, prow] += (s_grp[:, :len_phi].reshape(-1, 1)
                          * values[local_p])
    if len_eps:
        eps[et, erow] += (s_grp[:, len_phi:].reshape(-1, 1)
                          * values[local_e])


def _combined_tightenings(refinable, d_center_all, d_phi_mass_all,
                          d_eps_all):
    """Step 2 over all refinable rows: intersected per-symbol ranges.

    Stacked evaluation of :func:`_tightenings_from_constraint`'s
    arithmetic, grouped by significant-symbol count; the per-element
    operations and the per-row (pairwise) mass sums are identical, so the
    intervals are bitwise the per-row results. Interval intersection
    (max/min) is commutative, so grouping never changes the outcome.
    """
    combined = {}
    if not len(refinable):
        return combined
    # C-contiguous rows: the per-row mass sums must reduce over a
    # contiguous axis so numpy applies the same pairwise summation the
    # per-row routine sees on its freshly-allocated |d_eps| vectors.
    abs_all = np.ascontiguousarray(np.abs(d_eps_all[:, refinable]).T)
    sig_mask = abs_all > _PIVOT_TOL
    totals = abs_all.sum(axis=1)
    sig_groups = {}
    for r, count in enumerate(sig_mask.sum(axis=1)):
        if count:
            sig_groups.setdefault(int(count), []).append(r)
    for count, member_list in sig_groups.items():
        members = np.asarray(member_list)
        sig_idx = np.nonzero(sig_mask[members])[1].reshape(-1, count)
        rows = refinable[members]
        abs_sig = abs_all[members[:, None], sig_idx]
        d_eps_sig = d_eps_all[sig_idx, rows[:, None]]
        rest = ((d_phi_mass_all[rows] + totals[members])[:, None]
                - abs_sig)
        neg_center = -d_center_all[rows][:, None]
        a = (neg_center - rest) / d_eps_sig
        b = (neg_center + rest) / d_eps_sig
        lo = np.maximum(np.minimum(a, b), -1.0)
        hi = np.minimum(np.maximum(a, b), 1.0)
        keep = hi - lo < 2.0 - _SHRINK_TOL
        for local, k in zip(*np.nonzero(keep)):
            key = int(sig_idx[local, k])
            pair = (float(lo[local, k]), float(hi[local, k]))
            if key in combined:
                prev_lo, prev_hi = combined[key]
                combined[key] = (max(pair[0], prev_lo),
                                 min(pair[1], prev_hi))
            else:
                combined[key] = pair
    return combined


def _refine_impl(z):
    center = z.center.copy()
    phi = z.phi.copy()
    eps = z.eps.copy()
    n_phi = z.n_phi
    from .multinorm import norm_along_axis0

    # Affine form of every row's D at once; each row then gathers only the
    # symbols that actually touch it (the per-row sparsity is what makes
    # softmax refinement cheap even with thousands of live symbols).
    d_center_all = 1.0 - center.sum(axis=1)
    d_phi_all = -phi.sum(axis=2)              # (P, n)
    d_eps_all = -eps.sum(axis=2)              # (T, n)
    d_phi_mass_all = (norm_along_axis0(d_phi_all, z.q)
                      if n_phi else np.zeros(z.shape[0]))

    # Step 1, grouped: rows with equal (|phi_active|, |eps_active|) share
    # one stacked slope-walk (:func:`_minimize_mass_groups`) and one flat
    # fancy-indexed gather/scatter. Grouping is safe because step 1 only
    # touches row ``i``'s own slices and step 2 reads the *original* D
    # forms — rows never observe each other, so evaluation order is free;
    # and step 2's interval intersection (max/min) is commutative. Every
    # gather is index-pure and ``np.nonzero`` on the (rows, symbols) mask
    # emits row-major pairs, i.e. exactly each row's ``flatnonzero`` order.
    refinable = np.flatnonzero(
        np.abs(d_eps_all).max(axis=0, initial=0.0) > _PIVOT_TOL)
    n_vars = z.shape[1]

    groups = {}
    if len(refinable):
        phi_counts = np.count_nonzero(d_phi_all[:, refinable], axis=0)
        eps_counts = np.count_nonzero(d_eps_all[:, refinable], axis=0)
        for row, lp, le in zip(refinable, phi_counts, eps_counts):
            groups.setdefault((int(lp), int(le)), []).append(int(row))

    for (len_phi, len_eps), row_list in groups.items():
        # Chunk wide groups so the stacked (rows, active, vars) slope-walk
        # temporaries stay cache-sized — each row's computation is
        # independent, so chunking never changes a bit, only the peak
        # working set (a large symbol cap would otherwise materialize
        # hundreds of MB and thrash).
        per_row = max(1, (len_phi + len_eps) * n_vars)
        chunk = max(1, _GROUP_CHUNK_ELEMS // per_row)
        for start in range(0, len(row_list), chunk):
            _refine_group_step1(center, phi, eps, d_phi_all, d_eps_all,
                                d_center_all, row_list[start:start + chunk],
                                len_phi, len_eps, n_vars)

    # Step 2: symbol tightenings from D = 0 (D is unchanged by step 1 on
    # the constraint set, and its affine form is fixed). Rows with equal
    # significant-symbol counts share one stacked evaluation of
    # :func:`_tightenings_from_constraint`'s arithmetic; the per-element
    # operations and the per-row (pairwise) mass sums are identical, so
    # the intervals are bitwise the per-row results.
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
