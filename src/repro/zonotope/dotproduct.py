"""Dot-product and multiplication abstract transformers (Sections 4.8, 4.9).

The self-attention needs products of *pairs of zonotope variables*: the
``Q K^T`` score matrix and the ``softmax(..) V`` mixing step. For
``v1 = c1 + A1.phi + B1.eps`` and ``v2 = c2 + A2.phi + B2.eps`` (vectors of
variables sharing noise symbols), the dot product expands into

* an exact affine part    ``c1.c2 + (c1^T A2 + c2^T A1).phi + (...).eps``,
* a quadratic interaction ``(A1.phi + B1.eps) . (A2.phi + B2.eps)``

whose four symbol-pair cases are bounded by intervals and folded into a
center shift plus one fresh eps symbol per output variable.

Two bounding strategies are provided:

``fast``     the dual-norm cascade of Eq. (5): O(N (Ep + Einf)); applies to
             every case; the bound is not symmetric in the operands, and the
             ``order`` flag selects which norm the dual trick hits first for
             the mixed phi/eps cases (Table 6 ablates this; ℓ∞-first is the
             paper's default).
``precise``  the pairwise interval analysis of Eq. (6) for the eps-eps case
             only, exploiting eps_i^2 in [0, 1]; the mixed and phi-phi
             cases still use the fast bound. This is the DeepT-Precise dot
             product. Output row i costs O(m k |S_i| |T|), where S_i are the
             eps symbols with a coefficient in x's row i and T those with
             one anywhere in y: exact-zero symbols are skipped, so the cost
             is not the O(N Einf^2) of the dense pairwise tensor.

Every contraction over the k axis runs as a broadcast ``np.matmul`` (BLAS
per 2-D slice, the symbol and head axes as batch axes). The elementwise
pairwise products of Section 4.9 are outer products, not contractions, and
stay ``einsum``.
"""

from __future__ import annotations

import numpy as np

from ..trace import TRACER
from .multinorm import MultiNormZonotope, dual_exponent, norm_along_axis0
from .numeric import under_propagation_errstate
from .storage import fast_path_enabled

__all__ = ["zonotope_matmul", "zonotope_multiply", "DotProductConfig"]


class DotProductConfig:
    """Options for the dot-product transformer.

    Parameters
    ----------
    variant:
        ``"fast"`` (DeepT-Fast) or ``"precise"`` (DeepT-Precise eps-eps
        bound).
    order:
        ``"linf_first"`` applies the dual-norm trick to the ℓ∞-norm symbols
        first in the mixed phi/eps cases (paper default, Section 6.5);
        ``"lp_first"`` is the opposite order.
    tol:
        Quadratic-term magnitudes below this get no fresh noise symbol.
    """

    def __init__(self, variant="fast", order="linf_first", tol=0.0):
        if variant not in ("fast", "precise"):
            raise ValueError(f"unknown dot-product variant {variant!r}")
        if order not in ("linf_first", "lp_first"):
            raise ValueError(f"unknown dual-norm order {order!r}")
        self.variant = variant
        self.order = order
        self.tol = tol


def _fast_case_bound(inner_coeffs, inner_q, outer_coeffs, outer_q, pattern):
    """Eq. (5) bound for one symbol-pair case, batched over output pairs.

    ``inner_coeffs`` plays W (collapsed first with its dual norm
    ``inner_q``), ``outer_coeffs`` plays V (collapsed second with
    ``outer_q``). ``pattern`` names the contraction:

    * ``"row-col"``: outputs (n, m) from x rows (E, n, k) . y cols (E, k, m)
      — inner must be the y-side array, outer the x-side array.
    * ``"col-row"``: the transposed pairing (inner = x side, outer = y
      side), used when the operand roles are swapped.

    Both are one broadcast ``np.matmul`` with the symbol axis as a batch
    axis, so the bound batches over any leading (e.g. per-head) variable
    axes shared by the operands.
    """
    if pattern == "row-col":
        # inner: (E2, ..., k, m) -> s[..., k, m]; outer: (E1, ..., n, k)
        s = norm_along_axis0(inner_coeffs, inner_q)
        t = np.matmul(np.abs(outer_coeffs), s)
    elif pattern == "col-row":
        # inner: (E1, ..., n, k) -> s[..., n, k]; outer: (E2, ..., k, m)
        s = norm_along_axis0(inner_coeffs, inner_q)
        t = np.matmul(s, np.abs(outer_coeffs))
    else:
        raise ValueError(pattern)
    return norm_along_axis0(t, outer_q)


def _precise_eps_bounds(x_eps, y_eps):
    """Eq. (6) interval bounds of ``(B1 eps).(B2 eps)`` per output pair.

    ``x_eps``: (E, ..., n, k), ``y_eps``: (E, ..., k, m). Returns (l, u) of
    shape (..., n, m). For output (i, j) the pairwise matrix is
    M[a, b] = sum_t x[a,i,t] y[b,t,j]; its diagonal takes eps_a^2 in
    [0, 1] and every off-diagonal entry costs |M_ab|.

    A symbol with no coefficient in row i of ``x`` (outside S_i), or none
    anywhere in ``y`` (outside T), contributes exact zeros to M, so each
    row multiplies only ``x[S_i, i, :]`` by ``y[T]`` in one BLAS-backed
    matmul and reads the diagonal from that same block at the symbols in
    both S_i and T. Only exact zeros are skipped: a NaN or Inf coefficient
    is nonzero and stays in the pass.

    Every row's block is written into one workspace allocated per leading
    slice, sized for the largest S_i. Fresh multi-MB blocks per row would
    be served from heap or from new mmap pages depending on glibc's
    dynamic mmap threshold, which earlier allocations move, so the
    kernel's speed would depend on what ran before it.
    """
    n_eps = x_eps.shape[0]
    batch_shape = x_eps.shape[1:-2]
    n, k = x_eps.shape[-2:]
    m = y_eps.shape[-1]
    lower = np.zeros(batch_shape + (n, m))
    upper = np.zeros(batch_shape + (n, m))
    if n_eps == 0:
        return lower, upper
    x_flat = x_eps.reshape((n_eps, -1, n, k))
    y_flat = y_eps.reshape((n_eps, -1, k, m))
    lower_flat = lower.reshape((-1, n, m))
    upper_flat = upper.reshape((-1, n, m))
    for b in range(x_flat.shape[1]):
        y_b = y_flat[:, b]
        live_y = np.flatnonzero((y_b != 0).any(axis=(1, 2)))   # T
        if not len(live_y):
            continue
        # (m, k, |T|), contiguous so every (k, |T|) slice is BLAS-able.
        y_live = np.ascontiguousarray(y_b[live_y].transpose(2, 1, 0))
        position_in_y = np.full(n_eps, -1)
        position_in_y[live_y] = np.arange(len(live_y))
        x_b = x_flat[:, b]
        live_x = (x_b != 0).any(axis=2)                         # (E, n)
        workspace = np.empty(m * int(live_x.sum(axis=0).max(initial=0))
                             * len(live_y))
        for i in range(n):
            live_row = np.flatnonzero(live_x[:, i])             # S_i
            if not len(live_row):
                continue
            # M restricted to S_i x T: (m, |S_i|, |T|).
            pairwise = workspace[:m * len(live_row) * len(live_y)].reshape(
                (m, len(live_row), len(live_y)))
            np.matmul(x_b[live_row, i, :], y_live, out=pairwise)
            in_y = position_in_y[live_row]
            shared = np.flatnonzero(in_y >= 0)                  # S_i & T
            # A fancy-index copy, so the in-place abs below keeps its signs.
            diag = pairwise[:, shared, in_y[shared]]
            # sum_{a != b} |M_ab|
            off = (np.abs(pairwise, out=pairwise).sum(axis=(1, 2))
                   - np.abs(diag).sum(axis=1))
            lower_flat[b, i] = np.minimum(diag, 0.0).sum(axis=1) - off
            upper_flat[b, i] = np.maximum(diag, 0.0).sum(axis=1) + off
    return lower, upper


def _quadratic_bounds(x, y, config):
    """Interval bounds of the full quadratic interaction term, per output.

    ``x``: zonotope (..., n, k), ``y``: zonotope (..., k, m); returns
    (l, u) of shape (..., n, m) bounding
    (A1 phi + B1 eps)_i . (A2 phi + B2 eps)_j.
    """
    q = x.q
    bound = np.zeros(x.shape[:-1] + (y.shape[-1],))

    # phi-phi: both sides carry the ℓp norm; collapse the y side first.
    if x.n_phi and y.n_phi:
        bound = bound + _fast_case_bound(y.phi, q, x.phi, q, "row-col")

    # Mixed cases: the order flag decides which norm the dual trick
    # collapses first (the first-collapsed operand is the inner one).
    if x.n_phi and y.n_eps:
        if config.order == "linf_first":
            bound = bound + _fast_case_bound(y.eps, 1.0, x.phi, q, "row-col")
        else:
            bound = bound + _fast_case_bound(x.phi, q, y.eps, 1.0, "col-row")
    if x.n_eps and y.n_phi:
        if config.order == "linf_first":
            bound = bound + _fast_case_bound(x.eps, 1.0, y.phi, q, "col-row")
        else:
            bound = bound + _fast_case_bound(y.phi, q, x.eps, 1.0, "row-col")

    lower, upper = -bound, bound

    # eps-eps: fast cascade or the precise pairwise analysis.
    if x.n_eps and y.n_eps:
        if config.variant == "precise":
            l_ee, u_ee = _precise_eps_bounds(x.eps, y.eps)
        else:
            b_ee = _fast_case_bound(y.eps, 1.0, x.eps, 1.0, "row-col")
            l_ee, u_ee = -b_ee, b_ee
        lower = lower + l_ee
        upper = upper + u_ee
    return lower, upper


def _matmul_fast_path(x, y, config):
    """Structure-aware DeepT-Fast matmul: no padding, no materialization.

    Numerically equivalent to the aligned dense route (same Eq. (5)
    cascades, reassociated), but exploits the engine's lazy representation:

    * operands are never zero-padded to a common symbol count — each
      operand's cross matmul runs over its own rows only, and the output
      block is allocated at ``max`` size directly;
    * lazy tails contribute exact cross rows by scatter instead of a dense
      matmul over one-nonzero rows;
    * every eps-side Eq. (5) cascade starts (or ends) with the dual ℓ1
      norm, which is just the per-variable ℓ1 mass — so the eps blocks
      collapse through :meth:`MultiNormZonotope.eps_l1` in O(E·N) and the
      remaining contraction is symbol-free: the eps-eps case becomes a
      single ``l1(x) @ l1(y)`` product instead of an O(E·n·k·m)
      contraction.
    """
    if x.n_phi != y.n_phi or x.p != y.p:
        raise ValueError("zonotopes come from different symbol spaces")
    out_shape = x.shape[:-1] + (y.shape[-1],)
    center = np.matmul(x.center, y.center)

    if x.n_phi:
        phi = np.matmul(x.phi, y.center) + np.matmul(x.center, y.phi)
    else:
        phi = np.zeros((0,) + out_shape)

    eps = np.zeros((max(x.n_eps, y.n_eps),) + out_shape)
    cx, cy = x._eps_count, y._eps_count
    if cx:
        eps[:cx] += np.matmul(x._dense_rows(), y.center)
    if x._eps_tail is not None and len(x._eps_tail):
        x._eps_tail.scatter_cross(eps, cx, x.shape, y.center, "x")
    if cy:
        eps[:cy] += np.matmul(x.center, y._dense_rows())
    if y._eps_tail is not None and len(y._eps_tail):
        y._eps_tail.scatter_cross(eps, cy, y.shape, x.center, "y")

    q = x.q
    bound = np.zeros(out_shape)
    x_l1 = x.eps_l1() if x.n_eps else None
    y_l1 = y.eps_l1() if y.n_eps else None
    if x.n_phi and y.n_phi:
        bound += _fast_case_bound(y.phi, q, x.phi, q, "row-col")
    if x.n_phi and y.n_eps:
        if config.order == "linf_first":
            t = np.matmul(np.abs(x.phi), y_l1)
            bound += norm_along_axis0(t, q)
        else:
            s = norm_along_axis0(x.phi, q)
            bound += np.matmul(s, y_l1)
    if x.n_eps and y.n_phi:
        if config.order == "linf_first":
            t = np.matmul(x_l1, np.abs(y.phi))
            bound += norm_along_axis0(t, q)
        else:
            s = norm_along_axis0(y.phi, q)
            bound += np.matmul(x_l1, s)
    if x.n_eps and y.n_eps:
        bound += np.matmul(x_l1, y_l1)

    out = MultiNormZonotope(center, phi, eps, x.p)
    return out.append_fresh_eps(bound, tol=config.tol)


@under_propagation_errstate
def zonotope_matmul(x, y, config=None):
    """Abstract matrix product of two zonotopes: (n, k) @ (k, m) -> (n, m).

    Leading variable axes batch: (..., n, k) @ (..., k, m) -> (..., n, m)
    with identical batch shapes — this is how multi-head attention runs all
    heads' score and mixing products as single batched matmuls.

    Both operands live in the same symbol space. On the structured engine
    the fast variant takes :func:`_matmul_fast_path` (padding-free, tails
    never densified); otherwise the operands are aligned first and the
    bounds run over dense blocks. The affine part is exact; the quadratic
    interaction is folded into a center shift plus a fresh eps symbol per
    output variable.
    """
    config = config or DotProductConfig()
    if (x.ndim < 2 or y.ndim != x.ndim or x.shape[-1] != y.shape[-2]
            or x.shape[:-2] != y.shape[:-2]):
        raise ValueError(f"incompatible shapes {x.shape} @ {y.shape}")
    started = TRACER.start()
    out = _matmul_impl(x, y, config)
    TRACER.finish(started, f"dot-{config.variant}", out)
    return out


def _matmul_impl(x, y, config):
    if fast_path_enabled() and config.variant == "fast":
        return _matmul_fast_path(x, y, config)
    x, y = x.aligned_with(y)

    center = np.matmul(x.center, y.center)
    n_out_shape = x.shape[:-1] + (y.shape[-1],)

    def cross(coeff_x, coeff_y):
        """c2-weighted x-coeffs plus c1-weighted y-coeffs (exact part)."""
        parts = []
        if coeff_x.shape[0]:
            parts.append(np.matmul(coeff_x, y.center))
        if coeff_y.shape[0]:
            parts.append(np.matmul(x.center, coeff_y))
        if not parts:
            return np.zeros((0,) + n_out_shape)
        return parts[0] + parts[1] if len(parts) == 2 else parts[0]

    phi = cross(x.phi, y.phi) if (x.n_phi or y.n_phi) \
        else np.zeros((0,) + n_out_shape)
    eps = cross(x.eps, y.eps) if (x.n_eps or y.n_eps) \
        else np.zeros((0,) + n_out_shape)

    lower, upper = _quadratic_bounds(x, y, config)
    center = center + 0.5 * (lower + upper)
    out = MultiNormZonotope(center, phi, eps, x.p)
    return out.append_fresh_eps(0.5 * (upper - lower), tol=config.tol)


@under_propagation_errstate
def zonotope_multiply(x, y, config=None):
    """Elementwise product of two zonotopes of the same variable shape.

    This is the Section 4.9 transformer: the dot product specialized to
    1-element vectors, vectorized over all variables. Broadcasting between
    the operand shapes is supported (needed by standard layer norm, where a
    per-row 1/sigma multiplies a full row).
    """
    config = config or DotProductConfig()
    started = TRACER.start()
    x, y = x.aligned_with(y)
    out_shape = np.broadcast_shapes(x.shape, y.shape)
    x = _broadcast_vars(x, out_shape)
    y = _broadcast_vars(y, out_shape)

    center = x.center * y.center
    phi = (x.phi * y.center + x.center * y.phi) if (x.n_phi or y.n_phi) \
        else np.zeros((0,) + out_shape)
    eps = (x.eps * y.center + x.center * y.eps) if (x.n_eps or y.n_eps) \
        else np.zeros((0,) + out_shape)

    lower, upper = _elementwise_quadratic_bounds(x, y, config)
    center = center + 0.5 * (lower + upper)
    out = MultiNormZonotope(center, phi, eps, x.p).append_fresh_eps(
        0.5 * (upper - lower), tol=config.tol)
    TRACER.finish(started, f"multiply-{config.variant}", out)
    return out


def _broadcast_vars(z, shape):
    """Broadcast a zonotope's variables (and coefficients) to ``shape``."""
    if z.shape == tuple(shape):
        return z
    center = np.broadcast_to(z.center, shape).copy()
    phi = np.broadcast_to(z.phi, (z.n_phi,) + tuple(shape)).copy()
    eps = np.broadcast_to(z.eps, (z.n_eps,) + tuple(shape)).copy()
    return MultiNormZonotope(center, phi, eps, z.p)


def _elementwise_quadratic_bounds(x, y, config):
    """Quadratic-term bounds for the elementwise product (k = 1 case)."""
    q = x.q

    def fast_pair(cx, qx, cy, qy):
        # |sum over symbols| <= ||cy||_{qy per var} * ... degenerate k=1
        # cascade: inner norm collapses one operand, outer the other.
        s_inner = norm_along_axis0(cy, qy)
        t = s_inner * np.abs(cx)
        return norm_along_axis0(t, qx)

    bound = np.zeros(x.shape)
    if x.n_phi and y.n_phi:
        bound = bound + fast_pair(x.phi, q, y.phi, q)
    if x.n_phi and y.n_eps:
        if config.order == "linf_first":
            bound = bound + fast_pair(x.phi, q, y.eps, 1.0)
        else:
            bound = bound + fast_pair(y.eps, 1.0, x.phi, q)
    if x.n_eps and y.n_phi:
        if config.order == "linf_first":
            bound = bound + fast_pair(y.phi, q, x.eps, 1.0)
        else:
            bound = bound + fast_pair(x.eps, 1.0, y.phi, q)
    lower, upper = -bound, bound

    if x.n_eps and y.n_eps:
        if config.variant == "precise":
            # Pairwise matrix per variable: M[a, b, var] = Bx[a] By[b].
            pairwise = np.einsum("a...,b...->ab...", x.eps, y.eps)
            diag = np.einsum("aa...->a...", pairwise)
            abs_sum = np.abs(pairwise).sum(axis=(0, 1))
            off = abs_sum - np.abs(diag).sum(axis=0)
            l_ee = np.minimum(diag, 0.0).sum(axis=0) - off
            u_ee = np.maximum(diag, 0.0).sum(axis=0) + off
        else:
            b_ee = fast_pair(x.eps, 1.0, y.eps, 1.0)
            l_ee, u_ee = -b_ee, b_ee
        lower = lower + l_ee
        upper = upper + u_ee
    return lower, upper
