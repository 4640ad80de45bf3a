"""Dot-product and multiplication abstract transformers (Sections 4.8, 4.9).

The self-attention needs products of *pairs of zonotope variables*: the
``Q K^T`` score matrix and the ``softmax(..) V`` mixing step. For
``v1 = c1 + A1.phi + B1.eps`` and ``v2 = c2 + A2.phi + B2.eps`` (vectors of
variables sharing noise symbols), the dot product expands into

* an exact affine part    ``c1.c2 + (c1^T A2 + c2^T A1).phi + (...).eps``,
* a quadratic interaction ``(A1.phi + B1.eps) . (A2.phi + B2.eps)``

whose four symbol-pair cases are bounded by intervals and folded into a
center shift plus one fresh eps symbol per output variable.

Both variants share the exact affine part and the Eq. (5) bounds of the
phi-phi and mixed cases; they differ only in the eps-eps case:

``fast``     the dual-norm cascade of Eq. (5): O(N (Ep + Einf)); the bound
             is not symmetric in the operands, and the ``order`` flag
             selects which norm the dual trick hits first for the mixed
             phi/eps cases (Table 6 ablates this; ℓ∞-first is the paper's
             default).
``precise``  the pairwise interval analysis of Eq. (6), exploiting
             eps_i^2 in [0, 1]. This is the DeepT-Precise dot product.
             Output row i costs O(m k |S_i| |T|), where S_i are the eps
             symbols with a coefficient in x's row i and T those with one
             anywhere in y: exact-zero symbols are skipped, so the cost is
             not the O(N Einf^2) of the dense pairwise tensor.

The operands are never padded to a common symbol count, and lazy eps
tails enter the exact part by scatter (:func:`_matmul_impl`). Every
contraction over the k axis runs as a broadcast ``np.matmul`` (BLAS per
2-D slice, the symbol and head axes as batch axes). The elementwise
product of Section 4.9 is the same routine at k = 1, with every variable
on the batch axes, so :func:`_matmul_impl` is the only product route.
"""

from __future__ import annotations

import numpy as np

from ..trace import TRACER
from .multinorm import MultiNormZonotope, norm_along_axis0
from .numeric import under_propagation_errstate

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
    """

    def __init__(self, variant="fast", order="linf_first"):
        if variant not in ("fast", "precise"):
            raise ValueError(f"unknown dot-product variant {variant!r}")
        if order not in ("linf_first", "lp_first"):
            raise ValueError(f"unknown dual-norm order {order!r}")
        self.variant = variant
        self.order = order


def _precise_eps_bounds(x_eps, y_eps):
    """Eq. (6) interval bounds of ``(B1 eps).(B2 eps)`` per output pair.

    ``x_eps``: (Ex, ..., n, k), ``y_eps``: (Ey, ..., k, m), where symbol
    ``a`` is the same in both and the operand with fewer symbols has
    exact zeros for the others. Returns (l, u) of shape (..., n, m). For
    output (i, j) the pairwise matrix is M[a, b] = sum_t x[a,i,t] y[b,t,j];
    its diagonal takes eps_a^2 in [0, 1] and every off-diagonal entry costs
    |M_ab|.

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
    n_x, n_y = x_eps.shape[0], y_eps.shape[0]
    batch_shape = x_eps.shape[1:-2]
    n, k = x_eps.shape[-2:]
    m = y_eps.shape[-1]
    lower = np.zeros(batch_shape + (n, m))
    upper = np.zeros(batch_shape + (n, m))
    if n_x == 0 or n_y == 0:
        return lower, upper
    x_flat = x_eps.reshape((n_x, -1, n, k))
    y_flat = y_eps.reshape((n_y, -1, k, m))
    lower_flat = lower.reshape((-1, n, m))
    upper_flat = upper.reshape((-1, n, m))
    for b in range(x_flat.shape[1]):
        y_b = y_flat[:, b]
        live_y = np.flatnonzero((y_b != 0).any(axis=(1, 2)))   # T
        if not len(live_y):
            continue
        # (m, k, |T|), contiguous so every (k, |T|) slice is BLAS-able.
        y_live = np.ascontiguousarray(y_b[live_y].transpose(2, 1, 0))
        position_in_y = np.full(max(n_x, n_y), -1)
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


@under_propagation_errstate
def zonotope_matmul(x, y, config=None):
    """Abstract matrix product of two zonotopes: (n, k) @ (k, m) -> (n, m).

    Leading variable axes batch: (..., n, k) @ (..., k, m) -> (..., n, m)
    with identical batch shapes — this is how multi-head attention runs all
    heads' score and mixing products as single batched matmuls.

    Both operands live in the same symbol space, possibly with different
    eps counts (later symbols are fresh). Both variants run
    :func:`_matmul_impl`, which never pads the operands or densifies a
    lazy tail for the exact part; only Precise materializes the eps blocks,
    for its Eq. (6) eps-eps bound. The affine part is exact; the quadratic
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
    """The product of both variants, on the operands as they are stored.

    The operands are never zero-padded to a common symbol count: each
    operand's exact cross term runs over its own eps rows, lazy tails
    contribute their cross rows by scatter, and the output block is
    allocated at ``max`` size directly. Every Eq. (5) cascade that touches
    an eps block starts or ends with the dual ℓ1 norm, which is just the
    per-variable ℓ1 mass, so the eps blocks collapse through
    :meth:`MultiNormZonotope.eps_l1` in O(E·N) and the remaining
    contraction is symbol-free. Fast bounds the eps-eps case the same way,
    with one ``l1(x) @ l1(y)`` product; Precise materializes both eps
    blocks for the Eq. (6) pass of :func:`_precise_eps_bounds`.
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
    cx, cy = x._eps_rows.shape[0], y._eps_rows.shape[0]
    if cx:
        eps[:cx] += np.matmul(x._eps_rows, y.center)
    if x._eps_tail is not None and len(x._eps_tail):
        x._eps_tail.scatter_cross(eps, cx, x.shape, y.center, "x")
    if cy:
        eps[:cy] += np.matmul(x.center, y._eps_rows)
    if y._eps_tail is not None and len(y._eps_tail):
        y._eps_tail.scatter_cross(eps, cy, y.shape, x.center, "y")

    q = x.q
    fast = config.variant == "fast"
    # Precise reads the ℓ1 masses only in the mixed cases.
    x_l1 = x.eps_l1() if x.n_eps and (y.n_phi or fast) else None
    y_l1 = y.eps_l1() if y.n_eps and (x.n_phi or fast) else None
    bound = np.zeros(out_shape)
    if x.n_phi and y.n_phi:
        s = norm_along_axis0(y.phi, q)
        bound += norm_along_axis0(np.matmul(np.abs(x.phi), s), q)
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

    if fast:
        if x.n_eps and y.n_eps:
            bound += np.matmul(x_l1, y_l1)
        out = MultiNormZonotope(center, phi, eps, x.p)
        return out.append_fresh_eps(bound)

    lower, upper = -bound, bound
    if x.n_eps and y.n_eps:
        l_ee, u_ee = _precise_eps_bounds(x.eps, y.eps)
        lower = lower + l_ee
        upper = upper + u_ee
    center = center + 0.5 * (lower + upper)
    out = MultiNormZonotope(center, phi, eps, x.p)
    return out.append_fresh_eps(0.5 * (upper - lower))


@under_propagation_errstate
def zonotope_multiply(x, y, config=None):
    """Elementwise product of two zonotopes of the same variable shape.

    This is the Section 4.9 transformer: the dot product restricted to
    1-element vectors, vectorized over all variables. It runs literally
    as the k = 1 case of :func:`_matmul_impl`, each variable a (1, 1) @
    (1, 1) product on the leading batch axes, so it shares the exact part,
    the Eq. (5) cases and the support-pruned Eq. (6) pass of the attention
    products. Broadcasting between the operand shapes is supported (needed
    by standard layer norm, where a per-row 1/sigma multiplies a full
    row); only a broadcast operand is densified, and an operand already at
    the output shape keeps its lazy tail.
    """
    config = config or DotProductConfig()
    started = TRACER.start()
    shape = np.broadcast_shapes(x.shape, y.shape)
    x = _broadcast_vars(x, shape).reshape(shape + (1, 1))
    y = _broadcast_vars(y, shape).reshape(shape + (1, 1))
    out = _matmul_impl(x, y, config).reshape(shape)
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
