"""Test oracle: the dense eps engine, replayed by patching the structured one.

The engine keeps every fresh eps symbol in a lazy one-nonzero-per-variable
tail (``repro.zonotope.storage.EpsTail``), runs both dot-product variants
on unpadded operands with the tails scattered and the eps blocks collapsed
to their ℓ1 mass in the Eq. (5) cases, and fuses the no-division layer
norm. :func:`dense_engine` runs a scope with the dense semantics those
optimisations replaced, made of three patches:

1. ``MultiNormZonotope.append_fresh_eps`` materializes its tail at once,
   so no tail ever exists inside the scope;
2. the verifier's ``fused_layer_norm`` becomes the op-by-op chain
   ``(z - z.mean_vars(-1, keepdims=True)).scale(gamma) + beta``;
3. ``_matmul_impl``, the product route of ``zonotope_matmul`` and (at
   k = 1) of the elementwise ``zonotope_multiply``, aligns both operands
   to one dense symbol block and runs the cross terms and every Eq. (5)
   case over it: the eps-eps case too for Fast, and the Eq. (6) kernel on
   the aligned blocks for Precise. The contractions are ``np.matmul`` like
   the engine's, so the two engines' logit bounds stay bitwise equal.

Every other transformer runs unpatched (on tail-free operands). Only tests
import this module.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.verify import propagation
from repro.zonotope import dotproduct
from repro.zonotope.dotproduct import _precise_eps_bounds
from repro.zonotope.multinorm import MultiNormZonotope, norm_along_axis0

__all__ = ["dense_engine"]


def _chained_layer_norm(z, gamma, beta):
    return (z - z.mean_vars(-1, keepdims=True)).scale(gamma) + beta


def _case_bound(inner_coeffs, inner_q, outer_coeffs, outer_q, pattern):
    """Eq. (5) bound for one symbol-pair case, batched over output pairs.

    ``inner_coeffs`` plays W (collapsed first with its dual norm
    ``inner_q``), ``outer_coeffs`` plays V (collapsed second with
    ``outer_q``). ``"row-col"`` pairs x rows (E, ..., n, k) as the outer
    side with y columns (E, ..., k, m) as the inner side; ``"col-row"`` is
    the transposed pairing (inner = x side, outer = y side).
    """
    s = norm_along_axis0(inner_coeffs, inner_q)
    if pattern == "row-col":
        t = np.matmul(np.abs(outer_coeffs), s)
    else:
        t = np.matmul(s, np.abs(outer_coeffs))
    return norm_along_axis0(t, outer_q)


def _aligned_matmul(x, y, config):
    """``x @ y`` over aligned dense eps blocks: Eq. (5), and Eq. (6) for
    Precise's eps-eps case."""
    x, y = x.aligned_with(y)
    out_shape = x.shape[:-1] + (y.shape[-1],)
    center = np.matmul(x.center, y.center)

    def cross(coeff_x, coeff_y):
        """c2-weighted x-coeffs plus c1-weighted y-coeffs (exact part)."""
        if not coeff_x.shape[0]:
            return np.zeros((0,) + out_shape)
        return np.matmul(coeff_x, y.center) + np.matmul(x.center, coeff_y)

    phi, eps = cross(x.phi, y.phi), cross(x.eps, y.eps)

    q = x.q
    bound = np.zeros(out_shape)
    if x.n_phi:
        bound = bound + _case_bound(y.phi, q, x.phi, q, "row-col")
    if x.n_phi and x.n_eps:
        if config.order == "linf_first":
            bound = bound + _case_bound(y.eps, 1.0, x.phi, q, "row-col")
            bound = bound + _case_bound(x.eps, 1.0, y.phi, q, "col-row")
        else:
            bound = bound + _case_bound(x.phi, q, y.eps, 1.0, "col-row")
            bound = bound + _case_bound(y.phi, q, x.eps, 1.0, "row-col")
    lower, upper = -bound, bound
    if x.n_eps:
        if config.variant == "precise":
            l_ee, u_ee = _precise_eps_bounds(x.eps, y.eps)
        else:
            u_ee = _case_bound(y.eps, 1.0, x.eps, 1.0, "row-col")
            l_ee = -u_ee
        lower, upper = lower + l_ee, upper + u_ee

    center = center + 0.5 * (lower + upper)
    out = MultiNormZonotope(center, phi, eps, x.p)
    return out.append_fresh_eps(0.5 * (upper - lower))


@contextmanager
def dense_engine():
    """Run a scope with the dense (pre-optimisation) engine semantics."""
    append_fresh_eps = MultiNormZonotope.append_fresh_eps

    def append_dense(self, magnitudes):
        out = append_fresh_eps(self, magnitudes)
        out._ensure_dense()
        return out

    with mock.patch.object(MultiNormZonotope, "append_fresh_eps",
                           append_dense), \
            mock.patch.object(propagation, "fused_layer_norm",
                              _chained_layer_norm), \
            mock.patch.object(dotproduct, "_matmul_impl", _aligned_matmul):
        yield
