"""Tests for the dot-product / multiplication transformers (Sections 4.8-4.9).

Checks soundness of the Fast (Eq. 5) and Precise (Eq. 6) variants, the
precision ordering between them, both dual-norm application orders, the
degenerate point cases (where the transformer must be exact), and
broadcasting in the elementwise product. Three kernels are compared
against the forms they replaced, kept here as test oracles: the
support-pruned Eq. (6) kernel against the dense pairwise-tensor kernel,
the matmul (the engine's one route and the aligned dense route of the
test-side dense engine, each for Fast and Precise) against the
ellipsis-einsum form of Eq. (5), of Eq. (6) and of the exact cross terms,
and the elementwise product (the same route at k = 1) against its einsum
form with the dense per-variable pairwise tensor.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.zonotope import (MultiNormZonotope, zonotope_matmul,
                            zonotope_multiply, DotProductConfig,
                            norm_along_axis0)
from repro.trace import TRACER
from repro.zonotope.dotproduct import _precise_eps_bounds

from tests.conftest import sample_lp_ball
from tests.engine_oracle import dense_engine


def pair(rng, n=3, k=4, m=2, n_phi=3, n_eps=4, p=2.0, scale=0.3):
    a = MultiNormZonotope(rng.normal(size=(n, k)),
                          phi=rng.normal(size=(n_phi, n, k)) * scale,
                          eps=rng.normal(size=(n_eps, n, k)) * scale, p=p)
    b = MultiNormZonotope(rng.normal(size=(k, m)),
                          phi=rng.normal(size=(n_phi, k, m)) * scale,
                          eps=rng.normal(size=(n_eps, k, m)) * scale, p=p)
    return a, b


def check_matmul_sound(a, b, config, rng, n=200, tol=1e-8):
    out = zonotope_matmul(a, b, config)
    lower, upper = out.bounds()
    for _ in range(n):
        phi = sample_lp_ball(rng, a.n_phi, a.p)
        eps = rng.uniform(-1, 1, size=a.n_eps)
        y = a.concretize(phi, eps) @ b.concretize(phi, eps)
        assert np.all(y >= lower - tol)
        assert np.all(y <= upper + tol)
    return out


class TestMatmulSoundness:
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize("variant", ["fast", "precise"])
    def test_sound(self, rng, p, variant):
        a, b = pair(rng, p=p)
        check_matmul_sound(a, b, DotProductConfig(variant=variant), rng)

    @pytest.mark.parametrize("order", ["linf_first", "lp_first"])
    def test_both_orders_sound(self, rng, order):
        a, b = pair(rng)
        check_matmul_sound(a, b, DotProductConfig(order=order), rng)

    def test_eps_only_inputs(self, rng):
        a, b = pair(rng, n_phi=0)
        for variant in ("fast", "precise"):
            check_matmul_sound(a, b, DotProductConfig(variant=variant), rng)

    def test_phi_only_inputs(self, rng):
        a, b = pair(rng, n_eps=0)
        check_matmul_sound(a, b, DotProductConfig(), rng)

    def test_shape_validation(self, rng):
        a, b = pair(rng)
        with pytest.raises(ValueError):
            zonotope_matmul(a, a, DotProductConfig())


class TestMatmulPrecision:
    def test_precise_tighter_than_fast_eps_only(self, rng):
        """Eq. 6 exploits eps_i^2 in [0,1]: never wider than Eq. 5."""
        for _ in range(10):
            a, b = pair(rng, n_phi=0, n_eps=6)
            fast = zonotope_matmul(a, b, DotProductConfig(variant="fast"))
            precise = zonotope_matmul(a, b,
                                      DotProductConfig(variant="precise"))
            w_fast = np.subtract(*fast.bounds()[::-1]).sum()
            w_precise = np.subtract(*precise.bounds()[::-1]).sum()
            assert w_precise <= w_fast + 1e-9

    def test_point_times_zonotope_exact(self, rng):
        """A constant left operand makes the product affine (exact)."""
        b = MultiNormZonotope(rng.normal(size=(4, 2)),
                              eps=rng.normal(size=(3, 4, 2)) * 0.3)
        a = MultiNormZonotope.point(rng.normal(size=(3, 4)), n_eps=3)
        out = zonotope_matmul(a, b, DotProductConfig())
        assert out.n_eps == 3  # no fresh symbols: quadratic term vanishes
        eps = rng.uniform(-1, 1, size=3)
        np.testing.assert_allclose(
            out.concretize(np.zeros(0), eps),
            a.center @ b.concretize(np.zeros(0), eps), atol=1e-12)

    def test_affine_part_exact(self, rng):
        """Center of the output = product of centers + quadratic midpoint."""
        a, b = pair(rng, n_phi=0, n_eps=0)
        out = zonotope_matmul(a, b, DotProductConfig())
        np.testing.assert_allclose(out.center, a.center @ b.center)


class TestMultiply:
    @pytest.mark.parametrize("variant", ["fast", "precise"])
    def test_sound(self, rng, variant):
        shape = (3, 4)
        a = MultiNormZonotope(rng.normal(size=shape),
                              phi=rng.normal(size=(3,) + shape) * 0.3,
                              eps=rng.normal(size=(4,) + shape) * 0.3, p=2.0)
        b = MultiNormZonotope(rng.normal(size=shape),
                              phi=rng.normal(size=(3,) + shape) * 0.3,
                              eps=rng.normal(size=(4,) + shape) * 0.3, p=2.0)
        out = zonotope_multiply(a, b, DotProductConfig(variant=variant))
        lower, upper = out.bounds()
        for _ in range(200):
            phi = sample_lp_ball(rng, 3, 2.0)
            eps = rng.uniform(-1, 1, size=4)
            y = a.concretize(phi, eps) * b.concretize(phi, eps)
            assert np.all(y >= lower - 1e-8)
            assert np.all(y <= upper + 1e-8)

    def test_broadcasting(self, rng):
        a = MultiNormZonotope(rng.normal(size=(3, 4)),
                              eps=rng.normal(size=(2, 3, 4)) * 0.2)
        b = MultiNormZonotope(rng.normal(size=(3, 1)),
                              eps=rng.normal(size=(2, 3, 1)) * 0.2)
        out = zonotope_multiply(a, b, DotProductConfig())
        assert out.shape == (3, 4)
        lower, upper = out.bounds()
        for _ in range(100):
            eps = rng.uniform(-1, 1, size=2)
            y = (a.concretize(np.zeros(0), eps)
                 * b.concretize(np.zeros(0), eps))
            assert np.all(y >= lower - 1e-8)
            assert np.all(y <= upper + 1e-8)

    def test_self_square_nonnegative_with_precise(self, rng):
        """x*x with the precise variant: eps^2 >= 0 tightens the bound."""
        z = MultiNormZonotope(np.zeros(3), eps=rng.normal(size=(4, 3)))
        fast = zonotope_multiply(z, z, DotProductConfig(variant="fast"))
        precise = zonotope_multiply(z, z,
                                    DotProductConfig(variant="precise"))
        assert precise.bounds()[0].min() >= fast.bounds()[0].min() - 1e-12
        # True squares are non-negative; the precise bound reflects the
        # diagonal-term sign information at least partially.
        assert precise.bounds()[0].min() > fast.bounds()[0].min() - 1e-9

    def test_multiplication_is_dot_product_with_k1(self, rng):
        """Section 4.9: elementwise product == 1-element dot product."""
        a = MultiNormZonotope(rng.normal(size=(1, 1)),
                              eps=rng.normal(size=(3, 1, 1)) * 0.4)
        b = MultiNormZonotope(rng.normal(size=(1, 1)),
                              eps=rng.normal(size=(3, 1, 1)) * 0.4)
        via_matmul = zonotope_matmul(a, b, DotProductConfig())
        via_multiply = zonotope_multiply(a, b, DotProductConfig())
        np.testing.assert_allclose(via_matmul.bounds()[0],
                                   via_multiply.bounds()[0], atol=1e-9)
        np.testing.assert_allclose(via_matmul.bounds()[1],
                                   via_multiply.bounds()[1], atol=1e-9)


def reference_precise_eps_bounds(x_eps, y_eps, block=8):
    """The dense Eq. (6) kernel: the full pairwise tensor
    M[i, j, a, b] = sum_t x[a,i,t] y[b,t,j] over all E^2 symbol pairs, in
    blocks of ``block`` output rows, one leading slice at a time."""
    batch_shape = x_eps.shape[1:-2]
    n_eps = x_eps.shape[0]
    n, k = x_eps.shape[-2:]
    m = y_eps.shape[-1]
    n_batch = int(np.prod(batch_shape))
    x_flat = x_eps.reshape((n_eps, n_batch, n, k))
    y_flat = y_eps.reshape((n_eps, n_batch, k, m))
    lower = np.zeros((n_batch, n, m))
    upper = np.zeros((n_batch, n, m))
    for b in range(n_batch):
        for start in range(0, n, block):
            stop = min(start + block, n)
            pairwise = np.einsum("ait,btj->ijab",
                                 x_flat[:, b, start:stop, :], y_flat[:, b])
            diag = np.einsum("ijaa->ija", pairwise)
            off = (np.abs(pairwise).sum(axis=(2, 3))
                   - np.abs(diag).sum(axis=2))
            lower[b, start:stop] = np.minimum(diag, 0.0).sum(axis=2) - off
            upper[b, start:stop] = np.maximum(diag, 0.0).sum(axis=2) + off
    return (lower.reshape(batch_shape + (n, m)),
            upper.reshape(batch_shape + (n, m)))


def sparse_coeffs(rng, shape, density):
    """Gaussian coefficients with each entry an exact zero w.p. 1-density."""
    return rng.normal(size=shape) * (rng.random(shape) < density)


def one_hot_rows(rng, n_eps, var_shape):
    """Tail-like symbols: exactly one nonzero coefficient each."""
    out = np.zeros((n_eps, int(np.prod(var_shape))))
    out[np.arange(n_eps), rng.integers(0, out.shape[1], n_eps)] = \
        rng.normal(size=n_eps)
    return out.reshape((n_eps,) + var_shape)


def _kernel_operands(rng, case):
    """(x_eps, y_eps) for one named reference case."""
    n, k, m = 5, 4, 3
    if case == "dense":
        return (rng.normal(size=(12, n, k)), rng.normal(size=(12, k, m)))
    if case == "zero-in-x-or-y":
        x = sparse_coeffs(rng, (20, n, k), 0.5)
        y = sparse_coeffs(rng, (20, k, m), 0.5)
        x[:7] = 0.0
        y[5:13] = 0.0
        return x, y
    if case == "dead-output-rows":
        x = sparse_coeffs(rng, (16, n, k), 0.5)
        x[:, [0, 3]] = 0.0
        return x, sparse_coeffs(rng, (16, k, m), 0.5)
    if case == "one-hot":
        x = np.concatenate([sparse_coeffs(rng, (6, n, k), 0.6),
                            one_hot_rows(rng, 30, (n, k))])
        y = np.concatenate([sparse_coeffs(rng, (6, k, m), 0.6),
                            one_hot_rows(rng, 30, (k, m))])
        return x, y
    if case == "one-operand-only":
        # Symbols 0-9 live only in x, 10-19 only in y.
        x = np.zeros((20, n, k))
        y = np.zeros((20, k, m))
        x[:10] = rng.normal(size=(10, n, k))
        y[10:] = rng.normal(size=(10, k, m))
        return x, y
    if case == "all-zero-y":
        return rng.normal(size=(9, n, k)), np.zeros((9, k, m))
    if case == "no-symbols":
        return np.zeros((0, n, k)), np.zeros((0, k, m))
    if case == "head-axis":
        x = sparse_coeffs(rng, (24, 2, n, k), 0.4)
        y = sparse_coeffs(rng, (24, 2, k, m), 0.4)
        y[:, 1] = 0.0                      # one head with no live y symbol
        return x, y
    if case == "mixing-size":
        # The softmax(..) V call's size: 2 heads, 5 tokens, about 480
        # symbols of which about 40% reach a weights row and 176 reach V.
        x = sparse_coeffs(rng, (480, 2, 5, 5), 0.4)
        y = sparse_coeffs(rng, (480, 2, 5, 8), 0.8)
        y[176:] = 0.0
        return x, y
    raise ValueError(case)


KERNEL_CASES = ["dense", "zero-in-x-or-y", "dead-output-rows", "one-hot",
                "one-operand-only", "all-zero-y", "no-symbols", "head-axis",
                "mixing-size"]


class TestPreciseKernelReference:
    """The support-pruned Eq. (6) kernel against the dense reference.

    The tolerance is fixed at relative 1e-9 of the bound's magnitude: the
    kernels compute the same sums in a different association order
    (measured at most 1.4e-14 relative on real operands)."""

    RTOL = 1e-9

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_matches_dense_reference(self, case):
        rng = np.random.default_rng(sum(map(ord, case)))
        x, y = _kernel_operands(rng, case)
        lower, upper = _precise_eps_bounds(x, y)
        ref_lower, ref_upper = reference_precise_eps_bounds(x, y)
        assert lower.shape == ref_lower.shape == x.shape[1:-1] + y.shape[-1:]
        scale = max(np.abs(ref_lower).max(initial=0.0),
                    np.abs(ref_upper).max(initial=0.0))
        np.testing.assert_allclose(lower, ref_lower, rtol=0,
                                   atol=self.RTOL * scale)
        np.testing.assert_allclose(upper, ref_upper, rtol=0,
                                   atol=self.RTOL * scale)

    def test_dead_rows_and_zero_operands_are_exact_zeros(self):
        rng = np.random.default_rng(1)
        x, y = _kernel_operands(rng, "dead-output-rows")
        lower, upper = _precise_eps_bounds(x, y)
        assert not lower[[0, 3]].any() and not upper[[0, 3]].any()
        x, y = _kernel_operands(rng, "all-zero-y")
        lower, upper = _precise_eps_bounds(x, y)
        assert not lower.any() and not upper.any()

    @pytest.mark.parametrize("short", ["x", "y"])
    def test_unequal_symbol_counts_equal_zero_padding(self, short):
        """The operand with fewer symbols needs no zero rows: the kernel
        gives bitwise the bounds of the zero-padded blocks."""
        rng = np.random.default_rng(3)
        x, y = _kernel_operands(rng, "head-axis")
        cut = 9
        if short == "x":
            x[cut:] = 0.0
            got = _precise_eps_bounds(x[:cut], y)
        else:
            y[cut:] = 0.0
            got = _precise_eps_bounds(x, y[:cut])
        padded = _precise_eps_bounds(x, y)
        np.testing.assert_array_equal(got[0], padded[0])
        np.testing.assert_array_equal(got[1], padded[1])
        assert got[0].any() and got[1].any()

    def test_inf_coefficient_stays_non_finite(self):
        rng = np.random.default_rng(2)
        x, y = _kernel_operands(rng, "zero-in-x-or-y")
        live = np.flatnonzero(x.reshape(len(x), -1).any(axis=1)
                              & y.reshape(len(y), -1).any(axis=1))
        row = int(np.flatnonzero(x[live[0]].any(axis=1))[0])
        col = int(np.flatnonzero(x[live[0], row])[0])
        # The Inf is the symbol's only coefficient in this row.
        x[live[0], row] = 0.0
        x[live[0], row, col] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            lower, upper = _precise_eps_bounds(x, y)
        assert not np.isfinite(lower[row]).all()
        assert not np.isfinite(upper[row]).all()


def reference_matmul(x, y, variant, order):
    """The einsum form of the zonotope product: exact cross terms plus the
    Eq. (5) cascades (and Eq. (6) for the Precise eps-eps case).

    Returns (center, phi, eps, fresh): ``eps`` holds the cross rows over
    the operands' eps blocks zero-padded to a common count, ``fresh`` the
    magnitude of the fresh symbol each output variable gets."""
    x, y = x.aligned_with(y)
    xc, yc, q = x.center, y.center, x.q

    def cross(cx, cy):
        return (np.einsum("e...nk,...km->e...nm", cx, yc)
                + np.einsum("...nk,e...km->e...nm", xc, cy))

    def row_col(inner, inner_q, outer, outer_q):
        s = norm_along_axis0(inner, inner_q)
        return norm_along_axis0(
            np.einsum("...km,e...nk->e...nm", s, np.abs(outer)), outer_q)

    def col_row(inner, inner_q, outer, outer_q):
        s = norm_along_axis0(inner, inner_q)
        return norm_along_axis0(
            np.einsum("...nk,e...km->e...nm", s, np.abs(outer)), outer_q)

    bound = np.zeros(xc.shape[:-1] + yc.shape[-1:])
    if x.n_phi:
        bound += row_col(y.phi, q, x.phi, q)
        if x.n_eps:
            if order == "linf_first":
                bound += row_col(y.eps, 1.0, x.phi, q)
                bound += col_row(x.eps, 1.0, y.phi, q)
            else:
                bound += col_row(x.phi, q, y.eps, 1.0)
                bound += row_col(y.phi, q, x.eps, 1.0)
    lower, upper = -bound, bound
    if x.n_eps:
        if variant == "precise":
            l_ee, u_ee = reference_precise_eps_bounds(x.eps, y.eps)
        else:
            u_ee = row_col(y.eps, 1.0, x.eps, 1.0)
            l_ee = -u_ee
        lower, upper = lower + l_ee, upper + u_ee
    center = np.einsum("...nk,...km->...nm", xc, yc) + 0.5 * (lower + upper)
    return center, cross(x.phi, y.phi), cross(x.eps, y.eps), \
        0.5 * (upper - lower)


def assert_matches_reference(out, n_cross, reference, rtol):
    """``out`` against a reference (center, phi, eps, fresh): its cross
    rows are its first ``n_cross`` eps rows and its fresh symbols the rest,
    each array within ``rtol`` of the reference's magnitude."""
    center, phi, eps, fresh = reference
    out_eps = out.eps
    got = {"center": out.center, "phi": out.phi, "eps": out_eps[:n_cross],
           "fresh": np.abs(out_eps[n_cross:]).sum(axis=0)}
    want = {"center": center, "phi": phi, "eps": eps, "fresh": fresh}
    for name, ref in want.items():
        assert got[name].shape == ref.shape, name
        scale = np.abs(ref).max(initial=0.0)
        np.testing.assert_allclose(got[name], ref, rtol=0,
                                   atol=rtol * scale, err_msg=name)


def _with_tail(rng, z, density=0.7):
    """``z`` plus a lazy tail: fresh symbols on a random subset of its
    variables, as every non-linear transformer appends them."""
    magnitudes = rng.uniform(0.1, 0.5, size=z.shape) * (
        rng.random(z.shape) < density)
    return z.append_fresh_eps(magnitudes)


def _matmul_operands(seed, case, p):
    """(x, y) zonotopes for one named oracle case, rebuilt from ``seed``."""
    rng = np.random.default_rng(seed)
    heads = (2,) if "heads" in case else ()
    n_phi = 0 if "no-phi" in case else 3
    n, k, m = 3, 4, 5
    x = MultiNormZonotope(rng.normal(size=heads + (n, k)),
                          phi=rng.normal(size=(n_phi,) + heads + (n, k)),
                          eps=0.5 * rng.normal(size=(4,) + heads + (n, k)),
                          p=p)
    n_eps_y = 0 if "y-no-eps" in case else 7     # unequal eps counts
    y = MultiNormZonotope(rng.normal(size=heads + (k, m)),
                          phi=rng.normal(size=(n_phi,) + heads + (k, m)),
                          eps=0.5 * rng.normal(
                              size=(n_eps_y,) + heads + (k, m)),
                          p=p)
    if "x-tail" in case:
        x = _with_tail(rng, x)
    if "y-tail" in case:
        y = _with_tail(rng, y)
    return x, y


MATMUL_CASES = ["plain", "heads", "no-phi", "y-no-eps", "x-tail", "y-tail",
                "heads-x-tail-y-tail", "no-phi-heads-x-tail"]


class TestMatmulReference:
    """Every matmul route against the einsum form of Eq. (5) and (6).

    The engine's padding-free route and the aligned dense route of the
    test oracle (``tests.engine_oracle.dense_engine()``, which this also
    validates) must both reproduce the reference, for Fast and for
    Precise. The tolerance is fixed at relative 1e-9 of each array's
    magnitude: BLAS sums in its own order, and the engine collapses eps
    blocks to their ℓ1 mass before contracting."""

    RTOL = 1e-9

    @pytest.mark.parametrize("case", MATMUL_CASES)
    @pytest.mark.parametrize("order", ["linf_first", "lp_first"])
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize("route", ["fast", "fast-dense", "precise",
                                       "precise-dense"])
    def test_matches_einsum_reference(self, route, p, order, case):
        seed = sum(map(ord, case))
        variant = route.split("-")[0]
        config = DotProductConfig(variant=variant, order=order)
        x, y = _matmul_operands(seed, case, p)
        n_cross = max(x.n_eps, y.n_eps)
        if route.endswith("-dense"):
            with dense_engine():
                out = zonotope_matmul(x, y, config)
        else:
            out = zonotope_matmul(x, y, config)
        assert_matches_reference(
            out, n_cross, reference_matmul(*_matmul_operands(seed, case, p),
                                           variant, order), self.RTOL)


def _broadcast_to(z, shape):
    """``z`` with its variables and coefficients broadcast to ``shape``."""
    return MultiNormZonotope(
        np.broadcast_to(z.center, shape),
        np.broadcast_to(z.phi, (z.n_phi,) + shape),
        np.broadcast_to(z.eps, (z.n_eps,) + shape), z.p)


def elementwise_quadratic_bounds(x, y, variant, order):
    """The k = 1 Eq. (5) cascades per variable, and Eq. (6) over the dense
    per-variable pairwise tensor M[a, b, var] = Bx[a] By[b]."""
    q = x.q

    def fast_pair(cx, qx, cy, qy):
        # The inner norm collapses one operand, the outer the other.
        s_inner = norm_along_axis0(cy, qy)
        return norm_along_axis0(s_inner * np.abs(cx), qx)

    bound = np.zeros(x.shape)
    if x.n_phi and y.n_phi:
        bound = bound + fast_pair(x.phi, q, y.phi, q)
    if x.n_phi and y.n_eps:
        if order == "linf_first":
            bound = bound + fast_pair(x.phi, q, y.eps, 1.0)
        else:
            bound = bound + fast_pair(y.eps, 1.0, x.phi, q)
    if x.n_eps and y.n_phi:
        if order == "linf_first":
            bound = bound + fast_pair(y.phi, q, x.eps, 1.0)
        else:
            bound = bound + fast_pair(x.eps, 1.0, y.phi, q)
    lower, upper = -bound, bound

    if x.n_eps and y.n_eps:
        if variant == "precise":
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


def reference_multiply(x, y, variant, order):
    """The einsum form of the Section 4.9 elementwise product: both
    operands aligned to one dense symbol block and broadcast to a common
    variable shape, the exact cross terms, and the per-variable bounds of
    :func:`elementwise_quadratic_bounds`.

    Returns (center, phi, eps, fresh) like :func:`reference_matmul`."""
    x, y = x.aligned_with(y)
    shape = np.broadcast_shapes(x.shape, y.shape)
    x, y = _broadcast_to(x, shape), _broadcast_to(y, shape)
    lower, upper = elementwise_quadratic_bounds(x, y, variant, order)
    center = x.center * y.center + 0.5 * (lower + upper)
    phi = x.phi * y.center + x.center * y.phi
    eps = x.eps * y.center + x.center * y.eps
    return center, phi, eps, 0.5 * (upper - lower)


def _multiply_operands(seed, case, p):
    """(x, y) zonotopes for one named multiply case, rebuilt from ``seed``.

    ``y`` is an (n, 1) row operand in the ``row-broadcast`` cases, the
    shape standard layer norm multiplies by."""
    rng = np.random.default_rng(seed)
    n_phi = 0 if "no-phi" in case else 3
    x_shape = (3, 4)
    y_shape = (3, 1) if "row-broadcast" in case else x_shape
    n_eps_y = {"y-no-eps": 0, "unequal-eps": 8}.get(case, 5)
    x = MultiNormZonotope(rng.normal(size=x_shape),
                          phi=rng.normal(size=(n_phi,) + x_shape),
                          eps=0.5 * rng.normal(size=(5,) + x_shape), p=p)
    y = MultiNormZonotope(rng.normal(size=y_shape),
                          phi=rng.normal(size=(n_phi,) + y_shape),
                          eps=0.5 * rng.normal(size=(n_eps_y,) + y_shape),
                          p=p)
    if "x-tail" in case:
        x = _with_tail(rng, x)
    if "y-tail" in case:
        y = _with_tail(rng, y)
    return x, y


MULTIPLY_CASES = ["same-shape", "unequal-eps", "y-no-eps", "no-phi",
                  "row-broadcast", "row-broadcast-y-tail", "x-tail",
                  "y-tail", "x-tail-y-tail", "no-phi-row-broadcast-x-tail"]


class TestMultiplyReference:
    """The elementwise product, the k = 1 case of the matmul route, against
    its einsum form, on the engine and on the test oracle's aligned dense
    route, for Fast and for Precise. The tolerance is relative 1e-9 of
    each array's magnitude, as in :class:`TestMatmulReference`."""

    RTOL = 1e-9

    @pytest.mark.parametrize("case", MULTIPLY_CASES)
    @pytest.mark.parametrize("order", ["linf_first", "lp_first"])
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize("route", ["fast", "fast-dense", "precise",
                                       "precise-dense"])
    def test_matches_einsum_reference(self, route, p, order, case):
        seed = sum(map(ord, case))
        variant = route.split("-")[0]
        config = DotProductConfig(variant=variant, order=order)
        x, y = _multiply_operands(seed, case, p)
        n_cross = max(x.n_eps, y.n_eps)
        if route.endswith("-dense"):
            with dense_engine():
                out = zonotope_multiply(x, y, config)
        else:
            out = zonotope_multiply(x, y, config)
        assert_matches_reference(
            out, n_cross, reference_multiply(
                *_multiply_operands(seed, case, p), variant, order),
            self.RTOL)

    def test_mismatched_symbol_spaces_rejected(self):
        x, y = _multiply_operands(0, "same-shape", 2.0)
        no_phi = MultiNormZonotope(y.center, eps=y.eps, p=2.0)
        other_p = MultiNormZonotope(y.center, phi=y.phi, eps=y.eps, p=1.0)
        for other in (no_phi, other_p):
            with pytest.raises(ValueError):
                zonotope_multiply(x, other)

    def test_fast_densifies_only_a_broadcast_operand(self):
        """An operand already at the output shape enters the exact part
        through its lazy tail; Fast materializes no tail row of it."""
        x, y = _multiply_operands(1, "no-phi-row-broadcast-x-tail", 2.0)
        assert len(x._eps_tail) and y._eps_tail is None
        with TRACER.query_scope("multiply") as record:
            zonotope_multiply(x, y, DotProductConfig())
        assert "eps_rows_materialized" not in record["perf"]["counters"]


class TestMultiplyMemory:
    def test_precise_multiply_builds_no_pairwise_block(self):
        """Precise's Eq. (6) pass runs per variable on the support-pruned
        kernel: two (8, 8) operands with 600 dense eps rows each must not
        build the (600, 600, 64) pairwise tensor (about 350 MB with its
        absolute value)."""
        rng = np.random.default_rng(0)
        x = MultiNormZonotope(rng.normal(size=(8, 8)),
                              eps=rng.normal(size=(600, 8, 8)))
        y = MultiNormZonotope(rng.normal(size=(8, 8)),
                              eps=rng.normal(size=(600, 8, 8)))
        tracemalloc.start()
        try:
            out = zonotope_multiply(x, y, DotProductConfig(variant="precise"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (8, 8)
        assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


class TestConfig:
    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            DotProductConfig(variant="quantum")

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            DotProductConfig(order="sideways")

    def test_no_tolerance_option(self):
        """A fresh-symbol tolerance would drop error terms: unsound."""
        with pytest.raises(TypeError):
            DotProductConfig(tol=1e-6)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31),
       p=st.sampled_from([1.0, 2.0, np.inf]),
       variant=st.sampled_from(["fast", "precise"]),
       order=st.sampled_from(["linf_first", "lp_first"]))
def test_property_matmul_soundness(seed, p, variant, order):
    """Hypothesis: the product transformer is sound for any config."""
    rng = np.random.default_rng(seed)
    a = MultiNormZonotope(rng.normal(size=(2, 3)),
                          phi=rng.normal(size=(2, 2, 3)) * 0.5,
                          eps=rng.normal(size=(2, 2, 3)) * 0.5, p=p)
    b = MultiNormZonotope(rng.normal(size=(3, 2)),
                          phi=rng.normal(size=(2, 3, 2)) * 0.5,
                          eps=rng.normal(size=(2, 3, 2)) * 0.5, p=p)
    out = zonotope_matmul(a, b, DotProductConfig(variant=variant,
                                                 order=order))
    lower, upper = out.bounds()
    phi = sample_lp_ball(rng, 2, p)
    eps = rng.uniform(-1, 1, size=2)
    y = a.concretize(phi, eps) @ b.concretize(phi, eps)
    assert np.all(y >= lower - 1e-8)
    assert np.all(y <= upper + 1e-8)
