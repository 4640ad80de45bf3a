"""Unit + property tests for the Multi-norm Zonotope core (Section 4).

Covers Theorem 1 (sound and *tight* concrete bounds), Theorem 2 (affine
exactness), constructors, and the structural operations the verifier uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.zonotope import MultiNormZonotope, dual_exponent, norm_along_axis0
from repro.zonotope.multinorm import sum_along

from tests.conftest import sample_lp_ball


def random_zonotope(rng, shape=(3, 4), n_phi=4, n_eps=5, p=2.0, scale=0.3):
    return MultiNormZonotope(
        rng.normal(size=shape),
        phi=rng.normal(size=(n_phi,) + shape) * scale,
        eps=rng.normal(size=(n_eps,) + shape) * scale, p=p)


class TestDualExponent:
    def test_known_pairs(self):
        assert dual_exponent(1.0) == np.inf
        assert dual_exponent(2.0) == 2.0
        assert dual_exponent(np.inf) == 1.0

    def test_general_holder_pair(self):
        q = dual_exponent(3.0)
        assert 1.0 / 3.0 + 1.0 / q == pytest.approx(1.0)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            dual_exponent(0.5)


class TestNormAlongAxis0:
    def test_l1_l2_linf(self, rng):
        coeffs = rng.normal(size=(5, 3))
        np.testing.assert_allclose(norm_along_axis0(coeffs, 1.0),
                                   np.abs(coeffs).sum(axis=0))
        np.testing.assert_allclose(norm_along_axis0(coeffs, 2.0),
                                   np.linalg.norm(coeffs, axis=0))
        np.testing.assert_allclose(norm_along_axis0(coeffs, np.inf),
                                   np.abs(coeffs).max(axis=0))

    def test_empty_symbols(self):
        out = norm_along_axis0(np.zeros((0, 4)), 2.0)
        np.testing.assert_allclose(out, np.zeros(4))


class TestBoundsTheorem1:
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_bounds_sound(self, rng, p):
        z = random_zonotope(rng, p=p)
        lower, upper = z.bounds()
        for _ in range(200):
            phi = sample_lp_ball(rng, z.n_phi, p)
            eps = rng.uniform(-1, 1, size=z.n_eps)
            x = z.concretize(phi, eps)
            assert np.all(x >= lower - 1e-9)
            assert np.all(x <= upper + 1e-9)

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_bounds_tight_phi_only(self, rng, p):
        """Theorem 1 tightness: the dual-norm bound is attained."""
        z = MultiNormZonotope(rng.normal(size=(4,)),
                              phi=rng.normal(size=(3, 4)), p=p)
        lower, upper = z.bounds()
        q = z.q
        for k in range(4):
            alpha = z.phi[:, k]
            # The maximizing phi for coordinate k (Lemma 1 witness).
            if p == np.inf:
                witness = np.sign(alpha)
            elif p == 1.0:
                witness = np.zeros_like(alpha)
                j = np.argmax(np.abs(alpha))
                witness[j] = np.sign(alpha[j])
            else:
                denom = np.linalg.norm(alpha, ord=q)
                witness = (np.sign(alpha) * np.abs(alpha) ** (q - 1)
                           / max(denom ** (q - 1), 1e-300))
            attained = z.center[k] + alpha @ witness
            assert attained == pytest.approx(upper[k], abs=1e-9)

    def test_bounds_tight_eps_only(self, rng):
        z = MultiNormZonotope(rng.normal(size=(4,)),
                              eps=rng.normal(size=(5, 4)))
        lower, upper = z.bounds()
        for k in range(4):
            witness = np.sign(z.eps[:, k])
            attained = z.center[k] + z.eps[:, k] @ witness
            assert attained == pytest.approx(upper[k], abs=1e-9)

    def test_radius_matches_bounds(self, rng):
        z = random_zonotope(rng)
        lower, upper = z.bounds()
        np.testing.assert_allclose(z.radius(), (upper - lower) / 2.0)


class TestConstructors:
    def test_lp_ball_masks_coordinates(self, rng):
        center = rng.normal(size=(3, 4))
        mask = np.zeros((3, 4), dtype=bool)
        mask[1] = True
        z = MultiNormZonotope.from_lp_ball(center, 0.5, 2, mask)
        assert z.n_phi == 4
        lower, upper = z.bounds()
        np.testing.assert_allclose(lower[0], center[0])
        np.testing.assert_allclose(upper[2], center[2])
        assert np.all(upper[1] > center[1])

    def test_linf_ball_uses_classical_symbols(self, rng):
        z = MultiNormZonotope.from_lp_ball(rng.normal(size=(2, 3)), 0.1,
                                           np.inf)
        assert z.n_phi == 0
        assert z.n_eps == 6
        lower, upper = z.bounds()
        np.testing.assert_allclose(upper - lower, 0.2)

    def test_from_box_per_coordinate_radii(self, rng):
        center = rng.normal(size=(2, 2))
        radii = np.array([[0.1, 0.0], [0.2, 0.3]])
        z = MultiNormZonotope.from_box(center, radii)
        assert z.n_eps == 3  # zero-radius coordinate gets no symbol
        lower, upper = z.bounds()
        np.testing.assert_allclose(upper - lower, 2 * radii)

    def test_point(self):
        z = MultiNormZonotope.point(np.ones((2, 2)), p=2.0, n_phi=3,
                                    n_eps=4)
        lower, upper = z.bounds()
        np.testing.assert_allclose(lower, upper)
        assert z.n_phi == 3 and z.n_eps == 4

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            MultiNormZonotope(np.zeros(3), phi=np.zeros((2, 4)))

    def test_unsupported_p_rejected(self):
        with pytest.raises(ValueError):
            MultiNormZonotope(np.zeros(2), p=0.5)


class TestConcretize:
    def test_matches_affine_form(self, rng):
        z = random_zonotope(rng)
        phi = sample_lp_ball(rng, z.n_phi, z.p)
        eps = rng.uniform(-1, 1, size=z.n_eps)
        expected = (z.center + np.tensordot(phi, z.phi, axes=(0, 0))
                    + np.tensordot(eps, z.eps, axes=(0, 0)))
        np.testing.assert_allclose(z.concretize(phi, eps), expected)

    def test_rejects_constraint_violations(self, rng):
        z = random_zonotope(rng, n_phi=2, n_eps=2)
        with pytest.raises(ValueError):
            z.concretize(np.array([2.0, 2.0]), np.zeros(2))
        with pytest.raises(ValueError):
            z.concretize(np.zeros(2), np.array([1.5, 0.0]))

    def test_rejects_wrong_sizes(self, rng):
        z = random_zonotope(rng, n_phi=2, n_eps=2)
        with pytest.raises(ValueError):
            z.concretize(np.zeros(3), np.zeros(2))

    def test_sample_within_bounds(self, rng):
        z = random_zonotope(rng)
        points = z.sample(rng, n=50)
        lower, upper = z.bounds()
        assert np.all(points >= lower - 1e-9)
        assert np.all(points <= upper + 1e-9)


class TestAffineTheorem2:
    def test_addition_exact(self, rng):
        a = random_zonotope(rng)
        b = random_zonotope(rng)
        out = a + b
        phi = sample_lp_ball(rng, a.n_phi, a.p)
        eps = rng.uniform(-1, 1, size=a.n_eps)
        np.testing.assert_allclose(out.concretize(phi, eps),
                                   a.concretize(phi, eps)
                                   + b.concretize(phi, eps))

    def test_scalar_ops(self, rng):
        z = random_zonotope(rng)
        phi = sample_lp_ball(rng, z.n_phi, z.p)
        eps = rng.uniform(-1, 1, size=z.n_eps)
        x = z.concretize(phi, eps)
        np.testing.assert_allclose((z + 2.0).concretize(phi, eps), x + 2.0)
        np.testing.assert_allclose((2.0 - z).concretize(phi, eps), 2.0 - x)
        np.testing.assert_allclose((-z).concretize(phi, eps), -x)
        np.testing.assert_allclose(z.scale(3.0).concretize(phi, eps),
                                   3.0 * x)

    def test_elementwise_scale_array(self, rng):
        z = random_zonotope(rng, shape=(3, 4))
        factor = rng.normal(size=(3, 4))
        phi = sample_lp_ball(rng, z.n_phi, z.p)
        eps = rng.uniform(-1, 1, size=z.n_eps)
        np.testing.assert_allclose(z.scale(factor).concretize(phi, eps),
                                   factor * z.concretize(phi, eps))

    def test_matmul_const_exact(self, rng):
        z = random_zonotope(rng, shape=(3, 4))
        w = rng.normal(size=(4, 2))
        phi = sample_lp_ball(rng, z.n_phi, z.p)
        eps = rng.uniform(-1, 1, size=z.n_eps)
        np.testing.assert_allclose(
            z.matmul_const(w).concretize(phi, eps),
            z.concretize(phi, eps) @ w)


class TestStructuralOps:
    def test_getitem(self, rng):
        z = random_zonotope(rng, shape=(3, 4))
        row = z[1]
        assert row.shape == (4,)
        phi = sample_lp_ball(rng, z.n_phi, z.p)
        eps = rng.uniform(-1, 1, size=z.n_eps)
        np.testing.assert_allclose(row.concretize(phi, eps),
                                   z.concretize(phi, eps)[1])

    def test_reshape_roundtrip(self, rng):
        z = random_zonotope(rng, shape=(3, 4))
        back = z.reshape(12).reshape(3, 4)
        np.testing.assert_allclose(back.center, z.center)
        np.testing.assert_allclose(back.eps, z.eps)

    def test_transpose_vars(self, rng):
        z = random_zonotope(rng, shape=(3, 4))
        zt = z.transpose_vars()
        assert zt.shape == (4, 3)
        np.testing.assert_allclose(zt.center, z.center.T)
        np.testing.assert_allclose(zt.phi, np.swapaxes(z.phi, 1, 2))

    def test_sum_and_mean_vars(self, rng):
        z = random_zonotope(rng, shape=(3, 4))
        phi = sample_lp_ball(rng, z.n_phi, z.p)
        eps = rng.uniform(-1, 1, size=z.n_eps)
        x = z.concretize(phi, eps)
        np.testing.assert_allclose(
            z.sum_vars(axis=1).concretize(phi, eps), x.sum(axis=1))
        np.testing.assert_allclose(
            z.mean_vars(axis=-1, keepdims=True).concretize(phi, eps),
            x.mean(axis=-1, keepdims=True))

    def test_expand_dims(self, rng):
        z = random_zonotope(rng, shape=(3, 4))
        assert z.expand_dims(1).shape == (3, 1, 4)

    def test_pad_eps(self, rng):
        z = random_zonotope(rng, n_eps=3)
        padded = z.pad_eps(6)
        assert padded.n_eps == 6
        np.testing.assert_allclose(padded.eps[3:], 0.0)
        with pytest.raises(ValueError):
            z.pad_eps(1)

    def test_aligned_with(self, rng):
        a = random_zonotope(rng, n_eps=3)
        b = random_zonotope(rng, n_eps=8)
        a2, b2 = a.aligned_with(b)
        assert a2.n_eps == b2.n_eps == 8

    def test_append_fresh_eps_filters_zeros(self, rng):
        z = random_zonotope(rng, shape=(4,), n_eps=2)
        magnitudes = np.array([0.5, 0.0, 0.0, 0.2])
        out = z.append_fresh_eps(magnitudes)
        assert out.n_eps == 4  # two non-zero magnitudes
        lower, upper = out.bounds()
        l0, u0 = z.bounds()
        np.testing.assert_allclose(upper - u0, 2 * magnitudes / 2)


@settings(max_examples=50, deadline=None)
@given(data=st.data(),
       p=st.sampled_from([1.0, 2.0, np.inf]),
       n_phi=st.integers(0, 4), n_eps=st.integers(0, 4))
def test_property_bounds_contain_samples(data, p, n_phi, n_eps):
    """Hypothesis: Theorem 1 bounds contain arbitrary instantiations."""
    seed = data.draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    z = MultiNormZonotope(
        rng.normal(size=(3,)) * 5,
        phi=rng.normal(size=(n_phi, 3)) * 2,
        eps=rng.normal(size=(n_eps, 3)) * 2, p=p)
    lower, upper = z.bounds()
    phi = sample_lp_ball(rng, n_phi, p) if n_phi else np.zeros(0)
    eps = rng.uniform(-1, 1, size=n_eps)
    x = z.concretize(phi, eps)
    assert np.all(x >= lower - 1e-9)
    assert np.all(x <= upper + 1e-9)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 31), scale_a=st.floats(-3, 3),
       scale_b=st.floats(-3, 3))
def test_property_affine_combination_exact(seed, scale_a, scale_b):
    """Hypothesis: Theorem 2 — affine combinations concretize exactly."""
    rng = np.random.default_rng(seed)
    a = MultiNormZonotope(rng.normal(size=(3,)),
                          phi=rng.normal(size=(2, 3)),
                          eps=rng.normal(size=(2, 3)), p=2.0)
    b = MultiNormZonotope(rng.normal(size=(3,)),
                          phi=rng.normal(size=(2, 3)),
                          eps=rng.normal(size=(2, 3)), p=2.0)
    combo = a.scale(scale_a) + b.scale(scale_b)
    phi = sample_lp_ball(rng, 2, 2.0)
    eps = rng.uniform(-1, 1, size=2)
    np.testing.assert_allclose(
        combo.concretize(phi, eps),
        scale_a * a.concretize(phi, eps) + scale_b * b.concretize(phi, eps),
        atol=1e-9)


def special_values(rng, shape):
    """Random values salted with signed zeros, infinities and NaN."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, shape)
    salt = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=shape)
    return np.where(rng.random(shape) < 0.2, salt, values)


class TestShortSums:
    """``sum_along`` adds a short last axis slice by slice, which is
    numpy's own order below 8 entries: a numpy that sums differently
    fails here."""

    @pytest.mark.parametrize("count", range(1, 8))
    def test_equals_numpy_sum_bitwise(self, rng, count):
        values = special_values(rng, (400, 6, count))
        # All-negative-zero and all-infinite rows pin the sign rules.
        values[0] = -0.0
        values[1] = np.inf
        values[2, :, 0] = -np.inf
        layouts = [values, np.swapaxes(np.swapaxes(values, 0, 2).copy(), 0, 2),
                   values[::2]]
        for layout in layouts:
            for keepdims in (False, True):
                got = sum_along(layout, -1, keepdims)
                with np.errstate(invalid="ignore"):
                    want = layout.sum(axis=-1, keepdims=keepdims)
                assert got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_sum_vars_keeps_numpy_sums(self, rng):
        for shape in ((3, 5), (2, 4, 5), (3, 12)):
            z = random_zonotope(rng, shape=shape)
            for axis in range(len(shape)):
                out = z.sum_vars(axis)
                assert np.array_equal(out.center, z.center.sum(axis=axis))
                assert np.array_equal(out.phi, z.phi.sum(axis=axis + 1))
                assert np.array_equal(out.eps, z.eps.sum(axis=axis + 1))
