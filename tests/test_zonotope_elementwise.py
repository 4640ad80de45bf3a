"""Tests for the elementwise abstract transformers (Sections 4.3-4.6).

Each transformer is checked for (a) soundness: the output zonotope contains
f(x) for every sampled instantiation; (b) exactness on stable/point cases;
(c) the extra guarantees the softmax pipeline needs (positive lower bounds
for exp and reciprocal).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.zonotope import MultiNormZonotope, relu, tanh, exp, reciprocal, rsqrt

from tests.conftest import sample_lp_ball, assert_sound


def make_input(rng, shape=(3, 4), n_phi=3, n_eps=4, p=2.0, scale=0.4,
               offset=0.0):
    return MultiNormZonotope(
        rng.normal(size=shape) + offset,
        phi=rng.normal(size=(n_phi,) + shape) * scale,
        eps=rng.normal(size=(n_eps,) + shape) * scale, p=p)


class TestReLU:
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_sound(self, rng, p):
        z = make_input(rng, p=p)
        assert_sound(relu(z), lambda x: np.maximum(x, 0), z, rng)

    def test_stable_positive_exact(self, rng):
        z = make_input(rng, offset=10.0, scale=0.1)
        out = relu(z)
        np.testing.assert_allclose(out.center, z.center)
        np.testing.assert_allclose(out.phi, z.phi)
        assert out.n_eps == z.n_eps  # no fresh symbols

    def test_stable_negative_zero(self, rng):
        z = make_input(rng, offset=-10.0, scale=0.1)
        out = relu(z)
        np.testing.assert_allclose(out.center, 0.0)
        np.testing.assert_allclose(out.bounds()[1], 0.0)

    def test_output_lower_bound_nonnegative_center_region(self, rng):
        z = make_input(rng)
        lower, upper = relu(z).bounds()
        assert np.all(upper >= 0.0)

    def test_minimal_area_coefficients(self, rng):
        """Crossing case: lambda = u/(u-l), mu = beta (Eq. 2)."""
        z = MultiNormZonotope(np.array([0.5]), eps=np.array([[1.0]]))
        out = relu(z)  # l=-0.5, u=1.5 -> lam=0.75
        assert out.eps[0, 0] == pytest.approx(0.75)
        mu = 0.5 * max(0.75 * 0.5, 0.25 * 1.5)
        assert out.center[0] == pytest.approx(0.75 * 0.5 + mu)


class TestTanh:
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_sound(self, rng, p):
        z = make_input(rng, p=p)
        assert_sound(tanh(z), np.tanh, z, rng)

    def test_point_exact(self):
        z = MultiNormZonotope(np.array([0.7, -1.2]))
        out = tanh(z)
        np.testing.assert_allclose(out.center, np.tanh([0.7, -1.2]))
        assert out.n_eps == 0

    def test_output_within_unit_interval(self, rng):
        z = make_input(rng, scale=2.0)
        lower, upper = tanh(z).bounds()
        # The parallel-slope band can exceed [-1, 1] slightly only through
        # its area optimality; the true outputs never do.
        assert np.all(lower <= 1.0) and np.all(upper >= -1.0)

    def test_shrinks_wide_inputs(self, rng):
        z = make_input(rng, scale=5.0)
        in_width = np.subtract(*z.bounds()[::-1])
        out_width = np.subtract(*tanh(z).bounds()[::-1])
        assert np.all(out_width <= np.maximum(in_width, 2.1))


class TestExp:
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_sound(self, rng, p):
        z = make_input(rng, p=p)
        assert_sound(exp(z), np.exp, z, rng)

    def test_positive_lower_bound(self, rng):
        """Section 4.5: t_crit,2 keeps the output lower bound positive."""
        z = make_input(rng, scale=1.0)
        lower, _ = exp(z).bounds()
        assert np.all(lower > 0.0)

    def test_point_exact(self):
        z = MultiNormZonotope(np.array([0.0, 1.0, -2.0]))
        out = exp(z)
        np.testing.assert_allclose(out.center, np.exp([0.0, 1.0, -2.0]))
        assert out.n_eps == 0

    def test_wide_interval_still_sound(self, rng):
        z = make_input(rng, scale=3.0)
        assert_sound(exp(z), np.exp, z, rng, n=100)

    def test_very_wide_interval_lower_bound_not_above_exp_l(self, rng):
        """At u - l > 30 the tangent band's lower offset (about e^l) is
        below one ulp of e^u; the computed lower bound must still not
        exceed e^l, the smallest reachable output."""
        lower = rng.uniform(0.0, 2.0, size=200)
        width = rng.uniform(30.0, 40.0, size=200)
        z = MultiNormZonotope(lower + width / 2,
                              eps=np.stack([width / 4, width / 4]))
        in_lower, _ = z.bounds()
        out_lower, out_upper = exp(z).bounds()
        assert np.all(out_lower <= np.exp(in_lower))
        assert np.all(out_lower >= 0.0)
        assert np.all(out_upper >= np.exp(z.bounds()[1]))


class TestHugeMagnitudeBands:
    """Bands with a small margin at a huge magnitude: rounding may cost
    the bounds a few ulps of the large end, never more.

    The tolerance ``ULPS`` is 4 ulps relative to the magnitude at stake
    (|u| for ReLU, 1/l for the reciprocal). A fixed absolute tolerance
    would not do: at u = 1e16 one ulp is 2. Measured on 5,000 samples per
    band: ReLU's interval bounds hold exactly and its band misses by at
    most 2.2e-16 |u|; the reciprocal's upper bound falls below 1/l by at
    most 2.3e-16 relative and its band by at most 3.0e-16 of 1/l."""

    ULPS = 4 * np.finfo(float).eps
    N = 2000

    @staticmethod
    def band(out, e):
        """Each variable's output range at input symbol values ``e`` (one
        row per sample), as the fresh symbols range over [-1, 1]."""
        mid = out.center + out.eps[0] * e
        half = np.abs(out.eps[1:]).sum(axis=0)
        return mid - half, mid + half

    def test_relu_crossing_near_1e16(self, rng):
        # center c with one eps coefficient c + k: l = -k, u = 2c + k
        # (integral c below 2**53, so l is exact).
        k = rng.integers(1, 5, self.N).astype(float)
        c = np.floor((10 ** rng.uniform(13, 16, self.N) - k) / 2)
        z = MultiNormZonotope(c, eps=(c + k)[None])
        lower, upper = z.bounds()
        np.testing.assert_array_equal(lower, -k)
        assert np.all((1e13 <= upper) & (upper <= 1e16))
        out = relu(z)
        out_lower, out_upper = out.bounds()
        assert np.all(out_lower <= 0.0)
        assert np.all(out_upper >= upper)
        # Sampled instantiations, the crossing point x = 0 included.
        e = np.concatenate([np.tile(np.linspace(-1, 1, 201)[:, None],
                                    self.N),
                            (-c / (c + k))[None]])
        x = c + (c + k) * e
        band_lower, band_upper = self.band(out, e)
        slack = self.ULPS * np.abs(upper)
        assert np.all(np.maximum(x, 0.0) >= band_lower - slack)
        assert np.all(np.maximum(x, 0.0) <= band_upper + slack)

    def test_reciprocal_far_apart_bounds(self, rng):
        low = 10 ** rng.uniform(-6, 0, self.N)
        high = low * 10 ** rng.uniform(0.5, 12, self.N)
        z = MultiNormZonotope((low + high) / 2, eps=((high - low) / 2)[None])
        lower, upper = z.bounds()
        assert np.all((1e-6 <= lower) & (lower <= 1.0))
        ratio = upper / lower
        assert np.all((10 ** 0.45 <= ratio) & (ratio <= 10 ** 12.05))
        out = reciprocal(z)
        out_lower, out_upper = out.bounds()
        assert np.all(out_lower > 0.0)
        assert np.all(out_lower <= 1.0 / upper)
        assert np.all(out_upper >= (1.0 / lower) * (1.0 - self.ULPS))
        e = np.linspace(-1, 1, 201)[:, None]
        x = np.clip(z.center + z.eps[0] * e, lower, upper)
        band_lower, band_upper = self.band(out, e)
        slack = self.ULPS / lower
        assert np.all(1.0 / x >= band_lower - slack)
        assert np.all(1.0 / x <= band_upper + slack)


class TestReciprocal:
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_sound(self, rng, p):
        z = make_input(rng, p=p, offset=5.0)
        assert_sound(reciprocal(z), lambda x: 1.0 / x, z, rng)

    def test_positive_lower_bound(self, rng):
        z = make_input(rng, offset=5.0)
        lower, _ = reciprocal(z).bounds()
        assert np.all(lower > 0.0)

    def test_requires_positive_input(self, rng):
        z = make_input(rng, offset=0.0, scale=1.0)
        with pytest.raises(ValueError):
            reciprocal(z)

    def test_point_exact(self):
        z = MultiNormZonotope(np.array([2.0, 4.0]))
        out = reciprocal(z)
        np.testing.assert_allclose(out.center, [0.5, 0.25])
        assert out.n_eps == 0

    def test_wide_ratio_sound(self, rng):
        """u > 4l triggers the t_crit branch; u < 4l the t_min clamp."""
        narrow = MultiNormZonotope(np.array([3.0]), eps=np.array([[0.5]]))
        wide = MultiNormZonotope(np.array([5.0]), eps=np.array([[4.5]]))
        for z in (narrow, wide):
            assert_sound(reciprocal(z), lambda x: 1.0 / x, z, rng, n=100)
            assert reciprocal(z).bounds()[0][0] > 0


class TestRsqrt:
    def test_sound(self, rng):
        z = make_input(rng, offset=4.0)
        assert_sound(rsqrt(z), lambda x: 1.0 / np.sqrt(x), z, rng)

    def test_sound_with_shift(self, rng):
        z = make_input(rng, offset=2.0, scale=0.2)
        assert_sound(rsqrt(z, shift=0.5),
                     lambda x: 1.0 / np.sqrt(x + 0.5), z, rng)

    def test_requires_positive(self, rng):
        z = make_input(rng, offset=0.0, scale=1.0)
        with pytest.raises(ValueError):
            rsqrt(z)

    def test_assume_nonnegative_clamps(self, rng):
        """A slightly-negative abstract lower bound is tolerated when the
        true input is declared non-negative."""
        z = MultiNormZonotope(np.array([0.05]), eps=np.array([[0.1]]))
        out = rsqrt(z, shift=1e-3, assume_nonnegative=True)
        lower, upper = out.bounds()
        # Bounds must cover f on the *reachable* range [0, 0.15].
        value = 1.0 / np.sqrt(np.linspace(0.0, 0.15, 20) + 1e-3)
        assert lower[0] <= value.min() + 1e-9
        assert upper[0] >= value.max() - 1e-9


class TestFreshSymbols:
    def test_each_crossing_variable_gets_own_symbol(self, rng):
        z = make_input(rng, shape=(2, 2))
        out = relu(z)
        lower, upper = z.bounds()
        crossing = int(((lower < 0) & (upper > 0)).sum())
        assert out.n_eps == z.n_eps + crossing

    def test_fresh_symbols_are_independent(self, rng):
        """Fresh rows form a diagonal block: one non-zero per row."""
        z = make_input(rng, shape=(6,))
        out = tanh(z)
        fresh = out.eps[z.n_eps:]
        for row in fresh.reshape(len(fresh), -1):
            assert (row != 0).sum() == 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31),
       fn_name=st.sampled_from(["relu", "tanh", "exp"]))
def test_property_elementwise_soundness(seed, fn_name):
    """Hypothesis: transformers contain the function graph on any input."""
    rng = np.random.default_rng(seed)
    z = MultiNormZonotope(
        rng.normal(size=(4,)) * 2,
        phi=rng.normal(size=(2, 4)),
        eps=rng.normal(size=(3, 4)), p=2.0)
    transformer = {"relu": relu, "tanh": tanh, "exp": exp}[fn_name]
    concrete = {"relu": lambda x: np.maximum(x, 0), "tanh": np.tanh,
                "exp": np.exp}[fn_name]
    out = transformer(z)
    lower, upper = out.bounds()
    phi = sample_lp_ball(rng, 2, 2.0)
    eps = rng.uniform(-1, 1, size=3)
    y = concrete(z.concretize(phi, eps))
    assert np.all(y >= lower - 1e-8)
    assert np.all(y <= upper + 1e-8)
