"""Tests for the softmax transformer (5.2), sum refinement (5.3) and the
Appendix A.1 coefficient-mass minimization.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.zonotope import (MultiNormZonotope, softmax, refine_softmax_rows,
                            minimize_coefficient_mass, EpsRewrite,
                            apply_eps_rewrites)
from repro.zonotope.refinement import (_minimize_mass_groups,
                                       _minimize_mass_rows)

from tests.conftest import sample_lp_ball


def concrete_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def score_zonotope(rng, n=3, m=3, n_phi=3, n_eps=4, scale=0.15, p=2.0):
    return MultiNormZonotope(
        rng.normal(size=(n, m)),
        phi=rng.normal(size=(n_phi, n, m)) * scale,
        eps=rng.normal(size=(n_eps, n, m)) * scale, p=p)


def check_softmax_sound(scores, out, rng, n=300, tol=1e-7):
    lower, upper = out.bounds()
    for _ in range(n):
        phi = sample_lp_ball(rng, scores.n_phi, scores.p)
        eps = rng.uniform(-1, 1, size=scores.n_eps)
        y = concrete_softmax(scores.concretize(phi, eps))
        assert np.all(y >= lower - tol)
        assert np.all(y <= upper + tol)


class TestSoftmax:
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_sound(self, rng, p):
        scores = score_zonotope(rng, p=p)
        check_softmax_sound(scores, softmax(scores), rng)

    def test_outputs_within_unit_interval(self, rng):
        scores = score_zonotope(rng, scale=0.5)
        lower, upper = softmax(scores).bounds()
        assert np.all(lower >= -1e-9)

    def test_point_scores_give_exact_softmax(self, rng):
        values = rng.normal(size=(3, 4))
        scores = MultiNormZonotope(values)
        out = softmax(scores)
        np.testing.assert_allclose(out.center, concrete_softmax(values),
                                   atol=1e-12)
        lower, upper = out.bounds()
        np.testing.assert_allclose(upper - lower, 0.0, atol=1e-12)

    def test_requires_2d(self, rng):
        with pytest.raises(ValueError):
            softmax(MultiNormZonotope(rng.normal(size=(3,))))

    def test_huge_region_falls_back_to_unit_box(self, rng):
        """Overflow-scale inputs degrade soundly to [0, 1] boxes."""
        scores = MultiNormZonotope(
            rng.normal(size=(2, 3)),
            eps=rng.normal(size=(2, 2, 3)) * 500.0)
        out = softmax(scores)
        lower, upper = out.bounds()
        assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
        assert np.all(lower >= -1e-9) and np.all(upper <= 1.0 + 1e-9)
        check_softmax_sound(scores, out, rng, n=50)

    def test_rows_with_distinct_scales(self, rng):
        """Mixed usable/vacuous rows: each stays sound independently."""
        eps = np.zeros((1, 2, 3))
        eps[0, 0] = 0.1
        eps[0, 1] = 600.0
        scores = MultiNormZonotope(rng.normal(size=(2, 3)), eps=eps)
        out = softmax(scores)
        lower, upper = out.bounds()
        assert upper[0].max() < 1.0  # tight row stays informative
        check_softmax_sound(scores, out, rng, n=100)


class TestSumRefinement:
    def test_refined_sound_and_no_wider(self, rng):
        scores = score_zonotope(rng)
        plain = softmax(scores)
        refined, rewrites = softmax(scores, refine_sum=True)
        check_softmax_sound(scores, refined, rng)
        width_plain = np.subtract(*plain.bounds()[::-1]).sum()
        width_refined = np.subtract(*refined.bounds()[::-1]).sum()
        assert width_refined <= width_plain + 1e-9

    def test_rewrites_are_valid_records(self, rng):
        scores = score_zonotope(rng, scale=0.3)
        _, rewrites = softmax(scores, refine_sum=True)
        for rewrite in rewrites:
            assert isinstance(rewrite, EpsRewrite)
            assert 0.0 <= rewrite.half <= 1.0
            assert abs(rewrite.mid) + rewrite.half <= 1.0 + 1e-9

    def test_refine_rows_requires_2d(self, rng):
        with pytest.raises(ValueError):
            refine_softmax_rows(MultiNormZonotope(rng.normal(size=(3,))))

    def test_row_sums_concretize_near_one(self, rng):
        """After refinement, instantiations satisfying the tightened
        symbols produce row sums closer to 1 on average."""
        scores = score_zonotope(rng, scale=0.3)
        plain = softmax(scores)
        refined, _ = softmax(scores, refine_sum=True)

        def mean_sum_error(z):
            errors = []
            for _ in range(200):
                phi = sample_lp_ball(rng, z.n_phi, z.p)
                eps = rng.uniform(-1, 1, size=z.n_eps)
                values = z.concretize(phi, eps)
                errors.append(np.abs(values.sum(axis=-1) - 1.0).mean())
            return np.mean(errors)

        assert mean_sum_error(refined) <= mean_sum_error(plain) + 1e-9


class TestApplyEpsRewrites:
    def test_semantics(self, rng):
        z = MultiNormZonotope(rng.normal(size=(3,)),
                              eps=rng.normal(size=(2, 3)))
        rewrites = [EpsRewrite(index=0, mid=0.25, half=0.5)]
        out = apply_eps_rewrites(z, rewrites)
        # eps_0 = 0.25 + 0.5 * fresh: new center absorbs coeff * mid.
        np.testing.assert_allclose(out.center, z.center + 0.25 * z.eps[0])
        np.testing.assert_allclose(out.eps[0], 0.5 * z.eps[0])
        np.testing.assert_allclose(out.eps[1], z.eps[1])

    def test_out_of_range_indices_ignored(self, rng):
        z = MultiNormZonotope(rng.normal(size=(3,)),
                              eps=rng.normal(size=(1, 3)))
        out = apply_eps_rewrites(z, [EpsRewrite(index=5, mid=0.1, half=0.2)])
        np.testing.assert_allclose(out.center, z.center)

    def test_empty_rewrites_noop(self, rng):
        z = MultiNormZonotope(rng.normal(size=(3,)))
        assert apply_eps_rewrites(z, []) is z


class TestMinimizeCoefficientMass:
    def brute_force(self, r, s, n_phi, grid=None):
        candidates = [0.0]
        for ri, si in zip(r[n_phi:], s[n_phi:]):
            if si != 0:
                candidates.append(-ri / si)
        return min(candidates, key=lambda v: np.abs(r + s * v).sum())

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            r = rng.normal(size=8)
            s = rng.normal(size=8)
            n_phi = 3
            got = minimize_coefficient_mass(r, s, n_phi)
            expected = self.brute_force(r, s, n_phi)
            assert np.abs(r + s * got).sum() <= \
                np.abs(r + s * expected).sum() + 1e-9

    def test_zero_direction_returns_zero(self, rng):
        assert minimize_coefficient_mass(rng.normal(size=4),
                                         np.zeros(4), 2) == 0.0

    def test_never_worse_than_zero(self, rng):
        for _ in range(30):
            r = rng.normal(size=6)
            s = rng.normal(size=6)
            got = minimize_coefficient_mass(r, s, n_phi=2)
            assert np.abs(r + s * got).sum() <= np.abs(r).sum() + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), n_phi=st.integers(0, 4))
    def test_property_optimality_over_eps_breakpoints(self, seed, n_phi):
        rng = np.random.default_rng(seed)
        size = n_phi + 5
        r = rng.normal(size=size)
        s = rng.normal(size=size)
        got = minimize_coefficient_mass(r, s, n_phi)
        best = self.brute_force(r, s, n_phi)
        # The slope-walk result must be at least as good as scanning all
        # allowed breakpoints (it may also legitimately tie).
        assert np.abs(r + s * got).sum() <= \
            np.abs(r + s * best).sum() + 1e-9


class TestGroupedRefinementParity:
    """The vectorized group kernel equals the per-row oracle bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_rowwise_oracle(self, seed):
        rng = np.random.default_rng((97, seed))
        n_rows, n_active, n_vars = (int(rng.integers(2, 7)),
                                    int(rng.integers(2, 9)),
                                    int(rng.integers(1, 6)))
        r = rng.normal(size=(n_rows, n_active, n_vars))
        s = rng.uniform(0.1, 1.0, size=(n_rows, n_active)) \
            * rng.choice([-1.0, 1.0], size=(n_rows, n_active))
        n_phi = int(rng.integers(0, n_active + 1))
        is_phi = np.zeros(n_active, dtype=bool)
        is_phi[:n_phi] = True

        grouped = _minimize_mass_groups(r, s, is_phi)
        for row in range(n_rows):
            oracle = _minimize_mass_rows(r[row], s[row], is_phi)
            assert np.array_equal(grouped[row], oracle), \
                f"row {row} diverged from the per-row oracle"

    def test_phi_break_falls_back_to_scalar_walk(self):
        # Force the optimum onto a phi breakpoint: the group kernel must
        # hand exactly those (row, var) cells to the scalar slope walk.
        rng = np.random.default_rng(11)
        r = rng.normal(size=(3, 4, 2))
        s = np.ones((3, 4))
        is_phi = np.array([True, True, True, False])
        grouped = _minimize_mass_groups(r, s, is_phi)
        for row in range(3):
            oracle = _minimize_mass_rows(r[row], s[row], is_phi)
            assert np.array_equal(grouped[row], oracle)
