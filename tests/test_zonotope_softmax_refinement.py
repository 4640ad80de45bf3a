"""Tests for the softmax transformer (5.2), sum refinement (5.3) and the
Appendix A.1 coefficient-mass minimization.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.zonotope import (MultiNormZonotope, softmax, refine_softmax_rows,
                            minimize_coefficient_mass, EpsRewrite,
                            apply_eps_rewrites)
from repro.zonotope.refinement import (_PIVOT_TOL, _SHRINK_TOL,
                                       _combined_tightenings,
                                       _minimize_mass_groups,
                                       _minimize_scalar)

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


def minimize_mass_row(r, s, is_phi):
    """Per-row oracle of step 1: the walk over one softmax row's variables.

    ``r``: (Ta, m) [phi | eps] coefficients of the row variables, gathered
    down to the symbols with a nonzero D coefficient; ``s``: (Ta,) the
    matching D coefficients; ``is_phi``: (Ta,) bool. Each column takes its
    global weighted-median breakpoint unless that does worse than 0;
    columns whose optimum is phi-derived fall back to the scalar walk.
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

    mass_at = np.abs(r + s[:, None] * chosen[None, :]).sum(axis=0)
    mass_at_zero = np.abs(r).sum(axis=0)
    result[:] = np.where(mass_at < mass_at_zero, chosen, 0.0)
    for col in np.flatnonzero(phi_hit):
        result[col] = _minimize_scalar(r[:, col], s, is_phi)
    return result


def tightenings_from_row(d_center, d_phi_mass, d_eps):
    """Per-row oracle of step 2: symbol ranges from one row's ``D = 0``.

    Solving ``0 = c_D + alpha_D.phi + beta_D.eps`` for ``eps_m`` restricts
    its range to ``[(-c_D - R_m)/beta_m, (-c_D + R_m)/beta_m]`` (sorted),
    where ``R_m`` is the dual-norm mass of the remaining terms. Returns a
    dict ``index -> (lo, hi)`` intersected with [-1, 1].
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


def slope_walk_case(rng, n_rows):
    """Random stacked step-1 operands: (r, s, is_phi)."""
    n_active, n_vars = int(rng.integers(1, 9)), int(rng.integers(1, 6))
    r = rng.normal(size=(n_rows, n_active, n_vars))
    s = rng.uniform(0.1, 1.0, size=(n_rows, n_active)) \
        * rng.choice([-1.0, 1.0], size=(n_rows, n_active))
    is_phi = np.zeros(n_active, dtype=bool)
    is_phi[:int(rng.integers(0, n_active + 1))] = True
    return r, s, is_phi


class TestGroupedRefinementParity:
    """The vectorized group kernels equal the per-row oracles bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_rowwise_oracle(self, seed):
        rng = np.random.default_rng((97, seed))
        r, s, is_phi = slope_walk_case(rng, int(rng.integers(2, 7)))
        grouped = _minimize_mass_groups(r, s, is_phi)
        for row in range(len(r)):
            oracle = minimize_mass_row(r[row], s[row], is_phi)
            assert np.array_equal(grouped[row], oracle), \
                f"row {row} diverged from the per-row oracle"

    def test_one_row_groups_match_rowwise_oracle(self):
        # The refinement sends a row whose active-set sizes no other row
        # shares through the group kernel as a group of one.
        rng = np.random.default_rng(98)
        for _ in range(300):
            r, s, is_phi = slope_walk_case(rng, 1)
            assert np.array_equal(_minimize_mass_groups(r, s, is_phi)[0],
                                  minimize_mass_row(r[0], s[0], is_phi))

    def test_phi_break_falls_back_to_scalar_walk(self):
        # Force the optimum onto a phi breakpoint: the group kernel must
        # hand exactly those (row, var) cells to the scalar slope walk.
        rng = np.random.default_rng(11)
        is_phi = np.array([True, True, True, False])
        for n_rows in (1, 3):
            r = rng.normal(size=(n_rows, 4, 2))
            s = np.ones((n_rows, 4))
            grouped = _minimize_mass_groups(r, s, is_phi)
            for row in range(n_rows):
                oracle = minimize_mass_row(r[row], s[row], is_phi)
                assert np.array_equal(grouped[row], oracle)

    @pytest.mark.parametrize("seed", range(5))
    def test_combined_tightenings_match_rowwise_intersection(self, seed):
        rng = np.random.default_rng((99, seed))
        n_rows, n_symbols = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        # Heavy-tailed coefficients give rows a dominant symbol (tightened),
        # exact zeros vary the significant counts, and some entries sit
        # below the pivot tolerance.
        d_eps_all = (rng.normal(size=(n_symbols, n_rows))
                     * np.exp(2.0 * rng.normal(size=(n_symbols, n_rows)))
                     * (rng.random((n_symbols, n_rows)) < 0.7))
        d_eps_all[rng.random((n_symbols, n_rows)) < 0.1] = 1e-12
        d_center_all = 0.3 * rng.normal(size=n_rows)
        d_phi_mass_all = rng.uniform(0.0, 0.5, size=n_rows)
        refinable = np.flatnonzero(
            np.abs(d_eps_all).max(axis=0, initial=0.0) > _PIVOT_TOL)

        expected = {}
        for row in refinable:
            ranges = tightenings_from_row(
                d_center_all[row], d_phi_mass_all[row],
                np.ascontiguousarray(d_eps_all[:, row]))
            for key, (lo, hi) in ranges.items():
                if key in expected:
                    lo = max(lo, expected[key][0])
                    hi = min(hi, expected[key][1])
                expected[key] = (lo, hi)
        got = _combined_tightenings(refinable, d_center_all, d_phi_mass_all,
                                    d_eps_all)
        assert got == expected
