"""Tests for the softmax transformer (5.2), sum refinement (5.3) and the
Appendix A.1 coefficient-mass minimization.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.zonotope import (MultiNormZonotope, softmax, refine_softmax_rows,
                            minimize_coefficient_mass, EpsRewrite,
                            apply_eps_rewrites)
from repro.trace import TRACER
from repro.zonotope.refinement import (_PIVOT_TOL, _SHRINK_TOL,
                                       _combined_tightenings,
                                       _minimize_mass_groups,
                                       _minimize_scalar, _zero_certified)

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


def lanes_of(r):
    """The group kernels' (R, m, Ta) lane layout of (R, Ta, m) gathers."""
    return np.ascontiguousarray(np.swapaxes(r, 1, 2))


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
        grouped = _minimize_mass_groups(lanes_of(r), s, is_phi)
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
            assert np.array_equal(
                _minimize_mass_groups(lanes_of(r), s, is_phi)[0],
                minimize_mass_row(r[0], s[0], is_phi))

    def test_phi_break_falls_back_to_scalar_walk(self):
        # Force the optimum onto a phi breakpoint: the group kernel must
        # hand exactly those (row, var) cells to the scalar slope walk.
        rng = np.random.default_rng(11)
        is_phi = np.array([True, True, True, False])
        for n_rows in (1, 3):
            r = rng.normal(size=(n_rows, 4, 2))
            s = np.ones((n_rows, 4))
            grouped = _minimize_mass_groups(lanes_of(r), s, is_phi)
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
        got = _combined_tightenings(refinable, d_center_all, d_phi_mass_all,
                                    d_eps_all)
        assert got == rowwise_intersection(refinable, d_center_all,
                                           d_phi_mass_all, d_eps_all)


def assert_step1_parity(r, s, is_phi):
    """The group kernel equals the per-row oracle on every lane, bitwise
    and signbit included, and every lane it certifies has the oracle
    answer 0.0. ``r``: (R, Ta, m); returns the certified (R, m) mask."""
    lanes = lanes_of(r)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        certified = _zero_certified(lanes, s)
        grouped = _minimize_mass_groups(lanes, s, is_phi)
        oracles = [minimize_mass_row(r[row], s[row], is_phi)
                   for row in range(len(r))]
    for row, oracle in enumerate(oracles):
        assert np.array_equal(grouped[row], oracle, equal_nan=True), row
        assert np.array_equal(np.signbit(grouped[row]), np.signbit(oracle))
        assert np.all(oracle[certified[row]] == 0.0), row
    return certified


def sparse_lanes(rng, n_rows, n_active, n_vars, touched):
    """Step-1 operands shaped like softmax rows: each variable touches
    about ``touched`` of its row's active symbols (exact zeros elsewhere),
    so most lanes are certifiable."""
    r = (rng.normal(size=(n_rows, n_active, n_vars))
         * (rng.random((n_rows, n_active, n_vars)) < touched))
    s = rng.normal(size=(n_rows, n_active))
    is_phi = np.arange(n_active) < int(rng.integers(0, n_active // 2 + 1))
    return r, s, is_phi


U = 2.0 ** -53


def edge_lanes():
    """Named one-row step-1 cases: (r (Ta, m), s (Ta,), is_phi (Ta,))."""
    cases = {}
    # A phi zero breakpoint sends the walk to its non-phi neighbour
    # -1.2 u, and rounding makes that tiny breakpoint's mass beat the mass
    # at 0 although Z - |A| = 0.067 is far above any rounding slack: only
    # the breakpoint test stands between this lane and a wrong 0.0.
    cases["phi-fallback-rounding"] = (
        np.array([[0.0], [1.2 * U], [1.0]]), np.array([2.4, 1.0, 1.6 / 1.2]),
        np.array([True, False, False]))
    tiny = np.array([[0.0, 1e-300], [1e-300, 0.0], [1.0, 1.0], [0.0, 0.0]])
    cases["tiny-breakpoints"] = (tiny, np.array([1.0, 1.0, 0.5, 3.0]),
                                 np.zeros(4, dtype=bool))
    cases["tiny-breakpoints-phi"] = (tiny, np.array([3.0, 1.0, 0.5, 3.0]),
                                     np.array([True, False, False, True]))
    cases["ties"] = (
        np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 0.0],
                  [-1.0, 0.0, 3.0], [1.0, 2.0, -3.0]]),
        np.array([1.0, 2.0, 3.0, 1.0, 1.0]), np.zeros(5, dtype=bool))
    cases["signed-zeros"] = (
        np.array([[-0.0, 0.0], [0.0, -0.0], [1.0, -0.0], [-0.0, 2.0]]),
        np.array([1.0, -2.0, 0.5, -0.25]), np.array([True, False, False,
                                                      False]))
    # Z = |A| exactly: f is flat on [-1, 0].
    cases["Z-equals-A"] = (np.array([[0.0], [1.0]]), np.array([1.0, 1.0]),
                           np.zeros(2, dtype=bool))
    # Z - |A| within rounding: 0.1 + 0.2 against 0.3.
    cases["Z-near-A"] = (np.array([[0.0], [0.0], [1.0]]),
                         np.array([0.1, 0.2, 0.3]), np.zeros(3, dtype=bool))
    cases["Z-near-A-below"] = (np.array([[0.0], [0.0], [1.0]]),
                               np.array([0.1, 0.2, 0.30000000000000004]),
                               np.zeros(3, dtype=bool))
    cases["all-zero"] = (np.zeros((4, 3)), np.array([1.0, -2.0, 3.0, 0.5]),
                         np.array([True, False, False, False]))
    # A flat minimum: f(c) = f(0) exactly, so summation order alone
    # decides whether the walk answers c; the per-row walk sums 12 symbols
    # one at a time for m > 1 and pairwise for m == 1, and the two orders
    # disagree on this lane.
    flat = np.array([0.4731902644201037, 0.7610352146098565,
                     0.7400285901907748, 0.9388537179520404,
                     0.2034393699528147, 0.7561136053686784,
                     -0.9346815357621039, -0.9711335709321818,
                     -0.11323567446883237, -0.8772760812210182,
                     -0.9830755360597099, -0.9614891616498672])
    cases["flat-minimum"] = (np.stack([flat, flat[::-1]], axis=1),
                             np.ones(12), np.zeros(12, dtype=bool))
    cases["flat-minimum-one-variable"] = (flat[:, None], np.ones(12),
                                          np.zeros(12, dtype=bool))
    cases["phi-only"] = (np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 0.0]]),
                         np.array([1.0, 1.0, 1.0]), np.ones(3, dtype=bool))
    cases["phi-hit"] = (np.array([[0.3, 0.0], [0.0, 0.0], [1.0, -2.0],
                                  [-0.5, 0.1]]),
                        np.array([4.0, 1.0, 0.5, 0.5]),
                        np.array([True, True, False, False]))
    rng = np.random.default_rng(7)
    base, s_base, phi_base = sparse_lanes(rng, 1, 9, 4, 0.4)
    base, s_base = base[0], s_base[0]
    for name, value in (("nan", np.nan), ("inf", np.inf),
                        ("-inf", -np.inf)):
        r = base.copy()
        r[2, 1] = value
        cases[f"{name}-coefficient"] = (r, s_base, phi_base)
    s = s_base.copy()
    s[3] = np.inf
    cases["inf-direction"] = (base, s, phi_base)
    # Every nonzero coefficient infinite: the mass at 0 is inf and no
    # candidate's is below it, so the answer is 0.0 and may be certified.
    cases["inf-only"] = (np.array([[0.0, np.inf], [np.inf, 0.0],
                                   [0.0, -np.inf], [0.0, 0.0]]),
                         np.array([1.0, 1.0, 3.0, 2.0]),
                         np.zeros(4, dtype=bool))
    for name, r_scale, s_scale in (("1e150", 1e150, 1.0),
                                   ("1e-150", 1e-150, 1.0),
                                   ("1e150/1e-150", 1e150, 1e-150),
                                   ("1e-150/1e150", 1e-150, 1e150)):
        cases[name] = (base * r_scale, s_base * s_scale, phi_base)
    return cases


class TestZeroCertificate:
    """Step 1 walks only the lanes a rounding-safe test cannot prove
    answer 0.0; the per-row walk (``minimize_mass_row``) is the oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_sparse_groups_match_rowwise_oracle(self, seed):
        rng = np.random.default_rng((101, seed))
        n_vars = int(rng.integers(1, 6))
        r, s, is_phi = sparse_lanes(rng, int(rng.integers(1, 9)),
                                    int(rng.integers(2, 40)), n_vars,
                                    float(rng.uniform(0.1, 0.6)))
        assert_step1_parity(r, s, is_phi)

    def test_most_softmax_like_lanes_are_certified(self):
        rng = np.random.default_rng(102)
        r, s, is_phi = sparse_lanes(rng, 10, 200, 5, 0.3)
        certified = assert_step1_parity(r, s, is_phi)
        assert certified.mean() > 0.5

    @pytest.mark.parametrize("name", sorted(edge_lanes()))
    def test_edge_lanes_match_rowwise_oracle(self, name):
        r, s, is_phi = edge_lanes()[name]
        assert_step1_parity(r[None], s[None], is_phi)
        # In a group of rows too, and as any lane of it.
        rng = np.random.default_rng(103)
        others, s_others, _ = sparse_lanes(rng, 3, *r.shape, 0.4)
        assert_step1_parity(np.concatenate([others[:1], r[None], others]),
                            np.concatenate([s_others[:1], s[None],
                                            s_others]), is_phi)

    def test_phi_fallback_rounding_lane_is_walked(self):
        r, s, is_phi = edge_lanes()["phi-fallback-rounding"]
        assert minimize_mass_row(r, s, is_phi)[0] == -1.2 * U
        assert not _zero_certified(lanes_of(r[None]), s[None]).any()

    def test_non_finite_lanes_are_walked(self):
        """A NaN, or an infinity beside finite coefficients, leaves the
        lane to the walk; so does an infinite D coefficient."""
        cases = edge_lanes()
        for name in ("nan-coefficient", "inf-coefficient",
                     "-inf-coefficient"):
            r, s, _ = cases[name]
            with np.errstate(invalid="ignore"):
                certified = _zero_certified(lanes_of(r[None]), s[None])
            assert not certified[0, 1], name
        r, s, _ = cases["inf-direction"]
        with np.errstate(invalid="ignore"):
            assert not _zero_certified(lanes_of(r[None]), s[None]).any()

    def test_breakpoints_at_the_threshold(self):
        """Bisect the tiny breakpoint at which the certificate flips; the
        lane matches the oracle one ulp either side and at the flip."""
        s = np.array([2.4, 1.0, 1.6 / 1.2])
        is_phi = np.array([True, False, False])

        def lane(x):
            return np.array([[0.0], [x], [1.0]])

        def certified(x):
            return bool(_zero_certified(lanes_of(lane(x)[None]),
                                        s[None])[0, 0])

        low, high = 1e-300, 1.0
        assert not certified(low) and certified(high)
        while np.nextafter(low, high) < high:
            mid = np.sqrt(low * high)
            if mid in (low, high):
                mid = np.nextafter(low, high)
            low, high = (mid, high) if not certified(mid) else (low, mid)
        for x in (low, high, np.nextafter(high, 2.0)):
            for sign in (1.0, -1.0):
                assert_step1_parity(lane(sign * x)[None], s[None], is_phi)

    def test_refinement_counts_lanes_and_walks(self, rng):
        scores = score_zonotope(rng, n=4, m=5, n_eps=6)
        with TRACER.query_scope("lanes") as record:
            softmax(scores, refine_sum=True)
        counters = record["perf"]["counters"]
        assert counters["refine_lanes"] == 4 * 5
        assert 0 <= counters["refine_lanes_walked"] <= 20


def rowwise_intersection(refinable, d_center_all, d_phi_mass_all,
                         d_eps_all):
    """Per-row oracle tightenings, intersected over rows."""
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
    return expected


class TestTighteningPrefilter:
    """Step 2 evaluates only symbols that can tighten; rows straddling the
    prefilter's boundary, and near-infeasible rows (|c_D| ~ mass) whose
    ranges are rounding noise, still match the per-row oracle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_boundary_rows_match_rowwise_intersection(self, seed):
        rng = np.random.default_rng((104, seed))
        n_symbols, n_rows = 7, 40
        # Each row owns its symbols, so no row's range masks another's.
        d_eps_all = np.zeros((n_symbols * n_rows, n_rows))
        for row in range(n_rows):
            d_eps_all[row * n_symbols:(row + 1) * n_symbols, row] = \
                rng.normal(size=n_symbols)
        d_phi_mass_all = rng.uniform(0.0, 0.5, size=n_rows)
        mass = d_phi_mass_all + np.abs(d_eps_all).sum(axis=0)
        beta = np.abs(d_eps_all).max(axis=0)
        # |c_D| puts 2 |beta| near the prefilter's floor, at the keep
        # test's own boundary, just inside it (kept) and at the edge of
        # feasibility (|c_D| = mass), each +- a few ulps.
        share = rng.choice([1.0 - 1e-9, 1.0 - 1e-12, 1.0, 1.0 + 1e-5,
                            1.0 + 1e-3], n_rows)
        center = mass - 2.0 * beta / share
        degenerate = rng.random(n_rows) < 0.25
        center[degenerate] = mass[degenerate]
        ulps = rng.integers(-4, 5, size=n_rows)
        center = center + ulps * np.spacing(center)
        d_center_all = center * rng.choice([-1.0, 1.0], n_rows)
        refinable = np.arange(n_rows)
        got = _combined_tightenings(refinable, d_center_all, d_phi_mass_all,
                                    d_eps_all)
        assert got == rowwise_intersection(refinable, d_center_all,
                                           d_phi_mass_all, d_eps_all)

    def test_rounding_noise_tightening_is_kept(self):
        """|c_D| within a few ulps of a 2**26-scale mass and a symbol of a
        few ulps: the exact range covers [-1, 1] with 0.4% to spare, but
        ``R_m`` rounds down by 0.45 ulp and the oracle keeps a range; the
        prefilter's ``_FILTER_SLACK`` keeps the symbol evaluated."""
        ulp = np.spacing(2.0 ** 26)
        d_eps_all = np.array([[2.0 ** 26 + 5 * ulp], [5.55 * ulp]])
        mass = np.abs(d_eps_all[:, 0]).sum()
        d_center_all = np.array([mass - 11.5 * ulp])
        d_phi_mass_all = np.zeros(1)
        refinable = np.arange(1)
        expected = rowwise_intersection(refinable, d_center_all,
                                        d_phi_mass_all, d_eps_all)
        assert 1 in expected
        assert 2.0 * d_eps_all[1, 0] < 0.999 * (mass - d_center_all[0])
        assert _combined_tightenings(refinable, d_center_all,
                                     d_phi_mass_all, d_eps_all) == expected
