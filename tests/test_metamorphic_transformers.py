"""Metamorphic properties of the abstract transformers.

Where the soundness fuzz suite checks *containment of sampled points*,
this battery checks *relations between whole abstract outputs* that every
correct transformer implementation must satisfy:

* **containment monotonicity** — a transformer applied to a zonotope that
  contains another must produce bounds containing the tighter input's
  output bounds (here: the same zonotope with extra fresh eps slack vs
  without);
* **noise-symbol permutation invariance** — reordering eps symbol rows
  (a pure relabeling of the abstract state) must not change any concrete
  bound;
* **Fast vs Precise dot-product** — the Precise variant (Eq. 5 pairing of
  matching symbols) is never looser than Fast (Eq. 6 norm product);
* **softmax range** — abstract softmax bounds always land in [0, 1];
* **layer refinement** — refining a superset of layers (fast, combined,
  precise) never widens a whole transformer's final bounds.

Seeded like the fuzz suite: ``REPRO_FUZZ_SEED`` shifts the seed base, CI
pins it to 0.
"""

import os

import numpy as np
import pytest

from repro.zonotope import (DotProductConfig, MultiNormZonotope, exp,
                            reciprocal, reduce_noise_symbols, relu, rsqrt,
                            softmax, tanh, zonotope_matmul,
                            zonotope_multiply)

from tests.test_soundness_fuzz import fuzz_pair, fuzz_zonotope

SEED_BASE = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
SEEDS = [SEED_BASE + k for k in range(3)]
NORMS = [1.0, 2.0, np.inf]

# (abstract transformer, center shift lifting positive-domain inputs)
UNARY = {
    "relu": (relu, 0.0),
    "tanh": (tanh, 0.0),
    "exp": (exp, 0.0),
    "reciprocal": (reciprocal, 4.0),
    "rsqrt": (rsqrt, 4.0),
}


def _lift_positive(z, floor=0.5):
    """Shift a zonotope so every coordinate's lower bound is >= floor."""
    lower, _ = z.bounds()
    return z.affine_image(np.ones(z.shape), np.maximum(0.0, floor - lower))


def _make_input(rng, p, shift):
    z = fuzz_zonotope(rng, p=p, center_shift=shift)
    return _lift_positive(z) if shift else z


def _widen(z, slack):
    """A strict superset of ``z``: the same affine form plus fresh slack."""
    return z.append_fresh_eps(np.full(z.shape, slack))


def _permute_eps(z, perm):
    return MultiNormZonotope(z.center, z.phi, z.eps[perm], z.p)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", NORMS)
class TestContainmentMonotonicity:
    """input ⊆ input' implies bounds(f(input)) ⊆-interval bounds(f(input'))."""

    @pytest.mark.parametrize("name", sorted(UNARY))
    def test_unary(self, seed, p, name):
        abstract, shift = UNARY[name]
        rng = np.random.default_rng((seed, int(min(p, 64)),
                                     sum(map(ord, name)) % 997))
        z = _make_input(rng, p, shift)
        tight_lower, tight_upper = abstract(z).bounds()
        wide_lower, wide_upper = abstract(_widen(z, 0.05)).bounds()
        assert np.all(wide_lower <= tight_lower + 1e-9)
        assert np.all(wide_upper >= tight_upper - 1e-9)

    def test_softmax(self, seed, p):
        rng = np.random.default_rng((seed, 53))
        scores = fuzz_zonotope(rng, (3, 3), p=p, scale=0.15)
        tight_lower, tight_upper = softmax(scores).bounds()
        wide_lower, wide_upper = softmax(_widen(scores, 0.05)).bounds()
        assert np.all(wide_lower <= tight_lower + 1e-9)
        assert np.all(wide_upper >= tight_upper - 1e-9)

    def test_radius_monotonicity(self, seed, p):
        """Scaling the input region up can only widen every output."""
        rng = np.random.default_rng((seed, 59))
        z = fuzz_zonotope(rng, p=p)
        grown = MultiNormZonotope(z.center, 1.5 * z.phi, 1.5 * z.eps, z.p)
        for name in ("relu", "tanh", "exp"):
            abstract, _ = UNARY[name]
            tight_lower, tight_upper = abstract(z).bounds()
            wide_lower, wide_upper = abstract(grown).bounds()
            assert np.all(wide_lower <= tight_lower + 1e-9), name
            assert np.all(wide_upper >= tight_upper - 1e-9), name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", NORMS)
class TestEpsPermutationInvariance:
    """Relabeling eps symbols is abstractly meaningless: bounds match."""

    @pytest.mark.parametrize("name", sorted(UNARY))
    def test_unary(self, seed, p, name):
        abstract, shift = UNARY[name]
        rng = np.random.default_rng((seed, 61, sum(map(ord, name)) % 997))
        z = _make_input(rng, p, shift)
        perm = rng.permutation(z.n_eps)
        base_lower, base_upper = abstract(z).bounds()
        perm_lower, perm_upper = abstract(_permute_eps(z, perm)).bounds()
        np.testing.assert_allclose(perm_lower, base_lower, atol=1e-8)
        np.testing.assert_allclose(perm_upper, base_upper, atol=1e-8)

    @pytest.mark.parametrize("variant", ["fast", "precise"])
    def test_matmul(self, seed, p, variant):
        """Permuting *both* operands' eps rows consistently preserves the
        pairing structure the Precise variant exploits."""
        rng = np.random.default_rng((seed, 67,
                                     sum(map(ord, variant)) % 997))
        a, b = fuzz_pair(rng, p=p)
        config = DotProductConfig(variant=variant)
        perm = rng.permutation(a.n_eps)
        base_lower, base_upper = zonotope_matmul(a, b, config).bounds()
        perm_lower, perm_upper = zonotope_matmul(
            _permute_eps(a, perm), _permute_eps(b, perm), config).bounds()
        np.testing.assert_allclose(perm_lower, base_lower, atol=1e-8)
        np.testing.assert_allclose(perm_upper, base_upper, atol=1e-8)

    def test_reduction_bounds(self, seed, p):
        """DecorrelateMin_k keeps the top-k *set*; a permutation changes
        which rows those are but not the reduced concrete bounds."""
        rng = np.random.default_rng((seed, 71))
        z = fuzz_zonotope(rng, (3, 4), n_phi=2, n_eps=8, p=p)
        perm = rng.permutation(z.n_eps)
        base_lower, base_upper = reduce_noise_symbols(z, 3).bounds()
        perm_lower, perm_upper = reduce_noise_symbols(
            _permute_eps(z, perm), 3).bounds()
        np.testing.assert_allclose(perm_lower, base_lower, atol=1e-8)
        np.testing.assert_allclose(perm_upper, base_upper, atol=1e-8)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", NORMS)
class TestFastVsPrecise:
    """Eq. 5 (Precise, matched-symbol pairing) refines Eq. 6 (Fast)."""

    def test_matmul_precise_no_looser(self, seed, p):
        rng = np.random.default_rng((seed, 73))
        a, b = fuzz_pair(rng, p=p)
        fast_lower, fast_upper = zonotope_matmul(
            a, b, DotProductConfig(variant="fast")).bounds()
        prec_lower, prec_upper = zonotope_matmul(
            a, b, DotProductConfig(variant="precise")).bounds()
        assert np.all(prec_upper - prec_lower
                      <= fast_upper - fast_lower + 1e-9)

    def test_multiply_precise_no_looser(self, seed, p):
        rng = np.random.default_rng((seed, 79))
        shape = (3, 4)
        n_phi, n_eps = int(rng.integers(0, 4)), int(rng.integers(1, 5))
        a = fuzz_zonotope(rng, shape, n_phi, n_eps, p)
        b = fuzz_zonotope(rng, shape, n_phi, n_eps, p)
        fast_lower, fast_upper = zonotope_multiply(
            a, b, DotProductConfig(variant="fast")).bounds()
        prec_lower, prec_upper = zonotope_multiply(
            a, b, DotProductConfig(variant="precise")).bounds()
        assert np.all(prec_upper - prec_lower
                      <= fast_upper - fast_lower + 1e-9)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", NORMS)
class TestSoftmaxRange:
    """The 5.2 softmax form guarantees outputs in [0, 1] abstractly.

    (Up to floating-point roundoff — the tolerance is 1e-6 because the
    reciprocal transformer's planes are assembled from exp values spanning
    many orders of magnitude at large radii.)
    """

    @pytest.mark.parametrize("scale", [0.15, 1.0, 5.0])
    def test_bounds_in_unit_interval(self, seed, p, scale):
        rng = np.random.default_rng((seed, 83, int(scale * 10)))
        scores = fuzz_zonotope(rng, (3, 3), p=p, scale=scale)
        lower, upper = softmax(scores).bounds()
        assert np.all(lower >= -1e-6)
        assert np.all(upper <= 1.0 + 1e-6)

    @pytest.mark.parametrize("refine", [False, True])
    def test_row_bound_sums_bracket_one(self, seed, p, refine):
        """Concrete softmax rows sum to 1, so any sound abstraction's row
        bounds must bracket it: sum(lower) <= 1 <= sum(upper). This holds
        for the refined output too — whose *individual* bounds may dip
        below 0 (the sum-constraint recombination ``y + s.D`` preserves
        soundness, not the unit range)."""
        rng = np.random.default_rng((seed, 89, int(refine)))
        scores = fuzz_zonotope(rng, (3, 3), p=p, scale=0.15)
        out = softmax(scores, refine_sum=refine)
        if refine:
            out, _ = out
        lower, upper = out.bounds()
        assert np.all(lower.sum(axis=-1) <= 1.0 + 1e-6)
        assert np.all(upper.sum(axis=-1) >= 1.0 - 1e-6)

    def test_extreme_radius_falls_back_to_unit_box(self, seed, p):
        """Blown-up scores trigger the sound [0, 1] box fallback, never
        NaN or negative mass."""
        rng = np.random.default_rng((seed, 97))
        scores = fuzz_zonotope(rng, (2, 3), p=p, scale=500.0)
        lower, upper = softmax(scores).bounds()
        assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
        assert np.all(lower >= -1e-6)
        assert np.all(upper <= 1.0 + 1e-6)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", NORMS)
class TestRefinementPlanMetamorphic:
    """The dot-product variants are fixed per-layer refinement plans:
    ``fast`` refines no layer, ``combined`` (App. A.6) the last layer and
    ``precise`` every layer. Relations that wiring must satisfy on
    whole-transformer propagations."""

    def _setup(self, seed, p):
        from repro.nn import TransformerClassifier
        from repro.verify import FAST, word_perturbation_region

        rng = np.random.default_rng((seed, 71))
        model = TransformerClassifier(40, embed_dim=8, n_heads=2,
                                      hidden_dim=8, n_layers=3, max_len=12,
                                      seed=seed)
        tokens = [int(t) for t in rng.integers(1, 40, size=6)]
        region = word_perturbation_region(model, tokens, 1, 0.3, p)
        base = FAST(noise_symbol_cap=16, softmax_sum_refinement=False)
        return model, region, base

    def test_superset_plan_never_widens(self, seed, p):
        """Refining a superset of layers (fast, then combined, then
        precise) never widens any final bound (same width idiom as
        :class:`TestFastVsPrecise`)."""
        from dataclasses import replace

        from repro.verify import propagate_classifier

        model, region, base = self._setup(seed, p)
        widths = []
        for variant in ("fast", "combined", "precise"):
            config = replace(base, dot_product_variant=variant)
            lower, upper = propagate_classifier(model, region,
                                                config).bounds()
            widths.append(upper - lower)
        fast, combined, precise = widths
        assert np.all(combined <= fast + 1e-9)
        assert np.all(precise <= combined + 1e-9)
