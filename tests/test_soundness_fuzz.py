"""Soundness fuzzing: seeded random Multi-norm Zonotopes through every
abstract transformer, with Monte-Carlo containment checks.

Each test draws random zonotopes (random centers, phi/eps coefficient
matrices and norms) from a seeded generator, pushes them through one
abstract transformer, and asserts that a few hundred sampled concrete
executions land inside the propagated interval bounds — the defining
soundness property of the domain (Theorem 1 concretization).

The per-transformer unit suites check the same property on hand-picked
shapes; this suite trades depth for breadth: every transformer, every norm,
several seeds, one uniform harness. Set ``REPRO_FUZZ_SEED`` to shift the
seed base and explore a different random slice (CI pins it to 0 so failures
reproduce).
"""

import os

import numpy as np
import pytest
from scipy.stats import norm as _gauss

from repro.zonotope import (DotProductConfig, MultiNormZonotope, exp, gelu,
                            reciprocal, reduce_noise_symbols,
                            refine_softmax_rows, relu, rsqrt, sigmoid,
                            softmax, tanh, zonotope_matmul,
                            zonotope_multiply)

from tests.conftest import assert_sound, sample_lp_ball

SEED_BASE = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
SEEDS = [SEED_BASE + k for k in range(3)]
NORMS = [1.0, 2.0, np.inf]


def fuzz_zonotope(rng, shape=(3, 4), n_phi=3, n_eps=4, p=2.0, scale=0.2,
                  center_shift=0.0):
    """A random zonotope with bounded spread (and offsettable center)."""
    return MultiNormZonotope(
        rng.normal(size=shape) + center_shift,
        phi=rng.normal(size=(n_phi,) + shape) * scale if n_phi else None,
        eps=rng.normal(size=(n_eps,) + shape) * scale if n_eps else None,
        p=p)


def fuzz_pair(rng, n=3, k=4, m=2, p=2.0, scale=0.2):
    """Two zonotopes over shared symbols, shaped for a matmul."""
    n_phi, n_eps = int(rng.integers(0, 4)), int(rng.integers(1, 5))
    a = fuzz_zonotope(rng, (n, k), n_phi, n_eps, p, scale)
    b = fuzz_zonotope(rng, (k, m), n_phi, n_eps, p, scale)
    return a, b


ELEMENTWISE = {
    "relu": (relu, lambda x: np.maximum(x, 0.0), 0.0),
    "tanh": (tanh, np.tanh, 0.0),
    "exp": (exp, np.exp, 0.0),
    "sigmoid": (sigmoid, lambda x: 1.0 / (1.0 + np.exp(-x)), 0.0),
    "gelu": (gelu, lambda x: x * _gauss.cdf(x), 0.0),
    # Positive-domain transformers: shift centers well away from zero.
    "reciprocal": (reciprocal, lambda x: 1.0 / x, 4.0),
    "rsqrt": (rsqrt, lambda x: 1.0 / np.sqrt(x), 4.0),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", NORMS)
class TestElementwiseFuzz:
    @pytest.mark.parametrize("name", sorted(ELEMENTWISE))
    def test_sound(self, seed, p, name):
        abstract, concrete, center_shift = ELEMENTWISE[name]
        rng = np.random.default_rng((seed, int(min(p, 64)),
                                     sum(map(ord, name)) % 997))
        z = fuzz_zonotope(rng, p=p, center_shift=center_shift)
        if center_shift:
            # Positive-domain transformers: lift every coordinate's lower
            # interval bound to at least 0.5.
            lower, _ = z.bounds()
            z = z.affine_image(np.ones(z.shape),
                               np.maximum(0.0, 0.5 - lower))
        assert_sound(abstract(z), concrete, z, rng, n=150)

    def test_affine_chain(self, seed, p):
        """Composed affine ops must stay exact-in, sound-out."""
        rng = np.random.default_rng((seed, 11))
        z = fuzz_zonotope(rng, p=p)
        weight = rng.normal(size=(z.shape[-1], 3))
        lam = rng.normal(size=z.shape)
        mu = rng.normal(size=z.shape)
        out = z.affine_image(lam, mu).matmul_const(weight)
        assert_sound(out, lambda x: (lam * x + mu) @ weight, z, rng, n=150)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", NORMS)
@pytest.mark.parametrize("variant", ["fast", "precise"])
class TestDotProductFuzz:
    def test_matmul_sound(self, seed, p, variant):
        rng = np.random.default_rng((seed, 23, sum(map(ord, variant)) % 997))
        order = ["linf_first", "lp_first"][seed % 2]
        a, b = fuzz_pair(rng, p=p)
        out = zonotope_matmul(a, b, DotProductConfig(variant=variant,
                                                     order=order))
        lower, upper = out.bounds()
        for _ in range(150):
            phi = sample_lp_ball(rng, a.n_phi, a.p) if a.n_phi \
                else np.zeros(0)
            eps = rng.uniform(-1, 1, size=a.n_eps)
            y = a.concretize(phi, eps) @ b.concretize(phi, eps)
            assert np.all(y >= lower - 1e-8)
            assert np.all(y <= upper + 1e-8)

    def test_multiply_sound(self, seed, p, variant):
        rng = np.random.default_rng((seed, 29, sum(map(ord, variant)) % 997))
        shape = (3, 4)
        n_phi, n_eps = int(rng.integers(0, 4)), int(rng.integers(1, 5))
        a = fuzz_zonotope(rng, shape, n_phi, n_eps, p)
        b = fuzz_zonotope(rng, shape, n_phi, n_eps, p)
        out = zonotope_multiply(a, b, DotProductConfig(variant=variant))
        lower, upper = out.bounds()
        for _ in range(150):
            phi = sample_lp_ball(rng, a.n_phi, a.p) if a.n_phi \
                else np.zeros(0)
            eps = rng.uniform(-1, 1, size=a.n_eps)
            y = a.concretize(phi, eps) * b.concretize(phi, eps)
            assert np.all(y >= lower - 1e-8)
            assert np.all(y <= upper + 1e-8)


def concrete_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", NORMS)
class TestSoftmaxFuzz:
    def test_softmax_sound(self, seed, p):
        rng = np.random.default_rng((seed, 31))
        scores = fuzz_zonotope(rng, (3, 3), p=p, scale=0.15)
        assert_sound(softmax(scores), concrete_softmax, scores, rng,
                     n=200, tol=1e-7)

    def test_softmax_sum_refinement_sound(self, seed, p):
        """The 5.3 sum refinement must tighten without losing points."""
        rng = np.random.default_rng((seed, 37))
        scores = fuzz_zonotope(rng, (3, 3), p=p, scale=0.15)
        plain = softmax(scores, refine_sum=False)
        refined, rewrites = softmax(scores, refine_sum=True)
        assert isinstance(rewrites, list)
        assert_sound(refined, concrete_softmax, scores, rng, n=200,
                     tol=1e-7)
        plain_width = np.subtract(*plain.bounds()[::-1]).sum()
        refined_width = np.subtract(*refined.bounds()[::-1]).sum()
        assert refined_width <= plain_width + 1e-9

    def test_refine_rows_explicit(self, seed, p):
        rng = np.random.default_rng((seed, 41))
        scores = fuzz_zonotope(rng, (3, 3), p=p, scale=0.15)
        refined, _ = refine_softmax_rows(softmax(scores))
        assert_sound(refined, concrete_softmax, scores, rng, n=200,
                     tol=1e-7)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", NORMS)
class TestReductionFuzz:
    def test_decorrelate_contains_original(self, seed, p):
        """DecorrelateMin_k over-approximates: z's points stay inside."""
        rng = np.random.default_rng((seed, 43))
        z = fuzz_zonotope(rng, (3, 4), n_phi=2, n_eps=8, p=p)
        for k in (0, 3, 8):
            reduced = reduce_noise_symbols(z, k)
            assert reduced.n_eps <= max(k, 0) + z.shape[0] * z.shape[1]
            assert_sound(reduced, lambda x: x, z, rng, n=150)

    def test_pipeline_composition(self, seed, p):
        """A fuzzed mini attention block end-to-end stays sound."""
        rng = np.random.default_rng((seed, 47))
        a, b = fuzz_pair(rng, n=3, k=4, m=3, p=p, scale=0.15)
        scores = zonotope_matmul(a, b, DotProductConfig(variant="fast"))
        probs, _ = softmax(scores, refine_sum=True)
        out = reduce_noise_symbols(relu(probs), 6)
        lower, upper = out.bounds()
        for _ in range(200):
            phi = sample_lp_ball(rng, a.n_phi, a.p) if a.n_phi \
                else np.zeros(0)
            eps = rng.uniform(-1, 1, size=a.n_eps)
            y = np.maximum(concrete_softmax(
                a.concretize(phi, eps) @ b.concretize(phi, eps)), 0.0)
            assert np.all(y >= lower - 1e-7)
            assert np.all(y <= upper + 1e-7)
