"""Structured engine vs the dense oracle: identical abstract semantics.

The engine keeps fresh eps symbols as lazy one-nonzero-per-variable tails
beside one exactly-sized dense row array (``repro.zonotope.storage``), and
runs both dot-product variants without padding their operands. The
test-side oracle ``tests.engine_oracle.dense_engine()`` replays the dense
representation those optimisations replaced, the aligned Fast and Precise
products included. Both must compute the *same* abstract values — these
tests pin that down at the micro level (single transformers on random
zonotopes, at relative 1e-10) and end to end, where the output-logit
bounds must be bitwise equal: full propagations of the 2-layer test model
(DecorrelateMin_k reduction forced at every layer), of its standard
layer-norm twin (whose elementwise products run the k = 1 matmul) and of
the cached 3-layer ``sst-small`` model at the verifier defaults, for every
norm and both dot-product variants, and at Table 14's Combined settings
(Precise in the last layer only).
"""

import numpy as np
import pytest

from repro.experiments.harness import (SCALE, evaluation_sentences,
                                      get_transformer)
from repro.zonotope import (MultiNormZonotope, relu, tanh, exp, softmax,
                            zonotope_matmul, DotProductConfig,
                            reduce_noise_symbols)
from repro.verify import COMBINED, VerifierConfig
from repro.verify.propagation import propagate_classifier
from repro.verify.regions import word_perturbation_region

from tests.engine_oracle import dense_engine

RTOL, ATOL = 1e-10, 1e-12
NORMS = [1.0, 2.0, np.inf]


def random_zonotope(rng, shape, p, n_phi=3, n_eps=4):
    return MultiNormZonotope(
        rng.normal(size=shape),
        phi=0.3 * rng.normal(size=(n_phi,) + shape),
        eps=0.2 * rng.normal(size=(n_eps,) + shape), p=p)


def both_paths(fn, *args):
    """Run ``fn`` on the engine and under the dense oracle; return both."""
    fast = fn(*args)
    with dense_engine():
        dense = fn(*args)
    return fast, dense


def assert_same(fast, dense):
    np.testing.assert_allclose(fast.center, dense.center, rtol=RTOL,
                               atol=ATOL)
    fl, fu = fast.bounds()
    dl, du = dense.bounds()
    np.testing.assert_allclose(fl, dl, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(fu, du, rtol=RTOL, atol=ATOL)
    assert fast.n_eps == dense.n_eps
    np.testing.assert_allclose(fast.eps, dense.eps, rtol=RTOL, atol=ATOL)


class TestMicroEquivalence:
    """Single transformers: the tail/buffer bookkeeping is exact."""

    @pytest.mark.parametrize("p", NORMS)
    def test_elementwise_chain(self, rng, p):
        z = random_zonotope(rng, (4, 5), p)
        fast, dense = both_paths(lambda x: tanh(relu(x)).scale(1.7) + 0.3, z)
        assert_same(fast, dense)

    @pytest.mark.parametrize("p", NORMS)
    def test_softmax_pipeline_shapes(self, rng, p):
        # exp -> expand/sum/reciprocal is the tail's main closure workout.
        z = random_zonotope(rng, (3, 4), p)
        fast, dense = both_paths(lambda x: softmax(x), z)
        assert_same(fast, dense)

    def test_structural_ops_keep_tail_lazy_and_exact(self, rng):
        z = random_zonotope(rng, (3, 4), 2.0)

        def pipeline(x):
            y = exp(x)                          # appends a lazy tail
            y = y.reshape(4, 3).transpose_vars(1, 0)
            y = y.expand_dims(0)
            y = y.sum_vars(axis=-1, keepdims=True)
            return (-y).pad_eps(y.n_eps + 3)

        fast, dense = both_paths(pipeline, z)
        assert_same(fast, dense)

    @pytest.mark.parametrize("order", ["linf_first", "lp_first"])
    @pytest.mark.parametrize("variant", ["fast", "precise"])
    def test_zonotope_matmul(self, rng, variant, order):
        x = random_zonotope(rng, (3, 4), 2.0)
        y = random_zonotope(rng, (4, 2), 2.0)
        config = DotProductConfig(variant=variant, order=order)
        fast, dense = both_paths(
            lambda a, b: zonotope_matmul(exp(a), exp(b), config), x, y)
        assert_same(fast, dense)

    def test_zonotope_matmul_batched_with_tails(self, rng):
        # Per-head batching: leading axes plus lazy tails on both operands
        # exercises the padding-free cross scatter of the fast matmul.
        x = random_zonotope(rng, (2, 3, 4), 2.0, n_eps=5)
        y = random_zonotope(rng, (2, 4, 2), 2.0, n_eps=2)
        fast, dense = both_paths(
            lambda a, b: zonotope_matmul(exp(a), exp(b)), x, y)
        assert_same(fast, dense)

    def test_matmul_const_with_tail(self, rng):
        z = random_zonotope(rng, (2, 3, 4), 2.0)
        w = rng.normal(size=(4, 6))
        fast, dense = both_paths(lambda a: exp(a).matmul_const(w), z)
        assert_same(fast, dense)

    def test_reduction_after_tail(self, rng):
        z = random_zonotope(rng, (3, 4), np.inf, n_eps=6)
        fast, dense = both_paths(
            lambda x: reduce_noise_symbols(relu(x), 5), z)
        assert_same(fast, dense)

    def test_aligned_mixing_of_tailed_operands(self, rng):
        a = random_zonotope(rng, (3, 4), 1.0)
        b = random_zonotope(rng, (3, 4), 1.0)
        fast, dense = both_paths(lambda x, y: relu(x) + tanh(y), a, b)
        assert_same(fast, dense)


@pytest.fixture(scope="module")
def sst_small_l3():
    """The cached 3-layer sst-small model and the longest of its first 10
    evaluation sentences (the attention blocks' heaviest input)."""
    model, dataset, _ = get_transformer("sst-small", n_layers=3)
    return model, max(evaluation_sentences(model, dataset, 10), key=len)


def logit_bounds(model, sentence, p, radius, config):
    """Output-logit bounds of a propagation with word 1 perturbed."""
    region = word_perturbation_region(model, sentence, 1, radius, p)
    return propagate_classifier(model, region, config).bounds()


class TestEndToEndEquivalence:
    """Full propagations: logit bounds bitwise equal on both engines."""

    @pytest.mark.parametrize("p", NORMS)
    @pytest.mark.parametrize("variant", ["fast", "precise"])
    def test_propagation_bounds_match(self, tiny_model, tiny_sentence, p,
                                      variant):
        # A small cap forces DecorrelateMin_k reduction at each layer input.
        config = VerifierConfig(dot_product_variant=variant,
                                noise_symbol_cap=48)
        structured, dense = both_paths(logit_bounds, tiny_model,
                                       tiny_sentence, p, 0.02, config)
        np.testing.assert_array_equal(structured, dense)

    @pytest.mark.parametrize("p", NORMS)
    @pytest.mark.parametrize("variant", ["fast", "precise"])
    def test_std_norm_bounds_match(self, tiny_model_std_norm, tiny_sentence,
                                   p, variant):
        # Standard layer norm (Table 7) runs the elementwise product, which
        # is the matmul route at k = 1, so the oracle's patch reaches it.
        config = VerifierConfig(dot_product_variant=variant,
                                noise_symbol_cap=48)
        structured, dense = both_paths(logit_bounds, tiny_model_std_norm,
                                       tiny_sentence, p, 0.02, config)
        np.testing.assert_array_equal(structured, dense)

    @pytest.mark.parametrize("p", NORMS)
    @pytest.mark.parametrize("variant", ["fast", "precise"])
    def test_sst_small_l3_bounds_match(self, sst_small_l3, p, variant):
        model, sentence = sst_small_l3
        config = VerifierConfig(dot_product_variant=variant)
        structured, dense = both_paths(logit_bounds, model, sentence, p,
                                       0.05, config)
        np.testing.assert_array_equal(structured, dense)

    @pytest.mark.parametrize("p", NORMS)
    def test_sst_small_l3_combined_bounds_match(self, sst_small_l3, p):
        # Table 14's verifier: Fast layers, then a Precise last layer at
        # the smaller cap.
        model, sentence = sst_small_l3
        config = COMBINED(noise_symbol_cap=SCALE.noise_symbol_cap,
                          last_layer_cap=SCALE.precise_symbol_cap)
        structured, dense = both_paths(logit_bounds, model, sentence, p,
                                       0.05, config)
        np.testing.assert_array_equal(structured, dense)
