"""Tests for the extension features beyond the paper's core: GELU
activations and the sigmoid transformer."""

import numpy as np
import pytest
from scipy.stats import norm

from repro.autograd import Tensor, gelu as autograd_gelu
from repro.nn import TransformerClassifier, FeedForward, train_transformer
from repro.verify import (DeepTVerifier, FAST, word_perturbation_region,
                          propagate_classifier)
from repro.zonotope import MultiNormZonotope, sigmoid, gelu

from tests.conftest import sample_lp_ball, assert_sound
from tests.gradcheck import check_grad


class TestAutogradGelu:
    def test_value(self, rng):
        x = rng.normal(size=(5,))
        np.testing.assert_allclose(autograd_gelu(Tensor(x)).data,
                                   x * norm.cdf(x))

    def test_gradient(self, rng):
        check_grad(lambda x: autograd_gelu(x).sum(), rng.normal(size=(6,)))


class TestSigmoidTransformer:
    def test_sound(self, rng):
        z = MultiNormZonotope(rng.normal(size=(4,)) * 2,
                              phi=rng.normal(size=(2, 4)),
                              eps=rng.normal(size=(3, 4)), p=2.0)
        assert_sound(sigmoid(z), lambda x: 1 / (1 + np.exp(-x)), z, rng)

    def test_point_exact(self):
        z = MultiNormZonotope(np.array([0.3, -1.0]))
        out = sigmoid(z)
        np.testing.assert_allclose(out.center,
                                   1 / (1 + np.exp(-np.array([0.3, -1.0]))))

    def test_range_within_unit(self, rng):
        z = MultiNormZonotope(np.zeros(3), eps=rng.normal(size=(4, 3)))
        lower, upper = sigmoid(z).bounds()
        assert np.all(lower < 1.0) and np.all(upper > 0.0)


class TestGeluTransformer:
    def test_sound(self, rng):
        z = MultiNormZonotope(rng.normal(size=(4,)) * 2,
                              phi=rng.normal(size=(2, 4)),
                              eps=rng.normal(size=(3, 4)), p=2.0)
        assert_sound(gelu(z), lambda x: x * norm.cdf(x), z, rng)

    def test_covers_nonmonotone_dip(self, rng):
        """The interval around GELU's minimum (~ -0.7518) is the hard
        case for a sampled band."""
        z = MultiNormZonotope(np.array([-0.75]), eps=np.array([[0.5]]))
        out = gelu(z)
        lower, upper = out.bounds()
        xs = np.linspace(-1.25, -0.25, 200)
        values = xs * norm.cdf(xs)
        assert lower[0] <= values.min() + 1e-9
        assert upper[0] >= values.max() - 1e-9

    def test_point_exact(self):
        z = MultiNormZonotope(np.array([1.3]))
        out = gelu(z)
        assert out.center[0] == pytest.approx(1.3 * norm.cdf(1.3))


class TestGeluNetwork:
    def test_feed_forward_activation_validation(self, rng):
        with pytest.raises(ValueError):
            FeedForward(8, 8, rng=rng, activation="swish")

    def test_gelu_network_verifies_soundly(self, tiny_corpus, rng):
        model = TransformerClassifier(len(tiny_corpus.vocab), embed_dim=8,
                                      n_heads=2, hidden_dim=8, n_layers=1,
                                      max_len=16, seed=4, activation="gelu")
        train_transformer(model, tiny_corpus.train_sequences,
                          tiny_corpus.train_labels, epochs=4, lr=2e-3)
        sequence = tiny_corpus.test_sequences[0]
        region = word_perturbation_region(model, sequence, 1, 0.03, 2)
        logits = propagate_classifier(model, region,
                                      FAST(noise_symbol_cap=48))
        lower, upper = logits.bounds()
        emb = model.embed_array(sequence)
        for _ in range(80):
            delta = sample_lp_ball(rng, emb.shape[1], 2, 0.03)
            perturbed = emb.copy()
            perturbed[1] += delta
            out = model.logits_from_embedding_array(perturbed)
            assert np.all(out >= lower - 1e-7)
            assert np.all(out <= upper + 1e-7)

    def test_gelu_certification(self, tiny_corpus):
        model = TransformerClassifier(len(tiny_corpus.vocab), embed_dim=8,
                                      n_heads=2, hidden_dim=8, n_layers=1,
                                      max_len=16, seed=4, activation="gelu")
        train_transformer(model, tiny_corpus.train_sequences,
                          tiny_corpus.train_labels, epochs=4, lr=2e-3)
        verifier = DeepTVerifier(model, FAST(noise_symbol_cap=48))
        result = verifier.certify_word_perturbation(
            tiny_corpus.test_sequences[0], 1, 1e-5, 2)
        assert result.certified

