"""Tests for the Transformer classifier, MLP/ViT substrates and training."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.nn import (TransformerClassifier, MLPClassifier,
                      VisionTransformerClassifier, patchify,
                      train_transformer, evaluate_transformer, train_mlp,
                      evaluate_mlp, train_vision_transformer,
                      evaluate_vision_transformer)


def _assert_rows_match(model, embeddings):
    """Each row of one stacked forward matches that input's own forward.

    Not bitwise: a stacked matmul may sum in another order than the
    one-sequence matmul, so rows agree to rounding (1e-12 of each logit,
    or of the largest logit for logits near 0).
    """
    with no_grad():
        stacked = model.forward_from_embeddings(
            Tensor(np.stack(embeddings))).data
    assert stacked.shape == (len(embeddings), model.classifier.out_features)
    scale = np.abs(stacked).max()
    for row, embedding in zip(stacked, embeddings):
        own = model.logits_from_embedding_array(embedding)
        assert row.argmax() == own.argmax()
        np.testing.assert_allclose(row, own, rtol=1e-12, atol=1e-12 * scale)


def _by_length(sequences):
    groups = {}
    for sequence in sequences:
        groups.setdefault(len(sequence), []).append(sequence)
    return groups


class TestStackedForward:
    """Leading axes of ``forward_from_embeddings`` stack sequences."""

    @pytest.mark.parametrize("fixture", ["tiny_model", "tiny_model_std_norm"])
    def test_rows_match_own_forward(self, fixture, tiny_corpus, request):
        model = request.getfixturevalue(fixture)
        groups = _by_length(tiny_corpus.test_sequences)
        assert len(groups) > 1 and max(map(len, groups.values())) > 1
        for group in groups.values():
            _assert_rows_match(model, [model.embed_array(s) for s in group])

    @pytest.mark.parametrize("fixture", ["tiny_model", "tiny_model_std_norm"])
    def test_evaluation_counts_what_predict_counts(self, fixture,
                                                   tiny_corpus, request):
        model = request.getfixturevalue(fixture)
        sequences, labels = tiny_corpus.test_sequences, tiny_corpus.test_labels
        correct = sum(model.predict(s) == int(label)
                      for s, label in zip(sequences, labels))
        assert evaluate_transformer(model, sequences, labels) \
            == correct / len(sequences)

    def test_vision_rows_match_and_count(self):
        model = VisionTransformerClassifier(image_size=8, patch_size=4,
                                            embed_dim=8, n_heads=2,
                                            hidden_dim=16, n_layers=2,
                                            n_classes=10, seed=1)
        rng = np.random.default_rng(4)
        images = rng.uniform(size=(12, 8, 8))
        labels = rng.integers(0, 10, size=12)
        _assert_rows_match(model, [model.embed_array(i) for i in images])
        correct = sum(model.predict(image) == label
                      for image, label in zip(images, labels))
        assert evaluate_vision_transformer(model, images, labels) \
            == correct / len(images)


class TestTransformerClassifier:
    def test_forward_shapes(self, tiny_model, tiny_sentence):
        logits = tiny_model.forward(tiny_sentence)
        assert logits.shape == (2,)

    def test_forward_batch(self, tiny_model, tiny_corpus):
        logits = tiny_model.forward_batch(tiny_corpus.test_sequences[:3])
        assert logits.shape == (3, 2)

    def test_predict_binary(self, tiny_model, tiny_sentence):
        assert tiny_model.predict(tiny_sentence) in (0, 1)

    def test_embed_matches_embed_array(self, tiny_model, tiny_sentence):
        with no_grad():
            emb = tiny_model.embed(tiny_sentence).data
        np.testing.assert_allclose(emb,
                                   tiny_model.embed_array(tiny_sentence))

    def test_embed_rejects_long_sequences(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.embed(list(range(tiny_model.max_len + 1)))

    def test_logits_from_embedding_array_consistent(self, tiny_model,
                                                    tiny_sentence):
        emb = tiny_model.embed_array(tiny_sentence)
        with no_grad():
            expected = tiny_model.forward(tiny_sentence).data
        np.testing.assert_allclose(
            tiny_model.logits_from_embedding_array(emb), expected)

    def test_positional_embedding_matters(self, tiny_corpus):
        model = TransformerClassifier(len(tiny_corpus.vocab), embed_dim=8,
                                      n_heads=2, hidden_dim=8, n_layers=1,
                                      max_len=16, seed=3)
        seq = tiny_corpus.test_sequences[0]
        emb1 = model.embed_array(seq)
        # Same tokens shifted by one position embed differently.
        rolled = [seq[0]] + seq[2:] + [seq[1]]
        emb2 = model.embed_array(rolled)
        assert not np.allclose(emb1, emb2)

    def test_training_reduces_loss_and_learns(self, tiny_corpus):
        model = TransformerClassifier(len(tiny_corpus.vocab), embed_dim=8,
                                      n_heads=2, hidden_dim=8, n_layers=1,
                                      max_len=16, seed=7)
        history = train_transformer(model, tiny_corpus.train_sequences,
                                    tiny_corpus.train_labels, epochs=12,
                                    lr=2e-3)
        assert history[-1] < history[0]
        accuracy = evaluate_transformer(model, tiny_corpus.test_sequences,
                                        tiny_corpus.test_labels)
        assert accuracy > 0.7

    def test_trained_fixture_is_accurate(self, tiny_model, tiny_corpus):
        accuracy = evaluate_transformer(tiny_model,
                                        tiny_corpus.test_sequences,
                                        tiny_corpus.test_labels)
        assert accuracy > 0.75

    def test_divide_by_std_variant_runs(self, tiny_model_std_norm,
                                        tiny_sentence):
        assert tiny_model_std_norm.predict(tiny_sentence) in (0, 1)


class TestMLP:
    def test_shapes_and_training(self, digit_data, tiny_mlp):
        features, labels = digit_data
        accuracy = evaluate_mlp(tiny_mlp, features[60:], labels[60:])
        assert accuracy > 0.8

    def test_weights_and_biases_structure(self, tiny_mlp):
        wb = tiny_mlp.weights_and_biases()
        assert len(wb) == 3  # two hidden + output
        assert wb[0][0].shape[1] == 6

    def test_predict_shape(self, tiny_mlp, digit_data):
        features, _ = digit_data
        assert tiny_mlp.predict(features[:5]).shape == (5,)


class TestPatchify:
    def test_shapes(self, rng):
        image = rng.normal(size=(8, 8))
        patches = patchify(image, 4)
        assert patches.shape == (4, 16)

    def test_content_row_major(self):
        image = np.arange(16).reshape(4, 4).astype(float)
        patches = patchify(image, 2)
        np.testing.assert_allclose(patches[0],
                                   [0, 1, 4, 5])
        np.testing.assert_allclose(patches[1], [2, 3, 6, 7])

    def test_indivisible_rejected(self, rng):
        with pytest.raises(ValueError):
            patchify(rng.normal(size=(9, 9)), 4)


class TestVisionTransformer:
    def test_forward_and_training(self):
        from repro.data import make_digit_dataset
        images, labels = make_digit_dataset(n_per_class=8, size=8,
                                            classes=(0, 1, 7), seed=0)
        model = VisionTransformerClassifier(image_size=8, patch_size=4,
                                            embed_dim=8, n_heads=2,
                                            hidden_dim=16, n_layers=1,
                                            n_classes=10, seed=0)
        history = train_vision_transformer(model, images, labels, epochs=4,
                                           lr=2e-3)
        assert history[-1] < history[0]
        assert model.predict(images[0]) in range(10)
        accuracy = evaluate_vision_transformer(model, images, labels)
        assert 0.0 <= accuracy <= 1.0

    def test_embed_array_matches_embed(self):
        model = VisionTransformerClassifier(image_size=8, patch_size=4,
                                            embed_dim=8, n_heads=2,
                                            hidden_dim=16, n_layers=1)
        image = np.random.default_rng(0).uniform(size=(8, 8))
        with no_grad():
            np.testing.assert_allclose(model.embed(image).data,
                                       model.embed_array(image))

    def test_image_size_validation(self):
        with pytest.raises(ValueError):
            VisionTransformerClassifier(image_size=10, patch_size=4)
