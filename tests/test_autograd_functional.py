"""Unit tests for repro.autograd.functional (composite differentiable ops)."""

import numpy as np
import pytest

from repro.autograd import (Tensor, softmax, log_softmax, cross_entropy,
                            concatenate, stack, embedding_lookup)

from tests.gradcheck import check_grad


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = softmax(Tensor(rng.normal(size=(4, 5))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_matches_reference(self, rng):
        x = rng.normal(size=(3, 4))
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(softmax(Tensor(x)).data,
                                   e / e.sum(axis=-1, keepdims=True))

    def test_numerically_stable_for_large_inputs(self):
        out = softmax(Tensor([[1000.0, 1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[0, :2], [0.5, 0.5], atol=1e-9)

    def test_gradient(self, rng):
        check_grad(lambda x: (softmax(x, axis=-1) ** 2).sum(),
                   rng.normal(size=(3, 4)))

    def test_log_softmax_consistent(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(log_softmax(Tensor(x)).data,
                                   np.log(softmax(Tensor(x)).data))

    def test_log_softmax_gradient(self, rng):
        check_grad(lambda x: log_softmax(x, axis=-1).sum(),
                   rng.normal(size=(2, 5)))


class TestCrossEntropy:
    def test_value_matches_reference(self, rng):
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(6), labels]))
        got = cross_entropy(Tensor(logits), labels).item()
        assert got == pytest.approx(expected, rel=1e-9)

    def test_gradient(self, rng):
        labels = np.array([0, 2, 1])
        check_grad(lambda x: cross_entropy(x, labels),
                   rng.normal(size=(3, 3)))

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        assert cross_entropy(Tensor(logits), [0, 1]).item() < 1e-6


class TestConcatStack:
    def test_concatenate_value(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        out = concatenate([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_allclose(out.data, np.concatenate([a, b], axis=1))

    def test_concatenate_gradient(self, rng):
        b = Tensor(rng.normal(size=(2, 2)))
        check_grad(lambda x: (concatenate([x, b], axis=1) ** 2).sum(),
                   rng.normal(size=(2, 3)))

    def test_stack_value(self, rng):
        a, b = rng.normal(size=(3,)), rng.normal(size=(3,))
        out = stack([Tensor(a), Tensor(b)], axis=0)
        np.testing.assert_allclose(out.data, np.stack([a, b]))

    def test_stack_gradient(self, rng):
        b = Tensor(rng.normal(size=(3,)))
        check_grad(lambda x: (stack([x, b], axis=0) ** 2).sum(),
                   rng.normal(size=(3,)))


class TestEmbedding:
    def test_lookup_value(self, rng):
        table = rng.normal(size=(5, 4))
        idx = np.array([1, 1, 3])
        out = embedding_lookup(Tensor(table), idx)
        np.testing.assert_allclose(out.data, table[idx])

    def test_lookup_gradient_accumulates_duplicates(self, rng):
        table = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        out = embedding_lookup(table, np.array([2, 2, 0])).sum()
        out.backward()
        np.testing.assert_allclose(table.grad[2], np.full(4, 2.0))
        np.testing.assert_allclose(table.grad[0], np.full(4, 1.0))
        np.testing.assert_allclose(table.grad[1], np.zeros(4))
