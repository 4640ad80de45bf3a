"""Tests for the network layers and multi-head self-attention."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.nn import (Module, Linear, Embedding, LayerNorm,
                      MultiHeadSelfAttention)


class TestLinear:
    def test_forward_value(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng=rng, bias=False)
        assert layer.bias is None
        x = rng.normal(size=(4,))
        np.testing.assert_allclose(layer(Tensor(x)).data,
                                   x @ layer.weight.data)

    def test_init_std_controls_scale(self, rng):
        small = Linear(64, 64, rng=np.random.default_rng(0), init_std=0.01)
        big = Linear(64, 64, rng=np.random.default_rng(0), init_std=1.0)
        assert np.abs(small.weight.data).std() < np.abs(big.weight.data).std()

    def test_kaiming_default(self):
        layer = Linear(100, 50, rng=np.random.default_rng(0))
        # Kaiming std = sqrt(2/fan_in).
        assert layer.weight.data.std() == pytest.approx(np.sqrt(2 / 100),
                                                        rel=0.15)


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng=rng)
        ids = np.array([3, 3, 7])
        np.testing.assert_allclose(emb(ids).data, emb.weight.data[ids])

    def test_scale(self):
        emb = Embedding(50, 8, rng=np.random.default_rng(0), scale=0.01)
        assert np.abs(emb.weight.data).max() < 0.1


class TestLayerNorm:
    def test_no_div_centers_only(self, rng):
        norm = LayerNorm(6, divide_by_std=False)
        x = rng.normal(size=(3, 6)) * 10
        out = norm(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        # Without division the spread is untouched (gamma=1, beta=0).
        np.testing.assert_allclose(out, x - x.mean(axis=-1, keepdims=True))

    def test_standard_normalizes_variance(self, rng):
        norm = LayerNorm(8, divide_by_std=True)
        x = rng.normal(size=(3, 8)) * 10
        out = norm(Tensor(x)).data
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gamma_beta_applied(self, rng):
        norm = LayerNorm(4, divide_by_std=False)
        norm.gamma.data[...] = 2.0
        norm.beta.data[...] = 1.0
        x = rng.normal(size=(4,))
        expected = 2.0 * (x - x.mean()) + 1.0
        np.testing.assert_allclose(norm(Tensor(x)).data, expected)


class TestModule:
    def test_parameters_recursive(self, rng):
        attention = MultiHeadSelfAttention(8, 2, rng=rng)
        params = list(attention.parameters())
        # 2 heads x 3 projections x (W, b) + output (W, b) = 14.
        assert len(params) == 14

    def test_parameters_deduplicated(self, rng):
        layer = Linear(3, 3, rng=rng)

        class Shared(Module):
            def __init__(self):
                self.a = layer
                self.b = layer

        shared = Shared()
        assert len(list(shared.parameters())) == 2
        # The state dict keeps one key per place the tensor hangs.
        assert list(shared.state_dict()) == ["a.weight", "a.bias",
                                             "b.weight", "b.bias"]

    def test_state_dict_roundtrip(self, rng):
        a = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(1))
        b = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(2))
        state = a.state_dict()
        b.load_state_dict(state)
        x = Tensor(rng.normal(size=(3, 8)))
        with no_grad():
            np.testing.assert_allclose(a(x).data, b(x).data)

    def test_forward_abstract(self):
        with pytest.raises(NotImplementedError):
            Module()()


def _attention_reference(attention, x):
    """Eq. (1) for one (N, E) sequence, head by head in plain numpy."""
    outputs = []
    for head in attention.heads:
        q = x @ head.w_q.weight.data + head.w_q.bias.data
        k = x @ head.w_k.weight.data + head.w_k.bias.data
        v = x @ head.w_v.weight.data + head.w_v.bias.data
        scores = q @ k.T / np.sqrt(head.d_k)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        outputs.append(e / e.sum(axis=-1, keepdims=True) @ v)
    return (np.concatenate(outputs, axis=-1) @ attention.w_o.weight.data
            + attention.w_o.bias.data)


class TestAttention:
    def test_multihead_output_shape(self, rng):
        attention = MultiHeadSelfAttention(8, 2, rng=rng)
        out = attention(Tensor(rng.normal(size=(5, 8))))
        assert out.shape == (5, 8)
        stacked = attention(Tensor(rng.normal(size=(3, 5, 8))))
        assert stacked.shape == (3, 5, 8)

    def test_embed_dim_divisibility(self, rng):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(9, 2, rng=rng)

    def test_attention_matches_manual_computation(self, rng):
        attention = MultiHeadSelfAttention(6, 3, rng=rng)
        x = rng.normal(size=(4, 6))
        stacked = rng.normal(size=(3, 4, 6))
        with no_grad():
            out = attention(Tensor(x)).data
            stacked_out = attention(Tensor(stacked)).data
        np.testing.assert_allclose(out, _attention_reference(attention, x),
                                   atol=1e-12)
        for row, sequence in zip(stacked_out, stacked):
            np.testing.assert_allclose(
                row, _attention_reference(attention, sequence), atol=1e-12)
