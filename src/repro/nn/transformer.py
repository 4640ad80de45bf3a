"""Encoder Transformer for binary sequence classification (Figures 2 and 3).

Pipeline: token embedding + positional embedding -> M Transformer layers
(multi-head self-attention and feed-forward network, each wrapped in a
residual connection followed by layer normalization) -> pooling (first
output embedding) -> tanh hidden layer -> binary linear classifier.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, no_grad, stack
from .layers import INIT_STD, Module, Linear, Embedding, LayerNorm
from .attention import MultiHeadSelfAttention

__all__ = ["FeedForward", "TransformerLayer", "EncoderClassifier",
           "TransformerClassifier"]


class FeedForward(Module):
    """Position-wise feed-forward network: one ReLU hidden layer of size H,
    as in the paper's networks (Section 3.1)."""

    def __init__(self, embed_dim, hidden_dim, rng=None):
        rng = rng or np.random.default_rng(0)
        self.fc1 = Linear(embed_dim, hidden_dim, rng=rng, init_std=INIT_STD)
        self.fc2 = Linear(hidden_dim, embed_dim, rng=rng, init_std=INIT_STD)

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


class TransformerLayer(Module):
    """One encoder layer: attention and FFN, each with residual + norm."""

    def __init__(self, embed_dim, n_heads, hidden_dim, rng=None,
                 divide_by_std=False):
        rng = rng or np.random.default_rng(0)
        self.attention = MultiHeadSelfAttention(embed_dim, n_heads, rng=rng)
        self.norm1 = LayerNorm(embed_dim, divide_by_std=divide_by_std)
        self.ffn = FeedForward(embed_dim, hidden_dim, rng=rng)
        self.norm2 = LayerNorm(embed_dim, divide_by_std=divide_by_std)

    def forward(self, x):
        x = self.norm1(x + self.attention(x))
        x = self.norm2(x + self.ffn(x))
        return x


class EncoderClassifier(Module):
    """The head both Transformer classifiers share: encoder layers,
    pooling of the first output embedding, tanh layer, linear classifier.

    A subclass sets ``layers``, ``pool`` and ``classifier`` and defines
    ``embed(x)`` (one input to its (N, E) embedding tensor) and
    ``embed_array(x)`` (the same as an ndarray).
    """

    def forward_from_embeddings(self, embeddings):
        """Run the network from (..., N, E) embeddings to (..., C) logits.

        This is the part of the network the verifier abstracts: perturbation
        regions live in embedding space (threat models T1 and T2). Leading
        axes stack same-length inputs (one forward scores them all); a
        2-D input is one input.
        """
        x = embeddings
        for layer in self.layers:
            x = layer(x)
        pooled = self.pool(x[..., 0, :]).tanh()
        return self.classifier(pooled)

    def forward(self, x):
        """Logits (C,) for one input."""
        return self.forward_from_embeddings(self.embed(x))

    def predict(self, x):
        """Predicted class for one input; no graph is recorded."""
        with no_grad():
            logits = self.forward(x)
        return int(np.argmax(logits.data))

    def logits_from_embedding_array(self, embeddings):
        """Concrete logits (ndarray) from an (N, E) embedding ndarray."""
        with no_grad():
            return self.forward_from_embeddings(Tensor(embeddings)).data


class TransformerClassifier(EncoderClassifier):
    """The full binary sequence classifier of Figure 2.

    Parameters
    ----------
    vocab_size, embed_dim, n_heads, hidden_dim, n_layers:
        Architecture hyper-parameters (paper: E=128, H=128, A=4,
        M in {3, 6, 12}).
    max_len:
        Maximum sequence length for the learned positional embeddings.
    divide_by_std:
        Standard layer norm if True; the paper's no-division variant if
        False (default, Section 3.1 / Table 7).

    The feed-forward blocks use ReLU and the tanh pooling layer is E wide,
    as in the paper; every linear map draws its weights from
    ``normal(0, INIT_STD)`` and the token embeddings from
    ``normal(0, 0.3)``.
    """

    def __init__(self, vocab_size, embed_dim=32, n_heads=4, hidden_dim=32,
                 n_layers=3, max_len=32, seed=0, divide_by_std=False):
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.n_heads = n_heads
        self.hidden_dim = hidden_dim
        self.n_layers = n_layers
        self.max_len = max_len
        self.divide_by_std = divide_by_std
        self.token_embedding = Embedding(vocab_size, embed_dim, rng=rng,
                                         scale=0.3)
        self.position_embedding = Tensor(
            rng.normal(0.0, 0.1, size=(max_len, embed_dim)),
            requires_grad=True)
        self.layers = [TransformerLayer(embed_dim, n_heads, hidden_dim,
                                        rng=rng, divide_by_std=divide_by_std)
                       for _ in range(n_layers)]
        self.pool = Linear(embed_dim, embed_dim, rng=rng, init_std=INIT_STD)
        self.classifier = Linear(embed_dim, 2, rng=rng, init_std=INIT_STD)

    # ------------------------------------------------------------- embedding
    def embed(self, token_ids):
        """Token + positional embeddings for one sequence: (N, E) tensor."""
        token_ids = np.asarray(token_ids, dtype=np.intp)
        if len(token_ids) > self.max_len:
            raise ValueError(
                f"sequence length {len(token_ids)} exceeds max_len {self.max_len}")
        tok = self.token_embedding(token_ids)
        pos = self.position_embedding[np.arange(len(token_ids))]
        return tok + pos

    def embed_array(self, token_ids):
        """Concrete ndarray embeddings (what the verifier perturbs)."""
        token_ids = np.asarray(token_ids, dtype=np.intp)
        return (self.token_embedding.weight.data[token_ids]
                + self.position_embedding.data[: len(token_ids)])

    def forward_batch(self, sequences):
        """Logits (batch, 2) for a list of token-id sequences."""
        return stack([self.forward(seq) for seq in sequences], axis=0)
