"""Encoder Transformer for binary sequence classification (Figures 2 and 3).

Pipeline: token embedding + positional embedding -> M Transformer layers
(multi-head self-attention and feed-forward network, each wrapped in a
residual connection followed by layer normalization) -> pooling (first
output embedding) -> tanh hidden layer -> binary linear classifier.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, stack
from .layers import Module, Linear, Embedding, LayerNorm
from .attention import MultiHeadSelfAttention

__all__ = ["FeedForward", "TransformerLayer", "TransformerClassifier"]


class FeedForward(Module):
    """Position-wise feed-forward network: one hidden layer of size H.

    The paper's networks use ReLU; ``activation="gelu"`` gives the
    BERT-style variant (supported end to end by the verifier as an
    extension).
    """

    def __init__(self, embed_dim, hidden_dim, rng=None, init_std=0.1,
                 activation="relu"):
        if activation not in ("relu", "gelu"):
            raise ValueError(f"unknown activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        self.activation = activation
        self.fc1 = Linear(embed_dim, hidden_dim, rng=rng, init_std=init_std)
        self.fc2 = Linear(hidden_dim, embed_dim, rng=rng, init_std=init_std)

    def forward(self, x):
        hidden = self.fc1(x)
        if self.activation == "gelu":
            from ..autograd import gelu as gelu_fn
            hidden = gelu_fn(hidden)
        else:
            hidden = hidden.relu()
        return self.fc2(hidden)


class TransformerLayer(Module):
    """One encoder layer: attention and FFN, each with residual + norm."""

    def __init__(self, embed_dim, n_heads, hidden_dim, rng=None,
                 divide_by_std=False, init_std=0.1, activation="relu"):
        rng = rng or np.random.default_rng(0)
        self.attention = MultiHeadSelfAttention(embed_dim, n_heads, rng=rng,
                                                init_std=init_std)
        self.norm1 = LayerNorm(embed_dim, divide_by_std=divide_by_std)
        self.ffn = FeedForward(embed_dim, hidden_dim, rng=rng,
                               init_std=init_std, activation=activation)
        self.norm2 = LayerNorm(embed_dim, divide_by_std=divide_by_std)

    def forward(self, x):
        x = self.norm1(x + self.attention(x))
        x = self.norm2(x + self.ffn(x))
        return x


class TransformerClassifier(Module):
    """The full binary sequence classifier of Figure 2.

    Parameters
    ----------
    vocab_size, embed_dim, n_heads, hidden_dim, n_layers:
        Architecture hyper-parameters (paper: E=128, H=128, A=4,
        M in {3, 6, 12}).
    max_len:
        Maximum sequence length for the learned positional embeddings.
    pool_dim:
        Width of the tanh pooling layer (paper uses E).
    divide_by_std:
        Standard layer norm if True; the paper's no-division variant if
        False (default, Section 3.1 / Table 7).
    """

    def __init__(self, vocab_size, embed_dim=32, n_heads=4, hidden_dim=32,
                 n_layers=3, max_len=32, pool_dim=None, seed=0,
                 divide_by_std=False, init_std=0.1, embedding_scale=0.3,
                 activation="relu"):
        rng = np.random.default_rng(seed)
        pool_dim = pool_dim or embed_dim
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.n_heads = n_heads
        self.hidden_dim = hidden_dim
        self.n_layers = n_layers
        self.max_len = max_len
        self.divide_by_std = divide_by_std
        self.token_embedding = Embedding(vocab_size, embed_dim, rng=rng,
                                         scale=embedding_scale)
        self.position_embedding = Tensor(
            rng.normal(0.0, 0.1, size=(max_len, embed_dim)),
            requires_grad=True)
        self.activation = activation
        self.layers = [TransformerLayer(embed_dim, n_heads, hidden_dim,
                                        rng=rng, divide_by_std=divide_by_std,
                                        init_std=init_std,
                                        activation=activation)
                       for _ in range(n_layers)]
        self.pool = Linear(embed_dim, pool_dim, rng=rng, init_std=init_std)
        self.classifier = Linear(pool_dim, 2, rng=rng, init_std=init_std)

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

    # --------------------------------------------------------------- forward
    def forward_from_embeddings(self, embeddings):
        """Run the network from (..., N, E) embeddings to (..., 2) logits.

        This is the part of the network the verifier abstracts: perturbation
        regions live in embedding space (threat models T1 and T2). Leading
        axes stack same-length sequences (one forward scores them all); a
        2-D input is one sequence.
        """
        x = embeddings
        for layer in self.layers:
            x = layer(x)
        pooled = self.pool(x[..., 0, :]).tanh()
        return self.classifier(pooled)

    def forward(self, token_ids):
        """Logits (2,) for one token-id sequence."""
        return self.forward_from_embeddings(self.embed(token_ids))

    def forward_batch(self, sequences):
        """Logits (batch, 2) for a list of token-id sequences."""
        return stack([self.forward(seq) for seq in sequences], axis=0)

    def predict(self, token_ids):
        """Predicted class (0/1) for one sequence; no graph is recorded."""
        from ..autograd import no_grad
        with no_grad():
            logits = self.forward(token_ids)
        return int(np.argmax(logits.data))

    def logits_from_embedding_array(self, embeddings):
        """Concrete logits (ndarray) from an (N, E) embedding ndarray."""
        from ..autograd import no_grad
        with no_grad():
            logits = self.forward_from_embeddings(Tensor(embeddings))
        return logits.data
