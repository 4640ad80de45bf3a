"""Multi-head self-attention exactly as in Section 3.1 / Eq. (1).

Each head ``a`` has its own ``W_Q, W_K`` (E x d_k) and ``W_V`` (E x d_v); the
head outputs are horizontally stacked and projected by ``W_0``
((A*d_v) x E). The softmax is an integral part of the network (unlike most
architectures, where it only appears in the loss), which is exactly what
makes Transformer certification hard.
"""

from __future__ import annotations

import numpy as np

from ..autograd import softmax, concatenate
from .layers import INIT_STD, Module, Linear

__all__ = ["AttentionHead", "MultiHeadSelfAttention"]


class AttentionHead(Module):
    """One head's query/key/value projections (parameters only: the
    multi-head forward runs every head, and the verifiers read them)."""

    def __init__(self, embed_dim, d_k, d_v, rng=None):
        rng = rng or np.random.default_rng(0)
        self.d_k = d_k
        self.w_q = Linear(embed_dim, d_k, rng=rng, init_std=INIT_STD)
        self.w_k = Linear(embed_dim, d_k, rng=rng, init_std=INIT_STD)
        self.w_v = Linear(embed_dim, d_v, rng=rng, init_std=INIT_STD)


class MultiHeadSelfAttention(Module):
    """``A`` attention heads followed by the output projection ``W_0``."""

    def __init__(self, embed_dim, n_heads, rng=None):
        if embed_dim % n_heads != 0:
            raise ValueError("embed_dim must be divisible by n_heads")
        rng = rng or np.random.default_rng(0)
        d = embed_dim // n_heads
        self.n_heads = n_heads
        self.heads = [AttentionHead(embed_dim, d, d, rng=rng)
                      for _ in range(n_heads)]
        self.w_o = Linear(n_heads * d, embed_dim, rng=rng, init_std=INIT_STD)

    def forward(self, x):
        """``x``: (..., N, E); returns (..., N, E). Leading axes stack
        same-length sequences; a 2-D input is one sequence.

        All heads run batched: the per-head projection weights are stacked
        into single (E, A*d) matrices and the score/mixing products are one
        batched matmul each, mirroring the verifier's abstract transformer
        (``repro.verify.propagation.propagate_attention``). Gradients still
        flow into the per-head parameters through the concatenation.
        """
        *lead, n_tokens, _ = x.shape
        n_heads = self.n_heads
        d = self.heads[0].d_k
        at = len(lead)  # the token axis once the heads are split off
        swap = (*range(at), at + 1, at, at + 2)  # (N, A, d) <-> (A, N, d)
        roll = (*range(at), at + 1, at + 2, at)  # (N, A, d) -> (A, d, N)

        def stacked_proj(name):
            weight = concatenate(
                [getattr(h, name).weight for h in self.heads], axis=1)
            out = x @ weight
            biases = [getattr(h, name).bias for h in self.heads]
            if all(b is not None for b in biases):
                out = out + concatenate(biases, axis=0)
            return out.reshape(*lead, n_tokens, n_heads, d)

        q = stacked_proj("w_q").transpose(swap)        # (..., A, N, d)
        k = stacked_proj("w_k").transpose(roll)        # (..., A, d, N)
        v = stacked_proj("w_v").transpose(swap)        # (..., A, N, d)

        scores = (q @ k) * (1.0 / np.sqrt(d))
        weights = softmax(scores, axis=-1)             # (..., A, N, N)
        mixed = (weights @ v).transpose(swap) \
            .reshape(*lead, n_tokens, n_heads * d)      # (..., N, A*d)
        return self.w_o(mixed)
