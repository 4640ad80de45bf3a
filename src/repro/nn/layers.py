"""Network layers built on the autograd substrate.

The layers mirror the architecture in Section 3.1 of the paper, including the
paper's layer normalization variant that omits the division by the standard
deviation (Shi et al. found, and Table 7 confirms, that the division hurts
certification). Both variants are provided so the Table 7 ablation can be run.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, embedding_lookup

__all__ = ["Module", "Linear", "Embedding", "LayerNorm"]

# Weight std of every Transformer linear map (see :class:`Linear`).
INIT_STD = 0.1


class Module:
    """Minimal module base: one walk of the tensor tree, and the forward."""

    def _named_tensors(self, prefix=""):
        """Yield ``(key, tensor)`` for every trainable tensor, depth first
        in attribute order; the keys are the state-dict (archive) keys.
        A shared tensor is yielded once per place it hangs."""
        for name, value in self.__dict__.items():
            if isinstance(value, (list, tuple)):
                members = [(f"{prefix}{name}.{i}", item)
                           for i, item in enumerate(value)]
            else:
                members = [(prefix + name, value)]
            for key, member in members:
                if isinstance(member, Module):
                    yield from member._named_tensors(key + ".")
                elif isinstance(member, Tensor) and member.requires_grad:
                    yield key, member

    def parameters(self):
        """Yield all trainable tensors, recursively and deduplicated
        (shared submodules and tied tensors are visited once)."""
        seen = set()
        for _, tensor in self._named_tensors():
            if id(tensor) not in seen:
                seen.add(id(tensor))
                yield tensor

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def state_dict(self):
        """Flat name -> ndarray mapping of all parameters (for caching)."""
        return {key: tensor.data for key, tensor in self._named_tensors()}

    def load_state_dict(self, state):
        """Inverse of :meth:`state_dict` (shapes must match exactly)."""
        for key, tensor in self._named_tensors():
            loaded = np.asarray(state[key])
            if loaded.shape != tensor.data.shape:
                raise ValueError(
                    f"shape mismatch for {key}: expected "
                    f"{tensor.data.shape}, got {loaded.shape}")
            tensor.data[...] = loaded


def _kaiming(rng, fan_in, shape):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class Linear(Module):
    """Affine map ``x @ W + b`` with ``W`` of shape ``(in, out)``.

    ``init_std=None`` uses Kaiming initialization (right for plain ReLU
    stacks like the A.2 MLP); a float uses BERT-style
    ``normal(0, init_std)``, which residual Transformer stacks need — with
    Kaiming scales and the paper's no-division layer norm, activations
    explode exponentially with depth.
    """

    def __init__(self, in_features, out_features, rng=None, bias=True,
                 init_std=None):
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        if init_std is None:
            weight = _kaiming(rng, in_features, (in_features, out_features))
        else:
            weight = rng.normal(0.0, init_std,
                                size=(in_features, out_features))
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = (Tensor(np.zeros(out_features), requires_grad=True)
                     if bias else None)

    def forward(self, x):
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token embedding table of shape ``(vocab, dim)``."""

    def __init__(self, vocab_size, dim, rng=None, scale=0.5):
        rng = rng or np.random.default_rng(0)
        self.vocab_size = vocab_size
        self.dim = dim
        self.weight = Tensor(rng.normal(0.0, scale, size=(vocab_size, dim)),
                             requires_grad=True)

    def forward(self, indices):
        return embedding_lookup(self.weight, indices)


class LayerNorm(Module):
    """Layer normalization over the last axis.

    With ``divide_by_std=False`` (the paper's default, Section 3.1) the layer
    computes ``gamma * (v - mean(v)) + beta``; with ``True`` it is standard
    layer normalization. Table 7 compares the two.
    """

    eps = 1e-6  # added to the variance before the square root

    def __init__(self, dim, divide_by_std=False):
        self.dim = dim
        self.divide_by_std = divide_by_std
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def forward(self, x):
        centered = x - x.mean(axis=-1, keepdims=True)
        if self.divide_by_std:
            var = (centered * centered).mean(axis=-1, keepdims=True)
            centered = centered / (var + self.eps).sqrt()
        return centered * self.gamma + self.beta
