"""Composite differentiable functions built on :class:`repro.autograd.Tensor`.

These are the functional building blocks the network layers use: stable
softmax, cross entropy, stacking/concatenation, and embedding lookups.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "softmax", "log_softmax", "cross_entropy", "concatenate", "stack",
    "embedding_lookup",
]


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x, axis=-1):
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits, labels):
    """Mean cross-entropy of integer ``labels`` under ``logits``.

    Parameters
    ----------
    logits:
        Tensor of shape ``(batch, classes)``.
    labels:
        Integer array of shape ``(batch,)``.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.intp)
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(len(labels)), labels]
    return -picked.mean()


def concatenate(tensors, axis=0):
    """Differentiable ``np.concatenate``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        grads = []
        for i in range(len(tensors)):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(grad[tuple(slicer)])
        return tuple(grads)

    return Tensor._make(out_data, tuple(tensors), backward, "concatenate")


def stack(tensors, axis=0):
    """Differentiable ``np.stack``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(out_data, tuple(tensors), backward, "stack")


def embedding_lookup(table, indices):
    """Differentiable row gather: ``table[indices]``.

    ``table`` is a ``(vocab, dim)`` tensor, ``indices`` an integer array of
    any shape; the result has shape ``indices.shape + (dim,)``.
    """
    table = as_tensor(table)
    indices = np.asarray(indices, dtype=np.intp)
    out_data = table.data[indices]

    def backward(grad):
        g = np.zeros_like(table.data)
        np.add.at(g, indices.reshape(-1),
                  grad.reshape(-1, table.shape[1]))
        return (g,)

    return Tensor._make(out_data, (table,), backward, "embedding")
