"""Reverse-mode autograd substrate (training-side replacement for PyTorch)."""

from .tensor import Tensor, as_tensor, no_grad, is_grad_enabled
from .functional import (
    softmax, log_softmax, cross_entropy, concatenate, stack,
    embedding_lookup,
)
from .optim import Adam

__all__ = [
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled",
    "softmax", "log_softmax", "cross_entropy", "concatenate", "stack",
    "embedding_lookup",
    "Adam",
]
