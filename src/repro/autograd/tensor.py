"""Reverse-mode automatic differentiation over numpy arrays.

This module is the training substrate for the reproduction: the paper trains
its Transformer networks with PyTorch, which is unavailable here, so we
implement the subset of reverse-mode AD needed to train encoder Transformers
(matmul, broadcasting elementwise arithmetic, reductions, indexing, and the
nonlinearities used by the architecture).

The design is a classic dynamic tape: every operation on :class:`Tensor`
records its parents and a backward closure; :meth:`Tensor.backward` runs a
topological sort of the recorded graph and accumulates vector-Jacobian
products into ``grad`` arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph recording (for evaluation)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def is_grad_enabled():
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an autograd tape.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` ndarray.
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, _op=""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self._op = _op

    # ------------------------------------------------------------------ meta
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def T(self):
        return self.transpose()

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    def item(self):
        return float(self.data)

    def numpy(self):
        """Return the underlying ndarray (no copy)."""
        return self.data

    def zero_grad(self):
        self.grad = None

    # ------------------------------------------------------------ graph build
    @staticmethod
    def _make(data, parents, backward, op):
        req = any(p.requires_grad for p in parents)
        if req and _GRAD_ENABLED:
            return Tensor(data, requires_grad=True, _parents=parents,
                          _backward=backward, _op=op)
        return Tensor(data)

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape),
                    _unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __sub__(self, other):
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape),
                    _unbroadcast(-grad, other.shape))

        return Tensor._make(out_data, (self, other), backward, "sub")

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad):
            return (_unbroadcast(grad * other.data, self.shape),
                    _unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad):
            return (_unbroadcast(grad / other.data, self.shape),
                    _unbroadcast(-grad * self.data / other.data ** 2,
                                 other.shape))

        return Tensor._make(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(out_data, (self,), backward, "pow")

    def __matmul__(self, other):
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                ga, gb = grad * b, grad * a
            elif b.ndim == 1:
                ga = np.expand_dims(grad, -1) * b
                gb = _unbroadcast(
                    (np.expand_dims(grad, -1) * a).sum(axis=tuple(range(grad.ndim))),
                    b.shape) if a.ndim > 2 else grad @ a
                if a.ndim == 2:
                    gb = grad @ a
            elif a.ndim == 1:
                ga = grad @ np.swapaxes(b, -1, -2)
                ga = _unbroadcast(ga, a.shape)
                gb = np.expand_dims(a, -1) * np.expand_dims(grad, -2)
                gb = _unbroadcast(gb, b.shape)
            else:
                ga = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
                gb = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
            return ga, gb

        return Tensor._make(out_data, (self, other), backward, "matmul")

    # ----------------------------------------------------------- elementwise
    def relu(self):
        mask = self.data > 0

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(self.data * mask, (self,), backward, "relu")

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - out_data ** 2),)

        return Tensor._make(out_data, (self,), backward, "tanh")

    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            return (grad * out_data,)

        return Tensor._make(out_data, (self,), backward, "exp")

    def log(self):
        def backward(grad):
            return (grad / self.data,)

        return Tensor._make(np.log(self.data), (self,), backward, "log")

    def clamp(self, low, high):
        """Clip values to [low, high]; gradient is zero outside the range."""
        inside = (self.data >= low) & (self.data <= high)

        def backward(grad):
            return (grad * inside,)

        return Tensor._make(np.clip(self.data, low, high), (self,),
                            backward, "clamp")

    def abs(self):
        sign = np.sign(self.data)

        def backward(grad):
            return (grad * sign,)

        return Tensor._make(np.abs(self.data), (self,), backward, "abs")

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(grad):
            return (grad * 0.5 / out_data,)

        return Tensor._make(out_data, (self,), backward, "sqrt")

    # ------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor._make(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims=False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            out = out_data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.ndim for a in axes):
                    g = np.expand_dims(g, ax)
                    out = np.expand_dims(out, ax)
            mask = (self.data == out)
            mask = mask / mask.sum(axis=axis, keepdims=True)
            return (np.broadcast_to(g, self.shape) * mask,)

        return Tensor._make(out_data, (self,), backward, "max")

    # ----------------------------------------------------------- shape moves
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.shape

        def backward(grad):
            return (grad.reshape(in_shape),)

        return Tensor._make(out_data, (self,), backward, "reshape")

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)

        def backward(grad):
            return (grad.transpose(inv),)

        return Tensor._make(self.data.transpose(axes), (self,), backward,
                            "transpose")

    def swapaxes(self, a, b):
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, idx):
        out_data = self.data[idx]
        in_shape = self.shape

        def backward(grad):
            g = np.zeros(in_shape)
            np.add.at(g, idx, grad)
            return (g,)

        return Tensor._make(out_data, (self,), backward, "getitem")

    # -------------------------------------------------------------- backward
    def backward(self, grad=None):
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones (i.e. the tensor is treated as a scalar
        loss or summed elementwise).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        topo, seen = [], set()

        def visit(node):
            if id(node) in seen or not node.requires_grad:
                return
            seen.add(id(node))
            for parent in node._parents:
                visit(parent)
            topo.append(node)

        visit(self)

        grads = {id(self): np.ones_like(self.data) if grad is None
                 else np.asarray(grad, dtype=np.float64)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.grad is None:
                node.grad = g.copy()
            else:
                node.grad = node.grad + g
            if node._backward is None:
                continue
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg


def as_tensor(value):
    """Coerce ``value`` to a :class:`Tensor` (no copy for tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
