"""Gradient-descent optimizers for the autograd substrate."""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base class holding a parameter list."""

    def __init__(self, params):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with optional global-norm gradient clipping."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0, clip_norm=None):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.clip_norm = clip_norm
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self):
        self._t += 1
        if self.clip_norm is not None:
            total = np.sqrt(sum(float((p.grad ** 2).sum())
                                for p in self.params if p.grad is not None))
            if total > self.clip_norm:
                factor = self.clip_norm / (total + 1e-12)
                for p in self.params:
                    if p.grad is not None:
                        p.grad = p.grad * factor
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
