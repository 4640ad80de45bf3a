"""The optimizer for the autograd substrate."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]

BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class Adam:
    """Adam (Kingma & Ba, 2015) with optional global-norm gradient clipping.

    The moment decays and epsilon are Kingma & Ba's defaults (``BETA1``,
    ``BETA2``, ``EPS``); there is no weight decay.
    """

    def __init__(self, params, lr=1e-3, clip_norm=None):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.clip_norm = clip_norm
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self):
        for p in self.params:
            p.grad = None

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
        bias1 = 1.0 - BETA1 ** self._t
        bias2 = 1.0 - BETA2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
