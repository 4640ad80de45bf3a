"""Unit tests for the reverse-mode autograd engine (repro.autograd.tensor).

Each op's VJP is validated against central finite differences.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, as_tensor, no_grad, is_grad_enabled


from tests.gradcheck import check_grad


class TestArithmetic:
    def test_add_grad(self, rng):
        check_grad(lambda x: (x + 3.0).sum(), rng.normal(size=(3, 4)))

    def test_add_broadcast_grad(self, rng):
        other = Tensor(rng.normal(size=(4,)))
        check_grad(lambda x: (x + other).sum(), rng.normal(size=(3, 4)))

    def test_sub_grad(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_grad(lambda x: (x - other).sum(), rng.normal(size=(3, 4)))

    def test_rsub(self, rng):
        check_grad(lambda x: (5.0 - x).sum(), rng.normal(size=(4,)))

    def test_mul_grad(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_grad(lambda x: (x * other).sum(), rng.normal(size=(3, 4)))

    def test_mul_broadcast_grad(self, rng):
        other = Tensor(rng.normal(size=(1, 4)))
        check_grad(lambda x: (x * other).sum(), rng.normal(size=(3, 4)))

    def test_div_grad(self, rng):
        other = Tensor(rng.uniform(1.0, 2.0, size=(3, 4)))
        check_grad(lambda x: (x / other).sum(), rng.normal(size=(3, 4)))

    def test_div_denominator_grad(self, rng):
        numer = Tensor(rng.normal(size=(3, 4)))
        check_grad(lambda x: (numer / x).sum(),
                   rng.uniform(1.0, 2.0, size=(3, 4)))

    def test_pow_grad(self, rng):
        check_grad(lambda x: (x ** 3).sum(), rng.normal(size=(5,)))

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg(self, rng):
        check_grad(lambda x: (-x).sum(), rng.normal(size=(3,)))


class TestMatmul:
    def test_matmul_2d_grad_left(self, rng):
        other = Tensor(rng.normal(size=(4, 2)))
        check_grad(lambda x: (x @ other).sum(), rng.normal(size=(3, 4)))

    def test_matmul_2d_grad_right(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_grad(lambda x: (other @ x).sum(), rng.normal(size=(4, 2)))

    def test_matmul_vector_matrix(self, rng):
        other = Tensor(rng.normal(size=(4, 2)))
        check_grad(lambda x: (x @ other).sum(), rng.normal(size=(4,)))

    def test_matmul_matrix_vector(self, rng):
        other = Tensor(rng.normal(size=(4,)))
        check_grad(lambda x: (x @ other).sum(), rng.normal(size=(3, 4)))

    def test_matmul_value(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)


class TestElementwise:
    def test_relu_grad(self, rng):
        # Keep away from the kink for finite differences.
        x0 = rng.normal(size=(4, 4))
        x0[np.abs(x0) < 0.05] = 0.1
        check_grad(lambda x: x.relu().sum(), x0)

    def test_tanh_grad(self, rng):
        check_grad(lambda x: x.tanh().sum(), rng.normal(size=(3, 3)))

    def test_exp_grad(self, rng):
        check_grad(lambda x: x.exp().sum(), rng.normal(size=(3,)))

    def test_log_grad(self, rng):
        check_grad(lambda x: x.log().sum(),
                   rng.uniform(0.5, 2.0, size=(3,)))

    def test_sqrt_grad(self, rng):
        check_grad(lambda x: x.sqrt().sum(),
                   rng.uniform(0.5, 2.0, size=(3,)))

    def test_abs_grad(self, rng):
        x0 = rng.normal(size=(4,))
        x0[np.abs(x0) < 0.05] = 0.2
        check_grad(lambda x: x.abs().sum(), x0)

    def test_clamp_grad(self, rng):
        x0 = np.array([-2.0, -0.5, 0.3, 1.7])
        check_grad(lambda x: x.clamp(-1.0, 1.0).sum(), x0)

    def test_clamp_values(self):
        out = Tensor([-2.0, 0.0, 2.0]).clamp(-1.0, 1.0)
        np.testing.assert_allclose(out.data, [-1.0, 0.0, 1.0])


class TestReductions:
    def test_sum_all(self, rng):
        check_grad(lambda x: x.sum(), rng.normal(size=(3, 4)))

    def test_sum_axis(self, rng):
        check_grad(lambda x: x.sum(axis=1).sum(), rng.normal(size=(3, 4)))

    def test_sum_keepdims(self, rng):
        check_grad(lambda x: x.sum(axis=0, keepdims=True).sum(),
                   rng.normal(size=(3, 4)))

    def test_mean(self, rng):
        x0 = rng.normal(size=(3, 4))
        check_grad(lambda x: x.mean(axis=-1).sum(), x0)
        np.testing.assert_allclose(Tensor(x0).mean().data, x0.mean())

    def test_max_grad(self, rng):
        x0 = rng.normal(size=(3, 4))
        check_grad(lambda x: x.max(axis=1).sum(), x0)

    def test_max_value(self, rng):
        x0 = rng.normal(size=(3, 4))
        np.testing.assert_allclose(Tensor(x0).max(axis=0).data,
                                   x0.max(axis=0))


class TestShapes:
    def test_reshape_grad(self, rng):
        check_grad(lambda x: (x.reshape(2, 6) ** 2).sum(),
                   rng.normal(size=(3, 4)))

    def test_transpose_grad(self, rng):
        other = Tensor(rng.normal(size=(3, 4)))
        check_grad(lambda x: (x.T * other).sum(), rng.normal(size=(4, 3)))

    def test_transpose_axes(self, rng):
        x0 = rng.normal(size=(2, 3, 4))
        out = Tensor(x0).transpose(2, 0, 1)
        np.testing.assert_allclose(out.data, x0.transpose(2, 0, 1))

    def test_swapaxes(self, rng):
        x0 = rng.normal(size=(2, 3, 4))
        np.testing.assert_allclose(Tensor(x0).swapaxes(0, 2).data,
                                   x0.swapaxes(0, 2))

    def test_getitem_grad(self, rng):
        check_grad(lambda x: (x[1] ** 2).sum(), rng.normal(size=(3, 4)))

    def test_getitem_fancy_grad(self, rng):
        idx = np.array([0, 2, 2])
        check_grad(lambda x: x[idx].sum(), rng.normal(size=(4, 2)))


class TestGraphMechanics:
    def test_grad_accumulates_over_reuse(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = (x * 2.0 + x * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, np.full(3, 5.0))

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_no_grad_blocks_recording(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = (x * 2.0).sum()
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_zero_grad(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_item_and_numpy(self):
        t = Tensor(3.5)
        assert t.item() == 3.5
        assert t.numpy() is t.data

    def test_diamond_graph_grad(self, rng):
        # y = a*b with a, b both functions of x: chain rule through a fork.
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 3.0
        b = x + 1.0
        out = (a * b).sum()
        out.backward()
        # d/dx [3x (x+1)] = 6x + 3 = 15 at x=2.
        np.testing.assert_allclose(x.grad, [15.0])

    def test_backward_with_explicit_grad(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = x * 2.0
        y.backward(np.array([1.0, 0.0, -1.0]))
        np.testing.assert_allclose(x.grad, [2.0, 0.0, -2.0])
