"""Autograd engine semantics + numerical gradient checks for core ops."""

import numpy as np
import pytest

from repro import tcr
from repro.errors import AutogradError
from repro.tcr import ops
from repro.tcr.autograd import no_grad, unbroadcast
from repro.tcr.tensor import Tensor

from tests.tcr.gradcheck import assert_grad_matches


class TestEngine:
    def test_backward_on_non_scalar_needs_gradient(self):
        t = tcr.tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(AutogradError):
            (t * 2).backward()

    def test_backward_with_explicit_gradient(self):
        t = tcr.tensor([1.0, 2.0], requires_grad=True)
        (t * 2).backward(np.array([1.0, 10.0], dtype=np.float32))
        np.testing.assert_array_equal(t.grad, [2.0, 20.0])

    def test_gradient_accumulates_across_backwards(self):
        t = tcr.tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        (t * 3).sum().backward()
        assert t.grad.tolist() == [5.0]

    def test_diamond_graph_accumulation(self):
        # y = x*x + x*x must give dy/dx = 4x, not 2x.
        x = tcr.tensor([3.0], requires_grad=True)
        a = x * x
        (a + a).sum().backward()
        assert x.grad.tolist() == [12.0]

    def test_reused_tensor_in_two_paths(self):
        x = tcr.tensor([2.0], requires_grad=True)
        y = (x * 3 + x * x).sum()     # dy/dx = 3 + 2x = 7
        y.backward()
        assert x.grad.tolist() == [7.0]

    def test_no_grad_blocks_taping(self):
        x = tcr.tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._backward is None

    def test_grad_kept_on_leaves_only(self):
        x = tcr.tensor([1.0, 2.0], requires_grad=True)
        y = x * 2                             # interior node
        (y * y).sum().backward()              # d/dx 4x^2 = 8x
        assert y.grad is None
        np.testing.assert_array_equal(x.grad, [8.0, 16.0])
        (x * 3).sum().backward()              # leaf grads add up
        np.testing.assert_array_equal(x.grad, [11.0, 19.0])
        assert y.grad is None

    def test_gradient_has_its_tensors_dtype(self):
        # A float64 operand makes the loss float64; the float32 leaf's
        # gradient, and every gradient below the loss, stay float32.
        x = tcr.tensor([1.0, 3.0], requires_grad=True)
        loss = ((x - tcr.tensor([0.0, 1.0], dtype=np.float64)) ** 2).mean()
        assert loss.data.dtype == np.float64
        loss.backward()
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, [1.0, 2.0])

    def test_backward_through_non_grad_parent(self):
        a = tcr.tensor([1.0], requires_grad=True)
        b = tcr.tensor([2.0])                 # no grad
        (a * b).sum().backward()
        assert a.grad.tolist() == [2.0]
        assert b.grad is None


class TestUnbroadcast:
    def test_sum_over_prepended_axes(self):
        grad = np.ones((4, 3))
        out = unbroadcast(grad, (3,))
        np.testing.assert_array_equal(out, [4.0, 4.0, 4.0])

    def test_sum_over_stretched_axes(self):
        grad = np.ones((2, 3))
        out = unbroadcast(grad, (2, 1))
        np.testing.assert_array_equal(out, [[3.0], [3.0]])

    def test_noop_when_shapes_match(self):
        grad = np.ones((2, 2))
        assert unbroadcast(grad, (2, 2)) is grad


class TestNumericalGradients:
    """Central-difference checks for every differentiable op family."""

    def test_add_sub_broadcast(self):
        assert_grad_matches(lambda a, b: (a + b - a * 0.5).sum(), [(3, 2), (2,)])

    def test_mul_div(self):
        assert_grad_matches(lambda a, b: (a * b / (b * b + 1.0)).sum(),
                            [(4,), (4,)])

    def test_pow_scalar_exponent(self):
        assert_grad_matches(lambda a: (a ** 3.0).sum(), [(5,)], positive=True)

    def test_pow_tensor_exponent(self):
        assert_grad_matches(lambda a, b: (a ** b).sum(), [(3,), (3,)],
                            positive=True)

    def test_exp_log_sqrt(self):
        assert_grad_matches(lambda a: (ops.exp(a) + ops.log(a) + a.sqrt()).sum(),
                            [(6,)], positive=True)

    def test_abs(self):
        assert_grad_matches(lambda a: ops.abs(a).sum(), [(7,)], positive=True)

    def test_maximum_minimum(self):
        assert_grad_matches(
            lambda a, b: (ops.maximum(a, b) + ops.minimum(a, b)).sum(),
            [(6,), (6,)],
        )

    def test_where(self):
        cond = Tensor(np.array([True, False, True, False]))
        assert_grad_matches(lambda a, b: ops.where(cond, a, b).sum(),
                            [(4,), (4,)])

    def test_sigmoid_relu(self):
        assert_grad_matches(
            lambda a: (ops.sigmoid(a) + ops.relu(a + 2.0)).sum(), [(8,)],
        )

    def test_softmax_log_softmax(self):
        weights = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
        assert_grad_matches(
            lambda a: (ops.softmax(a, dim=1) * weights).sum()
            + (ops.log_softmax(a, dim=1) * 0.1).sum(),
            [(3, 4)],
        )

    def test_matmul_2d(self):
        assert_grad_matches(lambda a, b: (a @ b).sum(), [(3, 4), (4, 2)])

    def test_matmul_vector_cases(self):
        assert_grad_matches(lambda a, b: (a @ b).sum(), [(4,), (4, 2)])
        assert_grad_matches(lambda a, b: (a @ b).sum(), [(3, 4), (4,)])
        assert_grad_matches(lambda a, b: a @ b, [(4,), (4,)])

    def test_matmul_batched_broadcast(self):
        assert_grad_matches(lambda a, b: (a @ b).sum(), [(2, 3, 4), (4, 2)])

    def test_einsum_pair(self):
        assert_grad_matches(
            lambda a, b: ops.einsum_pair("ri,rj->ij", a, b).sum(),
            [(5, 2), (5, 3)],
        )

    def test_remainder(self):
        assert_grad_matches(lambda a: (a % 2.5).sum(), [(5,)], positive=True)
