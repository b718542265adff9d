"""Convolution and pooling: reference-checked forwards + gradcheck."""

import numpy as np
import pytest

from repro import tcr
from repro.errors import ShapeError
from repro.tcr import ops
from repro.tcr.ops import conv as conv_module
from repro.tcr.tensor import Tensor

from tests.tcr.gradcheck import assert_grad_matches


def reference_conv2d(x, w, b, stride, padding):
    """Naive loop conv for cross-checking the im2col implementation."""
    n, c, h, width = x.shape
    o, _, kh, kw = w.shape
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (x.shape[2] - kh) // stride + 1
    wo = (x.shape[3] - kw) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for ni in range(n):
        for oi in range(o):
            for i in range(ho):
                for j in range(wo):
                    patch = x[ni, :, i * stride:i * stride + kh,
                              j * stride:j * stride + kw]
                    out[ni, oi, i, j] = (patch * w[oi]).sum()
            if b is not None:
                out[ni, oi] += b[oi]
    return out


def reference_max_pool2d(x, grad, kernel, stride):
    """Naive loop max pool and its adjoint: each window's gradient goes to
    its first maximal element in row-major order, a NaN counting as maximal
    (``np.argmax``'s rule)."""
    n, c, h, w = x.shape
    ho, wo = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    gx = np.zeros(x.shape, dtype=grad.dtype)
    for ni, ci, i, j in np.ndindex(n, c, ho, wo):
        window = x[ni, ci, i * stride:i * stride + kernel,
                   j * stride:j * stride + kernel].reshape(-1)
        best = 0
        for p, value in enumerate(window):
            if np.isnan(value):
                best = p
                break
            if value > window[best]:
                best = p
        out[ni, ci, i, j] = window[best]
        gx[ni, ci, i * stride + best // kernel, j * stride + best % kernel] += grad[ni, ci, i, j]
    return out, gx


def _max_pool_with_grad(x, grad, kernel, stride=None):
    t = Tensor(x, requires_grad=True)
    out = ops.max_pool2d(t, kernel, stride=stride)
    out.backward(grad)
    return out.data, t.grad


def _relu_input(rng, shape):
    """ReLU'd activations, as every pool in the models sees them, with a
    block of all-zero windows (every element of the window ties)."""
    x = np.maximum(rng.normal(size=shape), 0).astype(np.float32)
    x[:, :, :4, :4] = 0
    return x


class TestArgumentChecks:
    @pytest.mark.parametrize("pool", [ops.max_pool2d])
    def test_pool_kernel_larger_than_input_raises(self, pool):
        with pytest.raises(ShapeError):
            pool(tcr.zeros(1, 1, 3, 3), 4)

    @pytest.mark.parametrize("pool", [ops.max_pool2d])
    def test_pool_zero_stride_raises(self, pool):
        with pytest.raises(ShapeError):
            pool(tcr.zeros(1, 1, 4, 4), 2, stride=0)

    def test_conv_zero_stride_raises(self):
        with pytest.raises(ShapeError):
            ops.conv2d(tcr.zeros(1, 1, 4, 4), tcr.zeros(1, 1, 3, 3), stride=0)

    def test_conv_negative_padding_raises(self):
        with pytest.raises(ShapeError):
            ops.conv2d(tcr.zeros(1, 1, 4, 4), tcr.zeros(1, 1, 3, 3), padding=-1)


class TestConvForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_reference(self, stride, padding, rng):
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b),
                         stride=stride, padding=padding).data
        want = reference_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ops.conv2d(tcr.zeros(1, 2, 4, 4), tcr.zeros(1, 3, 3, 3))

    def test_kernel_too_large_raises(self):
        with pytest.raises(ShapeError):
            ops.conv2d(tcr.zeros(1, 1, 2, 2), tcr.zeros(1, 1, 5, 5))


class TestPoolForward:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        got = ops.max_pool2d(x, 2).data
        assert got.reshape(-1).tolist() == [5, 7, 13, 15]

    def test_max_pool_with_stride(self):
        x = Tensor(np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5))
        got = ops.max_pool2d(x, 3, stride=2)
        assert got.shape == (1, 1, 2, 2)

    def test_adaptive_avg_pool_global(self):
        x = Tensor(np.ones((2, 3, 5, 7), dtype=np.float32))
        got = ops.adaptive_avg_pool2d(x, 1)
        assert got.shape == (2, 3, 1, 1)
        assert got.data.reshape(-1).tolist() == [1.0] * 6


class TestGradients:
    def test_conv_grads(self):
        assert_grad_matches(
            lambda x, w, b: ops.conv2d(x, w, b, stride=1, padding=1).sum(),
            [(1, 2, 5, 5), (3, 2, 3, 3), (3,)],
        )

    def test_conv_strided_grads(self):
        assert_grad_matches(
            lambda x, w: ops.conv2d(x, w, stride=2).sum(),
            [(1, 1, 6, 6), (2, 1, 3, 3)],
        )

    def test_conv_strided_padded_grads(self):
        # TinyCLIP's image tower: 3 channels, stride 2, padding 1.
        assert_grad_matches(
            lambda x, w, b: ops.conv2d(x, w, b, stride=2, padding=1).sum(),
            [(1, 3, 7, 7), (2, 3, 3, 3), (2,)],
        )

    def test_conv_input_without_grad_skips_col2im(self, monkeypatch, rng):
        # A model's first layer: the batch needs no gradient.
        def refuse(*args):
            raise AssertionError("_col2im called for an input without grad")

        monkeypatch.setattr(conv_module, "_col2im", refuse)
        x = Tensor(rng.normal(size=(2, 1, 6, 6)).astype(np.float32))
        w = Tensor(rng.normal(size=(3, 1, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        out = ops.conv2d(x, w, b, padding=1)
        gx, gw, gb = out._backward(np.ones(out.shape, dtype=np.float32))
        assert gx is None and gw.shape == w.shape and gb.shape == b.shape
        out.sum().backward()
        assert x.grad is None and w.grad is not None

    def test_max_pool_grad(self):
        assert_grad_matches(lambda x: ops.max_pool2d(x, 2).sum(),
                            [(1, 1, 4, 4)])

    def test_max_pool_overlapping_grad(self):
        assert_grad_matches(lambda x: ops.max_pool2d(x, 3, stride=2).sum(),
                            [(1, 2, 7, 7)])

    def test_adaptive_pool_grad(self):
        assert_grad_matches(lambda x: ops.adaptive_avg_pool2d(x, 1).sum(),
                            [(2, 2, 4, 4)])


class TestMaxPoolReference:
    def test_matches_reference_on_relu_input(self, rng):
        x = _relu_input(rng, (2, 3, 12, 12))
        grad = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        got_out, got_grad = _max_pool_with_grad(x, grad, 2)
        want_out, want_grad = reference_max_pool2d(x, grad, 2, 2)
        assert np.array_equal(got_out, want_out)
        assert np.array_equal(got_grad, want_grad)

    def test_matches_reference_overlapping(self, rng):
        # Whole-number gradients: an element shared by several windows sums
        # exactly, in any order.
        x = _relu_input(rng, (2, 3, 11, 11))
        grad = rng.integers(-4, 5, size=(2, 3, 5, 5)).astype(np.float32)
        got_out, got_grad = _max_pool_with_grad(x, grad, 3, stride=2)
        want_out, want_grad = reference_max_pool2d(x, grad, 3, 2)
        assert np.array_equal(got_out, want_out)
        assert np.array_equal(got_grad, want_grad)

    def test_odd_input_leaves_last_row_and_column_without_grad(self, rng):
        # CNNSmall's third pool: 21 -> 10.
        x = _relu_input(rng, (1, 2, 21, 21))
        grad = rng.normal(size=(1, 2, 10, 10)).astype(np.float32)
        got_out, got_grad = _max_pool_with_grad(x, grad, 2)
        want_out, want_grad = reference_max_pool2d(x, grad, 2, 2)
        assert got_out.shape == (1, 2, 10, 10)
        assert np.array_equal(got_out, want_out)
        assert np.array_equal(got_grad, want_grad)
        assert not got_grad[:, :, 20, :].any() and not got_grad[:, :, :, 20].any()

    def test_first_nan_takes_the_gradient(self):
        x = np.array([[1.0, np.nan], [np.nan, 5.0]], dtype=np.float32).reshape(1, 1, 2, 2)
        got_out, got_grad = _max_pool_with_grad(x, np.ones((1, 1, 1, 1), np.float32), 2)
        assert np.isnan(got_out).all()
        assert got_grad.reshape(-1).tolist() == [0.0, 1.0, 0.0, 0.0]
