"""Activation functions and their smooth relaxations.

``softmax`` doubles as the paper's differentiable argmax proxy (§4), the key
relaxation behind Probability Encoding and soft relational operators.
"""

from __future__ import annotations

import numpy as np

from repro.tcr.ops.common import normalize_dim
from repro.tcr.tensor import Tensor


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)
    mask = a.data > 0

    def backward(grad):
        return (grad * mask,)

    return Tensor._make(data, (a,), backward, "relu", a.device)


def leaky_relu(a: Tensor, negative_slope: float = 0.01) -> Tensor:
    data = np.where(a.data > 0, a.data, negative_slope * a.data)
    mask = a.data > 0

    def backward(grad):
        return (np.where(mask, grad, negative_slope * grad),)

    return Tensor._make(data, (a,), backward, "leaky_relu", a.device)


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    """Logistic function on a raw array, in the input's dtype."""
    # Numerically stable: never exponentiate a large positive number.
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return data.astype(x.dtype, copy=False)


def sigmoid(a: Tensor) -> Tensor:
    data = sigmoid_forward(a.data)

    def backward(grad):
        return (grad * data * (1.0 - data),)

    return Tensor._make(data, (a,), backward, "sigmoid", a.device)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(grad):
        return (grad * (1.0 - data * data),)

    return Tensor._make(data, (a,), backward, "tanh", a.device)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    x = a.data
    c = np.sqrt(2.0 / np.pi).astype(np.float32)
    inner = c * (x + 0.044715 * x ** 3)
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def backward(grad):
        dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x ** 2)
        return (grad * (0.5 * (1.0 + t) + 0.5 * x * dt),)

    return Tensor._make(data.astype(x.dtype, copy=False), (a,), backward, "gelu", a.device)


def softmax(a: Tensor, dim: int = -1) -> Tensor:
    axis = normalize_dim(dim, a.ndim)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        inner = (grad * data).sum(axis=axis, keepdims=True)
        return (data * (grad - inner),)

    return Tensor._make(data, (a,), backward, "softmax", a.device)


def log_softmax(a: Tensor, dim: int = -1) -> Tensor:
    axis = normalize_dim(dim, a.ndim)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_norm
    softmax_vals = np.exp(data)

    def backward(grad):
        return (grad - softmax_vals * grad.sum(axis=axis, keepdims=True),)

    return Tensor._make(data, (a,), backward, "log_softmax", a.device)
