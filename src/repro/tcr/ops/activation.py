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
