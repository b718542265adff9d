"""Shape-manipulation operators: reshape/permute/flatten/cat/stack."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.tcr.device import same_device
from repro.tcr.ops.common import normalize_dim
from repro.tcr.tensor import Tensor


def reshape(a: Tensor, shape: tuple) -> Tensor:
    old_shape = a.shape
    data = a.data.reshape(shape)

    def backward(grad):
        return (grad.reshape(old_shape),)

    return Tensor._make(data, (a,), backward, "reshape", a.device)


def permute(a: Tensor, dims: tuple) -> Tensor:
    dims = tuple(normalize_dim(d, a.ndim) for d in dims)
    if sorted(dims) != list(range(a.ndim)):
        raise ShapeError(f"permute dims {dims} is not a permutation of {a.ndim} axes")
    inverse = np.argsort(dims)
    data = np.transpose(a.data, dims)

    def backward(grad):
        return (np.transpose(grad, inverse),)

    return Tensor._make(data, (a,), backward, "permute", a.device)


def flatten(a: Tensor, start_dim: int = 0, end_dim: int = -1) -> Tensor:
    start = normalize_dim(start_dim, a.ndim)
    end = normalize_dim(end_dim, a.ndim)
    if start > end:
        raise ShapeError(f"flatten start_dim {start} > end_dim {end}")
    merged = 1
    for n in a.shape[start:end + 1]:
        merged *= n
    new_shape = a.shape[:start] + (merged,) + a.shape[end + 1:]
    return reshape(a, new_shape)


def cat(tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("cat expects a non-empty sequence of tensors")
    device = same_device(*[t.device for t in tensors])
    axis = normalize_dim(dim, tensors[0].ndim)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        return tuple(
            np.take(grad, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(sizes))
        )

    return Tensor._make(data, tuple(tensors), backward, "cat", device)


def stack(tensors: Sequence[Tensor], dim: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("stack expects a non-empty sequence of tensors")
    device = same_device(*[t.device for t in tensors])
    ndim = tensors[0].ndim + 1
    axis = dim % ndim
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(data, tuple(tensors), backward, "stack", device)
