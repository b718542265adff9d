"""Reduction operators: sum/mean/var/max/min."""

from __future__ import annotations

import builtins

import numpy as np

from repro.tcr.ops.common import expand_reduced, normalize_dim, reduction_axes
from repro.tcr.tensor import Tensor


def sum(a: Tensor, dim=None, keepdim: bool = False) -> Tensor:
    axes = reduction_axes(dim, a.ndim)
    data = a.data.sum(axis=axes, keepdims=keepdim)
    shape = a.shape

    def backward(grad):
        return (expand_reduced(grad, shape, axes, keepdim),)

    return Tensor._make(np.asarray(data), (a,), backward, "sum", a.device)


def mean(a: Tensor, dim=None, keepdim: bool = False) -> Tensor:
    axes = reduction_axes(dim, a.ndim)
    data = a.data.mean(axis=axes, keepdims=keepdim)
    shape = a.shape
    if axes is None:
        count = a.data.size
    else:
        count = 1
        for axis in axes:
            count *= shape[axis]

    def backward(grad):
        return (expand_reduced(grad, shape, axes, keepdim) / count,)

    return Tensor._make(np.asarray(data), (a,), backward, "mean", a.device)


def var(a: Tensor, dim=None, keepdim: bool = False, unbiased: bool = True) -> Tensor:
    axes = reduction_axes(dim, a.ndim)
    ddof = 1 if unbiased else 0
    data = a.data.var(axis=axes, keepdims=keepdim, ddof=ddof)
    shape = a.shape
    if axes is None:
        count = a.data.size
    else:
        count = 1
        for axis in axes:
            count *= shape[axis]
    centred = a.data - a.data.mean(axis=axes, keepdims=True)
    denom = builtins.max(count - ddof, 1)

    def backward(grad):
        g = expand_reduced(grad, shape, axes, keepdim)
        return (2.0 * centred * g / denom,)

    return Tensor._make(np.asarray(data), (a,), backward, "var", a.device)


def _extremum(a: Tensor, dim, keepdim: bool, np_fn, np_arg_fn, op_name):
    if dim is None:
        data = np_fn(a.data)
        flat_arg = np_arg_fn(a.data)
        shape = a.shape

        def backward(grad):
            out = np.zeros(a.data.size, dtype=grad.dtype)
            out[flat_arg] = grad
            return (out.reshape(shape),)

        return Tensor._make(np.asarray(data), (a,), backward, op_name, a.device)

    axis = normalize_dim(dim, a.ndim)
    values = np_fn(a.data, axis=axis, keepdims=keepdim)
    indices = np_arg_fn(a.data, axis=axis)
    shape = a.shape

    def backward(grad):
        g = grad if keepdim else np.expand_dims(grad, axis)
        out = np.zeros(shape, dtype=g.dtype)
        np.put_along_axis(out, np.expand_dims(indices, axis), g, axis=axis)
        return (out,)

    values_t = Tensor._make(np.asarray(values), (a,), backward, op_name, a.device)
    index_data = indices if keepdim is False else np.expand_dims(indices, axis)
    indices_t = Tensor._make(index_data.astype(np.int64), (a,), None, op_name + "_idx", a.device)
    return values_t, indices_t


def max(a: Tensor, dim=None, keepdim: bool = False):
    return _extremum(a, dim, keepdim, np.max, np.argmax, "max")


def min(a: Tensor, dim=None, keepdim: bool = False):
    return _extremum(a, dim, keepdim, np.min, np.argmin, "min")
