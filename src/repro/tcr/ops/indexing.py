"""Indexing: ``getitem``, the op behind ``Tensor.__getitem__``."""

from __future__ import annotations

import numpy as np

from repro.tcr.tensor import Tensor


def _unwrap_index(index):
    """Convert Tensor indices (and tuples containing them) to numpy."""
    if isinstance(index, Tensor):
        return index.data
    if isinstance(index, tuple):
        return tuple(_unwrap_index(i) for i in index)
    if isinstance(index, list):
        return np.asarray(index)
    return index


def getitem(a: Tensor, index) -> Tensor:
    np_index = _unwrap_index(index)
    data = a.data[np_index]
    if np.isscalar(data) or data.ndim == 0:
        data = np.asarray(data)
    else:
        data = np.ascontiguousarray(data)
    shape = a.shape

    def backward(grad):
        out = np.zeros(shape, dtype=grad.dtype)
        np.add.at(out, np_index, grad)
        return (out,)

    return Tensor._make(data, (a,), backward, "getitem", a.device)
