"""Dtype policy for the tensor runtime.

We follow PyTorch's defaults: Python floats and float arrays become
``float32``, Python ints become ``int64``, and bools stay ``bool``. A Python
scalar beside a tensor in a binary op is weak, as in PyTorch: it takes the
tensor's dtype unless it is of a higher category
(:func:`repro.tcr.ops.common.weak_scalar`). numpy's own promotion rules
apply between arrays inside kernels.
"""

from __future__ import annotations

import numpy as np

_FLOAT_KINDS = ("f",)
_INT_KINDS = ("i", "u")


def default_dtype_for(array: np.ndarray) -> np.dtype:
    """Return the canonical storage dtype for a freshly ingested array."""
    kind = array.dtype.kind
    if kind == "f":
        return np.dtype(np.float32)
    if kind in ("i", "u"):
        return np.dtype(np.int64)
    if kind == "b":
        return np.dtype(np.bool_)
    raise TypeError(f"unsupported dtype {array.dtype} for tensor data")


def canonicalize(array: np.ndarray) -> np.ndarray:
    """Cast an ingested array to its canonical dtype (no-op when it already is)."""
    target = default_dtype_for(array)
    if array.dtype == target:
        return array
    return array.astype(target)


def is_float(dtype) -> bool:
    return np.dtype(dtype).kind in _FLOAT_KINDS
