"""Shared helpers for operator implementations."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tcr.device import Device, same_device
from repro.tcr.tensor import Tensor, ensure_tensor


def coerce_pair(a, b) -> Tuple[Tensor, Tensor, Device]:
    """Promote a binary op's operands to tensors on a common device.

    Numpy arrays are wrapped on the device of the tensor operand, and
    Python scalars as well, typed weakly (:func:`weak_scalar`); two tensor
    operands must already share a device.
    """
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        device = same_device(a.device, b.device)
        return a, b, device
    if isinstance(a, Tensor):
        if isinstance(b, _SCALARS):
            b, a = weak_scalar(b, a)
            return a, b, a.device
        return a, ensure_tensor(b, device=a.device), a.device
    if isinstance(b, Tensor):
        if isinstance(a, _SCALARS):
            a, b = weak_scalar(a, b)
            return a, b, b.device
        return ensure_tensor(a, device=b.device), b, b.device
    a_t = ensure_tensor(a)
    b_t = ensure_tensor(b, device=a_t.device)
    return a_t, b_t, a_t.device


_SCALARS = (bool, int, float)


def weak_scalar(value, tensor: Tensor) -> Tuple[Tensor, Tensor]:
    """PyTorch's rule for a Python scalar beside a tensor: the scalar is weak.

    It takes the tensor's dtype unless its category (bool < int < float) is
    higher: a float scalar with an int or bool tensor computes in float32,
    and an int scalar with a bool tensor in int64. Returns the scalar as a
    0-d tensor and the tensor operand, cast to float32 when an int tensor
    meets a float scalar (numpy would widen that pair to float64).
    """
    kind = tensor.dtype.kind
    if isinstance(value, bool) or kind == "f" or (isinstance(value, int) and kind != "b"):
        dtype = tensor.dtype
    elif isinstance(value, int):
        dtype = np.dtype(np.int64)
    else:
        dtype = np.dtype(np.float32)
        if kind != "b":
            tensor = Tensor(tensor.data.astype(dtype), device=tensor.device)
    try:
        scalar = np.asarray(value, dtype=dtype)
    except OverflowError:
        # Outside the tensor's integer range: numpy's promotion decides.
        scalar = np.asarray(value)
    return Tensor(scalar, device=tensor.device), tensor


def normalize_dim(dim: int, ndim: int) -> int:
    """Convert a possibly-negative axis to its positive form with bounds check."""
    if not -ndim <= dim < max(ndim, 1):
        raise IndexError(f"dim {dim} out of range for tensor with {ndim} dimensions")
    return dim % ndim if ndim else 0


def reduction_axes(dim, ndim: int) -> Optional[Tuple[int, ...]]:
    """Normalise a reduction's ``dim`` argument to a tuple of axes (None = all)."""
    if dim is None:
        return None
    if isinstance(dim, (tuple, list)):
        return tuple(normalize_dim(d, ndim) for d in dim)
    return (normalize_dim(dim, ndim),)


def expand_reduced(grad: np.ndarray, shape: tuple, axes: Optional[Tuple[int, ...]],
                   keepdim: bool) -> np.ndarray:
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axes is None:
        return np.broadcast_to(grad, shape)
    if not keepdim:
        for axis in sorted(axes):
            grad = np.expand_dims(grad, axis)
    return np.broadcast_to(grad, shape)
