"""Matrix multiplication (1-d, 2-d and batched with broadcasting)."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.tcr.ops.common import coerce_pair
from repro.tcr.tensor import Tensor


def matmul(a, b) -> Tensor:
    a, b, device = coerce_pair(a, b)
    if a.ndim == 0 or b.ndim == 0:
        raise ShapeError("matmul does not support 0-d tensors; use * for scalars")
    a_vec = a.ndim == 1
    b_vec = b.ndim == 1
    a_data = a.data[None, :] if a_vec else a.data
    b_data = b.data[:, None] if b_vec else b.data
    try:
        out = np.matmul(a_data, b_data)
    except ValueError as exc:
        raise ShapeError(f"matmul shapes {a.shape} x {b.shape} incompatible") from exc
    if a_vec:
        out = np.squeeze(out, axis=-2)
    if b_vec:
        out = np.squeeze(out, axis=-1)

    def backward(grad):
        g = grad
        # Re-insert squeezed axes innermost-first so 0-d grads expand cleanly.
        if b_vec:
            g = np.expand_dims(g, -1)
        if a_vec:
            g = np.expand_dims(g, -2)
        ga = gb = None
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
            if a_vec:
                ga = np.squeeze(ga, axis=-2)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a_data, -1, -2), g)
            if b_vec:
                gb = np.squeeze(gb, axis=-1)
        return (ga, gb)

    return Tensor._make(out, (a, b), backward, "matmul", device)


def einsum_pair(equation: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum with autograd (used by n-way soft group-by).

    Supports equations like ``"ri,rj->ij"`` — explicit output, no ellipsis.
    """
    lhs, _, out_spec = equation.partition("->")
    if not out_spec:
        raise ShapeError("einsum_pair requires an explicit '->' output spec")
    spec_a, _, spec_b = lhs.partition(",")
    if not spec_b:
        raise ShapeError("einsum_pair requires exactly two operands")
    data = np.einsum(equation, a.data, b.data)
    a_data, b_data = a.data, b.data

    def backward(grad):
        ga = gb = None
        if a.requires_grad:
            ga = np.einsum(f"{out_spec},{spec_b}->{spec_a}", grad, b_data)
        if b.requires_grad:
            gb = np.einsum(f"{out_spec},{spec_a}->{spec_b}", grad, a_data)
        return (ga, gb)

    return Tensor._make(data, (a, b), backward, "einsum", a.device)
