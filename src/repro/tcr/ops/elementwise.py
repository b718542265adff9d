"""Element-wise arithmetic, comparison and logical operators."""

from __future__ import annotations

import numpy as np

from repro.tcr import dtype as dtypes
from repro.tcr.ops.common import coerce_pair
from repro.tcr.tensor import Tensor


def _binary(a, b, op_name, forward, grad_a, grad_b) -> Tensor:
    a, b, device = coerce_pair(a, b)
    data = forward(a.data, b.data)
    a_data, b_data = a.data, b.data

    def backward(grad):
        ga = grad_a(grad, a_data, b_data, data) if a.requires_grad else None
        gb = grad_b(grad, a_data, b_data, data) if b.requires_grad else None
        return (ga, gb)

    return Tensor._make(data, (a, b), backward, op_name, device)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", np.add,
                   lambda g, x, y, o: g,
                   lambda g, x, y, o: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", np.subtract,
                   lambda g, x, y, o: g,
                   lambda g, x, y, o: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", np.multiply,
                   lambda g, x, y, o: g * y,
                   lambda g, x, y, o: g * x)


def div_forward(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x / y`` on raw arrays: integer or bool operands on both sides
    materialise float32, as true division does in PyTorch."""
    if not dtypes.is_float(x.dtype) and not dtypes.is_float(y.dtype):
        return np.true_divide(x, y).astype(np.float32)
    return np.true_divide(x, y)


def div(a, b) -> Tensor:
    return _binary(a, b, "div", div_forward,
                   lambda g, x, y, o: g / y,
                   lambda g, x, y, o: -g * x / (y * y))


def pow(a, b) -> Tensor:
    def grad_base(g, x, y, o):
        return g * y * np.power(x, y - 1)

    def grad_exp(g, x, y, o):
        with np.errstate(divide="ignore", invalid="ignore"):
            logx = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), 0.0)
        return g * o * logx

    return _binary(a, b, "pow", np.power, grad_base, grad_exp)


def remainder(a, b) -> Tensor:
    return _binary(a, b, "remainder", np.remainder,
                   lambda g, x, y, o: g,
                   lambda g, x, y, o: -g * np.floor_divide(x, y))


def maximum(a, b) -> Tensor:
    return _binary(a, b, "maximum", np.maximum,
                   lambda g, x, y, o: g * (x >= y),
                   lambda g, x, y, o: g * (y > x))


def minimum(a, b) -> Tensor:
    return _binary(a, b, "minimum", np.minimum,
                   lambda g, x, y, o: g * (x <= y),
                   lambda g, x, y, o: g * (y < x))


def _unary(a: Tensor, op_name, forward, grad_fn) -> Tensor:
    data = forward(a.data)
    a_data = a.data

    def backward(grad):
        return (grad_fn(grad, a_data, data),)

    return Tensor._make(data, (a,), backward, op_name, a.device)


def neg(a: Tensor) -> Tensor:
    return _unary(a, "neg", np.negative, lambda g, x, o: -g)


def exp(a: Tensor) -> Tensor:
    return _unary(a, "exp", np.exp, lambda g, x, o: g * o)


def log(a: Tensor) -> Tensor:
    return _unary(a, "log", np.log, lambda g, x, o: g / x)


def sqrt(a: Tensor) -> Tensor:
    return _unary(a, "sqrt", np.sqrt, lambda g, x, o: g / (2.0 * o))


def abs(a: Tensor) -> Tensor:
    return _unary(a, "abs", np.abs, lambda g, x, o: g * np.sign(x))


def floor(a: Tensor) -> Tensor:
    return Tensor._make(np.floor(a.data), (a,), None, "floor", a.device)


def ceil(a: Tensor) -> Tensor:
    return Tensor._make(np.ceil(a.data), (a,), None, "ceil", a.device)


def round(a: Tensor) -> Tensor:
    return Tensor._make(np.round(a.data), (a,), None, "round", a.device)


def where(cond, a, b) -> Tensor:
    a, b, device = coerce_pair(a, b)
    cond_t = cond if isinstance(cond, Tensor) else Tensor(np.asarray(cond))
    cond_data = cond_t.data.astype(bool)
    data = np.where(cond_data, a.data, b.data)

    def backward(grad):
        ga = np.where(cond_data, grad, 0) if a.requires_grad else None
        gb = np.where(cond_data, 0, grad) if b.requires_grad else None
        return (ga, gb)

    return Tensor._make(data, (a, b), backward, "where", device)


# ----------------------------------------------------------------------
# Comparisons (non-differentiable; output dtype bool)
# ----------------------------------------------------------------------

def _compare(a, b, op_name, forward) -> Tensor:
    a, b, device = coerce_pair(a, b)
    return Tensor._make(forward(a.data, b.data), (a, b), None, op_name, device)


def eq(a, b) -> Tensor:
    return _compare(a, b, "eq", np.equal)


def ne(a, b) -> Tensor:
    return _compare(a, b, "ne", np.not_equal)


def lt(a, b) -> Tensor:
    return _compare(a, b, "lt", np.less)


def le(a, b) -> Tensor:
    return _compare(a, b, "le", np.less_equal)


def gt(a, b) -> Tensor:
    return _compare(a, b, "gt", np.greater)


def ge(a, b) -> Tensor:
    return _compare(a, b, "ge", np.greater_equal)


# ----------------------------------------------------------------------
# Logical ops on bool tensors
# ----------------------------------------------------------------------

def logical_not(a: Tensor) -> Tensor:
    return Tensor._make(np.logical_not(a.data), (a,), None, "logical_not", a.device)


def logical_and(a, b) -> Tensor:
    return _compare(a, b, "logical_and", np.logical_and)


def logical_or(a, b) -> Tensor:
    return _compare(a, b, "logical_or", np.logical_or)


def logical_xor(a, b) -> Tensor:
    return _compare(a, b, "logical_xor", np.logical_xor)


# ----------------------------------------------------------------------
# Casting / device movement / identity
# ----------------------------------------------------------------------

def astype(a: Tensor, dtype) -> Tensor:
    target = np.dtype(dtype)
    data = a.data.astype(target)
    if dtypes.is_float(a.dtype) and dtypes.is_float(target):
        source = a.dtype

        def backward(grad):
            return (grad.astype(source),)
    else:
        backward = None
    return Tensor._make(data, (a,), backward, "astype", a.device)


def to_device(a: Tensor, device) -> Tensor:
    # Simulated transfer: a metadata retag. Copying here would charge the
    # accelerator path hundreds of MB of artificial memcpy per query; tensors
    # are immutable-by-convention in the engine, so aliasing is safe.
    def backward(grad):
        return (grad,)

    return Tensor._make(a.data, (a,), backward, "to_device", device)
