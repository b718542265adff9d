"""Operator library for the tensor runtime.

Import surface mirrors a functional subset of ``torch``: every op takes and
returns :class:`~repro.tcr.tensor.Tensor` values and participates in
autograd where mathematically meaningful.
"""

from repro.tcr.ops.activation import (
    log_softmax,
    relu,
    sigmoid,
    softmax,
)
from repro.tcr.ops.conv import (
    adaptive_avg_pool2d,
    conv2d,
    max_pool2d,
)
from repro.tcr.ops.elementwise import (
    abs,
    add,
    astype,
    ceil,
    div,
    eq,
    exp,
    floor,
    ge,
    gt,
    le,
    log,
    logical_and,
    logical_not,
    logical_or,
    logical_xor,
    lt,
    maximum,
    minimum,
    mul,
    ne,
    neg,
    pow,
    remainder,
    round,
    sqrt,
    sub,
    to_device,
    where,
)
from repro.tcr.ops.indexing import getitem
from repro.tcr.ops.linalg import einsum_pair, matmul
from repro.tcr.ops.reduction import (
    max,
    mean,
    min,
    sum,
    var,
)
from repro.tcr.ops.shape import (
    cat,
    flatten,
    permute,
    reshape,
    stack,
)

__all__ = [
    "abs", "adaptive_avg_pool2d", "add", "astype", "cat", "ceil", "conv2d",
    "div", "einsum_pair", "eq", "exp", "flatten", "floor", "ge", "getitem",
    "gt", "le", "log", "log_softmax", "logical_and", "logical_not",
    "logical_or", "logical_xor", "lt", "matmul", "max", "max_pool2d",
    "maximum", "mean", "min", "minimum", "mul", "ne", "neg", "permute", "pow",
    "relu", "remainder", "reshape", "round", "sigmoid", "softmax", "sqrt",
    "stack", "sub", "sum", "to_device", "var", "where",
]
