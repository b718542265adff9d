"""Operator library for the tensor runtime.

Import surface mirrors a functional subset of ``torch``: every op takes and
returns :class:`~repro.tcr.tensor.Tensor` values and participates in
autograd where mathematically meaningful.
"""

from repro.tcr.ops.activation import (
    gelu,
    leaky_relu,
    log_softmax,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from repro.tcr.ops.conv import (
    adaptive_avg_pool2d,
    avg_pool2d,
    conv2d,
    max_pool2d,
)
from repro.tcr.ops.elementwise import (
    abs,
    add,
    astype,
    ceil,
    clamp,
    clone,
    div,
    eq,
    exp,
    floor,
    ge,
    gt,
    le,
    log,
    log1p,
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
from repro.tcr.ops.indexing import (
    gather,
    getitem,
    index_select,
    masked_select,
    one_hot,
    repeat_interleave,
    scatter_add,
    segment_sum,
)
from repro.tcr.ops.linalg import einsum_pair, matmul
from repro.tcr.ops.reduction import (
    all,
    any,
    argmax,
    argmin,
    cumsum,
    logsumexp,
    max,
    mean,
    min,
    prod,
    std,
    sum,
    var,
)
from repro.tcr.ops.shape import (
    broadcast_to,
    cat,
    chunk,
    flatten,
    flip,
    pad2d,
    permute,
    reshape,
    split,
    squeeze,
    stack,
    tile,
    transpose,
    unsqueeze,
)
from repro.tcr.ops.sorting import (
    argsort,
    bincount,
    lexsort_rows,
    nonzero,
    searchsorted,
    sort,
    topk,
    unique,
)

__all__ = [
    "abs", "adaptive_avg_pool2d", "add", "all", "any", "argmax", "argmin",
    "argsort", "astype", "avg_pool2d", "bincount", "broadcast_to", "cat",
    "ceil", "chunk", "clamp", "clone", "conv2d", "cumsum", "div",
    "einsum_pair", "eq", "exp", "flatten", "flip", "floor", "gather", "ge",
    "gelu", "getitem", "gt", "index_select", "le", "leaky_relu",
    "lexsort_rows", "log", "log1p", "log_softmax", "logical_and",
    "logical_not", "logical_or", "logical_xor", "logsumexp", "lt",
    "masked_select", "matmul", "max", "max_pool2d", "maximum", "mean", "min",
    "minimum", "mul", "ne", "neg", "nonzero", "one_hot", "pad2d", "permute",
    "pow", "prod", "relu", "remainder", "repeat_interleave", "reshape",
    "round", "scatter_add", "searchsorted", "segment_sum", "sigmoid",
    "softmax", "sort", "split", "sqrt", "squeeze", "stack", "std", "sub",
    "sum", "tanh", "tile", "to_device", "topk", "transpose", "unique",
    "unsqueeze", "var", "where",
]
