"""The run-time side of expression evaluation: one table's context.

Bound expressions are lowered once, at plan time, by
:class:`repro.core.kernels.compiler.ExprCompiler` into closures
``fn(ctx) -> value``. ``ctx`` is an :class:`ExpressionEvaluator`: the input
table's columns, the per-pass CSE slot table, the output boundary
(``materialize``) and the UDF call site with its tensor-cache protocol.
Nothing here walks an expression tree.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Union

import numpy as np

from repro.core import tensor_cache as tc
from repro.core.telemetry import count as tel_count
from repro.errors import ExecutionError
from repro.sql import bound as b
from repro.storage.column import Column
from repro.storage.encodings import EncodedTensor, PlainEncoding
from repro.storage.table import Table
from repro.tcr.tensor import Tensor


@dataclasses.dataclass
class Scalar:
    """A plan-time constant (broadcasts against columns)."""
    value: object


Value = Union[Column, Scalar]


class ExpressionEvaluator:
    """Per-table context the lowered closures of one operator pass run in.

    ``slots`` gives common-subexpression elimination: closures lowered from
    structurally identical deterministic subtrees (UDF calls above all)
    share a slot, so conjuncts, outputs and sort keys evaluated against one
    context compute each such subtree exactly once.
    """

    def __init__(self, table: Table):
        self.table = table
        self.num_rows = table.num_rows
        self.device = table.device
        self.slots: dict = {}

    def materialize(self, value, name: str = "") -> Column:
        """The output boundary: any lowered value as a full-length column."""
        if isinstance(value, Column):
            return value.rename(name) if name else value
        if isinstance(value, Scalar):
            constant = value.value
            if isinstance(constant, str):
                return Column.from_values(
                    name, np.array([constant] * self.num_rows, dtype=object),
                    device=self.device)
            value = literal_array(constant)
        if not (isinstance(value, Tensor) and value.shape[0] == self.num_rows):
            data = broadcast_rows(
                value.data if isinstance(value, Tensor) else value, self.num_rows)
            # dtype pinned: the bare constructor would canonicalize float64.
            value = Tensor(data, device=self.device, dtype=data.dtype)
        return Column(name, EncodedTensor(value, PlainEncoding()))

    def _stored(self, index: int) -> Column:
        columns = self.table.columns
        if index >= len(columns):
            raise ExecutionError(
                f"column index {index} out of range for table with "
                f"{len(columns)} columns"
            )
        return columns[index]

    def _eval_BColumn(self, expr: b.BColumn) -> Column:
        return self._stored(expr.index)

    def _eval_BCall(self, expr: b.BCall, values: List[Value]) -> Column:
        udf = expr.udf
        args = udf_arguments(udf, values)

        # Materialization cache: deterministic UDFs outside grad recording
        # consult the session cache. A full hit skips inference entirely; a
        # subset (post-filter) evaluation gathers from a cached full-column
        # entry; a miss computes and inserts.
        cache = tc.active()
        use_cache = (cache is not None
                     and getattr(udf, "deterministic", True)
                     and not _udf_needs_grad(udf)
                     # Modules left in train() mode may be stochastic
                     # (dropout): never cache their outputs.
                     and not any(getattr(m, "training", False)
                                 for m in udf.modules))
        key = None
        tags = ()
        if use_cache:
            key, full_key, rows, tags = _bcall_cache_plan(udf, values, args,
                                                          self, cache)
            if key is not None:
                cached = cache.udf_get(key, full_key, rows)
                if cached is not None:
                    # Attribute the hit to the requesting query's open
                    # operator span (no-op when untraced).
                    tel_count(tensor_cache_hits=1)
                    return cached[0]
                tel_count(tensor_cache_misses=1)
            if tags:
                # Tag the argument tensors so encoder memos inside the UDF
                # (model.encode_image) can capture/reuse embeddings. Tags
                # are removed after the invocation: they must never leak
                # into a later call that did not opt into caching (e.g. a
                # deterministic=False UDF sharing the same model).
                for tensor, tag in tags:
                    tc.tag_tensor(tensor, tag)

        try:
            columns = _rehome(udf.invoke(args), self.device)
        finally:
            for tensor, _ in tags:
                tc.untag_tensor(tensor)
        column = columns[0]
        if column.num_rows != self.num_rows:
            raise ExecutionError(
                f"UDF {udf.name!r} returned {column.num_rows} rows for "
                f"{self.num_rows} input rows"
            )
        if use_cache and key is not None:
            cache.udf_put(key, columns)
        return column


def literal_array(v) -> np.ndarray:
    """A numeric literal as a shape-``(1,)`` array (bool / int64 / float32,
    NULL as float32 NaN). NumPy promotion between arrays does not depend on
    shape, so computing with ``(1,)`` gives the bits a full column would."""
    if isinstance(v, bool):
        return np.full(1, v)
    if isinstance(v, int):
        return np.full(1, v, dtype=np.int64)
    if v is None:
        return np.full(1, np.nan, dtype=np.float32)
    return np.full(1, float(v), dtype=np.float32)


def broadcast_rows(data: np.ndarray, num_rows: int) -> np.ndarray:
    """Literal-derived ``(1,)``-shaped results broadcast to the batch length
    (only at the output boundary and in predicate masks)."""
    if data.shape[0] == num_rows:
        return data
    return np.full((num_rows,) + data.shape[1:], data[0], dtype=data.dtype)


def udf_arguments(udf, values: List[Value]) -> List[object]:
    """Evaluated argument values in the form the UDF's signature takes:
    python constants, bare tensors, or encoded tensors."""
    args = []
    for value in values:
        if isinstance(value, Scalar):
            args.append(value.value)
        elif udf.encoded_io or not isinstance(value.encoding, PlainEncoding):
            args.append(value.encoded)
        else:
            args.append(value.tensor)
    return args


# ----------------------------------------------------------------------
# CSE structural keys
# ----------------------------------------------------------------------
def _structural_key(expr: b.BoundExpr) -> Optional[tuple]:
    """Hashable structural identity of a bound expression, or None when the
    subtree must not be shared (non-deterministic UDF, unhashable literal)."""
    t = type(expr)
    if t is b.BColumn:
        return ("c", expr.index)
    if t is b.BLiteral:
        v = expr.value
        if isinstance(v, (str, int, float, bool, type(None))):
            return ("l", type(v).__name__, v)
        return None
    if t is b.BBinary:
        left = _structural_key(expr.left)
        right = _structural_key(expr.right)
        if left is None or right is None:
            return None
        return ("b", expr.op, left, right)
    if t is b.BUnary:
        operand = _structural_key(expr.operand)
        return None if operand is None else ("n", expr.op, operand)
    if t is b.BCall:
        if not getattr(expr.udf, "deterministic", True):
            return None
        parts = tuple(_structural_key(a) for a in expr.args)
        if any(p is None for p in parts):
            return None
        return ("u", expr.udf.name.lower(), getattr(expr.udf, "version", 0), parts)
    if t is b.BBuiltin:
        parts = tuple(_structural_key(a) for a in expr.args)
        if any(p is None for p in parts):
            return None
        return ("f", expr.name, parts)
    if t is b.BBetween:
        keys = tuple(_structural_key(e) for e in (expr.operand, expr.low, expr.high))
        if any(k is None for k in keys):
            return None
        return ("btw", expr.negated, keys)
    if t is b.BIn:
        operand = _structural_key(expr.operand)
        if operand is None:
            return None
        try:
            values = tuple(expr.values)
            hash(values)
        except TypeError:
            return None
        return ("in", operand, values, expr.negated)
    if t is b.BLike:
        operand = _structural_key(expr.operand)
        return None if operand is None else ("like", operand, expr.pattern, expr.negated)
    if t is b.BIsNull:
        operand = _structural_key(expr.operand)
        return None if operand is None else ("null", operand, expr.negated)
    if t is b.BCase:
        parts = []
        for cond, value in expr.whens:
            ck, vk = _structural_key(cond), _structural_key(value)
            if ck is None or vk is None:
                return None
            parts.append((ck, vk))
        else_key = None
        if expr.else_ is not None:
            else_key = _structural_key(expr.else_)
            if else_key is None:
                return None
        return ("case", tuple(parts), else_key)
    if t is b.BCast:
        operand = _structural_key(expr.operand)
        return None if operand is None else ("cast", operand, repr(expr.data_type))
    return None


# ----------------------------------------------------------------------
# Materialization-cache keying for UDF calls
# ----------------------------------------------------------------------
def _udf_needs_grad(udf) -> bool:
    from repro.tcr.autograd import is_grad_enabled
    return is_grad_enabled() and any(p.requires_grad for p in udf.parameters())


def _bcall_cache_plan(udf, values, args, evaluator, cache):
    """Build cache keys for one UDF call.

    Returns ``(key, full_key, rows, tags)``: the exact entry key; the
    full-column key usable for a row gather (when every column argument is
    the same row subset of its base column); the subset row indices; and
    ``(tensor, tag)`` pairs to attach before invoking the UDF. ``key`` is
    None when an argument has no stable content identity.
    """
    head = ("udf", udf.name.lower(), getattr(udf, "version", 0),
            cache.udf_state_fp(udf), str(evaluator.device))
    parts, full_parts, tags = [head], [head], []
    rows = None
    rows_fps = set()
    any_column = False
    for value, arg in zip(values, args):
        if isinstance(value, Scalar):
            v = value.value
            try:
                hash(v)
            except TypeError:
                return None, None, None, ()
            parts.append(("s", v))
            full_parts.append(("s", v))
            continue
        tag = tc.column_tag(value)
        if tag is None:
            return None, None, None, ()
        any_column = True
        rows_fps.add(tag.rows_fp)
        if tag.rows_fp is not None:
            rows = tag.rows
        parts.append(("col", tag.base, tag.rows_fp))
        full_parts.append(("col", tag.base, None))
        tensor = arg.tensor if isinstance(arg, EncodedTensor) else arg
        tags.append((tensor, tag))
    if not any_column:
        # Pure scalar broadcast: the output length is the only data identity.
        parts.append(("nrows", evaluator.num_rows))
    key = tuple(parts)
    subset = (any_column and rows is not None and len(rows_fps) == 1)
    full_key = tuple(full_parts) if subset else None
    return key, full_key, (rows if subset else None), tags


def _rehome(columns: List[Column], device) -> List[Column]:
    """Move UDF outputs to the query's device (a UDF may compute wherever its
    model weights live; the engine re-homes results, like a runtime copying
    kernel outputs back to the executing stream)."""
    return [col if col.device == device else col.to(device) for col in columns]
