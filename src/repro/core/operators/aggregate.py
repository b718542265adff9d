"""Exact aggregation over dense key ids.

Group identity comes from :func:`key_ids`, which reads the integer codes the
key columns already carry (sorted-dictionary codes, bools, small integer
ranges) and pays one 1-d ``np.unique`` only for a column that carries none —
TQP's data representation, where operators run on small integers. COUNT,
SUM and AVG are then ``np.bincount`` over the ids; MIN/MAX, and integer SUMs
float64 could round, reduce segments of one stable sort of the id vector.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.core.expr_eval import ExpressionEvaluator
from repro.core.kernels.compiler import ExprCompiler
from repro.core.operators.base import Operator, Relation
from repro.core.telemetry import annotate
from repro.sql.bound import AggSpec, BoundExpr
from repro.storage.column import Column
from repro.storage.encodings import (
    DictionaryEncoding,
    EncodedTensor,
    PlainEncoding,
    ProbabilityEncoding,
)
from repro.storage.table import Table
from repro.tcr import ops

# An integer key whose value range is below this multiple of the row count is
# addressed as ``value - min``; a combined domain above it is compacted.
DENSE_FACTOR = 4
_INT64_LIMIT = 2 ** 63
_FLOAT64_EXACT = 2 ** 53


# ----------------------------------------------------------------------
# Key ids
# ----------------------------------------------------------------------
def _key_codes(key, n: int) -> Tuple[np.ndarray, int]:
    """One key's int64 codes, in value order, and their range."""
    if isinstance(key, Column):
        if isinstance(key.encoding, ProbabilityEncoding):
            return key.encoding.hard_codes(key.tensor), key.encoding.num_classes
        data = key.tensor.detach().data
        if isinstance(key.encoding, DictionaryEncoding):    # sorted dictionary
            return data.astype(np.int64, copy=False), key.encoding.cardinality
        key = data
    if key.ndim != 1:
        raise ExecutionError("cannot group by a multi-dimensional column")
    if key.dtype.kind == "b":
        return key.astype(np.int64), 2
    if key.dtype.kind in "iu":
        low = key.min()
        span = int(key.max()) - int(low)          # Python ints: cannot overflow
        if span < DENSE_FACTOR * n:
            # Subtract in int64: a narrow dtype would wrap. int64 wraps too
            # (uint64 above 2^63), but the true difference fits, so it is exact.
            return key.astype(np.int64, copy=False) - low.astype(np.int64), span + 1
    nan = np.isnan(key) if key.dtype.kind == "f" else None
    if nan is None or not nan.any():
        return _compact(key)
    # Every NaN is its own key, after all values, in row order.
    uniques, inverse = np.unique(key[~nan], return_inverse=True)
    nans = n - len(inverse)
    codes = np.empty(n, dtype=np.int64)
    codes[~nan] = inverse
    codes[nan] = len(uniques) + np.arange(nans)
    return codes, len(uniques) + nans


def _compact(values: np.ndarray) -> Tuple[np.ndarray, int]:
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64, copy=False), len(uniques)


def key_ids(keys: Sequence) -> Tuple[np.ndarray, int]:
    """Dense int64 row ids over key columns (``Column``s or 1-d arrays).

    Ids lie in ``[0, domain)`` and id order is the lexicographic order of
    the key values, so it is also group order. A dictionary column gives
    its codes (range: its cardinality), a bool column two values, an
    integer column ``value - min`` when its range is under
    ``DENSE_FACTOR`` × rows; any other column pays one 1-d ``np.unique``,
    where each NaN gets its own trailing id, in row order. Columns combine
    by mixed radix; a partial domain that would overflow int64, or a final
    one above ``DENSE_FACTOR`` × rows, is compacted with ``np.unique``.
    """
    first = keys[0]
    n = first.num_rows if isinstance(first, Column) else len(first)
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    ids, domain = None, 1
    for key in keys:
        codes, radix = _key_codes(key, n)
        if ids is None:
            ids, domain = codes, radix
            continue
        if domain * radix >= _INT64_LIMIT:
            ids, domain = _compact(ids)
            if domain * radix >= _INT64_LIMIT:
                codes, radix = _compact(codes)
        ids = ids * radix + codes
        domain *= radix
    if domain > DENSE_FACTOR * n:
        ids, domain = _compact(ids)
    return ids, domain


class _Groups:
    """The groups of one batch, in id (= key) order."""

    def __init__(self, keys: Sequence):
        self.ids, self.domain = key_ids(keys)
        counts = np.bincount(self.ids, minlength=self.domain)
        self.slots = np.flatnonzero(counts)         # the ids that occur
        self.lengths = counts[self.slots]
        self._order = None

    def __len__(self) -> int:
        return len(self.slots)

    def total(self, values: np.ndarray) -> np.ndarray:
        """Per-group float64 sums, accumulated in row order."""
        sums = np.bincount(self.ids, weights=values, minlength=self.domain)
        return sums[self.slots]

    def reduce(self, ufunc, values: np.ndarray) -> np.ndarray:
        """``ufunc`` over each group's rows, in row order (one stable sort)."""
        if self._order is None:
            self._order = np.argsort(self.ids, kind="stable")
        starts = np.cumsum(self.lengths) - self.lengths
        return ufunc.reduceat(values[self._order], starts, axis=0)

    def first_rows(self) -> np.ndarray:
        """Each group's first row: its representative."""
        first = np.full(self.domain, len(self.ids), dtype=np.int64)
        np.minimum.at(first, self.ids, np.arange(len(self.ids)))
        return first[self.slots]

    def index(self) -> np.ndarray:
        """Each row's group position."""
        position = np.zeros(self.domain, dtype=np.int64)
        position[self.slots] = np.arange(len(self.slots))
        return position[self.ids]


# ----------------------------------------------------------------------
# Per-group reductions
# ----------------------------------------------------------------------
def _sum_dtype(data: np.ndarray) -> np.dtype:
    """SUM's result dtype: ``np.add.reduce``'s (bools and small ints widen
    to int64)."""
    return np.add.reduce(data[:0], axis=0).dtype


def _sum(groups: _Groups, data: np.ndarray) -> np.ndarray:
    """Per-group SUM in :func:`_sum_dtype`; integer sums stay exact."""
    dtype = _sum_dtype(data)
    if data.ndim == 1 and (dtype.kind == "f" or _float64_exact(data)):
        return groups.total(data).astype(dtype)
    return groups.reduce(np.add, data.astype(dtype, copy=False))


def _float64_exact(data: np.ndarray) -> bool:
    """Is every partial sum of these integers exact in float64?"""
    return max(-int(data.min()), int(data.max())) * len(data) < _FLOAT64_EXACT


def _extreme(func: str, groups: _Groups, data: np.ndarray) -> np.ndarray:
    return groups.reduce(np.minimum if func == "MIN" else np.maximum, data)


def _distinct_counts(groups: _Groups, values: np.ndarray) -> np.ndarray:
    """Distinct values per group. A group's NaNs count as one value, as the
    global path's ``np.unique`` counts them."""
    _, codes = np.unique(values, return_inverse=True)
    width = int(codes.max()) + 1
    pairs = np.unique(groups.index() * width + codes.reshape(-1))
    return np.bincount(pairs // width, minlength=len(groups))


def _distinct_codes(column: Column) -> np.ndarray:
    data = column.tensor.detach().data
    return data if data.ndim == 1 else data.reshape(data.shape[0], -1)[:, 0]


def _arg_data(spec: AggSpec, arg: Optional[Column]) -> np.ndarray:
    if arg is None:
        raise ExecutionError(f"{spec.func} requires an argument")
    if isinstance(arg.encoding, DictionaryEncoding):
        raise ExecutionError(f"{spec.func} over string columns is not supported")
    return arg.tensor.detach().data


def _grouped_values(spec: AggSpec, arg: Optional[Column],
                    groups: _Groups) -> np.ndarray:
    """One aggregate's result per group, in group order."""
    if spec.func == "COUNT":
        if spec.distinct:
            return _distinct_counts(groups, _distinct_codes(arg))
        return groups.lengths
    data = _arg_data(spec, arg)
    if spec.func == "SUM":
        return _sum(groups, data)
    if spec.func == "AVG":
        return (groups.total(data) / groups.lengths).astype(np.float32)
    return _extreme(spec.func, groups, data)


def _empty_values(spec: AggSpec, arg: Optional[Column]) -> np.ndarray:
    """The zero-group result column, in the dtype rows would have given."""
    if spec.func == "COUNT":
        return np.zeros(0, dtype=np.int64)
    if arg is None:
        raise ExecutionError(f"{spec.func} requires an argument")
    if spec.func == "AVG":
        return np.zeros(0, dtype=np.float32)
    data = arg.tensor.detach().data
    dtype = _sum_dtype(data) if spec.func == "SUM" else data.dtype
    return np.zeros(0, dtype=dtype)


def _group_output_column(column: Column, row_indices: np.ndarray, name: str) -> Column:
    """Representative key values per group, preserving the encoding."""
    if isinstance(column.encoding, ProbabilityEncoding):
        codes = column.encoding.hard_codes(column.tensor)[row_indices]
        values = column.encoding.domain[codes]
        return Column.from_values(name, values, device=column.device)
    return column.take(row_indices).rename(name)


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------
class _AggregateBase(Operator):
    def __init__(self, group_exprs: List[BoundExpr], group_names: List[str],
                 aggregates: List[AggSpec], lowering: ExprCompiler):
        super().__init__()
        self.group_exprs = group_exprs
        self.group_names = group_names
        self.aggregates = aggregates
        self._keys = [lowering.column(expr, name)
                      for expr, name in zip(group_exprs, group_names)]
        self._args = [None if spec.arg is None
                      else lowering.column(spec.arg, spec.name)
                      for spec in aggregates]
        self._register_expr_udfs(group_exprs + [s.arg for s in aggregates if s.arg is not None])

    def _evaluate_inputs(self, relation: Relation
                         ) -> Tuple[List[Column], List[Optional[Column]]]:
        ctx = ExpressionEvaluator(relation.table)
        keys = [key(ctx) for key in self._keys]
        agg_inputs = [None if arg is None else arg(ctx) for arg in self._args]
        return keys, agg_inputs


class GroupedAggregateExec(_AggregateBase):
    """Exact GROUP BY (and global) aggregation over :func:`key_ids`."""

    def forward(self, relation: Relation) -> Relation:
        if relation.weights is not None:
            raise ExecutionError(
                "exact aggregation cannot consume soft filter weights; compile the "
                "query with TRAINABLE to use soft operators"
            )
        keys, agg_inputs = self._evaluate_inputs(relation)
        n, device, table_name = (relation.num_rows, relation.device,
                                 relation.table.name)
        if not keys:
            columns = [_global_agg_column(spec, arg, n, device)
                       for spec, arg in zip(self.aggregates, agg_inputs)]
            return Relation(Table(table_name, columns))
        pairs = zip(self.aggregates, agg_inputs)
        if n == 0:
            rows, domain = np.zeros(0, dtype=np.int64), 0
            values = [_empty_values(spec, arg) for spec, arg in pairs]
        else:
            groups = _Groups(keys)
            rows, domain = groups.first_rows(), groups.domain
            values = [_grouped_values(spec, arg, groups) for spec, arg in pairs]
        annotate(groups=len(rows), domain=domain)
        columns = [_group_output_column(key, rows, name)
                   for key, name in zip(keys, self.group_names)]
        columns += [Column.from_values(spec.name, value, device=device)
                    for spec, value in zip(self.aggregates, values)]
        return Relation(Table(table_name, columns))

    def describe(self) -> str:
        return f"GroupedAggregate(groups={self.group_names})"


def _global_agg_column(spec: AggSpec, arg: Optional[Column], n: int, device) -> Column:
    if spec.func == "COUNT":
        if spec.arg is None:
            value = np.asarray([n], dtype=np.int64)
        elif spec.distinct:
            value = np.asarray([len(np.unique(_distinct_codes(arg)))], dtype=np.int64)
        else:
            value = np.asarray([n], dtype=np.int64)
        return Column.from_values(spec.name, value, device=device)
    if arg is None:
        raise ExecutionError(f"{spec.func} requires an argument")
    tensor = arg.tensor
    if n == 0:
        fill = 0.0 if spec.func in ("SUM", "AVG") else np.nan
        return Column.from_values(spec.name, np.asarray([fill], dtype=np.float32),
                                  device=device)
    if spec.func == "SUM":
        result = ops.sum(tensor).reshape(1)
    elif spec.func == "AVG":
        # SUM/COUNT formulation with a float64 accumulator, matching the
        # grouped AVG path.
        total = ops.sum(ops.astype(tensor, np.float64))
        result = ops.astype(ops.div(total, float(n)), np.float32).reshape(1)
    elif spec.func == "MIN":
        result = ops.min(tensor).reshape(1)
    else:  # MAX
        result = ops.max(tensor).reshape(1)
    if isinstance(arg.encoding, DictionaryEncoding):
        raise ExecutionError(f"{spec.func} over string columns is not supported")
    return Column(spec.name, EncodedTensor(result, PlainEncoding()))
