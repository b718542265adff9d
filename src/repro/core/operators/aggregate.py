"""Exact aggregation over dense key ids.

Group identity comes from :func:`key_ids`, which reads the integer codes the
key columns already carry (sorted-dictionary codes, bools, small integer
ranges) and pays one 1-d ``np.unique`` only for a column that carries none —
TQP's data representation, where operators run on small integers. COUNT,
SUM and AVG are then ``np.bincount`` over the ids (one per distinct input:
``SUM(x)`` and ``AVG(x)`` share it); MIN/MAX, and integer SUMs float64
could round, reduce segments of one stable sort of the id vector.

A GROUP BY whose input arrives under a selection (a filter stage below it,
``Relation.selection``) folds the selection into its ids instead of
gathering the kept rows: keys and inputs are evaluated over the whole
table, every dropped row takes one trash id past the key domain, and that
group is cut from every result. It applies when the selection keeps at
least ``FOLD_MIN_KEPT`` of the rows and every key and input is element-wise
arithmetic over stored columns (:func:`_foldable`); otherwise the rows are
gathered as ``relation.table``. Kept rows give the same bits either way:
evaluation is element-wise and ``np.bincount`` accumulates in row order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.core.expr_eval import ExpressionEvaluator, _structural_key
from repro.core.kernels.compiler import NUMPY, ExprCompiler
from repro.core.operators.base import Operator, Relation
from repro.core.telemetry import annotate
from repro.sql import bound as b
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
# A GROUP BY folds a selection that keeps at least this share of its input's
# rows. Folding evaluates keys and inputs over every row and bins the
# dropped ones into the trash id; gathering copies each column it reads for
# the kept rows, then evaluates those. Measured on TPC-H Q1 (400k rows, six
# columns read, float32, one thread), gather/fold time, paired in one
# process: 0.18 at 5% of rows kept, 0.36 at 25%, 0.59 at 50%, 0.80-0.82 at
# 70%, 0.87-0.93 at 75%, 1.10-1.16 at 78%, 1.14-1.23 at 80%, 1.36 at 90%
# and 1.47-1.51 at 98.7%. Folding wins only from about 78% on.
FOLD_MIN_KEPT = 0.8


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
        raise ExecutionError("cannot GROUP BY or DISTINCT a multi-dimensional column")
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
    """The groups of one batch, in id (= key) order.

    With ``selection`` (row indices), every other row takes the trash id
    ``domain``: it is binned like any id, and no result reports it.
    """

    def __init__(self, keys: Sequence, selection: Optional[np.ndarray] = None):
        self.ids, self.domain = key_ids(keys)
        if selection is not None:
            dropped = np.ones(len(self.ids), dtype=bool)
            dropped[selection] = False
            # A new array: ``key_ids`` may return a stored column's codes.
            self.ids = np.where(dropped, self.domain, self.ids)
        counts = np.bincount(self.ids, minlength=self.domain)
        self.slots = np.flatnonzero(counts[:self.domain])   # the ids that occur
        self.lengths = counts[self.slots]
        self._order = None
        self._totals = {}

    def __len__(self) -> int:
        return len(self.slots)

    def total(self, values: np.ndarray, key=None) -> np.ndarray:
        """Per-group float64 sums, accumulated in row order. Calls with one
        ``key`` (the input's structural key; None: not shared) share one
        bincount."""
        sums = self._totals.get(key) if key is not None else None
        if sums is None:
            sums = np.bincount(self.ids, weights=values, minlength=self.domain)
            sums = sums[self.slots]
            if key is not None:
                self._totals[key] = sums
        return sums

    def reduce(self, ufunc, values: np.ndarray) -> np.ndarray:
        """``ufunc`` over each group's rows, in row order (one stable sort;
        the trash rows sort last and are cut)."""
        if self._order is None:
            order = np.argsort(self.ids, kind="stable")
            self._order = order[:int(self.lengths.sum())]
        starts = np.cumsum(self.lengths) - self.lengths
        return ufunc.reduceat(values[self._order], starts, axis=0)

    def first_rows(self) -> np.ndarray:
        """Each group's first row: its representative."""
        first = np.full(self.domain + 1, len(self.ids), dtype=np.int64)
        np.minimum.at(first, self.ids, np.arange(len(self.ids)))
        return first[self.slots]

    def index(self) -> np.ndarray:
        """Each row's group position (trash rows: ``len(self)``)."""
        position = np.full(self.domain + 1, len(self.slots), dtype=np.int64)
        position[self.slots] = np.arange(len(self.slots))
        return position[self.ids]


# ----------------------------------------------------------------------
# Per-group reductions
# ----------------------------------------------------------------------
def _sum_dtype(data: np.ndarray) -> np.dtype:
    """SUM's result dtype: ``np.add.reduce``'s (bools and small ints widen
    to int64)."""
    return np.add.reduce(data[:0], axis=0).dtype


def _sum(groups: _Groups, data: np.ndarray, key) -> np.ndarray:
    """Per-group SUM in :func:`_sum_dtype`; integer sums stay exact."""
    dtype = _sum_dtype(data)
    if data.ndim == 1 and (dtype.kind == "f" or _float64_exact(data)):
        return groups.total(data, key).astype(dtype)
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
    return np.bincount(pairs // width, minlength=len(groups) + 1)[:len(groups)]


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
                    groups: _Groups, key) -> np.ndarray:
    """One aggregate's result per group, in group order (``key``: the
    input's structural key, which shares sums between SUM and AVG)."""
    if spec.func == "COUNT":
        if spec.distinct:
            return _distinct_counts(groups, _distinct_codes(arg))
        return groups.lengths
    data = _arg_data(spec, arg)
    if spec.func == "SUM":
        return _sum(groups, data, key)
    if spec.func == "AVG":
        return (groups.total(data, key) / groups.lengths).astype(np.float32)
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
def _foldable(expr: BoundExpr) -> bool:
    """Can ``expr`` be evaluated over rows a WHERE dropped? Stored columns,
    literals and ``+ - *`` or negation over them: element-wise, and they
    neither raise nor call user code (no UDF, CAST, division or function)."""
    kind = type(expr)
    if kind is b.BBinary:
        return expr.op in ("+", "-", "*") and _foldable(expr.left) \
            and _foldable(expr.right)
    if kind is b.BUnary:
        return expr.op == "-" and _foldable(expr.operand)
    return kind in (b.BColumn, b.BLiteral)


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

    def _evaluate_inputs(self, table: Table
                         ) -> Tuple[List[Column], List[Optional[Column]]]:
        ctx = ExpressionEvaluator(table)
        keys = [key(ctx) for key in self._keys]
        agg_inputs = [None if arg is None else arg(ctx) for arg in self._args]
        return keys, agg_inputs


class GroupedAggregateExec(_AggregateBase):
    """Exact GROUP BY (and global) aggregation over :func:`key_ids`."""

    def __init__(self, group_exprs: List[BoundExpr], group_names: List[str],
                 aggregates: List[AggSpec], lowering: ExprCompiler):
        super().__init__(group_exprs, group_names, aggregates, lowering)
        self._totals = [None if spec.arg is None else _structural_key(spec.arg)
                        for spec in aggregates]
        inputs = group_exprs + [s.arg for s in aggregates if s.arg is not None]
        # Why a selection below this GROUP BY cannot be folded (None: it can
        # be, when it keeps enough rows).
        self._no_fold = ("namespace" if lowering.xp is not NUMPY
                         else None if all(map(_foldable, inputs))
                         else "expression")

    def _fold(self, relation: Relation) -> bool:
        """Fold ``relation``'s selection into the group ids? Annotates the
        choice (``access=fold|gather``) and why it gathers."""
        if relation.selection is None:
            return False            # nothing selected: the input is whole
        why = self._no_fold
        if why is None and relation.num_rows < FOLD_MIN_KEPT * relation.base.num_rows:
            why = "selectivity"
        if why is None:
            annotate(access="fold")
        else:
            annotate(access="gather", why=why)
        return why is None

    def forward(self, relation: Relation) -> Relation:
        n, device = relation.num_rows, relation.device
        if self._keys and self._fold(relation):
            # Dropped rows are evaluated too: they must neither raise nor warn.
            selection, table = relation.selection, relation.base
            with np.errstate(all="ignore"):
                keys, agg_inputs = self._evaluate_inputs(table)
        else:
            selection, table = None, relation.table
            keys, agg_inputs = self._evaluate_inputs(table)
        if not keys:
            columns = [_global_agg_column(spec, arg, n, device)
                       for spec, arg in zip(self.aggregates, agg_inputs)]
            return Relation(Table(table.name, columns))
        pairs = zip(self.aggregates, agg_inputs, self._totals)
        if n == 0:
            rows, domain = np.zeros(0, dtype=np.int64), 0
            values = [_empty_values(spec, arg) for spec, arg, _ in pairs]
        else:
            groups = _Groups(keys, selection)
            rows, domain = groups.first_rows(), groups.domain
            values = [_grouped_values(spec, arg, groups, key)
                      for spec, arg, key in pairs]
        annotate(groups=len(rows), domain=domain)
        columns = [_group_output_column(key, rows, name)
                   for key, name in zip(keys, self.group_names)]
        columns += [Column.from_values(spec.name, value, device=device)
                    for spec, value in zip(self.aggregates, values)]
        return Relation(Table(table.name, columns))

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
