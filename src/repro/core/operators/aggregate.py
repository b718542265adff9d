"""Group-by aggregation: exact sort-based, exact hash-based, and dense-PE.

The sort-based implementation is the TQP-style tensor algorithm the paper
builds on [13]: lexsort the group keys, find segment boundaries, and reduce
each segment with ``reduceat``-backed tensor ops.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.core.expr_eval import ExpressionEvaluator
from repro.core.kernels.compiler import ExprCompiler
from repro.core.operators.base import Operator, Relation
from repro.sql.bound import AggSpec, BoundExpr
from repro.storage.column import Column, concat_encoded
from repro.storage.encodings import (
    DictionaryEncoding,
    EncodedTensor,
    PlainEncoding,
    ProbabilityEncoding,
)
from repro.storage.table import Table
from repro.tcr import ops


def _key_array(column: Column) -> np.ndarray:
    """Sortable 1-d array for a group key (dictionary codes sort like strings)."""
    if isinstance(column.encoding, ProbabilityEncoding):
        return column.encoding.hard_codes(column.tensor)
    data = column.tensor.detach().data
    if data.ndim != 1:
        raise ExecutionError("cannot group by a multi-dimensional column")
    if data.dtype.kind == "b":
        return data.astype(np.int8)
    return data


def _group_output_column(column: Column, row_indices: np.ndarray, name: str) -> Column:
    """Representative key values per group, preserving the encoding."""
    if isinstance(column.encoding, ProbabilityEncoding):
        codes = column.encoding.hard_codes(column.tensor)[row_indices]
        values = column.encoding.domain[codes]
        return Column.from_values(name, values, device=column.device)
    return column.take(row_indices).rename(name)


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

    def _global_aggregate(self, agg_inputs: List[Optional[Column]],
                          n: int, device, table_name: str) -> Relation:
        columns = []
        for spec, arg in zip(self.aggregates, agg_inputs):
            columns.append(_global_agg_column(spec, arg, n, device))
        return Relation(Table(table_name, columns))

    def _empty_group_result(self, keys: List[Column],
                            agg_inputs: List[Optional[Column]],
                            device, table_name: str) -> Relation:
        """Zero groups for zero input rows, with dtype-correct agg columns
        (shared by the sort and hash implementations)."""
        columns = [k.take(np.zeros(0, dtype=np.int64)) for k in keys]
        for spec, arg in zip(self.aggregates, agg_inputs):
            columns.append(Column.from_values(
                spec.name, np.zeros(0, dtype=_agg_output_dtype(spec, arg)),
                device=device))
        return Relation(Table(table_name, columns))


def _agg_output_dtype(spec: AggSpec, arg: Optional[Column]) -> np.dtype:
    """The dtype the non-empty aggregation paths would produce."""
    if spec.func == "COUNT":
        return np.dtype(np.int64)
    if spec.func == "AVG":
        return np.dtype(np.float32)
    if arg is None:
        raise ExecutionError(f"{spec.func} requires an argument")
    return arg.tensor.detach().data.dtype


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
        # grouped (reduceat) AVG path — and exactly what the partial-
        # aggregate merge computes, so sharded global AVG over integer
        # inputs stays bit-identical with serial execution.
        total = ops.sum(ops.astype(tensor, np.float64))
        result = ops.astype(ops.div(total, float(n)), np.float32).reshape(1)
    elif spec.func == "MIN":
        result = ops.min(tensor).reshape(1)
    else:  # MAX
        result = ops.max(tensor).reshape(1)
    if isinstance(arg.encoding, DictionaryEncoding):
        raise ExecutionError(f"{spec.func} over string columns is not supported")
    return Column(spec.name, EncodedTensor(result, PlainEncoding()))


def distinct_counts(group_ids: np.ndarray, values: np.ndarray,
                    num_groups: int,
                    starts: Optional[np.ndarray] = None) -> np.ndarray:
    """Distinct values per group, NaN-aware: all NaNs in a group count as
    ONE value, matching the global path's ``np.unique`` (which collapses
    NaNs). Shared by the sort- and hash-aggregate COUNT(DISTINCT) paths so
    the two implementations cannot drift."""
    if len(values) == 0:
        return np.zeros(num_groups, dtype=np.int64)
    order = np.lexsort((values, group_ids))
    g = group_ids[order]
    v = values[order]
    new_run = np.ones(len(v), dtype=np.int64)
    same_g = g[1:] == g[:-1]
    same_v = v[1:] == v[:-1]
    if v.dtype.kind == "f":
        # NaN != NaN would make every NULL its own "distinct" value; NaNs
        # sort to the end of each group, so run-collapsing them is exact.
        same_v = same_v | (np.isnan(v[1:]) & np.isnan(v[:-1]))
    new_run[1:] = ~(same_g & same_v)
    if starts is not None:
        # Sort-aggregate path: groups are contiguous segments over `order`.
        return np.add.reduceat(new_run, starts).astype(np.int64)
    return np.bincount(g, weights=new_run,
                       minlength=num_groups).astype(np.int64)


def _distinct_codes(column: Column) -> np.ndarray:
    data = column.tensor.detach().data
    return data if data.ndim == 1 else data.reshape(data.shape[0], -1)[:, 0]


# ----------------------------------------------------------------------
# Partial (per-shard) global aggregation — the algebraic-aggregate half of
# the sharded-scan subsystem. A spec is *exact-mergeable* when combining
# per-shard partials is bit-identical with aggregating the whole relation:
# COUNT always (integer addition), MIN/MAX always (order-insensitive exact
# comparisons, NaN propagates identically), SUM and AVG only over
# integer/bool inputs (integer partial sums are exact in int64/float64;
# float partial sums would reorder the rounding). Everything else takes the
# merge barrier and aggregates the stitched relation serially.
# ----------------------------------------------------------------------
_EMPTY_PARTIAL = ("empty",)


def spec_mergeable(spec: AggSpec) -> bool:
    """Can this aggregate be computed per shard and merged bit-identically?"""
    if spec.distinct:
        return False
    if spec.func == "COUNT":
        return True
    data_type = getattr(spec.arg, "data_type", None) if spec.arg is not None else None
    kind = getattr(data_type, "kind", None)
    if spec.func in ("MIN", "MAX"):
        return kind in ("int", "float", "bool")
    if spec.func in ("SUM", "AVG"):
        return kind in ("int", "bool")
    return False


def global_partial(spec: AggSpec, arg: Optional[Column], n: int) -> tuple:
    """One shard's partial state for a mergeable global aggregate."""
    if spec.func == "COUNT":
        return ("count", n)
    if arg is None:
        raise ExecutionError(f"{spec.func} requires an argument")
    if n == 0:
        return _EMPTY_PARTIAL
    data = arg.tensor.detach().data
    if spec.func == "SUM":
        return ("sum", np.sum(data))
    if spec.func == "AVG":
        return ("avg", np.sum(data.astype(np.float64)), n)
    if spec.func == "MIN":
        return ("min", np.min(data))
    return ("max", np.max(data))


def merge_global_partials(spec: AggSpec, partials: Sequence[tuple],
                          device) -> Column:
    """Combine shard partials into the single-row global aggregate column,
    reproducing ``_global_agg_column``'s dtypes and empty-input fills."""
    if spec.func == "COUNT":
        total = sum(int(p[1]) for p in partials)
        return Column.from_values(spec.name, np.asarray([total], dtype=np.int64),
                                  device=device)
    live = [p for p in partials if p is not _EMPTY_PARTIAL and p[0] != "empty"]
    if not live:
        fill = 0.0 if spec.func in ("SUM", "AVG") else np.nan
        return Column.from_values(spec.name,
                                  np.asarray([fill], dtype=np.float32),
                                  device=device)
    if spec.func == "AVG":
        total = np.sum(np.asarray([p[1] for p in live], dtype=np.float64))
        count = sum(int(p[2]) for p in live)
        value = np.asarray([total / float(count)], dtype=np.float64)
        return Column.from_values(spec.name, value.astype(np.float32),
                                  device=device)
    values = np.asarray([p[1] for p in live])
    if spec.func == "SUM":
        merged = np.sum(values)
    elif spec.func == "MIN":
        merged = np.min(values)
    else:  # MAX
        merged = np.max(values)
    return Column.from_values(spec.name, np.asarray([merged]), device=device)


# ----------------------------------------------------------------------
# Grouped (GROUP BY) partials — the sort-aggregate core run per shard, then
# once more over the per-shard representatives at the merge barrier. Exactness
# mirrors the global-partial policy above (`spec_mergeable`): COUNT partials
# add in int64, SUM/AVG partials only exist for integer/bool inputs (exact in
# int64/float64), MIN/MAX combine with the same NaN-propagating comparisons.
# Bit-identity of the *grouping* comes from shard-major concatenation: shards
# are contiguous row ranges, so concatenating each shard's representative
# keys in shard order reproduces the original relative row order, and the
# same stable lexsort + change-point pass then selects exactly the groups,
# group order and representative rows serial execution selects.
# ----------------------------------------------------------------------
class GroupedPartial:
    """One shard's grouped-aggregate state: representative key columns plus
    one partial-state vector (a tuple of aligned arrays) per aggregate spec,
    each with one entry per group found in the shard."""

    __slots__ = ("keys", "states", "groups")

    def __init__(self, keys: List[Column], states: List[tuple], groups: int):
        self.keys = keys
        self.states = states
        self.groups = groups


def _empty_grouped_state(spec: AggSpec, arg: Optional[Column]) -> tuple:
    if spec.func == "COUNT":
        return (np.zeros(0, dtype=np.int64),)
    if arg is None:
        raise ExecutionError(f"{spec.func} requires an argument")
    dtype = arg.tensor.detach().data.dtype
    if spec.func == "AVG":
        return (np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.int64))
    return (np.zeros(0, dtype=dtype),)


def _grouped_state(spec: AggSpec, arg: Optional[Column], order: np.ndarray,
                   starts: np.ndarray, lengths: np.ndarray) -> tuple:
    """Per-group partial vectors, computed exactly as the serial segment
    reductions compute them (same reduceat calls, same dtypes)."""
    if spec.func == "COUNT":
        return (lengths.astype(np.int64),)
    if arg is None:
        raise ExecutionError(f"{spec.func} requires an argument")
    if isinstance(arg.encoding, DictionaryEncoding):
        raise ExecutionError(f"{spec.func} over string columns is not supported")
    data = arg.tensor.detach().data[order]
    if spec.func == "SUM":
        return (np.add.reduceat(data, starts, axis=0),)
    if spec.func == "AVG":
        return (np.add.reduceat(data.astype(np.float64), starts, axis=0),
                lengths.astype(np.int64))
    if spec.func == "MIN":
        return (np.minimum.reduceat(data, starts, axis=0),)
    return (np.maximum.reduceat(data, starts, axis=0),)


def grouped_partial(specs: Sequence[AggSpec], keys: List[Column],
                    group_names: Sequence[str],
                    agg_inputs: List[Optional[Column]], n: int) -> GroupedPartial:
    """One shard's grouped partial state (requires every spec mergeable)."""
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        rep_cols = [_group_output_column(k, empty, name)
                    for k, name in zip(keys, group_names)]
        states = [_empty_grouped_state(spec, arg)
                  for spec, arg in zip(specs, agg_inputs)]
        return GroupedPartial(rep_cols, states, 0)
    key_arrays = [_key_array(k) for k in keys]
    order, _, starts, lengths, rep_rows = sort_group_segments(key_arrays, n)
    rep_cols = [_group_output_column(k, rep_rows, name)
                for k, name in zip(keys, group_names)]
    states = [_grouped_state(spec, arg, order, starts, lengths)
              for spec, arg in zip(specs, agg_inputs)]
    return GroupedPartial(rep_cols, states, len(starts))


def _concat_rep_columns(pieces: Sequence[Column]) -> Column:
    encoded = concat_encoded(pieces)
    if encoded is None:
        raise ExecutionError(
            f"cannot merge grouped partials of key {pieces[0].name!r}: "
            f"shards produced different encodings"
        )
    return Column(pieces[0].name, encoded)


def _combine_grouped_state(spec: AggSpec, arrays: tuple, order: np.ndarray,
                           starts: np.ndarray) -> np.ndarray:
    """Reduce concatenated per-shard partial vectors segment-wise."""
    if spec.func == "COUNT":
        return np.add.reduceat(arrays[0][order], starts).astype(np.int64)
    if spec.func == "SUM":
        return np.add.reduceat(arrays[0][order], starts, axis=0)
    if spec.func == "AVG":
        # float64 partial sums / int64 partial counts: the same
        # sums-over-lengths division (and final float32 narrowing) the
        # serial segment AVG performs.
        sums = np.add.reduceat(arrays[0][order], starts, axis=0)
        counts = np.add.reduceat(arrays[1][order], starts)
        return (sums / counts).astype(np.float32)
    if spec.func == "MIN":
        return np.minimum.reduceat(arrays[0][order], starts, axis=0)
    return np.maximum.reduceat(arrays[0][order], starts, axis=0)


def _merged_empty_state(spec: AggSpec, arrays: tuple) -> np.ndarray:
    if spec.func == "AVG":
        return np.zeros(0, dtype=np.float32)
    return arrays[0]


def merge_grouped_partials(agg, partials: Sequence[GroupedPartial],
                           device, table_name: str) -> Relation:
    """Combine shard grouped-partials into the final GROUP BY relation,
    bit-identical with ``SortAggregateExec`` over the unsharded input."""
    specs = agg.aggregates
    names = agg.group_names
    key_cols = [
        _concat_rep_columns([p.keys[i] for p in partials])
        for i in range(len(names))
    ]
    state_arrays = [
        tuple(np.concatenate([p.states[i][j] for p in partials])
              for j in range(len(partials[0].states[i])))
        for i in range(len(specs))
    ]
    total = sum(p.groups for p in partials)
    if total == 0:
        columns = list(key_cols)
        for spec, arrays in zip(specs, state_arrays):
            columns.append(Column.from_values(
                spec.name, _merged_empty_state(spec, arrays), device=device))
        return Relation(Table(table_name, columns))
    key_arrays = [_key_array(c) for c in key_cols]
    order, _, starts, _, rep_rows = sort_group_segments(key_arrays, total)
    columns = [_group_output_column(c, rep_rows, name)
               for c, name in zip(key_cols, names)]
    for spec, arrays in zip(specs, state_arrays):
        columns.append(Column.from_values(
            spec.name, _combine_grouped_state(spec, arrays, order, starts),
            device=device))
    return Relation(Table(table_name, columns))


def sort_group_segments(key_arrays: List[np.ndarray], n: int) -> tuple:
    """Stable lexsort + segment-boundary detection: the sort-aggregate core.

    Returns ``(order, sorted_keys, starts, lengths, rep_rows)``. Shared by
    the serial sort aggregate, the per-shard grouped partials and the
    grouped-partial merge, so the three paths cannot drift (NaN keys each
    form their own group under the ``!=`` change-point rule; the stable sort
    keeps them — and every group's representative row — in input order).
    """
    order = np.lexsort(tuple(reversed(key_arrays)))
    sorted_keys = [arr[order] for arr in key_arrays]
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for arr in sorted_keys:
        change[1:] |= arr[1:] != arr[:-1]
    starts = np.flatnonzero(change)
    lengths = np.diff(np.append(starts, n))
    rep_rows = order[starts]
    return order, sorted_keys, starts, lengths, rep_rows


class SortAggregateExec(_AggregateBase):
    """Sort → segment boundaries → reduceat (works for any key cardinality)."""

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
            return self._global_aggregate(agg_inputs, n, device, table_name)
        if n == 0:
            return self._empty_group_result(keys, agg_inputs, device, table_name)

        key_arrays = [_key_array(k) for k in keys]
        order, sorted_keys, starts, lengths, rep_rows = \
            sort_group_segments(key_arrays, n)

        columns = [
            _group_output_column(k, rep_rows, name)
            for k, name in zip(keys, self.group_names)
        ]
        for spec, arg in zip(self.aggregates, agg_inputs):
            columns.append(_segment_agg_column(spec, arg, order, starts, lengths,
                                               sorted_keys, device))
        return Relation(Table(table_name, columns))

    def describe(self) -> str:
        return f"SortAggregate(groups={self.group_names})"


def _segment_agg_column(spec: AggSpec, arg: Optional[Column], order: np.ndarray,
                        starts: np.ndarray, lengths: np.ndarray,
                        sorted_keys: List[np.ndarray], device) -> Column:
    if spec.func == "COUNT" and spec.arg is None:
        return Column.from_values(spec.name, lengths.astype(np.int64), device=device)
    if arg is None:
        raise ExecutionError(f"{spec.func} requires an argument")
    data = arg.tensor.detach().data[order]
    if spec.func == "COUNT":
        if spec.distinct:
            # Sort values within segments and count distinct runs per segment.
            seg_ids = np.repeat(np.arange(len(starts)), lengths)
            counts = distinct_counts(seg_ids, data, len(starts),
                                     starts=starts)
            return Column.from_values(spec.name, counts, device=device)
        return Column.from_values(spec.name, lengths.astype(np.int64), device=device)
    if isinstance(arg.encoding, DictionaryEncoding):
        raise ExecutionError(f"{spec.func} over string columns is not supported")
    if spec.func == "SUM":
        result = np.add.reduceat(data, starts, axis=0)
    elif spec.func == "AVG":
        result = np.add.reduceat(data.astype(np.float64), starts, axis=0) / lengths
        result = result.astype(np.float32)
    elif spec.func == "MIN":
        result = np.minimum.reduceat(data, starts, axis=0)
    else:  # MAX
        result = np.maximum.reduceat(data, starts, axis=0)
    return Column.from_values(spec.name, result, device=device)


class HashAggregateExec(_AggregateBase):
    """Factorise keys with np.unique(axis=0), accumulate with bincount/add.at."""

    def forward(self, relation: Relation) -> Relation:
        if relation.weights is not None:
            raise ExecutionError(
                "exact aggregation cannot consume soft filter weights; compile the "
                "query with TRAINABLE to use soft operators"
            )
        keys, agg_inputs = self._evaluate_inputs(relation)
        if not keys:
            return self._global_aggregate(agg_inputs, relation.num_rows,
                                          relation.device, relation.table.name)
        n = relation.num_rows
        if n == 0:
            return self._empty_group_result(keys, agg_inputs, relation.device,
                                            relation.table.name)

        # Factorise each key column on its own dtype, then combine the int64
        # codes: stacking mixed int/float keys directly would promote int64
        # to float64 and collapse distinct keys above 2^53.
        key_arrays = [_key_array(k) for k in keys]
        if len(key_arrays) == 1:
            uniques, first_pos, inverse = np.unique(
                key_arrays[0], return_index=True, return_inverse=True)
            inverse = inverse.reshape(-1)
        else:
            code_cols = []
            for arr in key_arrays:
                _, codes = np.unique(arr, return_inverse=True)
                code_cols.append(codes.reshape(-1).astype(np.int64))
            uniques, inverse, first_pos = _factorize_rows(np.stack(code_cols, axis=1))
        num_groups = uniques.shape[0]

        columns = [
            _group_output_column(k, first_pos, name)
            for k, name in zip(keys, self.group_names)
        ]
        for spec, arg in zip(self.aggregates, agg_inputs):
            columns.append(_hash_agg_column(spec, arg, inverse, num_groups, relation.device))
        return Relation(Table(relation.table.name, columns))

    def describe(self) -> str:
        return f"HashAggregate(groups={self.group_names})"


def _factorize_rows(stacked: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique rows + inverse codes + first occurrence row of each unique."""
    uniques, index, inverse = np.unique(stacked, axis=0, return_index=True,
                                        return_inverse=True)
    return uniques, inverse.reshape(-1), index


def _hash_agg_column(spec: AggSpec, arg: Optional[Column], inverse: np.ndarray,
                     num_groups: int, device) -> Column:
    if spec.func == "COUNT" and spec.arg is None:
        counts = np.bincount(inverse, minlength=num_groups)
        return Column.from_values(spec.name, counts.astype(np.int64), device=device)
    if arg is None:
        raise ExecutionError(f"{spec.func} requires an argument")
    data = arg.tensor.detach().data
    if spec.func == "COUNT":
        if spec.distinct:
            counts = distinct_counts(inverse.astype(np.int64),
                                     data.astype(np.float64), num_groups)
            return Column.from_values(spec.name, counts, device=device)
        counts = np.bincount(inverse, minlength=num_groups)
        return Column.from_values(spec.name, counts.astype(np.int64), device=device)
    if spec.func == "SUM":
        result = np.zeros(num_groups, dtype=np.float64)
        np.add.at(result, inverse, data.astype(np.float64))
        result = result.astype(data.dtype if data.dtype.kind == "i" else np.float32)
    elif spec.func == "AVG":
        sums = np.zeros(num_groups, dtype=np.float64)
        np.add.at(sums, inverse, data.astype(np.float64))
        counts = np.bincount(inverse, minlength=num_groups)
        result = (sums / np.maximum(counts, 1)).astype(np.float32)
    elif spec.func == "MIN":
        result = np.full(num_groups, np.inf)
        np.minimum.at(result, inverse, data.astype(np.float64))
        result = result.astype(data.dtype if data.dtype.kind == "i" else np.float32)
    else:  # MAX
        result = np.full(num_groups, -np.inf)
        np.maximum.at(result, inverse, data.astype(np.float64))
        result = result.astype(data.dtype if data.dtype.kind == "i" else np.float32)
    return Column.from_values(spec.name, result, device=device)
