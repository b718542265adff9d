"""Exchange operators: hash/range repartitioning between pipeline stages.

PR 5's sharded scans split the *base table* into contiguous row ranges;
everything downstream of the merge barrier stayed serial. This module adds
the second half of the TQP-style story ("Query Processing on Tensor
Computation Runtimes" names an engine-neutral Exchange operator as the step
that carries a single-node tensor engine toward partitioned execution): row
redistribution *between* stages, keyed on data values rather than storage
position.

The determinism contract (docs/EXCHANGE.md) extends the stitch contract of
:mod:`repro.core.partition`:

* **Stable partition function.** Rows are routed by a pure function of
  their *factorised* key codes — both join sides (or all group rows) are
  factorised jointly with ``np.unique``, which collapses NaNs to one code
  and treats ``-0.0 == 0.0``, so every pair of rows that the serial
  operator would treat as key-equal lands in the same partition, in
  original relative row order (the split is a stable argsort).

* **Deterministic assembly.** Each partition's result is exactly the rows
  the serial operator would have produced for that key subset, computed by
  the *same* kernels over rows in the same relative order; the driver then
  restores the serial global order (stable argsort on preserved-side row
  indices for joins, stable key lexsort for grouped aggregates) — so the
  assembled output is bitwise identical with serial execution, which the
  differential harness enforces.

Task bodies are module-level functions over plain numpy arrays wherever
possible (``_partition_join_task``) so a future process-pool backend can
pickle them; grouped-aggregate tasks still close over ``Column``/operator
objects and pin execution to threads — the boundary is documented in
docs/EXCHANGE.md.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.core.operators.aggregate import SortAggregateExec, _key_array
from repro.core.operators.base import Operator, Relation
from repro.core.operators.join import JoinExec, equi_join_indices
from repro.core.partition import default_shards, run_sharded
from repro.core.telemetry import annotate, span
from repro.storage.column import Column, concat_encoded
from repro.storage.encodings import ProbabilityEncoding
from repro.storage.table import Table

# Fibonacci multiplicative mixing constant (2^64 / golden ratio): decorrelates
# the dense factorised codes from the modulus so partition loads stay even.
_MIX = np.uint64(0x9E3779B97F4A7C15)


# ----------------------------------------------------------------------
# Partition functions (module-level, pure: the picklable core)
# ----------------------------------------------------------------------
def hash_partition_ids(codes: np.ndarray, partitions: int) -> np.ndarray:
    """Partition id per row from factorised key codes.

    A pure function of the code value: rows with equal keys (same code by
    construction of the joint factorisation) always land in the same
    partition — the exchange determinism precondition.
    """
    h = codes.astype(np.uint64, copy=True)
    h *= _MIX
    h ^= h >> np.uint64(33)
    return (h % np.uint64(max(int(partitions), 1))).astype(np.int64)


def partition_indices(part_ids: np.ndarray, partitions: int
                      ) -> List[np.ndarray]:
    """Row-index arrays per partition, each in ascending row order.

    The stable argsort preserves original relative row order inside every
    partition, which is what lets per-partition kernels reproduce serial
    execution's row visit order exactly.
    """
    order = np.argsort(part_ids, kind="stable")
    sorted_ids = part_ids[order]
    edges = np.arange(partitions, dtype=part_ids.dtype)
    starts = np.searchsorted(sorted_ids, edges, side="left")
    stops = np.searchsorted(sorted_ids, edges, side="right")
    return [order[s:e] for s, e in zip(starts, stops)]


class HashPartitioner:
    """Hash-repartitioning: route rows by mixed factorised key codes."""

    def __init__(self, partitions: int):
        self.partitions = max(int(partitions), 1)

    def partition(self, codes: np.ndarray) -> List[np.ndarray]:
        return partition_indices(hash_partition_ids(codes, self.partitions),
                                 self.partitions)


class RangePartitioner:
    """Range-repartitioning: route rows by ordered boundary search.

    Used for order-sensitive redistribution (sorted merges, partitioned
    top-k); built from quantile boundaries over a value sample so partition
    loads stay even under skew. NaNs order after every boundary and land in
    the last partition together.
    """

    def __init__(self, boundaries: np.ndarray):
        self.boundaries = np.asarray(boundaries)
        self.partitions = len(self.boundaries) + 1

    @classmethod
    def from_values(cls, values: np.ndarray, partitions: int
                    ) -> "RangePartitioner":
        partitions = max(int(partitions), 1)
        if partitions == 1 or len(values) == 0:
            return cls(np.zeros(0, dtype=np.asarray(values).dtype))
        finite = values[~np.isnan(values)] if values.dtype.kind == "f" else values
        if len(finite) == 0:
            return cls(np.zeros(0, dtype=values.dtype))
        quantiles = np.arange(1, partitions) / partitions
        return cls(np.quantile(finite, quantiles))

    def partition(self, values: np.ndarray) -> List[np.ndarray]:
        ids = np.searchsorted(self.boundaries, values, side="right")
        return partition_indices(ids.astype(np.int64), self.partitions)


def factorize_key_rows(key_arrays: List[np.ndarray]) -> np.ndarray:
    """Dense row code per multi-column key tuple.

    ``np.unique`` gives all NaNs one code and ``-0.0``/``0.0`` one code —
    both required: the serial sort aggregate colocates those rows (NaN
    groups must stay in input order relative to each other, and signed
    zeros form a single group), so the exchange must too.
    """
    if len(key_arrays) == 1:
        _, inverse = np.unique(key_arrays[0], return_inverse=True)
        return inverse.reshape(-1)
    code_cols = []
    for arr in key_arrays:
        _, codes = np.unique(arr, return_inverse=True)
        code_cols.append(codes.reshape(-1).astype(np.int64))
    _, inverse = np.unique(np.stack(code_cols, axis=1), axis=0,
                           return_inverse=True)
    return inverse.reshape(-1)


def _partition_join_task(probe_codes: np.ndarray, build_codes: np.ndarray,
                         probe_idx: np.ndarray, build_idx: np.ndarray,
                         keep_unmatched: bool):
    """Join one hash partition: pure function of numpy inputs (picklable).

    Returns global ``(probe, build)`` row-index pairs. Local indices map to
    global ones through the partition's row-index arrays; ``-1`` (unmatched
    probe row under LEFT/RIGHT semantics) passes through.
    """
    p_local, b_local = equi_join_indices(probe_codes, build_codes,
                                         keep_unmatched_left=keep_unmatched)
    matched = b_local >= 0
    probe_global = probe_idx[p_local]
    build_global = np.where(matched, build_idx[np.where(matched, b_local, 0)],
                            -1)
    return probe_global, build_global


# ----------------------------------------------------------------------
# Partitioned hash join
# ----------------------------------------------------------------------
class PartitionedJoinExec(JoinExec):
    """Hash-exchange both sides on the join keys, join each partition on the
    pool, and reassemble the serial output order.

    Bit-identity argument: the joint factorisation makes key codes
    comparable across sides, the hash routes equal codes to one partition,
    and the stable split keeps each side's rows in ascending row order —
    so every partition's sorted-lookup join produces, per preserved-side
    row, exactly the match list serial execution produces (stable argsort
    of build codes orders equal-key matches by ascending row index in both).
    Each preserved-side row lives in exactly one partition, so the stable
    argsort on preserved-side indices restores exactly the serial pair
    sequence; residual filtering and the gather then run the serial code on
    identical inputs.
    """

    def __init__(self, inner: JoinExec, pool, shards: int, min_rows: int,
                 metrics=None):
        super().__init__(inner.kind, inner.left_keys, inner.right_keys,
                         inner.residual, inner.left_names, inner.right_names,
                         inner.lowering)
        self.pool = pool
        self.shards = int(shards)
        self.min_rows = int(min_rows)
        self.metrics = metrics

    def forward(self, left_rel: Relation, right_rel: Relation = None) -> Relation:
        if right_rel is None:
            raise ExecutionError("JoinExec.forward needs two input relations")
        partitions = self.shards if self.shards > 0 else default_shards()
        left_rows = left_rel.table.num_rows
        right_rows = right_rel.table.num_rows
        if (left_rel.weights is not None or right_rel.weights is not None
                or self.kind == "CROSS" or not self.left_keys
                or partitions <= 1 or left_rows == 0 or right_rows == 0
                or left_rows + right_rows < max(self.min_rows, 2)):
            annotate(path="serial")
            return super().forward(left_rel, right_rel)
        left, right = left_rel.table, right_rel.table
        combined_left, combined_right = self._evaluate_key_codes(left, right)
        li, ri = self._partitioned_indices(combined_left, combined_right,
                                           partitions)
        if self.residual is not None:
            li, ri = self._apply_residual(left, right, li, ri)
        return Relation(self._gather(left, right, li, ri))

    def _partitioned_indices(self, combined_left: np.ndarray,
                             combined_right: np.ndarray, partitions: int):
        partitioner = HashPartitioner(partitions)
        l_parts = partitioner.partition(combined_left)
        r_parts = partitioner.partition(combined_right)
        # The preserved (probe) side drives output order: left for
        # INNER/LEFT, right for RIGHT (mirroring the serial dispatch).
        if self.kind == "RIGHT":
            probe_codes, build_codes = combined_right, combined_left
            probe_parts, build_parts = r_parts, l_parts
        else:
            probe_codes, build_codes = combined_left, combined_right
            probe_parts, build_parts = l_parts, r_parts
        keep = self.kind in ("LEFT", "RIGHT")
        live = [i for i in range(partitions) if len(probe_parts[i])]
        rows_moved = len(combined_left) + len(combined_right)
        part_rows = [len(probe_parts[i]) + len(build_parts[i])
                     for i in range(partitions)]
        self._record_exchange(partitions, rows_moved, part_rows)

        def make_task(i):
            p_idx, b_idx = probe_parts[i], build_parts[i]
            pc, bc = probe_codes[p_idx], build_codes[b_idx]

            def task():
                with span("partition", index=i, rows=len(p_idx) + len(b_idx)):
                    return _partition_join_task(pc, bc, p_idx, b_idx, keep)
            return task

        with span("exchange_barrier", partitions=len(live)):
            results = run_sharded(self.pool, [make_task(i) for i in live])
        if results:
            probe_g = np.concatenate([r[0] for r in results])
            build_g = np.concatenate([r[1] for r in results])
        else:
            probe_g = np.zeros(0, dtype=np.int64)
            build_g = np.zeros(0, dtype=np.int64)
        order = np.argsort(probe_g, kind="stable")
        probe_g, build_g = probe_g[order], build_g[order]
        if self.kind == "RIGHT":
            return build_g, probe_g
        return probe_g, build_g

    def _record_exchange(self, partitions: int, rows_moved: int,
                         part_rows: List[int]) -> None:
        mean = rows_moved / partitions if partitions else 0.0
        skew = (max(part_rows) / mean) if mean > 0 else 1.0
        annotate(partitions=partitions, rows_moved=rows_moved,
                 skew=round(float(skew), 3))
        if self.metrics is not None:
            self.metrics.counter("exchange.partitions").inc(partitions)
            self.metrics.counter("exchange.rows_moved").inc(rows_moved)
            self.metrics.gauge("exchange.skew").set(float(skew))

    def describe(self) -> str:
        return f"PartitionedJoin({self.kind}, partitions={self.shards})"


# ----------------------------------------------------------------------
# Repartitioned GROUP BY
# ----------------------------------------------------------------------
class ExchangeGroupedAggregateExec(Operator):
    """Hash-exchange rows on the group keys, aggregate each partition with
    the serial sort-aggregate core, and reassemble the serial group order.

    Unlike PR 8's :class:`ShardedGroupedAggregateExec` (partial states +
    merge, restricted to exact-mergeable specs), the exchange sends *all*
    rows of a group to one partition — no per-group reduction is reordered
    or split, so even float SUM/AVG and COUNT(DISTINCT) run partitioned
    bit-identically: each group's ``reduceat`` sees the same rows in the
    same order serial execution feeds it.

    Assembly: per-partition results concatenate (partition-major), then a
    stable lexsort of the merged key arrays restores the serial group
    order. Lexsort ties can only involve groups whose keys are equal or
    all-NaN per column — such rows share a factorised code, hence a
    partition, where the per-partition sort already ordered them by
    original row order (exactly the serial tie-break).
    """

    def __init__(self, agg: SortAggregateExec, pool, shards: int,
                 min_rows: int, metrics=None):
        super().__init__()
        self.agg = agg                      # the serial aggregate operator
        self.pool = pool
        self.shards = int(shards)
        self.min_rows = int(min_rows)
        self.metrics = metrics
        self.register_module("agg_op", agg)

    def forward(self, relation: Relation) -> Relation:
        agg = self.agg
        n = relation.num_rows
        partitions = self.shards if self.shards > 0 else default_shards()
        if (relation.weights is not None or partitions <= 1
                or n < max(self.min_rows, 2)):
            annotate(path="serial")
            return agg(relation)
        # Keys and aggregate arguments evaluate serially over the full
        # relation (identical UDF micro-batching to serial execution); only
        # the pure-numpy grouping work is redistributed.
        keys, agg_inputs = agg._evaluate_inputs(relation)
        device, table_name = relation.device, relation.table.name
        if not keys or any(isinstance(k.encoding, ProbabilityEncoding)
                           for k in keys):
            # Probability-encoded keys re-materialise fresh per-partition
            # domains the merge could not re-assemble bit-identically.
            annotate(path="serial")
            return agg.aggregate_evaluated(keys, agg_inputs, n, device,
                                           table_name)
        codes = factorize_key_rows([_key_array(k) for k in keys])
        parts = [idx for idx in HashPartitioner(partitions).partition(codes)
                 if len(idx)]
        if len(parts) <= 1:
            annotate(path="serial")
            return agg.aggregate_evaluated(keys, agg_inputs, n, device,
                                           table_name)
        self._record_exchange(partitions, n, [len(idx) for idx in parts])

        def make_task(i, idx):
            local_keys = [k.take(idx) for k in keys]
            local_inputs = [a.take(idx) if a is not None else None
                            for a in agg_inputs]
            rows = len(idx)

            def task():
                with span("partition", index=i, rows=rows):
                    return agg.aggregate_evaluated(local_keys, local_inputs,
                                                   rows, device, table_name)
            return task

        with span("exchange_barrier", partitions=len(parts)):
            results = run_sharded(
                self.pool, [make_task(i, idx) for i, idx in enumerate(parts)])
        with span("stitch", partitions=len(results)):
            merged = _merge_partition_groups([r.table for r in results],
                                             len(keys))
        return Relation(merged)

    def _record_exchange(self, partitions: int, rows_moved: int,
                         part_rows: List[int]) -> None:
        mean = rows_moved / partitions if partitions else 0.0
        skew = (max(part_rows) / mean) if mean > 0 else 1.0
        annotate(partitions=partitions, rows_moved=rows_moved,
                 skew=round(float(skew), 3))
        if self.metrics is not None:
            self.metrics.counter("exchange.partitions").inc(partitions)
            self.metrics.counter("exchange.rows_moved").inc(rows_moved)
            self.metrics.gauge("exchange.skew").set(float(skew))

    def describe(self) -> str:
        return (f"ExchangeGroupedAggregate(partitions={self.shards}): "
                f"{self.agg.describe()}")


def _merge_partition_groups(tables: List[Table], num_keys: int) -> Table:
    """Concatenate per-partition group results and restore serial group order."""
    first = tables[0]
    columns = []
    for i in range(first.num_columns):
        pieces = [t.columns[i] for t in tables]
        encoded = concat_encoded(pieces)
        if encoded is None:
            raise ExecutionError(
                f"cannot assemble exchange outputs of column "
                f"{pieces[0].name!r}: partitions produced different encodings")
        columns.append(Column(pieces[0].name, encoded))
    key_arrays = [_key_array(c) for c in columns[:num_keys]]
    order = np.lexsort(tuple(reversed(key_arrays)))
    return Table(first.name, [c.take(order).rename(c.name) for c in columns])


# ----------------------------------------------------------------------
# The plan transform
# ----------------------------------------------------------------------
def insert_exchanges(root, config, pool, exec_node_cls, metrics=None):
    """Rewrite a (possibly already-parallelized) tree with exchange drivers.

    Runs after :func:`~repro.core.operators.sharded.parallelize`: key-equi
    joins become :class:`PartitionedJoinExec`, and the grouped sort
    aggregates that pass stayed away from (non-mergeable specs, aggregates
    above joins) become :class:`ExchangeGroupedAggregateExec`. Soft/
    weighted pipelines decline wholesale at plan time — the stitch barrier
    cannot merge per-row weight tensors, and a plan must never discover
    that mid-flight.
    """
    from repro.core.operators.sharded import tree_has_soft
    if tree_has_soft(root):
        return root
    shards = config.shards
    min_rows = config.parallel_min_rows

    def visit(node):
        op = node.op
        children = [visit(c) for c in node._children_nodes]
        if type(op) is JoinExec and op.kind != "CROSS" and op.left_keys:
            return exec_node_cls(
                PartitionedJoinExec(op, pool, shards, min_rows, metrics),
                children)
        if type(op) is SortAggregateExec and op.group_exprs \
                and len(children) == 1:
            return exec_node_cls(
                ExchangeGroupedAggregateExec(op, pool, shards, min_rows,
                                             metrics), children)
        if all(new is old
               for new, old in zip(children, node._children_nodes)):
            return node
        return exec_node_cls(op, children)

    return visit(root)
