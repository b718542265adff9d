"""Sharded-scan executors: intra-query parallelism over contiguous row shards.

The compiler (via :func:`parallelize`) rewrites lowered operator trees when
the query runs with ``shards > 1``:

* ``Scan → Pipeline*`` prefixes (the row-wise stages of
  :class:`~repro.core.operators.pipeline.PipelineExec`)
  become one :class:`ShardedScanExec`, which resolves the scan once, splits
  its rows into contiguous shards (boundaries aligned to the device's
  micro-batch granularity when the prefix evaluates UDFs), runs the prefix
  per shard on the session's :class:`~repro.core.partition.ShardPool`, and
  stitches outputs back in shard order — bit-identical with serial
  execution by construction (see :mod:`repro.core.partition`).

* Global (group-less) exact aggregates over such a prefix become a
  :class:`ShardedAggregateExec` when every aggregate is *exact-mergeable*
  (COUNT, MIN/MAX, integer SUM/AVG): each shard computes partial states and
  the driver merges them, skipping the stitched materialisation entirely.
  Non-mergeable aggregates (float sums, DISTINCT), GROUP BY, joins, sorts,
  TVFs and trainable pipelines execute after the deterministic merge
  barrier, over the stitched relation — which is bitwise the relation
  serial execution would have produced.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.core import tensor_cache as tc
from repro.core.scheduler import new_encode_scope
from repro.core.operators.aggregate import (
    HashAggregateExec,
    SortAggregateExec,
    global_partial,
    grouped_partial,
    merge_global_partials,
    merge_grouped_partials,
    spec_mergeable,
)
from repro.core.operators.base import Operator, Relation
from repro.core.operators.filter import SoftFilterExec
from repro.core.operators.pipeline import PipelineExec
from repro.core.operators.scan import ScanExec, shard_slices
from repro.core.partition import plan_shards, run_sharded, stitch_relations
from repro.core.telemetry import annotate, span, tracing
from repro.storage.table import Table

def _exprs_contain_udf(exprs) -> bool:
    return any(e is not None and e.contains_udf() for e in exprs)


def _begin_batcher_scope() -> None:
    """Open a per-task batcher registration scope for this shard task.

    Tasks run under a *copy* of the submitter's context, so the fresh scope
    shadows — never clobbers — the submitting statement's registration:
    when a coordinator thread helps run a shard task, the task's
    ``statement_finished`` retires only the task's own encode stream, not
    the coordinator's statement (the early-flush tradeoff PR 5 documented)."""
    if tc.active_batcher() is not None:
        new_encode_scope()


def _finish_batcher_statement() -> None:
    """Tell an active inference batcher this shard's encode stream ended.

    Shard tasks inherit the coordinator's batcher via their copied context;
    without this, a helper thread that encoded once would count as an
    \"active encoder\" forever and stall every later rendezvous to its
    window timeout."""
    batcher = tc.active_batcher()
    if batcher is not None:
        batcher.statement_finished()


def _post_filter_udf(pipeline: List[PipelineExec]) -> bool:
    """Does any UDF in the pipeline evaluate over an already-*selected* row
    stream? Such a UDF's per-shard micro-batch lengths are the shard's
    filtered remnant — not multiples of the device batch size — so on a
    device that batches rows (``exec_batch_rows > 1``) its kernel shapes
    could not match serial execution's and sharding must be declined."""
    selected = False
    for op in pipeline:
        if selected and _exprs_contain_udf(op.predicates):
            return True
        selected = selected or bool(op.predicates)
        # A stage's outputs always see its post-filter rows.
        if selected and _exprs_contain_udf(op.exprs or []):
            return True
    return False


class _ShardedBase(Operator):
    def __init__(self, scan: ScanExec, pipeline: List[PipelineExec], pool,
                 shards: int, min_rows: int):
        super().__init__()
        self.scan = scan
        self.pipeline = list(pipeline)
        self.pool = pool
        self.shards = int(shards)
        self.min_rows = int(min_rows)
        self.register_module("scan_op", scan)
        for i, op in enumerate(self.pipeline):
            self.register_module(f"stage{i}", op)
        self._pipeline_has_udf = any(
            _exprs_contain_udf(op.predicates + list(op.exprs or []))
            for op in self.pipeline)
        self._post_filter_udf = _post_filter_udf(self.pipeline)
        self._pipeline_filters = any(op.predicates for op in self.pipeline)

    def _bounds(self, num_rows: int, extra_udf: bool = False):
        from repro.core.partition import default_shards
        shards = self.shards if self.shards > 0 else default_shards()
        align = 1
        if self._pipeline_has_udf or extra_udf:
            # Shard boundaries land on micro-batch multiples so per-shard
            # UDF dispatch reproduces serial execution's kernel shapes.
            align = self.scan.device.profile.exec_batch_rows
        if align > 1 and (self._post_filter_udf
                          or (extra_udf and self._pipeline_filters)):
            # A UDF over a *filtered* stream (including aggregate arguments
            # evaluated after a filtering pipeline) batches over remnant
            # lengths no boundary alignment can control: on a row-batching
            # device the only bit-safe execution is serial.
            return plan_shards(num_rows, 1, self.min_rows, align)
        return plan_shards(num_rows, shards, self.min_rows, align)

    def _run_pipeline(self, relation: Relation) -> Relation:
        if not tracing():
            for op in self.pipeline:
                relation = op(relation)
            return relation
        # Traced: time each stage so EXPLAIN ANALYZE can attribute
        # kernel-vs-fallback paths (annotated by the stage itself)
        # stage by stage, inside whichever shard span is open.
        for op in self.pipeline:
            with span("shard_op", op=op.describe(),
                      rows_in=relation.num_rows) as sp:
                relation = op(relation)
                sp.set(rows_out=relation.num_rows)
        return relation

    def _pipeline_text(self) -> str:
        parts = [self.scan.describe()] + [op.describe() for op in self.pipeline]
        return " -> ".join(parts)


class ShardedScanExec(_ShardedBase):
    """Partition driver for a row-wise pipeline prefix rooted at a scan."""

    def forward(self, relation=None) -> Relation:
        base = self.scan(None)
        bounds = self._bounds(base.num_rows)
        annotate(shards=len(bounds), base_rows=base.num_rows)
        # Every pipeline execution (serial or per shard) feeds the pool's
        # per-row cost EMA, which resolves parallel_min_rows="auto".
        if len(bounds) <= 1:
            start = time.perf_counter()
            result = self._run_pipeline(base)
            self.pool.observe_pipeline(base.num_rows,
                                       time.perf_counter() - start)
            return result
        tables = shard_slices(base.table, bounds)

        def make_task(table, index):
            def task():
                _begin_batcher_scope()
                start = time.perf_counter()
                # Shard tasks run under a copy of the submitter's context,
                # so this span nests inside the sharded operator's span
                # (via the barrier span) even on a helper thread.
                with span("shard", index=index, rows=table.num_rows):
                    try:
                        return self._run_pipeline(Relation(table))
                    finally:
                        self.pool.observe_pipeline(
                            table.num_rows, time.perf_counter() - start)
                        _finish_batcher_statement()
            return task

        # The barrier span covers submit → all shards done (the coordinator
        # helps run tasks, so its duration is the true stitch barrier wait).
        with span("shard_barrier", shards=len(tables)):
            results = run_sharded(
                self.pool, [make_task(t, i) for i, t in enumerate(tables)])
        with span("stitch", shards=len(results)):
            return stitch_relations(results, base_rows=base.num_rows)

    def describe(self) -> str:
        return (f"ShardedScan(shards={self.shards}, "
                f"min_rows={self.min_rows}): {self._pipeline_text()}")


class ShardedAggregateExec(_ShardedBase):
    """Global algebraic aggregation over a sharded pipeline prefix.

    Each shard runs the row-wise prefix, evaluates the aggregate inputs,
    and reduces them to partial states; the driver merges the partials.
    Only lowered for spec lists where the merge is bit-identical with
    aggregating the whole relation (see ``spec_mergeable``).
    """

    def __init__(self, agg, scan: ScanExec, pipeline: List[PipelineExec], pool,
                 shards: int, min_rows: int):
        super().__init__(scan, pipeline, pool, shards, min_rows)
        self.agg = agg                      # the serial aggregate operator
        self.register_module("agg_op", agg)
        self._agg_has_udf = _exprs_contain_udf(
            [spec.arg for spec in agg.aggregates])

    def forward(self, relation=None) -> Relation:
        base = self.scan(None)
        bounds = self._bounds(base.num_rows, extra_udf=self._agg_has_udf)
        annotate(shards=len(bounds), base_rows=base.num_rows)
        if len(bounds) <= 1:
            return self.agg(self._run_pipeline(base))
        tables = shard_slices(base.table, bounds)
        specs = self.agg.aggregates

        def make_task(table, index):
            def task():
                _begin_batcher_scope()
                with span("shard", index=index, rows=table.num_rows):
                    try:
                        rel = self._run_pipeline(Relation(table))
                        _, agg_inputs = self.agg._evaluate_inputs(rel)
                        return [global_partial(spec, arg, rel.num_rows)
                                for spec, arg in zip(specs, agg_inputs)]
                    finally:
                        _finish_batcher_statement()
            return task

        with span("shard_barrier", shards=len(tables)):
            shard_partials = run_sharded(
                self.pool, [make_task(t, i) for i, t in enumerate(tables)])
        with span("merge", shards=len(shard_partials)):
            columns = [
                merge_global_partials(spec, [p[i] for p in shard_partials],
                                      base.device)
                for i, spec in enumerate(specs)
            ]
            return Relation(Table(base.table.name, columns))

    def describe(self) -> str:
        aggs = ", ".join(str(s) for s in self.agg.aggregates)
        return (f"ShardedAggregate([{aggs}], shards={self.shards}): "
                f"{self._pipeline_text()}")


class ShardedGroupedAggregateExec(_ShardedBase):
    """Grouped (GROUP BY) aggregation over a sharded pipeline prefix.

    Each shard runs the row-wise prefix and reduces its rows to per-group
    partial states with the sort-aggregate core; the driver merges the
    per-shard ``(representative keys, partial vectors)`` at the barrier —
    bit-identical with the serial sort aggregate because shard-major
    concatenation preserves row order and the merge reruns the identical
    stable sort + change-point grouping over the representatives. Only
    lowered for the sort implementation with every spec exact-mergeable.
    """

    def __init__(self, agg: SortAggregateExec, scan: ScanExec,
                 pipeline: List[PipelineExec], pool, shards: int, min_rows: int):
        super().__init__(scan, pipeline, pool, shards, min_rows)
        self.agg = agg                      # the serial aggregate operator
        self.register_module("agg_op", agg)
        self._agg_has_udf = _exprs_contain_udf(
            list(agg.group_exprs) + [spec.arg for spec in agg.aggregates])

    def forward(self, relation=None) -> Relation:
        base = self.scan(None)
        bounds = self._bounds(base.num_rows, extra_udf=self._agg_has_udf)
        annotate(shards=len(bounds), base_rows=base.num_rows)
        if len(bounds) <= 1:
            return self.agg(self._run_pipeline(base))
        tables = shard_slices(base.table, bounds)
        agg = self.agg

        def make_task(table, index):
            def task():
                _begin_batcher_scope()
                with span("shard", index=index, rows=table.num_rows):
                    try:
                        rel = self._run_pipeline(Relation(table))
                        keys, agg_inputs = agg._evaluate_inputs(rel)
                        return grouped_partial(agg.aggregates, keys,
                                               agg.group_names, agg_inputs,
                                               rel.num_rows)
                    finally:
                        _finish_batcher_statement()
            return task

        with span("shard_barrier", shards=len(tables)):
            shard_partials = run_sharded(
                self.pool, [make_task(t, i) for i, t in enumerate(tables)])
        with span("merge", shards=len(shard_partials),
                  groups=sum(p.groups for p in shard_partials)):
            return merge_grouped_partials(agg, shard_partials, base.device,
                                          base.table.name)

    def describe(self) -> str:
        aggs = ", ".join(str(s) for s in self.agg.aggregates)
        return (f"ShardedGroupedAggregate(groups={self.agg.group_names}, "
                f"[{aggs}], shards={self.shards}): {self._pipeline_text()}")


# ----------------------------------------------------------------------
# The plan transform
# ----------------------------------------------------------------------
def tree_has_soft(node) -> bool:
    """Does any operator in the tree produce or consume soft row weights?

    Soft pipelines carry per-row weight tensors that the deterministic
    stitch barrier cannot merge (``stitch_relations`` raises on them at
    runtime); the parallelize/exchange rewrites consult this at plan time
    so a weighted plan executes serially instead of erroring mid-flight.
    """
    from repro.core.operators.soft_aggregate import SoftAggregateExec
    if isinstance(node.op, (SoftFilterExec, SoftAggregateExec)):
        return True
    return any(tree_has_soft(child) for child in node._children_nodes)


def _match_chain(node) -> Optional[tuple]:
    """``(scan_op, [pipeline stages bottom-up])`` when ``node`` roots a
    shardable pipeline prefix, else None."""
    ops: List[PipelineExec] = []
    current = node
    while isinstance(current.op, PipelineExec):
        children = current._children_nodes
        if len(children) != 1:
            return None
        ops.append(current.op)
        current = children[0]
    if not isinstance(current.op, ScanExec) or current._children_nodes:
        return None
    return current.op, list(reversed(ops))


def parallelize(root, config, pool, exec_node_cls):
    """Rewrite a lowered tree for intra-query parallelism.

    ``exec_node_cls`` is :class:`repro.core.compiled_query.ExecNode`
    (passed in to keep this module import-light). Aggregate nodes with
    mergeable specs become partial-aggregate drivers; remaining shardable
    prefixes become sharded scans; everything else is rebuilt unchanged
    around the recursion.
    """
    if tree_has_soft(root):
        # Weighted/soft pipelines must never reach the stitch barrier (it
        # raises on per-row weights at runtime): decline sharding entirely.
        return root
    shards = config.shards
    min_rows = config.parallel_min_rows

    def visit(node):
        op = node.op
        if isinstance(op, (SortAggregateExec, HashAggregateExec)) \
                and not op.group_exprs \
                and all(spec_mergeable(s) for s in op.aggregates) \
                and len(node._children_nodes) == 1:
            chain = _match_chain(node._children_nodes[0])
            if chain is not None:
                scan, pipeline = chain
                return exec_node_cls(
                    ShardedAggregateExec(op, scan, pipeline, pool,
                                         shards, min_rows), [])
        # Grouped aggregates shard only on the sort implementation: the
        # grouped-partial merge reruns the sort-aggregate core, so its
        # group order and representative-row selection match that operator
        # (the hash variant behind GROUPBY_IMPL stays serial).
        if type(op) is SortAggregateExec \
                and op.group_exprs \
                and all(spec_mergeable(s) for s in op.aggregates) \
                and len(node._children_nodes) == 1:
            chain = _match_chain(node._children_nodes[0])
            if chain is not None:
                scan, pipeline = chain
                return exec_node_cls(
                    ShardedGroupedAggregateExec(op, scan, pipeline, pool,
                                                shards, min_rows), [])
        chain = _match_chain(node)
        if chain is not None and chain[1]:
            scan, pipeline = chain
            return exec_node_cls(
                ShardedScanExec(scan, pipeline, pool, shards, min_rows), [])
        return exec_node_cls(op, [visit(c) for c in node._children_nodes])

    return visit(root)
