"""Sharded-scan executors: intra-query parallelism over contiguous row shards.

``Compiler._lower`` builds these drivers directly when the query runs with
``shards != 1`` (exact, non-trainable, no soft aggregates):

* a ``Scan → Pipeline*`` chain (the row-wise stages of
  :class:`~repro.core.operators.pipeline.PipelineExec`) becomes one
  :class:`ShardedScanExec`, which resolves the scan once, splits its rows
  into contiguous shards (boundaries aligned to the device's micro-batch
  granularity when the chain evaluates UDFs), runs the stages per shard on
  the session's :class:`~repro.core.partition.ShardPool`, and stitches
  outputs back in shard order — bit-identical with serial execution by
  construction (see :mod:`repro.core.partition`);

* an aggregate over such a chain becomes a :class:`ShardedAggregateExec`
  (global) or :class:`ShardedGroupedAggregateExec` (GROUP BY) when every
  aggregate is *exact-mergeable* (COUNT, MIN/MAX, integer SUM/AVG): each
  shard computes partial states and the driver merges them, skipping the
  stitched materialisation entirely.
  Non-mergeable aggregates (float sums, DISTINCT), joins, sorts and TVFs
  execute serially above the stitch barrier, over the stitched relation —
  which is bitwise the relation serial execution would have produced.
"""

from __future__ import annotations

import time
from typing import List

from repro.core import tensor_cache as tc
from repro.core.scheduler import new_encode_scope
from repro.core.operators.aggregate import (
    global_partial,
    grouped_partial,
    merge_global_partials,
    merge_grouped_partials,
)
from repro.core.operators.base import Operator, Relation
from repro.core.operators.pipeline import PipelineExec
from repro.core.operators.scan import ScanExec, shard_slices
from repro.core.partition import (
    default_shards,
    plan_shards,
    run_sharded,
    stitch_relations,
)
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
    """One partition driver: a scan plus its row-wise stages, run per
    contiguous shard on the pool and merged at one barrier.

    Subclasses say what a shard computes (``_shard``), how the per-shard
    results merge (``_merge``, inside the ``MERGE_SPAN`` span) and what
    unsplit execution is (``_serial``). ``agg`` is the serial aggregate the
    driver replaces, if any; its expressions take part in shard alignment.
    """

    MERGE_SPAN = "merge"

    def __init__(self, scan: ScanExec, pipeline: List[PipelineExec], pool,
                 shards: int, min_rows: int, agg=None):
        super().__init__()
        self.scan = scan
        self.pipeline = list(pipeline)
        self.pool = pool
        self.shards = int(shards)
        self.min_rows = int(min_rows)
        self.agg = agg
        self.register_module("scan_op", scan)
        for i, op in enumerate(self.pipeline):
            self.register_module(f"stage{i}", op)
        agg_exprs = []
        if agg is not None:
            self.register_module("agg_op", agg)
            agg_exprs = list(agg.group_exprs) + [s.arg for s in agg.aggregates]
        self._agg_has_udf = _exprs_contain_udf(agg_exprs)
        self._pipeline_has_udf = any(
            _exprs_contain_udf(op.predicates + list(op.exprs or []))
            for op in self.pipeline)
        self._post_filter_udf = _post_filter_udf(self.pipeline)
        self._pipeline_filters = any(op.predicates for op in self.pipeline)

    def forward(self, relation=None) -> Relation:
        base = self.scan(None)
        bounds = self._bounds(base.num_rows)
        annotate(shards=len(bounds), base_rows=base.num_rows)
        if len(bounds) <= 1:
            return self._serial(base)
        tables = shard_slices(base.table, bounds)
        # The barrier span covers submit → all shards done (the coordinator
        # helps run tasks, so its duration is the true stitch barrier wait).
        with span("shard_barrier", shards=len(tables)):
            results = run_sharded(
                self.pool, [self._task(t, i) for i, t in enumerate(tables)])
        with span(self.MERGE_SPAN, shards=len(results)):
            return self._merge(base, results)

    def _task(self, table: Table, index: int):
        def task():
            _begin_batcher_scope()
            # Shard tasks run under a copy of the submitter's context, so
            # this span nests inside the barrier span even on a helper thread.
            with span("shard", index=index, rows=table.num_rows):
                try:
                    return self._shard(Relation(table))
                finally:
                    _finish_batcher_statement()
        return task

    def _serial(self, base: Relation) -> Relation:
        return self.agg(self._run_pipeline(base))

    def _bounds(self, num_rows: int):
        shards = self.shards if self.shards > 0 else default_shards()
        align = 1
        if self._pipeline_has_udf or self._agg_has_udf:
            # Shard boundaries land on micro-batch multiples so per-shard
            # UDF dispatch reproduces serial execution's kernel shapes.
            align = self.scan.device.profile.exec_batch_rows
        if align > 1 and (self._post_filter_udf
                          or (self._agg_has_udf and self._pipeline_filters)):
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
    """Partition driver for a row-wise pipeline chain rooted at a scan."""

    MERGE_SPAN = "stitch"

    def _shard(self, relation: Relation) -> Relation:
        # Every pipeline execution (serial or per shard) feeds the pool's
        # per-row cost EMA, which resolves parallel_min_rows="auto".
        start = time.perf_counter()
        result = self._run_pipeline(relation)
        self.pool.observe_pipeline(relation.num_rows,
                                   time.perf_counter() - start)
        return result

    _serial = _shard

    def _merge(self, base: Relation, results) -> Relation:
        return stitch_relations(results, base_rows=base.num_rows)

    def describe(self) -> str:
        return (f"ShardedScan(shards={self.shards}, "
                f"min_rows={self.min_rows}): {self._pipeline_text()}")


class ShardedAggregateExec(_ShardedBase):
    """Global algebraic aggregation over a sharded pipeline chain.

    Each shard runs the row-wise chain, evaluates the aggregate inputs,
    and reduces them to partial states; the driver merges the partials.
    Only lowered for spec lists where the merge is bit-identical with
    aggregating the whole relation (see ``spec_mergeable``).
    """

    def _shard(self, relation: Relation) -> list:
        relation = self._run_pipeline(relation)
        _, agg_inputs = self.agg._evaluate_inputs(relation)
        return [global_partial(spec, arg, relation.num_rows)
                for spec, arg in zip(self.agg.aggregates, agg_inputs)]

    def _merge(self, base: Relation, partials) -> Relation:
        columns = [
            merge_global_partials(spec, [p[i] for p in partials], base.device)
            for i, spec in enumerate(self.agg.aggregates)
        ]
        return Relation(Table(base.table.name, columns))

    def describe(self) -> str:
        aggs = ", ".join(str(s) for s in self.agg.aggregates)
        return (f"ShardedAggregate([{aggs}], shards={self.shards}): "
                f"{self._pipeline_text()}")


class ShardedGroupedAggregateExec(_ShardedBase):
    """Grouped (GROUP BY) aggregation over a sharded pipeline chain.

    Each shard runs the row-wise chain and reduces its rows to per-group
    partial states with the serial operator's own code (``grouped_partial``);
    the driver merges the per-shard ``(representative keys, partial
    vectors)`` at the barrier — bit-identical with the serial aggregate
    because shard-major concatenation preserves row order and the merge
    groups the representatives with the same ``key_ids``. Only lowered with
    every spec exact-mergeable.
    """

    def _shard(self, relation: Relation):
        relation = self._run_pipeline(relation)
        keys, agg_inputs = self.agg._evaluate_inputs(relation)
        return grouped_partial(self.agg.aggregates, keys, self.agg.group_names,
                               agg_inputs, relation.num_rows)

    def _merge(self, base: Relation, partials) -> Relation:
        return merge_grouped_partials(self.agg, partials, base.device,
                                      base.table.name)

    def describe(self) -> str:
        aggs = ", ".join(str(s) for s in self.agg.aggregates)
        return (f"ShardedGroupedAggregate(groups={self.agg.group_names}, "
                f"[{aggs}], shards={self.shards}): {self._pipeline_text()}")
