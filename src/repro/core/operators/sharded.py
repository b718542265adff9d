"""Sharded-scan executors: intra-query parallelism over contiguous row shards.

``Compiler._lower`` builds these drivers directly when the query runs with
``shards != 1`` (exact, non-trainable, no soft aggregates, and no UDF, TVF
or similarity top-k anywhere in the statement):

* a ``Scan → Pipeline*`` chain (the row-wise stages of
  :class:`~repro.core.operators.pipeline.PipelineExec`) becomes one
  :class:`ShardedScanExec`, which resolves the scan once, splits its rows
  into contiguous shards, runs the stages per shard on the session's
  :class:`~repro.core.partition.ShardPool`, and stitches outputs back in
  shard order — bit-identical with serial execution by construction (see
  :mod:`repro.core.partition`);

* an aggregate over such a chain becomes a :class:`ShardedAggregateExec`
  (global) or :class:`ShardedGroupedAggregateExec` (GROUP BY) when every
  aggregate is *exact-mergeable* (COUNT, MIN/MAX, integer SUM/AVG): each
  shard computes partial states and the driver merges them, skipping the
  stitched materialisation entirely.
  Non-mergeable aggregates (float sums, DISTINCT), joins and sorts execute
  serially above the stitch barrier, over the stitched relation — which is
  bitwise the relation serial execution would have produced.
"""

from __future__ import annotations

from typing import List

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


class _ShardedBase(Operator):
    """One partition driver: a scan plus its row-wise stages, run per
    contiguous shard on the pool and merged at one barrier.

    Subclasses say what a shard computes (``_shard``), how the per-shard
    results merge (``_merge``, inside the ``MERGE_SPAN`` span) and what
    unsplit execution is (``_serial``). ``agg`` is the serial aggregate the
    driver replaces, if any.
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
        if agg is not None:
            self.register_module("agg_op", agg)

    def forward(self, relation=None) -> Relation:
        base = self.scan(None)
        shards = self.shards if self.shards > 0 else default_shards()
        bounds = plan_shards(base.num_rows, shards, self.min_rows)
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
            # Shard tasks run under a copy of the submitter's context, so
            # this span nests inside the barrier span even on a helper thread.
            with span("shard", index=index, rows=table.num_rows):
                return self._shard(Relation(table))
        return task

    def _serial(self, base: Relation) -> Relation:
        return self.agg(self._run_pipeline(base))

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
        return self._run_pipeline(relation)

    _serial = _shard

    def _merge(self, base: Relation, results) -> Relation:
        return stitch_relations(results)

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
