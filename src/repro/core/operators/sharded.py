"""The sharded-scan executor: intra-query parallelism over contiguous row
shards, for the scans that feed a join.

With ``shards != 1``, ``Compiler._lower_pipeline`` builds a
:class:`ShardedScanExec` for a Filter/Project chain over a base-table scan
when that chain is a direct input of a join (and the statement is exact,
non-trainable, has no soft aggregates and calls no UDF, TVF or similarity
top-k). The driver resolves the scan once, splits its rows into contiguous
shards, runs the chain's row-wise stages (the
:class:`~repro.core.operators.pipeline.PipelineExec` ops) per shard on the
session's :class:`~repro.core.partition.ShardPool`, and stitches the outputs
back in shard order — bit-identical with serial execution by construction
(see :mod:`repro.core.partition`). The join and everything above it run
serially over the stitched relation. Every other shape lowers serially.
"""

from __future__ import annotations

from typing import List

from repro.core.operators.base import Operator, Relation
from repro.core.operators.pipeline import PipelineExec
from repro.core.operators.scan import ScanExec
from repro.core.partition import (
    default_shards,
    plan_shards,
    run_sharded,
    stitch_relations,
)
from repro.core.telemetry import annotate, span, tracing
from repro.storage.table import Table


class ShardedScanExec(Operator):
    """A scan plus its row-wise stages, run per contiguous shard on the pool
    and stitched back in shard order at one barrier."""

    def __init__(self, scan: ScanExec, pipeline: List[PipelineExec], pool,
                 shards: int):
        super().__init__()
        self.scan = scan
        self.pipeline = list(pipeline)
        self.pool = pool
        self.shards = int(shards)
        self.register_module("scan_op", scan)
        for i, op in enumerate(self.pipeline):
            self.register_module(f"stage{i}", op)

    def forward(self, relation=None) -> Relation:
        base = self.scan(None)
        shards = self.shards if self.shards > 0 else default_shards()
        bounds = plan_shards(base.num_rows, shards)
        annotate(shards=len(bounds), base_rows=base.num_rows)
        if len(bounds) <= 1:
            return self._run_pipeline(base)
        tables = [base.table.slice_rows(start, stop) for start, stop in bounds]
        # The barrier span covers submit → all shards done (the coordinator
        # helps run tasks, so its duration is the true stitch barrier wait).
        with span("shard_barrier", shards=len(tables)):
            results = run_sharded(
                self.pool, [self._task(t, i) for i, t in enumerate(tables)])
        with span("stitch", shards=len(results)):
            return stitch_relations(results)

    def _task(self, table: Table, index: int):
        def task():
            # Shard tasks run under a copy of the submitter's context, so
            # this span nests inside the barrier span even on a helper thread.
            with span("shard", index=index, rows=table.num_rows):
                # Gather the shard's rows here, in parallel, not at the stitch.
                return Relation(self._run_pipeline(Relation(table)).table)
        return task

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

    def describe(self) -> str:
        parts = [self.scan.describe()] + [op.describe() for op in self.pipeline]
        return f"ShardedScan(shards={self.shards}): {' -> '.join(parts)}"
