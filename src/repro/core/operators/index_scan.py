"""Vector-index physical operators: ANN top-k scans and index DDL.

``IndexScanExec`` is what the ``vector_index`` optimizer rule lowers
:class:`~repro.sql.logical.TopKSimilarity` to. Per probe it:

1. resolves the index entry through the session's ``IndexManager`` —
   rebuilding lazily if the base table changed since the last build;
2. embeds the query text with the model behind the similarity UDF and
   probes ``nprobe`` IVF cells (exact scoring inside probed cells);
3. post-filters the candidate ids with any residual WHERE conjuncts
   (over-fetching first, escalating to a full probe when too few
   survive), evaluating the residual over the candidates as a selection
   of the table (``PipelineExec.mask(table, ids)``), and
4. re-ranks/projects *exactly*: the final projection — including the
   similarity expression itself — is evaluated by the ordinary
   ``PipelineExec`` over the chosen rows of the table
   (``PipelineExec.rows``), so the emitted scores are bit-identical to the
   unindexed plan's. Neither step copies the table's rows: a column is
   gathered only when an expression reads it, and a similarity UDF's
   image argument reaches the tensor cache as row lineage, so a warm
   probe gathers no image at all.

When the index cannot serve the query at run time (entry dropped, model
mismatch, embedding failure) the operator degrades to the exact
Filter→Project→TopK pipeline it replaced.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import CatalogError, ExecutionError
from repro.core.kernels.compiler import ExprCompiler
from repro.core.operators.base import Operator, Relation
from repro.core.operators.pipeline import PipelineExec
from repro.core.operators.sort import TopKExec
from repro.core.telemetry import annotate
from repro.sql import bound as b
from repro.storage.column import Column
from repro.storage.table import Table


class IndexScanExec(Operator):
    """Probe an IVF index for the top-k rows by similarity, then re-rank."""

    # With residual predicates we cannot know selectivity up front: fetch a
    # multiple of k, and escalate to an exhaustive probe if too few survive.
    OVERFETCH = 4

    def __init__(self, manager, plan, lowering: ExprCompiler,
                 nprobe: Optional[int] = None,
                 use_tensor_cache: bool = True):
        super().__init__()
        self.manager = manager
        # extra_config={"tensor_cache": False} also covers the lazy build
        # this operator may trigger (not just expression evaluation).
        self.use_tensor_cache = use_tensor_cache
        self.index_name = plan.index_name
        self.query_text = plan.query_text
        self.sim_expr = plan.sim_expr
        self.exprs = list(plan.exprs)
        self.names = [name for name, _ in plan.schema]
        self.residual = plan.residual
        self.k = plan.k
        self.offset = plan.offset
        # Per-query probe-width hint (extra_config={"nprobe": N}); None
        # falls back to the index's default.
        self.nprobe_hint = nprobe
        # The exact Filter -> TopK -> Project plan this scan replaced; the
        # index path reuses its projection and its filter's mask.
        self.project = PipelineExec([], self.exprs, self.names, lowering)
        self.exact_topk = TopKExec([(self.sim_expr, False)], self.k,
                                   self.offset, lowering)
        self.exact_filter = None
        if self.residual is not None:
            self.exact_filter = PipelineExec([self.residual], None, None,
                                             lowering)
        self._register_expr_udfs(
            self.exprs + [self.sim_expr]
            + ([self.residual] if self.residual else []))

    @property
    def _sim_udf(self):
        return self.sim_expr.udf if isinstance(self.sim_expr, b.BCall) else None

    def forward(self, relation: Relation) -> Relation:
        entry = self.manager.lookup(self.index_name)
        udf = self._sim_udf
        if entry is None or udf is None or not self.manager.supports(entry, udf):
            annotate(access="exact_fallback")
            return self._exact(relation)
        try:
            index = self.manager.ensure_built(
                entry, udf, use_tensor_cache=self.use_tensor_cache)
            query_vec = self.manager.embed_query(entry, self.query_text)
        except (CatalogError, ExecutionError):
            annotate(access="exact_fallback")
            return self._exact(relation)
        annotate(access="ann_probe", index=self.index_name)
        self.manager.record_probe()

        n = relation.num_rows
        want = self.k + self.offset
        nprobe = min(self.nprobe_hint or entry.nprobe, index.num_lists)
        if self.residual is None:
            ids, _ = index.search(query_vec, want, nprobe=nprobe)
            if len(ids) < min(want, n):
                # Probed cells were too sparse: escalate to a full probe.
                ids, _ = index.search(query_vec, want, nprobe=index.num_lists)
        else:
            fetch = min(n, max(self.OVERFETCH * want, want + 16))
            ids, _ = index.search(query_vec, fetch, nprobe=nprobe)
            ids = self._apply_residual(relation, ids)
            if len(ids) < want and (fetch < n or nprobe < index.num_lists):
                # Escalate: probe every cell and rescue the exact answer.
                ids, _ = index.search(query_vec, n, nprobe=index.num_lists)
                ids = self._apply_residual(relation, ids)
        chosen = ids[self.offset:want]
        return self.project.rows(relation.table, chosen)

    def _apply_residual(self, relation: Relation, ids: np.ndarray) -> np.ndarray:
        """Keep candidate ids (already score-ordered) passing the residual."""
        if ids.size == 0:
            return ids
        return ids[self.exact_filter.mask(relation.table, ids)]

    def _exact(self, relation: Relation) -> Relation:
        """Unindexed fallback: Filter -> exact TopK by sim_expr -> Project."""
        if self.exact_filter is not None:
            relation = self.exact_filter(relation)
        return self.project(self.exact_topk(relation))

    def describe(self) -> str:
        if self.nprobe_hint is not None:
            nprobe = f"{self.nprobe_hint} (hint)"
        else:
            entry = self.manager.lookup(self.index_name)
            nprobe = entry.nprobe if entry is not None else "?"
        residual = f", residual={self.residual}" if self.residual is not None else ""
        return (f"IndexScan({self.index_name}, q={self.query_text!r}, "
                f"k={self.k}, nprobe={nprobe}{residual})")


def _status_relation(message: str) -> Relation:
    column = Column.from_values("status", np.asarray([message], dtype=object))
    return Relation(Table("result", [column]))


class CreateIndexExec(Operator):
    """Register a vector index in the session's IndexManager (lazy build)."""

    def __init__(self, manager, plan):
        super().__init__()
        self.manager = manager
        self.plan = plan

    def forward(self, relation: Relation = None) -> Relation:
        spec = self.plan
        self.manager.create(spec.name, spec.table, spec.column, cells=spec.cells,
                            nprobe=spec.nprobe, seed=spec.seed)
        return _status_relation(
            f"created vector index {spec.name} on {spec.table}({spec.column})"
        )

    def describe(self) -> str:
        return f"CreateIndex({self.plan.name})"


class DropIndexExec(Operator):
    def __init__(self, manager, plan):
        super().__init__()
        self.manager = manager
        self.plan = plan

    def forward(self, relation: Relation = None) -> Relation:
        dropped = self.manager.drop(self.plan.name, if_exists=self.plan.if_exists)
        message = (f"dropped index {self.plan.name}" if dropped
                   else f"index {self.plan.name} does not exist, skipped")
        return _status_relation(message)

    def describe(self) -> str:
        return f"DropIndex({self.plan.name})"


class ShowIndexesExec(Operator):
    def __init__(self, manager):
        super().__init__()
        self.manager = manager

    def forward(self, relation: Relation = None) -> Relation:
        entries = self.manager.entries()
        columns = [
            Column.from_values("name", np.asarray([e.name for e in entries], dtype=object)),
            Column.from_values("table", np.asarray([e.table for e in entries], dtype=object)),
            Column.from_values("column", np.asarray([e.column for e in entries], dtype=object)),
            Column.from_values("cells", np.asarray([e.cells for e in entries], dtype=np.int64)),
            Column.from_values("nprobe", np.asarray([e.nprobe for e in entries], dtype=np.int64)),
            Column.from_values("rows", np.asarray(
                [len(e.index) if e.is_built else 0 for e in entries], dtype=np.int64)),
            Column.from_values("status", np.asarray(
                [self.manager.status(e) for e in entries], dtype=object)),
        ]
        return Relation(Table("indexes", columns))

    def describe(self) -> str:
        return "ShowIndexes"
