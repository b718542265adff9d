"""The row-wise operator: one Filter/Project pipeline stage.

Following TQP's compile-into-one-tensor-program design, every maximal
Filter/Project chain the compiler finds lowers to :class:`PipelineExec`
stages (see ``Compiler._lower_pipeline`` for where a chain splits). A stage
ANDs its conjunct masks over its input relation, turns the mask into an
index vector and evaluates its outputs over the selected rows, gathering
each referenced column at most once — no intermediate table is
materialised between the selection and the projection.

Bit-identity: element-wise expression evaluation commutes with row
selection (gather-then-compute equals compute-then-gather per element), so
ANDing all conjunct masks over the input rows selects exactly the rows a
conjunct-at-a-time cascade selects, and evaluating inlined projections over
the selected view reproduces the staged results bit-for-bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.expr_eval import ExpressionEvaluator
from repro.core.kernels.compiler import ExprCompiler
from repro.core.operators.base import Operator, Relation
from repro.core.telemetry import annotate
from repro.sql import bound as b
from repro.storage.table import Table


class _GatherEvaluator(ExpressionEvaluator):
    """Context over a *row-filtered view* of a table.

    Columns are gathered through the selection indices lazily (each at most
    once: column reads are CSE slots) — the stage never materialises
    columns its outputs do not read.
    """

    def __init__(self, table: Table, indices: np.ndarray):
        super().__init__(table)
        self.indices = indices
        self.num_rows = len(indices)

    def _eval_BColumn(self, expr: b.BColumn):
        return self._stored(expr.index).take(self.indices)


class PipelineExec(Operator):
    """Conjunct masks → index vector → gather-evaluated outputs.

    ``exprs is None`` means no projection: the selected rows are taken
    whole. ``lowering`` decides the body: numpy kernels on detached data
    for exact plans, the same closures over tcr ops where gradients must
    flow (EXPLAIN prints which).
    """

    def __init__(self, predicates: List[b.BoundExpr],
                 exprs: Optional[List[b.BoundExpr]],
                 names: Optional[List[str]], lowering: ExprCompiler):
        super().__init__()
        self.predicates = list(predicates)
        self.exprs = exprs
        self.names = names
        self.body = lowering.xp.label
        self._masks = [lowering.mask(p) for p in self.predicates]
        self._outputs = None if exprs is None else [
            lowering.column(expr, name) for expr, name in zip(exprs, names)]
        self._register_expr_udfs(self.predicates + list(exprs or []))

    def mask(self, table: Table) -> np.ndarray:
        """The AND of the conjunct masks over ``table`` (needs a conjunct)."""
        ctx = ExpressionEvaluator(table)
        mask = self._masks[0](ctx)
        for fn in self._masks[1:]:
            mask = mask & fn(ctx)
        return mask

    def forward(self, relation: Relation) -> Relation:
        annotate(path=self.body)
        table = relation.table
        if self._masks:
            indices = np.flatnonzero(self.mask(table))
            if self._outputs is None:
                return Relation(table.take(indices))
            ctx = _GatherEvaluator(table, indices)
        else:
            ctx = ExpressionEvaluator(table)
        columns = [fn(ctx) for fn in self._outputs]
        return Relation(Table(table.name, columns))

    def describe(self) -> str:
        conjuncts = " AND ".join(str(p) for p in self.predicates)
        outputs = "*" if self.exprs is None else ", ".join(self.names)
        return f"Pipeline[{self.body}]([{conjuncts}] -> {outputs})"
