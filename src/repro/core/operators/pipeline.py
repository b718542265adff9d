"""The row-wise operator: one Filter/Project pipeline stage.

Following TQP's compile-into-one-tensor-program design, every maximal
Filter/Project chain the compiler finds lowers to :class:`PipelineExec`
stages (see ``Compiler._lower_pipeline`` for where a chain splits). A stage
ANDs its conjunct masks over its input relation and turns the mask into an
index vector. A stage whose outputs are all stored columns read as they
are (renames included, or no projection at all) stops there: it hands
the next operator its columns with that vector as the relation's
selection and copies nothing, and the consumer gathers the rows when it
reads ``relation.table`` (a GROUP BY folds them into its group ids
instead, and a join gathers only its key columns over them). Any other
stage evaluates its outputs over the selected rows, gathering each
referenced column at most once — no intermediate table is materialised
between the selection and the projection. The gather goes
through ``Column.take`` in either namespace, so under a trainable plan
gradients flow through it as through any other stage's gather.

Bit-identity: element-wise expression evaluation commutes with row
selection (gather-then-compute equals compute-then-gather per element), so
ANDing all conjunct masks over the input rows selects exactly the rows a
conjunct-at-a-time cascade selects, and evaluating inlined projections over
the selected view reproduces the staged results bit-for-bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.expr_eval import ExpressionEvaluator, Gather
from repro.core.kernels.compiler import ExprCompiler
from repro.core.operators.base import Operator, Relation
from repro.core.telemetry import annotate
from repro.sql import bound as b
from repro.storage.table import Table


class _GatherEvaluator(ExpressionEvaluator):
    """Context over a *row-filtered view* of a table.

    Columns are gathered through the selection indices lazily (each at most
    once: column reads are CSE slots) — the stage never materialises
    columns its outputs do not read. A stored column read as a UDF argument
    stays lineage (:class:`~repro.core.expr_eval.Gather`): when the tensor
    cache admits the call it keys on the base rows behind the selection
    and gathers only the rows its entry lacks; otherwise the column is
    gathered like any other read. Outputs are materialised at the stage
    boundary, so no deferred column leaves the stage.
    """

    def __init__(self, table: Table, indices: np.ndarray):
        super().__init__(table)
        self.indices = indices
        self.num_rows = len(indices)

    def _eval_BColumn(self, expr: b.BColumn):
        return self._stored(expr.index).take(self.indices)

    def argument(self, expr: b.BColumn, read) -> Gather:
        return Gather(self._stored(expr.index), self.indices, lambda: read(self))


class PipelineExec(Operator):
    """Conjunct masks → index vector → a selection, or gather-evaluated
    outputs.

    ``exprs is None`` means no projection: the selected rows are passed on
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
        # Outputs that are stored columns as they are: the stage passes them
        # on under a selection.
        self._stored = exprs is None or all(type(e) is b.BColumn for e in exprs)
        self._register_expr_udfs(self.predicates + list(exprs or []))

    @staticmethod
    def _context(table: Table, indices: Optional[np.ndarray]) -> ExpressionEvaluator:
        if indices is None:
            return ExpressionEvaluator(table)
        return _GatherEvaluator(table, indices)

    def mask(self, table: Table, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """The AND of the conjunct masks over ``table``, or over its rows
        ``indices`` (needs a conjunct)."""
        ctx = self._context(table, indices)
        mask = self._masks[0](ctx)
        for fn in self._masks[1:]:
            mask = mask & fn(ctx)
        return mask

    def rows(self, table: Table, indices: Optional[np.ndarray] = None) -> Relation:
        """The outputs over ``table``'s rows ``indices`` (None: every row),
        gathering only the columns they read (needs a projection)."""
        ctx = self._context(table, indices)
        columns = [fn(ctx) for fn in self._outputs]
        return Relation(Table(table.name, columns))

    def forward(self, relation: Relation) -> Relation:
        annotate(path=self.body)
        table = relation.table
        if not self._masks:
            return self.rows(table)
        indices = np.flatnonzero(self.mask(table))
        if not self._stored:
            return self.rows(table, indices)
        if self._outputs is not None:
            table = self.rows(table).table      # renamed stored columns: no copy
        return Relation(table, indices)

    def describe(self) -> str:
        conjuncts = " AND ".join(str(p) for p in self.predicates)
        outputs = "*" if self.exprs is None else ", ".join(self.names)
        return f"Pipeline[{self.body}]([{conjuncts}] -> {outputs})"
