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

from repro.core.expr_eval import ExpressionEvaluator, normalize_strings
from repro.core.kernels.compiler import KernelFallback, StageKernel
from repro.core.operators.base import Operator, Relation
from repro.core.telemetry import annotate
from repro.errors import ExecutionError
from repro.sql import bound as b
from repro.storage.table import Table


class _GatherEvaluator(ExpressionEvaluator):
    """Evaluator over a *row-filtered view* of a table.

    Columns are gathered through the selection indices lazily, each at most
    once — the stage never materialises columns its outputs do not read.
    """

    def __init__(self, table: Table, indices: np.ndarray):
        self.table = table
        self.indices = indices
        self.num_rows = len(indices)
        self.device = table.device
        self._gathered = {}
        self._memo = {}

    def _eval_BColumn(self, expr: b.BColumn):
        column = self._gathered.get(expr.index)
        if column is None:
            columns = self.table.columns
            if expr.index >= len(columns):
                raise ExecutionError(
                    f"column index {expr.index} out of range for table with "
                    f"{len(columns)} columns"
                )
            column = normalize_strings(columns[expr.index].take(self.indices))
            self._gathered[expr.index] = column
        return column


class PipelineExec(Operator):
    """Conjunct masks → index vector → gather-evaluated outputs.

    ``exprs is None`` means no projection: the selected rows are taken
    whole. The body is ``kernel`` when the compiler built one and the
    interpreter otherwise; a :class:`KernelFallback` (a batch that violates
    a compile-time assumption) re-runs the same stage on the interpreter,
    which is the kernel's bit-identity oracle by construction.
    """

    def __init__(self, predicates: List[b.BoundExpr],
                 exprs: Optional[List[b.BoundExpr]] = None,
                 names: Optional[List[str]] = None,
                 kernel: Optional[StageKernel] = None):
        super().__init__()
        self.predicates = list(predicates)
        self.exprs = exprs
        self.names = names
        self.kernel = kernel
        self._register_expr_udfs(self.predicates + list(exprs or []))

    def forward(self, relation: Relation) -> Relation:
        if self.kernel is None:
            return self._run(relation, None)
        try:
            result = self._run(relation, self.kernel)
        except KernelFallback:
            annotate(path="fallback")
            return self._run(relation, None)
        annotate(path="kernel")
        return result

    def _run(self, relation: Relation, kernel: Optional[StageKernel]) -> Relation:
        table, weights = relation.table, relation.weights
        evaluator = ExpressionEvaluator(table)
        if self.predicates:
            if kernel is not None:
                mask = kernel.filter.mask(evaluator)
            else:
                mask = evaluator.evaluate_mask(self.predicates[0])
                for predicate in self.predicates[1:]:
                    mask = mask & evaluator.evaluate_mask(predicate)
            indices = np.flatnonzero(mask)
            if weights is not None:
                weights = weights[indices]
            if self.exprs is None:
                return Relation(table.take(indices), weights)
            evaluator = _GatherEvaluator(table, indices)
        if kernel is not None:
            columns = kernel.project.columns(evaluator)
        else:
            columns = [evaluator.evaluate_column(expr, name)
                       for expr, name in zip(self.exprs, self.names)]
        return Relation(Table(table.name, columns), weights)

    def describe(self) -> str:
        body = "kernel" if self.kernel is not None else "interp"
        conjuncts = " AND ".join(str(p) for p in self.predicates)
        outputs = "*" if self.exprs is None else ", ".join(self.names)
        return f"Pipeline[{body}]([{conjuncts}] -> {outputs})"
