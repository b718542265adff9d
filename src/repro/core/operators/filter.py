"""Soft filter operator: differentiable row weighting (exact selection
is :class:`~repro.core.operators.pipeline.PipelineExec`)."""

from __future__ import annotations

from repro.core.expr_eval import ExpressionEvaluator
from repro.core.kernels.compiler import ExprCompiler
from repro.core.operators.base import Operator, Relation
from repro.core.operators.pipeline import PipelineExec
from repro.core.soft.relaxations import soft_predicate
from repro.sql import bound as b


class SoftFilterExec(Operator):
    """Soft filter: keep all rows, emit differentiable membership weights.

    In eval mode it degrades to the exact filter so deployed queries return
    hard results (the paper's soft→exact swap at inference time).
    """

    def __init__(self, predicate: b.BoundExpr, temperature: float,
                 lowering: ExprCompiler):
        super().__init__()
        self.predicate = predicate
        self.temperature = temperature
        self.exact = PipelineExec([predicate], None, None, lowering)
        self._weights = soft_predicate(predicate, lowering, temperature)

    def forward(self, relation: Relation) -> Relation:
        if not self.training:
            return self.exact(relation)
        weights = self._weights(ExpressionEvaluator(relation.table))
        if relation.weights is not None:
            weights = weights * relation.weights
        return Relation(relation.table, weights)

    def describe(self) -> str:
        return f"SoftFilter({self.predicate}, tau={self.temperature})"
