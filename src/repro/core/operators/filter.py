"""Soft filter operator: differentiable row weighting (exact selection
is :class:`~repro.core.operators.pipeline.PipelineExec`)."""

from __future__ import annotations

from repro.core.expr_eval import ExpressionEvaluator
from repro.core.operators.base import Operator, Relation
from repro.core.operators.pipeline import PipelineExec
from repro.core.soft.relaxations import soft_predicate
from repro.sql import bound as b


class SoftFilterExec(Operator):
    """Soft filter: keep all rows, emit differentiable membership weights.

    In eval mode it degrades to the exact filter so deployed queries return
    hard results (the paper's soft→exact swap at inference time).
    """

    def __init__(self, predicate: b.BoundExpr, temperature: float):
        super().__init__()
        self.predicate = predicate
        self.temperature = temperature
        self._register_expr_udfs([predicate])

    def forward(self, relation: Relation) -> Relation:
        if not self.training:
            return PipelineExec([self.predicate])(relation)
        evaluator = ExpressionEvaluator(relation.table)
        weights = soft_predicate(self.predicate, evaluator, self.temperature)
        if relation.weights is not None:
            weights = weights * relation.weights
        return Relation(relation.table, weights)

    def describe(self) -> str:
        return f"SoftFilter({self.predicate}, tau={self.temperature})"
