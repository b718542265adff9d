"""Table-valued-function operator."""

from __future__ import annotations

from typing import List

from repro.core.expr_eval import (
    ExpressionEvaluator,
    _rehome,
    udf_arguments,
)
from repro.core.kernels.compiler import ExprCompiler
from repro.core.operators.base import Operator, Relation
from repro.sql import bound as b
from repro.storage.table import Table


class TVFExec(Operator):
    """Apply a table-valued function row-wise; output replaces the schema.

    The function runs on the same tensor runtime as the surrounding plan —
    "UDFs/TVFs and SQL operators are all compiled down into [tensor]
    programs" (paper §3) — so there is no data marshalling boundary.
    """

    def __init__(self, udf, arg_exprs: List[b.BoundExpr], names: List[str],
                 lowering: ExprCompiler):
        super().__init__()
        self.udf = udf
        self.arg_exprs = arg_exprs
        self.names = names
        self._args = [lowering.value(expr) for expr in arg_exprs]
        for i, module in enumerate(udf.modules):
            self.register_module(f"udf_{udf.name}_{i}", module)
        self._register_expr_udfs(arg_exprs)

    def forward(self, relation: Relation) -> Relation:
        ctx = ExpressionEvaluator(relation.table)
        args = udf_arguments(self.udf, [arg(ctx) for arg in self._args])
        columns = _rehome(self.udf.invoke(args), relation.device)
        renamed = [col.rename(name) for col, name in zip(columns, self.names)]
        out = Table(relation.table.name, renamed)
        # TVFs may change cardinality (one grid image becomes nine tile rows,
        # one document image becomes N extracted table rows); soft row weights
        # only survive when the function is row-preserving.
        weights = relation.weights if out.num_rows == relation.num_rows else None
        return Relation(out, weights)

    def describe(self) -> str:
        return f"TVF({self.udf.name})"
