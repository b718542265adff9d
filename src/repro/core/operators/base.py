"""Operator base classes and the Relation wrapper.

Paper §2: "TDP compiles [the physical plan] into a sequence of PyTorch
models, one per operator". Accordingly every physical operator here is an
``nn.Module`` whose ``forward`` maps a :class:`Relation` to a
:class:`Relation`. Differentiability lives in the tensors themselves: a
trainable plan's columns are autograd tensors, so the one soft operator
(:class:`~repro.core.operators.soft_aggregate.SoftAggregateExec`) needs
nothing beyond the table.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.sql import bound as b
from repro.storage.table import Table
from repro.tcr.nn.module import Module


@dataclasses.dataclass
class Relation:
    """A table flowing between operators."""

    table: Table

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    @property
    def device(self):
        return self.table.device


class Operator(Module):
    """Base class for physical operators."""

    def forward(self, relation: Relation) -> Relation:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    def _register_expr_udfs(self, exprs) -> None:
        """Register nn.Modules owned by UDFs inside expressions, so the
        compiled query's ``parameters()`` reaches them."""
        counter = 0
        for expr in exprs:
            for udf in _collect_udfs(expr):
                for module in udf.modules:
                    self.register_module(f"udf_{udf.name}_{counter}", module)
                    counter += 1


def _collect_udfs(expr: b.BoundExpr) -> List[object]:
    if expr is None:
        return []
    return [node.udf for node in expr.walk() if isinstance(node, b.BCall)]
