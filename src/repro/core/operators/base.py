"""Operator base classes and the Relation wrapper.

Paper §2: "TDP compiles [the physical plan] into a sequence of PyTorch
models, one per operator". Accordingly every physical operator here is an
``nn.Module`` whose ``forward`` maps a :class:`Relation` to a
:class:`Relation`; soft (differentiable) operators additionally carry row
*weights* — the continuous relaxation of filtering.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.sql import bound as b
from repro.storage.table import Table
from repro.tcr.nn.module import Module
from repro.tcr.tensor import Tensor


@dataclasses.dataclass
class Relation:
    """A table flowing between operators, plus optional soft row weights.

    ``weights`` is None in exact execution. Under soft filters it is a
    float tensor of shape (num_rows,) in [0, 1]; soft aggregates consume it
    as fractional row multiplicity.
    """

    table: Table
    weights: Optional[Tensor] = None

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
