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

from typing import List, Optional

import numpy as np

from repro.sql import bound as b
from repro.storage.table import Table
from repro.tcr.nn.module import Module


class Relation:
    """A table flowing between operators, optionally under a selection.

    ``selection`` (None: every row) holds ascending row indices into the
    table: a filter stage whose outputs are stored columns hands them on
    instead of gathering its survivors. ``table`` is the one place that
    gathers them, through ``Column.take`` (which records lineage), the
    first time any consumer reads it; operators that can work on the
    ungathered rows read ``base`` and ``selection`` instead (a GROUP BY
    folds the selection into its group ids, a join gathers only its keys
    over it). ``num_rows`` counts the selected rows either way.
    """

    __slots__ = ("_table", "selection")

    def __init__(self, table: Table, selection: Optional[np.ndarray] = None):
        self._table = table
        self.selection = selection

    @property
    def base(self) -> Table:
        """The table ``selection`` indexes (``table`` without one)."""
        return self._table

    @property
    def table(self) -> Table:
        """The selected rows as a table, gathered once."""
        if self.selection is not None:
            self._table = self._table.take(self.selection)
            self.selection = None
        return self._table

    @property
    def num_rows(self) -> int:
        if self.selection is None:
            return self._table.num_rows
        return len(self.selection)

    @property
    def device(self):
        return self._table.device


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
