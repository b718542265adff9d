"""Sort, Top-K, Limit and Distinct operators."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.core.expr_eval import ExpressionEvaluator
from repro.core.kernels.compiler import ExprCompiler
from repro.core.operators.base import Operator, Relation
from repro.sql.bound import BoundExpr
from repro.storage.column import Column
from repro.storage.encodings import ProbabilityEncoding


def _sort_array(column: Column, ascending: bool) -> np.ndarray:
    """Numeric array whose ascending order realises the requested ordering.

    Dictionary codes already sort like their strings (order-preserving
    encoding), so no decode is needed — the paper's motivation for keeping
    the dictionary sorted.
    """
    if isinstance(column.encoding, ProbabilityEncoding):
        data = column.encoding.hard_codes(column.tensor).astype(np.float64)
    else:
        data = column.tensor.detach().data
        if data.ndim != 1:
            raise ExecutionError("cannot ORDER BY a multi-dimensional column")
        data = data.astype(np.float64)
    if not ascending:
        data = -data
        # Keep NaNs last under both orders.
        data[np.isnan(data)] = np.inf
    return data


class SortExec(Operator):
    def __init__(self, keys: List[Tuple[BoundExpr, bool]],
                 lowering: ExprCompiler):
        super().__init__()
        self.keys = keys
        self._keys = [(lowering.column(expr), ascending)
                      for expr, ascending in keys]
        self._register_expr_udfs([e for e, _ in keys])

    def forward(self, relation: Relation) -> Relation:
        if relation.num_rows <= 1:
            return relation
        ctx = ExpressionEvaluator(relation.table)
        arrays = [_sort_array(key(ctx), ascending)
                  for key, ascending in self._keys]
        order = np.lexsort(tuple(reversed(arrays)))
        return Relation(relation.table.take(order))

    def describe(self) -> str:
        return f"Sort({len(self.keys)} keys)"


class TopKExec(Operator):
    """Fused ORDER BY + LIMIT using argpartition (avoids a full sort)."""

    def __init__(self, keys: List[Tuple[BoundExpr, bool]], k: int,
                 offset: int, lowering: ExprCompiler):
        super().__init__()
        self.keys = keys
        self.k = k
        self.offset = offset
        self.sort = SortExec(keys, lowering)     # registers the keys' UDFs
        self.limit = LimitExec(k, offset)

    def forward(self, relation: Relation) -> Relation:
        n = relation.num_rows
        want = self.k + self.offset
        if n <= want or len(self.keys) > 1:
            return self.limit(self.sort(relation))
        key, ascending = self.sort._keys[0]
        array = _sort_array(key(ExpressionEvaluator(relation.table)), ascending)
        candidates = np.argpartition(array, want - 1)[:want]
        candidates = candidates[np.argsort(array[candidates], kind="stable")]
        chosen = candidates[self.offset:self.offset + self.k]
        return Relation(relation.table.take(chosen))

    def describe(self) -> str:
        return f"TopK(k={self.k})"


class LimitExec(Operator):
    def __init__(self, count: int, offset: int = 0):
        super().__init__()
        self.count = count
        self.offset = offset

    def forward(self, relation: Relation) -> Relation:
        indices = np.arange(self.offset, min(self.offset + self.count, relation.num_rows))
        return Relation(relation.table.take(indices))

    def describe(self) -> str:
        return f"Limit({self.count}, offset={self.offset})"


class DistinctExec(Operator):
    def forward(self, relation: Relation) -> Relation:
        if relation.num_rows == 0:
            return relation
        # Factorize each key column separately: casting int64 through float64
        # collapses distinct keys above 2^53 (the HashAggregate bug class).
        codes = []
        for column in relation.table.columns:
            data = column.tensor.detach().data
            if data.ndim != 1:
                raise ExecutionError("DISTINCT over tensor columns is not supported")
            _, inverse = np.unique(data, return_inverse=True)
            codes.append(inverse.astype(np.int64))
        stacked = np.stack(codes, axis=1)
        _, first = np.unique(stacked, axis=0, return_index=True)
        keep = np.sort(first)      # preserve first-occurrence order
        return Relation(relation.table.take(keep))
