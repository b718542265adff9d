"""Sort, Top-K, Limit and Distinct operators."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.core.expr_eval import ExpressionEvaluator
from repro.core.kernels.compiler import ExprCompiler
from repro.core.operators.aggregate import key_ids
from repro.core.operators.base import Operator, Relation
from repro.sql.bound import BoundExpr
from repro.storage.column import Column
from repro.storage.encodings import ProbabilityEncoding


def _sort_array(column: Column, ascending: bool) -> np.ndarray:
    """Array in the key's own dtype whose ascending order realises the
    requested ordering.

    DESC negates a float key (NaN stays NaN, and numpy sorts NaN last, so
    NaNs are last under both orders) and takes ``~x`` of an integer or bool
    key, which reverses its order without overflow. Integer keys compare
    exactly: no float64 copy merges neighbours above 2^53. Dictionary codes
    already sort like their strings (order-preserving encoding), so no
    decode is needed — the paper's motivation for keeping the dictionary
    sorted.
    """
    if isinstance(column.encoding, ProbabilityEncoding):
        data = column.encoding.hard_codes(column.tensor)
    else:
        data = column.tensor.detach().data
        if data.ndim != 1:
            raise ExecutionError("cannot ORDER BY a multi-dimensional column")
    if ascending:
        return data
    return -data if data.dtype.kind == "f" else ~data


def _smallest(array: np.ndarray, want: int) -> np.ndarray:
    """The rows of the ``want`` smallest keys in sort order, equal keys
    (NaNs among them) in row order: the prefix a stable sort gives."""
    order = np.argpartition(array, want - 1)
    candidates, kth = order[:want], array[order[want - 1]]
    ties = np.isnan(array) if kth != kth else array == kth
    # Keys below the kth are all candidates; which of its ties are is
    # arbitrary, so take the first ones in row order.
    below = candidates[~ties[candidates]]
    chosen = np.sort(np.concatenate(
        [below, np.flatnonzero(ties)[:want - len(below)]]))
    return chosen[np.argsort(array[chosen], kind="stable")]


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
        chosen = _smallest(array, want)[self.offset:]
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
    """The first row of each distinct key, in row order. Rows are keyed the
    way GROUP BY keys them (``key_ids`` over every column): integers
    exactly, and every NaN its own key."""

    def forward(self, relation: Relation) -> Relation:
        if relation.num_rows == 0:
            return relation
        table = relation.table
        ids, _ = key_ids(table.columns)
        _, first = np.unique(ids, return_index=True)
        return Relation(table.take(np.sort(first)))
