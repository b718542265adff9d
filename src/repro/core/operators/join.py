"""Join operators: sorted-lookup equi-join (TQP-style) and cross join."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.core.expr_eval import ExpressionEvaluator
from repro.core.kernels.compiler import ExprCompiler
from repro.core.kernels.strings import comparable_codes
from repro.core.operators.base import Operator, Relation
from repro.sql.bound import BoundExpr
from repro.storage.column import Column
from repro.storage.encodings import DictionaryEncoding
from repro.storage.table import Table


def _join_codes(left: Column, right: Column) -> Tuple[np.ndarray, np.ndarray]:
    """Factorise a key pair into comparable integer codes."""
    if isinstance(left.encoding, DictionaryEncoding) and isinstance(
            right.encoding, DictionaryEncoding):
        left_vals, right_vals = comparable_codes(left, right)
    elif isinstance(left.encoding, DictionaryEncoding) or isinstance(
            right.encoding, DictionaryEncoding):
        left_vals = left.decode().astype(str)
        right_vals = right.decode().astype(str)
    else:
        left_vals = left.tensor.detach().data
        right_vals = right.tensor.detach().data
        if left_vals.ndim != 1 or right_vals.ndim != 1:
            raise ExecutionError("join keys must be scalar columns")
    combined = np.concatenate([left_vals, right_vals])
    _, inverse = np.unique(combined, return_inverse=True)
    inverse = inverse.reshape(-1)
    return inverse[:len(left_vals)], inverse[len(left_vals):]


def equi_join_indices(left_codes: np.ndarray, right_codes: np.ndarray,
                      keep_unmatched_left: bool = False
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Matching row index pairs for an equi-join.

    Sort the right side once; for each left row, binary-search its matching
    range — the vectorised sorted-lookup join TQP lowers hash joins to.
    Unmatched left rows appear with right index -1 when requested (LEFT JOIN).
    """
    if len(left_codes) == 0 or (len(right_codes) == 0 and not keep_unmatched_left):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    order = np.argsort(right_codes, kind="stable")
    sorted_right = right_codes[order]
    lo = np.searchsorted(sorted_right, left_codes, side="left")
    hi = np.searchsorted(sorted_right, left_codes, side="right")
    counts = hi - lo
    if keep_unmatched_left:
        out_counts = np.maximum(counts, 1)
    else:
        out_counts = counts
    total = int(out_counts.sum())
    left_idx = np.repeat(np.arange(len(left_codes)), out_counts)
    # Offsets within each left row's output block.
    block_starts = np.concatenate([[0], np.cumsum(out_counts)[:-1]])
    within = np.arange(total) - np.repeat(block_starts, out_counts)
    right_sorted_pos = np.repeat(lo, out_counts) + within
    matched = np.repeat(counts > 0, out_counts)
    right_idx = np.full(total, -1, dtype=np.int64)
    right_idx[matched] = order[right_sorted_pos[matched]]
    return left_idx, right_idx


def _combine_key_codes(left_codes: List[np.ndarray], right_codes: List[np.ndarray]
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse per-key code columns into one comparable code per row.

    Radix arithmetic (``combined * radix + codes``) silently wraps int64 for
    high-cardinality composite keys, so stack the code columns and
    re-factorise the rows with ``np.unique(axis=0)`` — lossless at any
    cardinality.
    """
    if len(left_codes) == 1:
        return left_codes[0], right_codes[0]
    n_left = len(left_codes[0])
    stacked = np.concatenate([np.stack(left_codes, axis=1),
                              np.stack(right_codes, axis=1)], axis=0)
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return inverse[:n_left], inverse[n_left:]


def _null_fill_column(column: Column, indices: np.ndarray, name: str) -> Column:
    """Gather with -1 → NULL-ish fill (NaN/0/"") for LEFT JOIN unmatched rows."""
    valid = indices >= 0
    if column.num_rows == 0:
        # Zero-row build side: every probe row is unmatched, and even the
        # "safe" placeholder index 0 would be out of bounds — synthesize the
        # fill directly from an empty gather's dtype/encoding.
        gathered = column.take(np.zeros(0, dtype=np.int64))
        empty = gathered.tensor.detach().data
        data = np.zeros((len(indices),) + empty.shape[1:], dtype=empty.dtype)
    else:
        safe = np.where(valid, indices, 0)
        gathered = column.take(safe)
        if valid.all():
            return gathered.rename(name)
        data = gathered.tensor.detach().data.copy()
    if data.dtype.kind == "f":
        data[~valid] = np.nan
    else:
        data[~valid] = 0
    from repro.storage.encodings import EncodedTensor
    from repro.tcr.tensor import Tensor
    return Column(name, EncodedTensor(Tensor(data, device=column.device),
                                      gathered.encoding))


class JoinExec(Operator):
    def __init__(self, kind: str, left_keys: List[BoundExpr],
                 right_keys: List[BoundExpr], residual: Optional[BoundExpr],
                 left_names: List[str], right_names: List[str],
                 lowering: ExprCompiler):
        super().__init__()
        self.kind = kind
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.left_names = left_names
        self.right_names = right_names
        self.lowering = lowering
        self._left_keys = [lowering.column(key) for key in left_keys]
        self._right_keys = [lowering.column(key) for key in right_keys]
        self._residual = None if residual is None else lowering.mask(residual)
        self._register_expr_udfs(left_keys + right_keys + ([residual] if residual else []))

    def forward(self, left_rel: Relation, right_rel: Relation = None) -> Relation:
        if right_rel is None:
            raise ExecutionError("JoinExec.forward needs two input relations")
        if left_rel.weights is not None or right_rel.weights is not None:
            raise ExecutionError("joins do not support soft filter weights")
        left, right = left_rel.table, right_rel.table

        if self.kind == "CROSS" or not self.left_keys:
            li = np.repeat(np.arange(left.num_rows), right.num_rows)
            ri = np.tile(np.arange(right.num_rows), left.num_rows)
        else:
            # Factorise each key pair jointly, so equal values share a code
            # across sides, then collapse the key columns to one code.
            left_ctx = ExpressionEvaluator(left)
            right_ctx = ExpressionEvaluator(right)
            codes = [_join_codes(lk(left_ctx), rk(right_ctx))
                     for lk, rk in zip(self._left_keys, self._right_keys)]
            combined_left, combined_right = _combine_key_codes(
                [lc for lc, _ in codes], [rc for _, rc in codes])
            if self.kind == "RIGHT":
                ri, li = equi_join_indices(combined_right, combined_left,
                                           keep_unmatched_left=True)
            else:
                li, ri = equi_join_indices(
                    combined_left, combined_right,
                    keep_unmatched_left=(self.kind == "LEFT"))

        if self.residual is not None:
            li, ri = self._apply_residual(left, right, li, ri)
        return Relation(self._gather(left, right, li, ri))

    def _gather(self, left: Table, right: Table, li: np.ndarray,
                ri: np.ndarray) -> Table:
        columns = []
        for col, name in zip(left.columns, self.left_names):
            columns.append(_null_fill_column(col, li, name))
        for col, name in zip(right.columns, self.right_names):
            columns.append(_null_fill_column(col, ri, name))
        return Table(left.name, columns)

    def _apply_residual(self, left: Table, right: Table, li: np.ndarray,
                        ri: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Filter matched rows by the residual ON predicate.

        The residual is part of the join condition, not a WHERE clause: for
        LEFT/RIGHT joins the preserved side keeps its rows. Unmatched rows
        pass through untouched, and preserved-side rows whose every match
        fails the residual reappear as null-filled unmatched rows.
        """
        mask = self._residual(
            ExpressionEvaluator(self._gather(left, right, li, ri)))
        if self.kind == "LEFT":
            preserved, other = li, ri
        elif self.kind == "RIGHT":
            preserved, other = ri, li
        else:
            sel = np.flatnonzero(mask)
            return li[sel], ri[sel]
        keep = mask | (other < 0)
        lost = np.setdiff1d(preserved, preserved[keep])
        new_preserved = np.concatenate([preserved[keep], lost])
        new_other = np.concatenate([other[keep],
                                    np.full(len(lost), -1, dtype=np.int64)])
        order = np.argsort(new_preserved, kind="stable")
        new_preserved, new_other = new_preserved[order], new_other[order]
        if self.kind == "LEFT":
            return new_preserved, new_other
        return new_other, new_preserved

    def describe(self) -> str:
        return f"Join({self.kind})"
