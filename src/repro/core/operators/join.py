"""Join operators: equi-join through a direct-address table over dense key
ids, and cross join."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.core.expr_eval import ExpressionEvaluator
from repro.core.kernels.compiler import ExprCompiler
from repro.core.kernels.strings import comparable_codes
from repro.core.operators.aggregate import key_ids
from repro.core.operators.base import Operator, Relation
from repro.core.operators.pipeline import PipelineExec
from repro.core.telemetry import annotate
from repro.sql.bound import BoundExpr
from repro.storage.column import Column
from repro.storage.encodings import DictionaryEncoding
from repro.storage.table import Table


def _key_values(left: Column, right: Column) -> Tuple[np.ndarray, np.ndarray]:
    """One key pair as two arrays whose values compare like the keys'."""
    if isinstance(left.encoding, DictionaryEncoding) and isinstance(
            right.encoding, DictionaryEncoding):
        return comparable_codes(left, right)
    if isinstance(left.encoding, DictionaryEncoding) or isinstance(
            right.encoding, DictionaryEncoding):
        return left.decode().astype(str), right.decode().astype(str)
    left_vals = left.tensor.detach().data
    right_vals = right.tensor.detach().data
    if left_vals.ndim != 1 or right_vals.ndim != 1:
        raise ExecutionError("join keys must be scalar columns")
    return left_vals, right_vals


def join_ids(pairs: List[Tuple[np.ndarray, np.ndarray]]
             ) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(left ids, right ids, domain)`` over the joint key range.

    Integer, bool and dictionary keys go straight to :func:`key_ids`. Float
    and string keys are factorized first with ``np.unique``, whose equality
    (NaN matches NaN, -0.0 matches 0.0) is the join's. Either way the ids
    are dense: ``domain`` is at most ``DENSE_FACTOR`` slots per row.
    """
    n_left = len(pairs[0][0])
    joint = [values if values.dtype.kind in "biu"
             else np.unique(values, return_inverse=True)[1].reshape(-1)
             for values in (np.concatenate(pair) for pair in pairs)]
    ids, domain = key_ids(joint)
    return ids[:n_left], ids[n_left:], domain


def direct_join_indices(probe_ids: np.ndarray, build_ids: np.ndarray,
                        domain: int, keep_unmatched: bool = False
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Equi-join row pairs through a direct-address table over dense ids:
    build-side counts per id, their running offsets, and the build rows in
    stable id order; a probe row reads its match range with two gathers.

    Pairs come in probe-row order, each row's matches in build-row order;
    an unmatched probe row pairs with -1 when ``keep_unmatched``, and is
    dropped before the expanding passes otherwise. Annotates ``probed=``
    (probe rows) and ``matched=`` (those with a build row).
    """
    table = np.bincount(build_ids, minlength=domain)
    order = np.argsort(build_ids, kind="stable")
    counts = table[probe_ids]
    annotate(probed=len(probe_ids), matched=int(np.count_nonzero(counts)))
    if keep_unmatched:
        rows, out = np.arange(len(probe_ids)), np.maximum(counts, 1)
    else:
        rows = np.flatnonzero(counts)
        probe_ids, out = probe_ids[rows], counts[rows]
    lo = (np.cumsum(table) - table)[probe_ids]
    probe = np.repeat(rows, out)
    position = np.arange(len(probe)) + np.repeat(lo - (np.cumsum(out) - out), out)
    if not keep_unmatched:
        return probe, order[position]
    build = np.full(len(probe), -1, dtype=np.int64)
    hit = np.repeat(counts > 0, out)
    build[hit] = order[position[hit]]
    return probe, build


def _base_rows(selection: Optional[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Rows of a selection as rows of its base; -1 (no match) stays -1."""
    if selection is None or len(selection) == 0:
        return rows         # an empty selection matches nothing: all -1
    return np.where(rows >= 0, selection[rows], -1)


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
        # Each side is read as its base table and selection: only the key
        # columns are gathered over a selection, everything else over the
        # matched pairs.
        left, right = left_rel.base, right_rel.base
        lsel, rsel = left_rel.selection, right_rel.selection
        if lsel is not None or rsel is not None:
            annotate(access="selection")

        if self.kind == "CROSS" or not self.left_keys:
            li = np.repeat(np.arange(left_rel.num_rows), right_rel.num_rows)
            ri = np.tile(np.arange(right_rel.num_rows), left_rel.num_rows)
        else:
            # One id per row over both sides' joint key range, so equal keys
            # share an id across sides.
            left_ctx = PipelineExec._context(left, lsel)
            right_ctx = PipelineExec._context(right, rsel)
            left_ids, right_ids, domain = join_ids(
                [_key_values(lk(left_ctx), rk(right_ctx))
                 for lk, rk in zip(self._left_keys, self._right_keys)])
            # A RIGHT join probes with the right side and keeps its rows.
            flip = self.kind == "RIGHT"
            probe, build = (right_ids, left_ids) if flip else (left_ids, right_ids)
            keep = self.kind in ("LEFT", "RIGHT")
            annotate(domain=domain)
            pairs = direct_join_indices(probe, build, domain, keep)
            li, ri = pairs[::-1] if flip else pairs
        li, ri = _base_rows(lsel, li), _base_rows(rsel, ri)

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
