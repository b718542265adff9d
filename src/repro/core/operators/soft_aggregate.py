"""The soft group-by operator (training mode) with exact dense swap (eval).

This is the operator pair drawn in the paper's Fig 1. During training the
joint membership of row r in group (i, j) is ``P1[r, i] * P2[r, j]``
(independence across parsers), so grouped COUNT/SUM/AVG are Khatri-Rao
products reduced over rows: pure einsum/sum, hence differentiable into the
UDFs that produced the Probability-Encoded keys. In eval mode the same
operator argmax-decodes the PE columns and aggregates exactly over the
*same* dense domain cross-product, so output shape and row order (first key
varying slowest) are identical in both modes.

Group keys may mix PE columns with ordinary discrete columns (int/string/
bool): discrete keys contribute exact one-hot membership (no gradient), so a
query can group by, e.g., a grid id *and* two PE parser outputs — which lets
trainable queries process a mini-batch of grids per step.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.core.operators.aggregate import _AggregateBase
from repro.core.operators.base import Relation
from repro.storage.column import Column
from repro.storage.encodings import (
    DictionaryEncoding,
    EncodedTensor,
    PlainEncoding,
    ProbabilityEncoding,
)
from repro.storage.table import Table
from repro.tcr import ops
from repro.tcr.tensor import Tensor, ones


class _KeyInfo:
    """Per-key membership data: a (rows, k) tensor + the domain values."""

    __slots__ = ("membership", "domain", "codes", "cardinality")

    def __init__(self, membership: Tensor, domain: np.ndarray,
                 codes: np.ndarray):
        self.membership = membership
        self.domain = domain
        self.codes = codes
        self.cardinality = len(domain)


def _key_info(column: Column) -> _KeyInfo:
    encoding = column.encoding
    if isinstance(encoding, ProbabilityEncoding):
        codes = encoding.hard_codes(column.tensor)
        return _KeyInfo(column.tensor, encoding.domain, codes)
    # Discrete column: exact one-hot membership over the observed domain.
    data = column.tensor.detach().data
    if data.ndim != 1:
        raise ExecutionError(
            f"soft group-by key {column.name!r} must be a scalar or PE column"
        )
    if isinstance(encoding, DictionaryEncoding):
        uniques, codes = np.unique(data, return_inverse=True)
        domain = encoding.strings[uniques]
    else:
        domain, codes = np.unique(data, return_inverse=True)
    onehot = np.zeros((data.shape[0], len(domain)), dtype=np.float32)
    onehot[np.arange(data.shape[0]), codes] = 1.0
    return _KeyInfo(Tensor(onehot, device=column.device), domain,
                    codes.astype(np.int64))


class SoftAggregateExec(_AggregateBase):
    def forward(self, relation: Relation) -> Relation:
        keys, agg_inputs = self._evaluate_inputs(relation)
        if not keys:
            raise ExecutionError("soft aggregation requires at least one GROUP BY column")
        if not any(isinstance(k.encoding, ProbabilityEncoding) for k in keys):
            raise ExecutionError(
                "soft group-by requires at least one Probability-Encoded key; "
                "encode UDF outputs with PEEncoding.encode (paper Listing 4)."
            )
        for spec in self.aggregates:
            if spec.distinct:
                raise ExecutionError(f"soft {spec.func}(DISTINCT) is not supported")
        infos = [_key_info(k) for k in keys]

        # The dense domain cross-product, first key varying slowest: the
        # flattening order of the joint membership.
        grids = np.meshgrid(*[info.domain for info in infos], indexing="ij")
        columns = [
            Column.from_values(name, grid.reshape(-1), device=relation.device)
            for name, grid in zip(self.group_names, grids)
        ]

        if self.training:
            columns.extend(self._soft_aggregates(relation, infos, agg_inputs))
        else:
            columns.extend(self._exact_dense_aggregates(relation, infos, agg_inputs))
        return Relation(Table(relation.table.name, columns))

    # ------------------------------------------------------------------
    # Training mode: differentiable expected aggregates
    # ------------------------------------------------------------------
    def _soft_aggregates(self, relation: Relation, infos: List[_KeyInfo],
                         agg_inputs: List[Optional[Column]]) -> List[Column]:
        membership = self._joint_membership(infos, relation.device)
        counts = ops.sum(membership, dim=0)
        out: List[Column] = []
        for spec, arg in zip(self.aggregates, agg_inputs):
            if spec.func == "COUNT":
                result = counts
            elif spec.func == "SUM":
                result = ops.sum(membership * ops.reshape(self._values(arg), (-1, 1)), dim=0)
            elif spec.func == "AVG":
                sums = ops.sum(membership * ops.reshape(self._values(arg), (-1, 1)), dim=0)
                result = sums / (counts + 1e-8)
            else:
                raise ExecutionError(
                    f"{spec.func} has no differentiable relaxation; use COUNT/SUM/AVG"
                )
            out.append(Column(spec.name, EncodedTensor(result, PlainEncoding())))
        return out

    @staticmethod
    def _joint_membership(infos: List[_KeyInfo], device) -> Tensor:
        n = infos[0].membership.shape[0]
        acc = ones(n, 1, device=device)
        width = 1
        for info in infos:
            if info.membership.shape[0] != n:
                raise ExecutionError("group keys must have equal row counts")
            k = info.cardinality
            acc = ops.einsum_pair("rm,rk->rmk", acc, info.membership)
            width *= k
            acc = ops.reshape(acc, (n, width))
        return acc

    @staticmethod
    def _values(arg: Optional[Column]) -> Tensor:
        if arg is None:
            raise ExecutionError("SUM/AVG require an argument")
        tensor = arg.tensor
        if tensor.ndim != 1:
            raise ExecutionError("soft SUM/AVG require scalar value columns")
        if tensor.dtype.kind != "f":
            tensor = ops.astype(tensor, np.float32)
        return tensor

    # ------------------------------------------------------------------
    # Eval mode: exact counts over the same dense domain
    # ------------------------------------------------------------------
    def _exact_dense_aggregates(self, relation: Relation, infos: List[_KeyInfo],
                                agg_inputs: List[Optional[Column]]) -> List[Column]:
        n = infos[0].membership.shape[0]
        sizes = [info.cardinality for info in infos]
        total = int(np.prod(sizes))
        combined = np.zeros(n, dtype=np.int64)
        for info, size in zip(infos, sizes):
            combined = combined * size + info.codes
        out: List[Column] = []
        for spec, arg in zip(self.aggregates, agg_inputs):
            if spec.func == "COUNT":
                counts = np.bincount(combined, minlength=total).astype(np.int64)
                out.append(Column.from_values(spec.name, counts, device=relation.device))
            elif spec.func in ("SUM", "AVG"):
                values = self._values(arg).detach().data.astype(np.float64)
                sums = np.zeros(total, dtype=np.float64)
                np.add.at(sums, combined, values)
                if spec.func == "AVG":
                    counts = np.bincount(combined, minlength=total)
                    sums = sums / np.maximum(counts, 1)
                out.append(Column.from_values(spec.name, sums.astype(np.float32),
                                              device=relation.device))
            else:
                raise ExecutionError(f"{spec.func} is not supported on PE group keys")
        return out

    def describe(self) -> str:
        return f"SoftAggregate(groups={self.group_names})"
