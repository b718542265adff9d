"""Tables: ordered collections of equally-long columns on one device."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.errors import CatalogError, ShapeError
from repro.storage.column import Column
from repro.storage.frame import DataFrame
from repro.storage.encodings import EncodedTensor, PlainEncoding
from repro.tcr.device import as_device
from repro.tcr.tensor import Tensor


class Table:
    """A named relation whose columns are encoded tensors."""

    def __init__(self, name: str, columns: Sequence[Column]):
        self.name = name
        # Columns live in a list: positional access is the engine's fast path,
        # and join outputs may legitimately carry duplicate names (e.g. both
        # sides of `e.dept = d.dept`). Name lookup raises only on ambiguity.
        self._columns: List[Column] = []
        self._lower: Dict[str, List[int]] = {}
        num_rows = None
        for col in columns:
            if num_rows is None:
                num_rows = col.num_rows
            elif col.num_rows != num_rows:
                raise ShapeError(
                    f"column {col.name!r} has {col.num_rows} rows, expected {num_rows}"
                )
            self._lower.setdefault(col.name.lower(), []).append(len(self._columns))
            self._columns.append(col)
        self._num_rows = num_rows or 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_frame(name: str, frame: DataFrame, device=None) -> "Table":
        columns = [
            Column.from_registered(col_name, frame[col_name], device=device)
            for col_name in frame.columns
        ]
        return Table(name, columns)

    @staticmethod
    def from_dict(name: str, data: Mapping[str, object], device=None) -> "Table":
        columns = [Column.from_registered(k, v, device=device) for k, v in data.items()]
        return Table(name, columns)

    @staticmethod
    def from_tensor(name: str, tensor: Tensor, column: str = "value", device=None) -> "Table":
        """Wrap a bare tensor as a single-column table (register_tensor API)."""
        if device is not None:
            tensor = tensor.to(device=device)
        return Table(name, [Column(column, EncodedTensor(tensor, PlainEncoding()))])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> List[str]:
        return [col.name for col in self._columns]

    @property
    def columns(self) -> List[Column]:
        return list(self._columns)

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def device(self):
        for col in self._columns:
            return col.device
        return as_device("cpu")

    @property
    def schema(self) -> Dict[str, object]:
        return {col.name: col.data_type for col in self._columns}

    def has_column(self, name: str) -> bool:
        return name.lower() in self._lower

    def column(self, name: str) -> Column:
        positions = self._lower.get(name.lower())
        if not positions:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}; columns: {self.column_names}"
            )
        if len(positions) > 1:
            raise CatalogError(f"column name {name!r} is ambiguous in table {self.name!r}")
        return self._columns[positions[0]]

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def take(self, indices) -> "Table":
        return Table(self.name, [col.take(indices) for col in self._columns])

    def slice_rows(self, start: int, stop: int) -> "Table":
        """Contiguous row range ``[start, stop)`` (zero-copy column views)."""
        return Table(self.name, [col.slice_rows(start, stop) for col in self._columns])

    def select(self, names: Sequence[str]) -> "Table":
        return Table(self.name, [self.column(n) for n in names])

    def to(self, device) -> "Table":
        return Table(self.name, [col.to(device) for col in self._columns])

    def to_frame(self) -> DataFrame:
        frame = DataFrame()
        for col in self._columns:
            frame[col.name] = col.decode()
        return frame

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name}: {c.data_type}" for c in self._columns)
        return f"Table({self.name!r}, rows={self.num_rows}, columns=[{cols}])"
