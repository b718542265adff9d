"""A minimal DataFrame for ingestion and result marshalling.

The paper registers pandas dataframes (``tdp.sql.register_df``) and returns
results ``toPandas=True``. pandas is not available in this environment, so
this small frame plays that interop role: an ordered mapping of column name
to 1-d numpy array (object arrays for strings, nested ndarray for tensors).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import TdpError


def _as_column_array(values) -> np.ndarray:
    array = np.asarray(values)
    if array.dtype.kind in ("U", "S"):
        array = array.astype(object)
    return array


class DataFrame:
    """Column-oriented frame: ``DataFrame({"a": [1, 2], "b": ["x", "y"]})``."""

    def __init__(self, data: Optional[Mapping[str, Sequence]] = None):
        self._columns: Dict[str, np.ndarray] = {}
        self._length = 0
        if data:
            for name, values in data.items():
                self[name] = values

    # ------------------------------------------------------------------
    # Mapping interface
    # ------------------------------------------------------------------
    @property
    def columns(self) -> List[str]:
        return list(self._columns.keys())

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise KeyError(f"no column {name!r}; have {self.columns}")
        return self._columns[name]

    def __setitem__(self, name: str, values) -> None:
        array = _as_column_array(values)
        if self._columns and array.shape[0] != self._length:
            raise TdpError(
                f"column {name!r} has {array.shape[0]} rows; frame has {self._length}"
            )
        if not self._columns:
            self._length = array.shape[0]
        self._columns[name] = array

    # ------------------------------------------------------------------
    # Convenience operations
    # ------------------------------------------------------------------
    def head(self, n: int = 5) -> "DataFrame":
        return DataFrame({name: col[:n] for name, col in self._columns.items()})

    def equals(self, other: "DataFrame", rtol: float = 1e-5, atol: float = 1e-6) -> bool:
        if self.columns != other.columns or len(self) != len(other):
            return False
        for name in self.columns:
            a, b = self[name], other[name]
            if a.dtype.kind in "fc" or b.dtype.kind in "fc":
                if not np.allclose(a.astype(float), b.astype(float), rtol=rtol, atol=atol):
                    return False
            elif not np.array_equal(a, b):
                return False
        return True

    def __repr__(self) -> str:
        if not self._columns:
            return "DataFrame(empty)"
        names = self.columns
        widths = {}
        shown = min(self._length, 10)
        rendered = {}
        for name in names:
            col = self._columns[name]
            if col.ndim > 1:
                cells = [f"<tensor {col[i].shape}>" for i in range(shown)]
            elif col.dtype.kind == "f":
                cells = [f"{v:.4g}" for v in col[:shown]]
            else:
                cells = [str(v) for v in col[:shown]]
            rendered[name] = cells
            widths[name] = max([len(name)] + [len(c) for c in cells])
        header = "  ".join(name.rjust(widths[name]) for name in names)
        lines = [header]
        for i in range(shown):
            lines.append("  ".join(rendered[name][i].rjust(widths[name]) for name in names))
        if self._length > shown:
            lines.append(f"... ({self._length} rows total)")
        return "\n".join(lines)
