"""Logical data types for columns (shared by storage and the SQL binder)."""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np


@dataclasses.dataclass(frozen=True)
class DataType:
    """A logical column type.

    ``kind`` is one of:
      * ``int`` / ``float`` / ``bool`` — scalar columns
      * ``string`` — dictionary-encoded text
      * ``tensor`` — multi-dimensional rows (images, embeddings);
        ``row_shape`` holds the per-row shape
      * ``prob`` — Probability-Encoded column; ``num_classes`` holds the
        domain size
    """

    kind: str
    row_shape: Tuple[int, ...] = ()
    num_classes: Optional[int] = None

    def __post_init__(self):
        valid = {"int", "float", "bool", "string", "tensor", "prob"}
        if self.kind not in valid:
            raise ValueError(f"unknown type kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "tensor":
            return f"tensor{list(self.row_shape)}"
        if self.kind == "prob":
            return f"prob[{self.num_classes}]"
        return self.kind


INT = DataType("int")
FLOAT = DataType("float")
BOOL = DataType("bool")
STRING = DataType("string")


def tensor_type(row_shape: Tuple[int, ...]) -> DataType:
    return DataType("tensor", row_shape=tuple(row_shape))


def prob_type(num_classes: int) -> DataType:
    return DataType("prob", num_classes=num_classes)


_SQL_TYPE_NAMES = {
    "int": INT, "integer": INT, "bigint": INT, "long": INT, "smallint": INT,
    "float": FLOAT, "double": FLOAT, "real": FLOAT, "decimal": FLOAT, "numeric": FLOAT,
    "bool": BOOL, "boolean": BOOL,
    "string": STRING, "varchar": STRING, "text": STRING, "char": STRING,
    "timestamp": STRING, "date": STRING,
    "tensor": DataType("tensor"),
}


def parse_sql_type(name: str) -> DataType:
    """Map a SQL type name (as used in ``@tdp_udf`` schemas) to a DataType."""
    base = name.strip().lower().split("(")[0]
    if base not in _SQL_TYPE_NAMES:
        raise ValueError(f"unknown SQL type {name!r}")
    return _SQL_TYPE_NAMES[base]


def dtype_to_data_type(dtype: np.dtype, row_shape: Tuple[int, ...] = ()) -> DataType:
    if row_shape:
        return tensor_type(row_shape)
    kind = np.dtype(dtype).kind
    if kind in "iu":
        return INT
    if kind == "f":
        return FLOAT
    if kind == "b":
        return BOOL
    if kind in ("U", "O", "S"):
        return STRING
    raise ValueError(f"unsupported numpy dtype {dtype}")
