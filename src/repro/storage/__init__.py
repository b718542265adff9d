"""``repro.storage`` — columnar tensor storage (paper §2, Storage Model)."""

from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.encodings import (
    DictionaryEncoding,
    EncodedTensor,
    Encoding,
    PEEncoding,
    PlainEncoding,
    ProbabilityEncoding,
)
from repro.storage.frame import DataFrame
from repro.storage.table import Table
from repro.storage import types

__all__ = [
    "Catalog", "Column", "DataFrame", "DictionaryEncoding", "EncodedTensor",
    "Encoding", "PEEncoding", "PlainEncoding", "ProbabilityEncoding",
    "Table", "types",
]
