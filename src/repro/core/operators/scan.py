"""Table scan: resolves the catalog at *run* time.

The paper's training loop (Listing 5) re-registers ``MNIST_Grid`` with fresh
data every iteration and re-runs the same compiled query; binding the scan to
a name rather than a table snapshot is what makes that work.
"""

from __future__ import annotations

from typing import List

from repro.errors import ExecutionError
from repro.core.operators.base import Operator, Relation
from repro.storage.table import Table
from repro.tcr.device import Device


def shard_slices(table: Table, bounds) -> list:
    """Contiguous shard views of a resolved scan (zero-copy column slices).

    Compressed (RLE) columns are materialized once for the whole shard set:
    slicing decodes per call, and K shards must share one decoded base
    rather than decode K times. The decoded copy lives only as long as the
    shard slices do.
    """
    table = Table(table.name, [col.materialize() for col in table.columns])
    return [table.slice_rows(start, stop) for start, stop in bounds]


class ScanExec(Operator):
    def __init__(self, catalog, table_name: str, column_names: List[str], device: Device):
        super().__init__()
        self.catalog = catalog
        self.table_name = table_name
        self.column_names = column_names
        self.device = device

    def forward(self, relation=None) -> Relation:
        table = self.catalog.get(self.table_name)
        missing = [n for n in self.column_names if not table.has_column(n)]
        if missing:
            raise ExecutionError(
                f"table {self.table_name!r} no longer has columns {missing} "
                f"(re-registered with a different schema?)"
            )
        ordered = table.select(self.column_names)
        if ordered.device != self.device:
            ordered = ordered.to(self.device)
        return Relation(ordered)

    def describe(self) -> str:
        return f"Scan({self.table_name})"
