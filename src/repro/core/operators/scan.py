"""Table scan: resolves the catalog at *run* time.

The paper's training loop (Listing 5) re-registers ``MNIST_Grid`` with fresh
data every iteration and re-runs the same compiled query; binding the scan to
a name rather than a table snapshot is what makes that work.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import List, Optional

from repro.errors import ExecutionError
from repro.core.operators.base import Operator, Relation
from repro.storage.table import Table
from repro.tcr.device import Device

# Active shared-scan memo (None outside a ``shared_scans`` block). Batch
# execution opens one so that N statements over the same table pay the
# select + device-transfer cost once. A ContextVar, not a module global:
# concurrent ``execute_many`` batches on scheduler worker threads each get
# their own memo and can never cross-pollinate mid-batch.
_SCAN_MEMO: "contextvars.ContextVar[Optional[dict]]" = contextvars.ContextVar(
    "tdp_scan_memo", default=None)


@contextlib.contextmanager
def shared_scans():
    """Context manager: scans of the same table/device are resolved once.

    Used by ``Session.execute_many`` / ``CompiledQuery.run_many``. Scan
    results are immutable (operators gather into fresh tables), so sharing
    the Relation across queries is safe. Nested blocks share the outermost
    memo; the memo is scoped to the opening thread/context, so concurrent
    batches stay isolated.
    """
    if _SCAN_MEMO.get() is not None:
        yield
        return
    token = _SCAN_MEMO.set({})
    try:
        yield
    finally:
        _SCAN_MEMO.reset(token)


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
        scan_memo = _SCAN_MEMO.get()
        if scan_memo is None:
            ordered = table.select(self.column_names)
            if ordered.device != self.device:
                ordered = ordered.to(self.device)
            return Relation(ordered)
        # Shared-scan path: each column of the table is selected and moved to
        # the target device at most once per batch, however many statements
        # (with however many different pruned column subsets) reference it.
        # Keyed on the Table object itself (identity hash + strong reference):
        # an id()-based key could alias a recycled address if a table were
        # dropped and replaced mid-batch.
        memo = scan_memo.setdefault((table, str(self.device)), {})
        columns = []
        for name in self.column_names:
            column = memo.get(name)
            if column is None:
                column = table.column(name)
                if column.device != self.device:
                    column = column.to(self.device)
                memo[name] = column
            columns.append(column)
        return Relation(Table(table.name, columns))

    def describe(self) -> str:
        return f"Scan({self.table_name})"
