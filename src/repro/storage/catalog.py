"""Catalog: the session's registry of named tables."""

from __future__ import annotations

import threading
from typing import Dict, List

from repro.errors import CatalogError
from repro.storage.table import Table


def schema_key(table: Table) -> tuple:
    """What a compiled plan may depend on in a table: per column, its name,
    logical type, encoding class, per-row shape and device. Two tables with
    equal keys bind, optimize and lower every statement to the same plan."""
    return tuple((col.name, col.data_type, type(col.encoding),
                  col.tensor.shape[1:], col.device) for col in table.columns)


class Catalog:
    """Case-insensitive table registry (re-registration replaces, which the
    paper's training loop relies on when it re-registers ``MNIST_Grid`` each
    iteration).

    Thread-safe: a re-entrant lock guards the name maps and the counters, so
    concurrent ``register``/``drop``/``get`` calls from scheduler workers can
    never tear the registry or skip a bump. Tables themselves are immutable,
    so a ``get`` that races a ``register`` returns either the old or the new
    snapshot — never a mix.
    """

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self._display: Dict[str, str] = {}
        self._lock = threading.RLock()
        # Schema version: plan caches key on it. It bumps on a new name, a
        # drop, a clear, or a re-registration that changes the table's
        # schema_key. Re-registering the same schema leaves it (and every
        # cached plan) alone: scans resolve their table at run time, and
        # the compiler reads no table data.
        self.version = 0
        # Every register/drop/clear: the scheduler's coalescing stamp, so a
        # statement submitted after a write never shares an earlier run.
        self.writes = 0
        # Re-registrations of an existing name that changed its schema.
        self.schema_changes = 0

    def register(self, name: str, table: Table, replace: bool = True) -> None:
        key = name.lower()
        with self._lock:
            old = self._tables.get(key)
            if old is not None and not replace:
                raise CatalogError(f"table {name!r} already registered")
            if old is None:
                self.version += 1
            elif schema_key(old) != schema_key(table):
                self.version += 1
                self.schema_changes += 1
            self._tables[key] = table
            self._display[key] = name
            self.writes += 1

    def get(self, name: str) -> Table:
        key = name.lower()
        with self._lock:
            if key not in self._tables:
                raise CatalogError(
                    f"unknown table {name!r}; registered: {self.names()}")
            return self._tables[key]

    def drop(self, name: str) -> None:
        key = name.lower()
        with self._lock:
            if key not in self._tables:
                raise CatalogError(f"cannot drop unknown table {name!r}")
            del self._tables[key]
            del self._display[key]
            self.version += 1
            self.writes += 1

    def names(self) -> List[str]:
        with self._lock:
            return [self._display[k] for k in self._tables]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._tables

    def stats(self) -> dict:
        """Unified stats dict (docs/OBSERVABILITY.md): ``size`` is the
        registered tables; the rest are the lifetime counters above."""
        with self._lock:
            return {"size": len(self._tables), "version": self.version,
                    "writes": self.writes,
                    "schema_changes": self.schema_changes}
