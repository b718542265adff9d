"""Catalog-managed vector indexes (the §5.1 approximate-indexing subsystem).

The seed carried :class:`~repro.core.index.IVFFlatIndex` as a standalone
data structure that only an ablation benchmark touched. This module makes it
a first-class subsystem: the session owns an :class:`IndexManager` whose
entries are named indexes keyed by ``(table, column)``, created through
``CREATE VECTOR INDEX`` DDL or :meth:`Session.create_vector_index`, consulted
by the optimizer's ``vector_index`` rewrite rule, and probed at run time by
``IndexScanExec``.

Lifecycle: indexes build *lazily*. An entry records which ``Table`` object
its cells were built from; because every ``register_*``/append produces a new
``Table`` object (tables are immutable), an identity check is an exact
per-table staleness test. ``catalog.version`` bumps only when a schema
changes, so a write that keeps the schema keeps every cached plan, and the
plan's probe finds the entry stale. The entry also records the weight
fingerprint of the model it embedded with (``TensorCache.model_state_fp``,
memoised per statement), so an in-place weight write makes it stale too. A
stale entry rebuilds transparently on its next probe.

Embeddings: an entry either carries an explicit ``embedder`` callable
(Python-native path), or binds on first accelerated query to the two-tower
model behind the similarity UDF (anything exposing ``encode_image`` /
``encode_text``, e.g. TinyCLIP). Raw 2-D float columns index as-is.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import CatalogError, ExecutionError
from repro.core import tensor_cache as tc
from repro.core.index import IVFFlatIndex
from repro.core.udf import ANN_METRICS
from repro.tcr.autograd import no_grad


def _l2_normalize(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    return vectors / np.maximum(norms, 1e-12)


def _two_tower_model(udf) -> Optional[object]:
    """Find a CLIP-style two-tower model among a UDF's attached modules."""
    for module in getattr(udf, "modules", []) or []:
        if hasattr(module, "encode_image") and hasattr(module, "encode_text"):
            return module
    return None


class IndexEntry:
    """One named vector index over ``table.column``."""

    def __init__(self, name: str, table: str, column: str, cells: int = 16,
                 nprobe: Optional[int] = None, seed: int = 0,
                 embedder: Optional[Callable] = None):
        # The SQL binder validates DDL options; mirror it here so the
        # Python-native path fails at creation, not at first probe.
        for key, value in (("cells", cells), ("nprobe", nprobe), ("seed", seed)):
            if value is not None and (not isinstance(value, (int, np.integer))
                                      or isinstance(value, bool)):
                raise CatalogError(
                    f"index {name!r}: {key} must be an integer, got {value!r}"
                )
        if cells < 1:
            raise CatalogError(f"index {name!r}: cells must be >= 1, got {cells}")
        self.name = name
        self.table = table
        self.column = column
        self.cells = int(cells)
        self.nprobe = int(nprobe) if nprobe is not None else max(1, cells // 4)
        if self.nprobe < 1:
            raise CatalogError(f"index {name!r}: nprobe must be >= 1")
        self.seed = int(seed)
        self.embedder = embedder
        # Serialises lazy (re)builds: concurrent probes of an unbuilt/stale
        # entry build exactly once; the losers of the race reuse the winner's
        # cells (IndexManager.ensure_built double-checks under this lock).
        self._build_lock = threading.RLock()
        # Build state (populated lazily by IndexManager.ensure_built).
        self.index: Optional[IVFFlatIndex] = None
        self.built_table = None          # the Table object the cells came from
        self.built_fp = None             # its embedding model's weight fingerprint
        self.model = None                # two-tower model bound on first query
        self.metric: Optional[str] = None  # bound ann metric (first-wins)
        self.udf_name: Optional[str] = None
        self.build_count = 0

    @property
    def is_built(self) -> bool:
        return self.index is not None

    def __repr__(self) -> str:
        return (f"IndexEntry({self.name!r}, on={self.table}.{self.column}, "
                f"cells={self.cells}, nprobe={self.nprobe}, built={self.is_built})")


class IndexManager:
    """Session-scoped registry of vector indexes, keyed case-insensitively.

    ``epoch`` is a monotonic change counter: the plan cache keys on it
    beside ``Catalog.version``, so ``CREATE``/``DROP INDEX`` invalidates
    every plan compiled before it (an index changes which physical plan is
    best). Table writes bump neither counter when the schema is kept; the
    entry's ``built_table`` check (and, for weight writes, its
    ``built_fp`` check) rebuilds on the next probe instead.
    """

    def __init__(self, catalog, tensor_cache=None):
        self.catalog = catalog
        self.tensor_cache = tensor_cache  # the session's TensorCache (or None)
        self._entries: Dict[str, IndexEntry] = {}
        # Guards the registry maps and the epoch counter. Lock ordering:
        # manager/entry-build locks may acquire the catalog lock (table
        # resolution) and the tensor-cache lock (embedding reuse), never the
        # reverse.
        self._lock = threading.RLock()
        self.epoch = 0
        # Lifetime counters for Session.metrics (guarded by _lock).
        self.builds = 0
        self.probes = 0

    # ------------------------------------------------------------------
    # DDL surface
    # ------------------------------------------------------------------
    def create(self, name: str, table: str, column: str, cells: int = 16,
               nprobe: Optional[int] = None, seed: int = 0,
               embedder: Optional[Callable] = None,
               replace: bool = False) -> IndexEntry:
        key = name.lower()
        target = self.catalog.get(table)       # raises on unknown table
        if not target.has_column(column):
            raise CatalogError(
                f"table {table!r} has no column {column!r}; "
                f"columns: {target.column_names}"
            )
        entry = IndexEntry(name, table, column, cells=cells, nprobe=nprobe,
                           seed=seed, embedder=embedder)
        with self._lock:
            if not replace and key in self._entries:
                raise CatalogError(f"index {name!r} already exists")
            self._entries[key] = entry
            self.epoch += 1
        return entry

    def drop(self, name: str, if_exists: bool = False) -> bool:
        key = name.lower()
        with self._lock:
            if key not in self._entries:
                if if_exists:
                    return False
                raise CatalogError(f"cannot drop unknown index {name!r}")
            del self._entries[key]
            self.epoch += 1
            return True

    def lookup(self, name: str) -> Optional[IndexEntry]:
        with self._lock:
            return self._entries.get(name.lower())

    def find(self, table: str, column: str) -> Optional[IndexEntry]:
        """The index on ``(table, column)``, if any (first match wins)."""
        with self._lock:
            for entry in self._entries.values():
                if entry.table.lower() == table.lower() \
                        and entry.column.lower() == column.lower():
                    return entry
            return None

    def entries(self) -> List[IndexEntry]:
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        with self._lock:
            if self._entries:
                self._entries.clear()
                self.epoch += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._entries

    def stats(self) -> dict:
        """Unified stats dict (docs/OBSERVABILITY.md): size is registered
        indexes, builds/probes are lifetime counts across all entries."""
        with self._lock:
            return {"size": len(self._entries), "epoch": self.epoch,
                    "builds": self.builds, "probes": self.probes}

    def record_probe(self) -> None:
        with self._lock:
            self.probes += 1

    # ------------------------------------------------------------------
    # Build / probe
    # ------------------------------------------------------------------
    def supports(self, entry: IndexEntry, udf) -> bool:
        """Can this entry accelerate queries scored by ``udf``?

        Three gates: the UDF must *declare* an ANN contract (scores monotone
        in inner product / cosine — undeclared functions may invert or
        threshold their model's scores, so acceleration would reorder
        results); a two-tower model must be attached; and the entry must be
        unbound or bound to that same model (an index built in one embedding
        space cannot answer queries embedded in another — such queries fall
        back to the exact plan rather than thrash-rebuilding). Entries with
        an explicit ``embedder`` serve the Python-native ``search()`` path
        only: their corpus space is unknown to SQL text queries.
        """
        if entry.embedder is not None:
            return False
        metric = getattr(udf, "ann_metric", None)
        if metric not in ANN_METRICS:
            return False
        if entry.metric is not None and entry.metric != metric:
            return False
        model = _two_tower_model(udf)
        if model is None:
            return False
        return entry.model is None or entry.model is model

    def status(self, entry: IndexEntry) -> str:
        if not entry.is_built:
            return "unbuilt"
        try:
            current = self.catalog.get(entry.table)
        except CatalogError:
            return "orphaned"
        if current is entry.built_table and self._model_fp(entry.model) == entry.built_fp:
            return "ready"
        return "stale"

    def _model_fp(self, model) -> Optional[str]:
        """The weight fingerprint of an entry's embedding model, if any."""
        if model is None:
            return None
        if self.tensor_cache is None:
            return tc.state_fingerprint([model])
        return self.tensor_cache.model_state_fp(model)

    def ensure_built(self, entry: IndexEntry, udf=None,
                     use_tensor_cache: bool = True) -> IVFFlatIndex:
        """Return a fresh index for the entry, (re)building if needed.

        Model binding is first-wins: the first similarity UDF to probe the
        entry fixes its embedding space. A later UDF with a *different*
        model raises (callers fall back to the exact plan) instead of
        rebuilding the corpus on every alternating query.

        Builds are **once-only under race**: the whole check-and-build runs
        under the entry's build lock, so N concurrent probes of an unbuilt
        (or stale) entry embed the corpus exactly once and the other N-1
        probes block briefly and reuse the winner's cells.
        """
        with entry._build_lock:
            current = self.catalog.get(entry.table)
            model = None
            metric = None
            if udf is not None and entry.embedder is None:
                model = _two_tower_model(udf)
                metric = getattr(udf, "ann_metric", None)
                if model is not None and entry.model is not None \
                        and model is not entry.model:
                    raise ExecutionError(
                        f"index {entry.name!r} is bound to a different embedding "
                        f"model than UDF {getattr(udf, 'name', '?')!r}"
                    )
                if metric is not None and entry.metric is not None \
                        and metric != entry.metric:
                    raise ExecutionError(
                        f"index {entry.name!r} is bound to metric "
                        f"{entry.metric!r}, not {metric!r}"
                    )
            fp = self._model_fp(model or entry.model)
            if (entry.index is not None and entry.built_table is current
                    and entry.built_fp == fp):
                return entry.index
            if model is not None and entry.model is None:
                entry.model = model
                entry.metric = metric
                entry.udf_name = getattr(udf, "name", None)
            column = current.column(entry.column)
            vectors = self._embed_corpus(entry, column, model,
                                         use_tensor_cache=use_tensor_cache)
            if entry.metric == "cosine":
                # IVF cells score by raw inner product; normalising corpus and
                # query vectors makes that ranking equal cosine ranking.
                vectors = _l2_normalize(vectors)
            index = IVFFlatIndex(num_cells=entry.cells, seed=entry.seed).build(vectors)
            # Publish fully-built state only (readers of entry.index outside
            # the lock must never observe cells for a half-updated entry).
            entry.built_table = current
            entry.built_fp = fp
            entry.build_count += 1
            entry.index = index
            with self._lock:
                # Safe ordering: manager lock nests inside entry build locks
                # (nothing takes a build lock while holding the manager lock).
                self.builds += 1
            return index

    def _embed_corpus(self, entry: IndexEntry, column, model,
                      use_tensor_cache: bool = True) -> np.ndarray:
        if entry.embedder is not None:
            vectors = entry.embedder(column.tensor)
            vectors = vectors.detach().data if hasattr(vectors, "detach") else vectors
            return np.asarray(vectors, dtype=np.float32)
        model = model or entry.model
        if model is not None:
            cached = (self._cached_model_embeddings(column, model)
                      if use_tensor_cache else None)
            if cached is not None:
                return cached
            with no_grad():
                return model.encode_image(column.tensor).detach().data
        data = column.tensor.detach().data
        if data.ndim == 2 and data.dtype.kind == "f":
            return data                     # raw embedding column
        raise ExecutionError(
            f"index {entry.name!r} has no embedder for column "
            f"{entry.table}.{entry.column}: pass embedder= at creation or "
            f"query it through a two-tower similarity UDF first"
        )

    def _cached_model_embeddings(self, column, model) -> Optional[np.ndarray]:
        """Read/populate the session materialization cache for a corpus encode.

        Query-time similarity UDFs and index builds meet here, in the
        model's encoder entry (:meth:`TensorCache.encoded`): a build encodes
        only the rows no query has embedded yet, and a query after a build
        reuses the build's entry. The cache's one bypass rule applies
        (models left in training mode never share).
        """
        cache = self.tensor_cache
        tag = tc.column_tag(column)
        if cache is None or tag is None:
            return None
        orig = getattr(model.encode_image, "__tdp_encoder_orig__", None)
        encode = orig if orig is not None else model.encode_image
        with no_grad():
            if not cache.admits([model]):
                return None
            embedded = cache.encoded(model, tag, column.tensor, encode)
        return np.asarray(embedded.data)

    def embed_query(self, entry: IndexEntry, text: str) -> np.ndarray:
        """Embed a text query with the model the corpus was embedded by."""
        if entry.model is None:
            raise ExecutionError(
                f"index {entry.name!r} is not bound to a text encoder"
            )
        with no_grad():
            query = entry.model.encode_text([text]).detach().data.reshape(-1)
        if entry.metric == "cosine":
            query = _l2_normalize(query)
        return query

    def search(self, name: str, query, k: int = 10,
               nprobe: Optional[int] = None):
        """Python-native probe: ``query`` is a vector or (if bound) a string."""
        entry = self.lookup(name)
        if entry is None:
            raise CatalogError(f"unknown index {name!r}")
        index = self.ensure_built(entry)
        if isinstance(query, str):
            query = self.embed_query(entry, query)
        return index.search(query, k, nprobe=nprobe or entry.nprobe)
