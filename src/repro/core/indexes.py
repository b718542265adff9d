"""Catalog-managed vector indexes (the §5.1 approximate-indexing subsystem).

The paper notes (§5.1): "We are currently integrating approximate indexing
[36] into TDP for speeding up top-k queries." :class:`IVFFlatIndex` is that
index: a k-means coarse quantiser plus an exact scan inside each probed
cell, the Milvus/FAISS baseline layout. The session owns an
:class:`IndexManager` whose entries are named indexes keyed by ``(table,
column)``, created through ``CREATE VECTOR INDEX`` DDL or
:meth:`Session.create_vector_index`, consulted by the optimizer's
``vector_index`` rewrite rule, and probed at run time by ``IndexScanExec``.
A SQL top-k over a similarity UDF is the one access path.

Lifecycle: indexes build *lazily*. An entry records which ``Table`` object
its cells were built from; because every ``register_*``/append produces a new
``Table`` object (tables are immutable), an identity check is an exact
per-table staleness test. ``catalog.version`` bumps only when a schema
changes, so a write that keeps the schema keeps every cached plan, and the
plan's probe finds the entry stale. The entry also records the weight
fingerprint of the model it embedded with (``TensorCache.model_state_fp``,
memoised per statement), so an in-place weight write makes it stale too. A
stale entry rebuilds transparently on its next probe.

Embeddings: an entry binds on its first accelerated query to the two-tower
model behind the similarity UDF (anything exposing ``encode_image`` /
``encode_text``, e.g. TinyCLIP), which embeds both the corpus and the query
text.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CatalogError, ExecutionError
from repro.core import tensor_cache as tc
from repro.core.udf import ANN_METRICS
from repro.tcr.autograd import no_grad
from repro.tcr.random import fork_generator


def _kmeans(vectors: np.ndarray, num_cells: int, iterations: int,
            rng: np.random.Generator) -> np.ndarray:
    """Lloyd's algorithm (few iterations suffice for a coarse quantiser).

    Empty cells are reseeded from the points farthest from their assigned
    centroid (the standard FAISS repair): a cell that keeps its stale initial
    centroid forever attracts nothing, the surviving cells grow fat, and
    probe recall degrades on clustered corpora.
    """
    n = vectors.shape[0]
    centroids = vectors[rng.choice(n, size=num_cells, replace=False)].copy()
    for _ in range(iterations):
        # Squared distances via the expansion trick.
        dots = vectors @ centroids.T
        norms = (centroids ** 2).sum(axis=1)
        distances = norms[None, :] - 2.0 * dots
        assignment = distances.argmin(axis=1)
        empty = []
        for cell in range(num_cells):
            members = vectors[assignment == cell]
            if len(members):
                centroids[cell] = members.mean(axis=0)
            else:
                empty.append(cell)
        if empty:
            # Split the worst-served points: move each empty centroid onto a
            # distinct point that sits farthest from its current centroid.
            losses = distances[np.arange(n), assignment]
            farthest = np.argsort(-losses)[:len(empty)]
            for cell, point in zip(empty, farthest):
                centroids[cell] = vectors[point]
    return centroids


class IVFFlatIndex:
    """Inverted-file index with exact (flat) scoring inside probed cells.

    Works on inner-product similarity over (approximately) normalised
    embeddings — the regime TinyCLIP similarity queries run in.
    """

    def __init__(self, num_cells: int = 16, train_iterations: int = 8, seed: int = 0):
        if num_cells < 1:
            raise ExecutionError("IVFFlatIndex needs at least one cell")
        self.num_cells = num_cells
        self.train_iterations = train_iterations
        self.seed = seed
        self._centroids: Optional[np.ndarray] = None
        self._cell_ids: list = []
        self._cell_vectors: list = []
        self._size = 0

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    @property
    def num_lists(self) -> int:
        """Number of cells actually built (<= num_cells for small corpora)."""
        return len(self._cell_ids)

    def __len__(self) -> int:
        return self._size

    def build(self, vectors: np.ndarray) -> "IVFFlatIndex":
        """Cluster the corpus and bucket every vector into its nearest cell."""
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ExecutionError("index vectors must be (n, dim)")
        n = vectors.shape[0]
        cells = min(self.num_cells, n)
        rng = fork_generator(self.seed)
        self._centroids = _kmeans(vectors, cells, self.train_iterations, rng)
        dots = vectors @ self._centroids.T
        norms = (self._centroids ** 2).sum(axis=1)
        assignment = (norms[None, :] - 2.0 * dots).argmin(axis=1)
        self._cell_ids = []
        self._cell_vectors = []
        for cell in range(cells):
            ids = np.flatnonzero(assignment == cell)
            self._cell_ids.append(ids.astype(np.int64))
            self._cell_vectors.append(vectors[ids])
        self._size = n
        return self

    def search(self, query: np.ndarray, k: int,
               nprobe: int = 4) -> Tuple[np.ndarray, np.ndarray]:
        """Return (ids, scores) of the approximate top-k by inner product.

        Scoring runs per probed cell — a gemv is an independent dot product
        per row, so chunking the candidate matrix by cell and concatenating
        in probe order is bitwise identical to one gemv over the
        concatenated candidates.
        """
        if not self.is_trained:
            raise ExecutionError("index must be built before searching")
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        nprobe = min(max(nprobe, 1), len(self._cell_ids))
        cell_scores = self._centroids @ query
        probe = np.argsort(-cell_scores)[:nprobe]
        candidate_ids = np.concatenate([self._cell_ids[c] for c in probe]) \
            if len(probe) else np.zeros(0, dtype=np.int64)
        if candidate_ids.size == 0:
            return candidate_ids, np.zeros(0, dtype=np.float32)
        scores = np.concatenate([self._cell_vectors[c] @ query for c in probe])
        k = min(k, len(candidate_ids))
        top = np.argpartition(-scores, k - 1)[:k]
        top = top[np.argsort(-scores[top])]
        return candidate_ids[top], scores[top]

    def recall_at_k(self, queries: np.ndarray, corpus: np.ndarray, k: int,
                    nprobe: int = 4) -> float:
        """Average overlap between approximate and exact top-k sets."""
        total = 0.0
        for query in queries:
            exact = np.argsort(-(corpus @ query))[:k]
            approx, _ = self.search(query, k, nprobe)
            total += len(set(exact.tolist()) & set(approx.tolist())) / k
        return total / len(queries)


def _two_tower_model(udf) -> Optional[object]:
    """Find a CLIP-style two-tower model among a UDF's attached modules."""
    for module in getattr(udf, "modules", []) or []:
        if hasattr(module, "encode_image") and hasattr(module, "encode_text"):
            return module
    return None


class IndexEntry:
    """One named vector index over ``table.column``."""

    def __init__(self, name: str, table: str, column: str, cells: int = 16,
                 nprobe: Optional[int] = None, seed: int = 0):
        # The SQL binder validates DDL options; mirror it here so
        # Session.create_vector_index fails at creation, not at first probe.
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
        # Serialises lazy (re)builds: concurrent probes of an unbuilt/stale
        # entry build exactly once; the losers of the race reuse the winner's
        # cells (IndexManager.ensure_built double-checks under this lock).
        self._build_lock = threading.RLock()
        # Build state (populated lazily by IndexManager.ensure_built).
        self.index: Optional[IVFFlatIndex] = None
        self.built_table = None          # the Table object the cells came from
        self.built_fp = None             # its embedding model's weight fingerprint
        self.model = None                # two-tower model bound on first query
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

    def __init__(self, catalog, tensor_cache):
        self.catalog = catalog
        self.tensor_cache = tensor_cache  # the session's TensorCache
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
               replace: bool = False) -> IndexEntry:
        key = name.lower()
        target = self.catalog.get(table)       # raises on unknown table
        if not target.has_column(column):
            raise CatalogError(
                f"table {table!r} has no column {column!r}; "
                f"columns: {target.column_names}"
            )
        entry = IndexEntry(name, table, column, cells=cells, nprobe=nprobe,
                           seed=seed)
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

        Three gates: the UDF must *declare* an ANN contract (``ann=
        "inner_product"``: scores monotone in the inner product of its
        model's embeddings — undeclared functions may invert or threshold
        their model's scores, so acceleration would reorder results); a
        two-tower model must be attached; and the entry must be unbound or
        bound to that same model (an index built in one embedding space
        cannot answer queries embedded in another — such queries fall back
        to the exact plan rather than thrash-rebuilding).
        """
        if getattr(udf, "ann_metric", None) not in ANN_METRICS:
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
        if (current is entry.built_table
                and self.tensor_cache.model_state_fp(entry.model) == entry.built_fp):
            return "ready"
        return "stale"

    def ensure_built(self, entry: IndexEntry, udf,
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
            model = _two_tower_model(udf)
            if model is None or (entry.model is not None
                                 and model is not entry.model):
                raise ExecutionError(
                    f"index {entry.name!r} cannot embed with the model of "
                    f"UDF {getattr(udf, 'name', '?')!r}"
                )
            fp = self.tensor_cache.model_state_fp(model)
            if (entry.index is not None and entry.built_table is current
                    and entry.built_fp == fp):
                return entry.index
            entry.model = model
            column = current.column(entry.column)
            vectors = (self._cached_model_embeddings(column, model)
                       if use_tensor_cache else None)
            if vectors is None:
                with no_grad():
                    vectors = model.encode_image(column.tensor).detach().data
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
        if tag is None:
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
            return entry.model.encode_text([text]).detach().data.reshape(-1)
