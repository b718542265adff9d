"""Approximate vector index for top-k similarity search.

The paper notes (§5.1): "We are currently integrating approximate indexing
[36] into TDP for speeding up top-k queries." This module implements that
future-work item: an IVF-Flat index (k-means coarse quantiser + per-cell
exact scan, the Milvus/FAISS baseline layout) built over embedding columns.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.tcr.random import fork_generator
from repro.tcr.tensor import Tensor


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

    def build(self, vectors: "np.ndarray | Tensor") -> "IVFFlatIndex":
        """Cluster the corpus and bucket every vector into its nearest cell."""
        if isinstance(vectors, Tensor):
            vectors = vectors.detach().data
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

    def search(self, query: "np.ndarray | Tensor", k: int,
               nprobe: int = 4) -> Tuple[np.ndarray, np.ndarray]:
        """Return (ids, scores) of the approximate top-k by inner product.

        Scoring runs per probed cell — a gemv is an independent dot product
        per row, so chunking the candidate matrix by cell and concatenating
        in probe order is bitwise identical to one gemv over the
        concatenated candidates.
        """
        if not self.is_trained:
            raise ExecutionError("index must be built before searching")
        if isinstance(query, Tensor):
            query = query.detach().data
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
