"""Ablation A4 — approximate top-k indexing (the paper's stated future work).

Builds an IVF-Flat index over TinyCLIP image embeddings and compares exact
scan vs index probes for top-k similarity, reporting latency and recall@k.
"""

import numpy as np
import pytest

from repro.bench.harness import print_table, time_call
from repro.core.indexes import IVFFlatIndex
from repro.ml.models.clip import text_features
from repro.tcr.autograd import no_grad
from repro.tcr.tensor import Tensor

K = 10


@pytest.fixture(scope="module")
def embeddings(workload_images, clip_model):
    with no_grad():
        corpus = clip_model.encode_image(Tensor(workload_images.images)).data
        queries = clip_model.text_tower(
            Tensor(text_features([
                "receipt", "dog", "company logo", "beach", "KFC Receipt",
                "mountain", "cat", "STARBUCKS receipt",
            ]))).data
    return corpus.astype(np.float32), queries.astype(np.float32)


@pytest.fixture(scope="module")
def index(embeddings):
    corpus, _ = embeddings
    return IVFFlatIndex(num_cells=32, seed=0).build(corpus)


class TestIvfFlat:
    def test_recall_and_latency(self, benchmark, embeddings, index):
        corpus, queries = embeddings

        def exact_all():
            for q in queries:
                scores = corpus @ q
                np.argpartition(-scores, K - 1)[:K]

        rows = []
        exact_seconds = time_call(exact_all, repeat=5)
        for nprobe in [1, 4, 8]:
            seconds = time_call(
                lambda: [index.search(q, K, nprobe=nprobe) for q in queries],
                repeat=5,
            )
            recall = index.recall_at_k(queries, corpus, K, nprobe=nprobe)
            rows.append([f"IVF nprobe={nprobe}", seconds, recall])
        rows.append(["exact scan", exact_seconds, 1.0])
        print_table(
            f"A4: top-{K} search over {len(corpus)} embeddings",
            ["strategy", "seconds (8 queries)", f"recall@{K}"], rows,
        )
        # More probes -> higher recall; full probing must be near-exact.
        recalls = [r[2] for r in rows[:3]]
        assert recalls[1] >= recalls[0]
        assert recalls[2] >= 0.8
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_search_consistent_with_exact_when_probing_all(self, benchmark, embeddings):
        corpus, queries = embeddings
        index = IVFFlatIndex(num_cells=8, seed=1).build(corpus)
        for q in queries[:3]:
            ids, _ = index.search(q, K, nprobe=8)
            exact = np.argsort(-(corpus @ q))[:K]
            assert set(ids.tolist()) == set(exact.tolist())
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_index_search(self, benchmark, embeddings, index):
        _, queries = embeddings
        benchmark.pedantic(lambda: index.search(queries[0], K, nprobe=4),
                           rounds=5, iterations=2)

    def test_exact_scan(self, benchmark, embeddings):
        corpus, queries = embeddings

        def exact():
            scores = corpus @ queries[0]
            return np.argpartition(-scores, K - 1)[:K]

        benchmark.pedantic(exact, rounds=5, iterations=2)
