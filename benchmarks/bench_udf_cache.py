"""Inference materialization-cache benchmark (the tensor-cache subsystem).

The paper's multimodal workload re-runs NN inference inside every statement.
With the session ``TensorCache``:

* a repeated similarity query serves its UDF outputs from the cache —
  acceptance: >= 5x faster warm than cold, bit-identical results;
* an index build after a similarity query (and a query after a build)
  performs **zero** additional corpus image encodes — the two paths share
  one embedding materialization.

Corpus: the Fig 2 attachment dataset (200 images). ``REPRO_BENCH_SCALE``
trims repeats only; the smoke threshold is relaxed because a single cold
run is noisy at tiny scale.
"""

import contextlib

import numpy as np

from repro.bench.harness import (Timer, bench_scale, print_table,
                                 record_metric, scaled, time_call)
from repro.apps.multimodal import setup_multimodal
from repro.core.session import Session

K = 10


def _topk_sql(text: str, k: int = K) -> str:
    return (f"SELECT attachment_id, image_text_similarity('{text}', images) "
            f"AS score FROM Attachments ORDER BY score DESC LIMIT {k}")


@contextlib.contextmanager
def _tower_row_counter(model):
    """Count rows flowing through the image tower (corpus encode work)."""
    rows = []
    tower = model.image_tower
    orig = tower.forward

    def forward(x):
        rows.append(x.shape[0])
        return orig(x)

    tower.forward = forward
    try:
        yield rows
    finally:
        delattr(tower, "forward")


class TestUdfCache:
    def test_repeated_query_speedup(self, benchmark, fig2_dataset, clip_model):
        """Acceptance: warm repeat >= 5x faster than cold, bit-identical."""
        session = Session()
        setup_multimodal(session, fig2_dataset, clip_model)
        query = session.sql.query(_topk_sql("KFC Receipt"))

        with Timer() as cold:
            cold_result = query.run()
        warm_s = time_call(query.run, repeat=scaled(5))
        warm_result = query.run()

        assert cold_result.column("attachment_id").tolist() == \
            warm_result.column("attachment_id").tolist()
        np.testing.assert_array_equal(cold_result.column("score"),
                                      warm_result.column("score"))
        stats = session.tensor_cache.stats
        assert stats["hits"] >= 1

        speedup = cold.seconds / max(warm_s, 1e-9)
        print_table(
            f"tensor cache: repeated top-{K} similarity query (200 attachments)",
            ["path", "seconds", "speedup"],
            [["cold (model inference)", cold.seconds, 1.0],
             ["warm (cache hit)", warm_s, speedup]],
        )
        record_metric("udf_cache", speedup=round(speedup, 2),
                      cold_s=round(cold.seconds, 4), warm_s=round(warm_s, 6))
        assert speedup >= (5.0 if bench_scale() >= 1 else 2.0)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_index_build_after_query_zero_corpus_encodes(
            self, benchmark, fig2_dataset, clip_model):
        """A CREATE VECTOR INDEX build after a similarity query reuses the
        query's full-column corpus embedding."""
        session = Session()
        setup_multimodal(session, fig2_dataset, clip_model)
        n = len(fig2_dataset)
        with _tower_row_counter(clip_model) as rows:
            session.sql.query(_topk_sql("KFC Receipt")).run()
            assert sum(rows) == n                # cold: corpus encoded once
            rows.clear()
            session.sql.query(
                "CREATE VECTOR INDEX att_ivf ON Attachments(images) "
                "WITH (cells=16, nprobe=4)").run()
            indexed = session.sql.query(_topk_sql("KFC Receipt"))
            assert "IndexScan" in indexed.explain()
            indexed.run()                        # triggers the lazy build
            assert sum(rows) == 0                # zero additional encodes
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_query_after_index_build_zero_corpus_encodes(
            self, benchmark, fig2_dataset, clip_model):
        """An exact similarity scan after an index build reuses the build's
        full-column embedding."""
        session = Session()
        setup_multimodal(session, fig2_dataset, clip_model,
                         vector_index=True, index_cells=16, index_nprobe=4)
        n = len(fig2_dataset)
        with _tower_row_counter(clip_model) as rows:
            session.sql.query(_topk_sql("beach")).run()   # builds the index
            assert sum(rows) == n
            rows.clear()
            exact = session.sql.query(
                _topk_sql("beach"),
                extra_config={"disable_rules": ("vector_index",)})
            assert "IndexScan" not in exact.explain()
            result = exact.run()
            assert sum(rows) == 0                # full scan, no re-encode
            assert len(result) == K
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_cached_results_match_uncached(self, benchmark, fig2_dataset,
                                           clip_model):
        session = Session()
        setup_multimodal(session, fig2_dataset, clip_model)
        sql = _topk_sql("STARBUCKS receipt")
        cached = session.sql.query(sql).run()
        cached_again = session.sql.query(sql).run()
        uncached = session.sql.query(
            sql, extra_config={"tensor_cache": False}).run()
        for other in (cached_again, uncached):
            assert cached.column("attachment_id").tolist() == \
                other.column("attachment_id").tolist()
            np.testing.assert_allclose(cached.column("score"),
                                       other.column("score"), rtol=1e-6)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
