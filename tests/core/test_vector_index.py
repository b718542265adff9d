"""Vector-index subsystem: DDL, lifecycle, planning and ANN/exact parity."""

import numpy as np
import pytest

from repro.errors import BindError, CatalogError
from repro.core.index import IVFFlatIndex
from repro.core.session import Session
from repro.tcr import nn, ops
from repro.tcr.tensor import Tensor


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


class ToyTwoTower(nn.Module):
    """Minimal CLIP-shaped model: corpus rows are already embeddings and
    query texts look up fixed vectors, so tests need no training."""

    def __init__(self, vocab):
        super().__init__()
        self.vocab = {k: np.asarray(v, dtype=np.float32) for k, v in vocab.items()}

    def encode_image(self, images: Tensor) -> Tensor:
        return images

    def encode_text(self, texts) -> Tensor:
        return Tensor(np.stack([self.vocab[t] for t in texts]))

    def similarity(self, query: str, images: Tensor) -> Tensor:
        text = Tensor(self.vocab[query].reshape(-1, 1))
        return ops.matmul(images, text).reshape(-1)


@pytest.fixture
def vec_session(rng):
    """64 unit vectors in 8-d plus a similarity UDF over them."""
    session = Session()
    corpus = _unit(rng.normal(size=(64, 8))).astype(np.float32)
    vocab = {"q0": corpus[0], "q1": corpus[17], "probe": _unit(rng.normal(size=8))}
    model = ToyTwoTower(vocab)
    session.sql.register_dict(
        {"id": np.arange(64), "emb": corpus}, "vecs")

    @session.udf("float", name="vec_sim", modules=[model], ann="inner_product")
    def vec_sim(query: str, emb: Tensor) -> Tensor:
        return model.similarity(query, emb)

    return session, corpus, vocab


TOPK_SQL = ("SELECT id, vec_sim('{q}', emb) AS score FROM vecs "
            "ORDER BY score DESC LIMIT {k}")
EXACT = {"disable_rules": ("vector_index",)}


def _ids(result):
    return result.column("id").tolist()


class TestIndexDdl:
    def test_create_show_drop_roundtrip(self, vec_session):
        session, _, _ = vec_session
        status = session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=4, nprobe=2)"
        ).run().column("status")[0]
        assert "vidx" in status
        shown = session.sql.query("SHOW INDEXES").run()
        assert _one(shown, "name") == "vidx"
        assert _one(shown, "table") == "vecs"
        assert _one(shown, "column") == "emb"
        assert _one(shown, "cells") == 4
        assert _one(shown, "status") == "unbuilt"
        session.sql.query("DROP INDEX vidx").run()
        assert len(session.sql.query("SHOW INDEXES").run()) == 0

    def test_duplicate_create_rejected(self, vec_session):
        session, _, _ = vec_session
        session.sql.query("CREATE VECTOR INDEX vidx ON vecs(emb)").run()
        with pytest.raises(CatalogError):
            session.sql.query("CREATE VECTOR INDEX vidx ON vecs(emb)").run()

    def test_drop_unknown_needs_if_exists(self, vec_session):
        session, _, _ = vec_session
        with pytest.raises(CatalogError):
            session.sql.query("DROP INDEX ghost").run()
        status = session.sql.query("DROP INDEX IF EXISTS ghost").run()
        assert "skipped" in status.column("status")[0]

    def test_bind_validation(self, vec_session):
        session, _, _ = vec_session
        with pytest.raises(BindError):
            session.sql.query("CREATE VECTOR INDEX i ON nosuch(emb)").run()
        with pytest.raises(BindError):
            session.sql.query("CREATE VECTOR INDEX i ON vecs(nocol)").run()
        with pytest.raises(BindError):
            session.sql.query("CREATE VECTOR INDEX i ON vecs(emb) WITH (bogus=3)").run()

    def test_python_native_path(self, vec_session):
        session, _, _ = vec_session
        entry = session.create_vector_index("vidx", "vecs", "emb", cells=4)
        assert entry.nprobe == 1        # default: cells // 4
        assert session.drop_index("vidx")


class TestIndexedPlanning:
    def test_plan_shows_index_scan(self, vec_session):
        session, _, _ = vec_session
        session.sql.query("CREATE VECTOR INDEX vidx ON vecs(emb)").run()
        query = session.sql.query(TOPK_SQL.format(q="q0", k=5))
        assert "TopKSimilarity" in query.plan_text
        assert "IndexScan(vidx" in query.explain()
        exact = session.sql.query(TOPK_SQL.format(q="q0", k=5), extra_config=EXACT)
        assert "IndexScan" not in exact.explain()

    def test_plan_cache_invalidated_by_index_ddl(self, vec_session):
        session, _, _ = vec_session
        statement = TOPK_SQL.format(q="q0", k=5)
        before = session.sql.query(statement)
        assert "IndexScan" not in before.explain()
        session.sql.query("CREATE VECTOR INDEX vidx ON vecs(emb)").run()
        after = session.sql.query(statement)
        assert after is not before
        assert "IndexScan" in after.explain()
        session.sql.query("DROP INDEX vidx").run()
        dropped = session.sql.query(statement)
        assert "IndexScan" not in dropped.explain()

    def test_trainable_queries_never_use_index(self, vec_session):
        session, _, _ = vec_session
        session.sql.query("CREATE VECTOR INDEX vidx ON vecs(emb)").run()
        query = session.sql.query(TOPK_SQL.format(q="q0", k=5),
                                  extra_config={"trainable": True})
        assert "IndexScan" not in query.explain()

    def test_undeclared_udf_is_not_accelerated(self, vec_session):
        """Only UDFs declaring ann= are eligible: an undeclared function
        (e.g. a dissimilarity) must keep the exact plan even though it
        closes over a two-tower model."""
        session, _, vocab = vec_session
        model = ToyTwoTower(vocab)

        @session.udf("float", name="vec_dissim", modules=[model])
        def vec_dissim(query: str, emb: Tensor) -> Tensor:
            return ops.neg(model.similarity(query, emb))

        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=4, nprobe=1)").run()
        sql = ("SELECT id, vec_dissim('probe', emb) AS score FROM vecs "
               "ORDER BY score DESC LIMIT 5")
        query = session.sql.query(sql)
        assert "IndexScan" not in query.explain()
        want = session.sql.query(sql, extra_config=EXACT).run()
        assert _ids(query.run()) == _ids(want)

    def test_foreign_model_udf_keeps_exact_plan(self, vec_session, rng):
        """An index bound to one embedding space refuses queries embedded in
        another (no rebuild thrash, no wrong-space ranking)."""
        session, _, vocab = vec_session
        other_vocab = {k: _unit(rng.normal(size=8)) for k in vocab}
        other = ToyTwoTower(other_vocab)

        @session.udf("float", name="other_sim", modules=[other], ann="inner_product")
        def other_sim(query: str, emb: Tensor) -> Tensor:
            return other.similarity(query, emb)

        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=4, nprobe=4)").run()
        # Bind the entry to vec_sim's model first.
        session.sql.query(TOPK_SQL.format(q="q0", k=5)).run()
        entry = session.indexes.lookup("vidx")
        assert entry.build_count == 1
        sql = ("SELECT id, other_sim('probe', emb) AS score FROM vecs "
               "ORDER BY score DESC LIMIT 5")
        query = session.sql.query(sql)
        assert "IndexScan" not in query.explain()    # compile-time gate
        want = session.sql.query(sql, extra_config=EXACT).run()
        assert _ids(query.run()) == _ids(want)
        assert entry.build_count == 1                # and no rebuild thrash


class TestIndexedExecution:
    def test_full_probe_matches_exact(self, vec_session):
        """recall == 1.0 when nprobe == cells: every cell is scanned."""
        session, _, _ = vec_session
        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=4, nprobe=4)").run()
        for q in ("q0", "q1", "probe"):
            got = session.sql.query(TOPK_SQL.format(q=q, k=10)).run()
            want = session.sql.query(TOPK_SQL.format(q=q, k=10),
                                     extra_config=EXACT).run()
            assert _ids(got) == _ids(want)
            assert np.allclose(got.column("score"), want.column("score"))

    def test_residual_predicate_post_filters(self, vec_session):
        session, _, _ = vec_session
        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=4, nprobe=4)").run()
        sql = ("SELECT id FROM vecs WHERE id < 20 "
               "ORDER BY vec_sim('probe', emb) DESC LIMIT 5")
        got = session.sql.query(sql).run()
        want = session.sql.query(sql, extra_config=EXACT).run()
        assert _ids(got) == _ids(want)
        assert all(i < 20 for i in _ids(got))

    def test_staleness_rebuild_after_reregister(self, vec_session, rng):
        session, corpus, vocab = vec_session
        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=4, nprobe=4)").run()
        statement = TOPK_SQL.format(q="probe", k=3)
        session.sql.query(statement).run()
        entry = session.indexes.lookup("vidx")
        assert entry.build_count == 1
        assert session.indexes.status(entry) == "ready"

        # Append a row that is the probe vector itself: after re-registration
        # the index must rebuild and surface the new best match.
        # The write keeps the schema, so the cached plan survives it; the
        # index notices the new table at run time.
        extended = np.concatenate([corpus, vocab["probe"][None, :]])
        plan = session.sql.query(statement)
        session.sql.register_dict(
            {"id": np.arange(65), "emb": extended.astype(np.float32)}, "vecs")
        assert session.sql.query(statement) is plan
        assert session.indexes.status(entry) == "stale"
        result = plan.run()
        assert _ids(result)[0] == 64
        assert entry.build_count == 2
        assert session.indexes.status(entry) == "ready"

    def test_in_place_weight_write_rebuilds(self):
        """The entry records its model's weight fingerprint: an in-place
        write to the weights makes it stale, and the next probe rebuilds
        the cells from the new embeddings instead of probing old ones."""

        class Projected(nn.Module):
            def __init__(self):
                super().__init__()
                self.w = nn.Parameter(np.eye(8, dtype=np.float32))

            def encode_image(self, images: Tensor) -> Tensor:
                return ops.matmul(images, self.w)

            def encode_text(self, texts) -> Tensor:
                return Tensor(np.eye(8, dtype=np.float32)[[0] * len(texts)])

        session = Session()
        rng = np.random.default_rng(0)
        clusters = np.repeat(np.eye(8, dtype=np.float32) * 4, 25, axis=0)
        corpus = clusters + rng.normal(scale=0.05, size=(200, 8)).astype(np.float32)
        session.sql.register_dict({"id": np.arange(200), "emb": corpus}, "vecs")
        model = Projected()

        @session.udf("float", name="vec_sim", modules=[model], ann="inner_product")
        def vec_sim(query: str, emb: Tensor) -> Tensor:
            text = model.encode_text([query]).reshape(-1, 1)
            return ops.matmul(model.encode_image(emb), text).reshape(-1)

        # seed=1: k-means puts each of the eight clusters in a cell of its
        # own, so a fresh index answers nprobe=1 exactly.
        session.sql.query("CREATE VECTOR INDEX vidx ON vecs(emb) "
                          "WITH (cells=8, nprobe=1, seed=1)").run()
        statement = TOPK_SQL.format(q="q", k=5)
        before = _ids(session.sql.query(statement).run())
        assert before == _ids(session.sql.query(statement, extra_config=EXACT).run())
        entry = session.indexes.lookup("vidx")
        assert entry.build_count == 1 and session.indexes.status(entry) == "ready"

        model.w.data[...] = np.eye(8, dtype=np.float32)[[1, 0, 2, 3, 4, 5, 6, 7]]
        assert session.indexes.status(entry) == "stale"
        exact = _ids(session.sql.query(statement, extra_config=EXACT).run())
        assert set(exact) <= set(range(25, 50))  # the swap made cluster 1 best
        assert _ids(session.sql.query(statement).run()) == exact
        assert entry.build_count == 2
        assert session.indexes.status(entry) == "ready"

    def test_sparse_cells_escalate_to_full_k(self, vec_session):
        """nprobe=1 over many small cells still returns k rows (escalation)."""
        session, _, _ = vec_session
        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=16, nprobe=1)").run()
        got = session.sql.query(TOPK_SQL.format(q="probe", k=10)).run()
        assert len(got) == 10

    def test_dropped_index_falls_back_to_exact(self, vec_session):
        session, _, _ = vec_session
        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=4, nprobe=4)").run()
        query = session.sql.query(TOPK_SQL.format(q="q1", k=5))
        assert "IndexScan" in query.explain()
        want = _ids(query.run())
        session.sql.query("DROP INDEX vidx").run()
        # The held compiled plan still runs: IndexScanExec degrades to the
        # exact Filter/TopK/Project pipeline.
        assert _ids(query.run()) == want

    def test_cosine_metric_normalizes_unnormalized_embeddings(self, rng):
        """ann='cosine' over a model emitting unnormalized vectors: the
        index must L2-normalize, or large-norm rows would outrank truly
        closer ones even at a full probe."""
        session = Session()
        directions = _unit(rng.normal(size=(32, 6)))
        norms = rng.uniform(0.1, 10.0, size=(32, 1))
        corpus = (directions * norms).astype(np.float32)   # wildly varied norms
        session.sql.register_dict({"id": np.arange(32), "emb": corpus}, "vecs")
        vocab = {"probe": _unit(rng.normal(size=6)).astype(np.float32)}
        model = ToyTwoTower(vocab)

        @session.udf("float", name="cos_sim", modules=[model], ann="cosine")
        def cos_sim(query: str, emb: Tensor) -> Tensor:
            q = vocab[query]
            data = emb.detach().data
            cos = (data @ q) / np.maximum(np.linalg.norm(data, axis=1), 1e-12)
            return Tensor(cos.astype(np.float32))

        session.sql.query(
            "CREATE VECTOR INDEX cidx ON vecs(emb) WITH (cells=4, nprobe=4)").run()
        sql = ("SELECT id, cos_sim('probe', emb) AS score FROM vecs "
               "ORDER BY score DESC LIMIT 8")
        query = session.sql.query(sql)
        assert "IndexScan" in query.explain()
        got = query.run()
        want = session.sql.query(sql, extra_config=EXACT).run()
        assert _ids(got) == _ids(want)
        assert session.indexes.lookup("cidx").metric == "cosine"

    def test_python_create_validates_option_types(self, vec_session):
        session, _, _ = vec_session
        with pytest.raises(CatalogError):
            session.create_vector_index("bad", "vecs", "emb", cells=16, nprobe=16 / 4)
        with pytest.raises(CatalogError):
            session.create_vector_index("bad", "vecs", "emb", cells="many")

    def test_raw_vector_column_search(self, vec_session):
        """Python-native search over a raw 2-D float column (no embedder)."""
        session, corpus, vocab = vec_session
        session.create_vector_index("raw", "vecs", "emb", cells=4, nprobe=4)
        query = vocab["probe"]
        ids, scores = session.indexes.search("raw", query, k=5)
        exact = np.argsort(-(corpus @ query))[:5]
        assert ids.tolist() == exact.tolist()
        assert np.all(np.diff(scores) <= 0)

    def test_recall_reasonable_with_partial_probe(self, vec_session):
        session, corpus, _ = vec_session
        session.create_vector_index("raw", "vecs", "emb", cells=8, nprobe=8)
        index = session.indexes.ensure_built(session.indexes.lookup("raw"))
        queries = _unit(np.random.default_rng(5).normal(size=(8, 8))).astype(np.float32)
        assert index.recall_at_k(queries, corpus, k=10, nprobe=8) == 1.0
        assert index.recall_at_k(queries, corpus, k=10, nprobe=4) >= 0.5


class TestKMeansReseeding:
    def test_clustered_corpus_keeps_cells_populated(self):
        """Empty cells reseed from far points, so tiny clusters get cells."""
        rng = np.random.default_rng(0)
        big = _unit(np.array([1.0, 0, 0]) + rng.normal(scale=0.01, size=(100, 3)))
        small = _unit(np.array([0, 1.0, 0]) + rng.normal(scale=0.01, size=(4, 3)))
        corpus = np.concatenate([big, small]).astype(np.float32)
        index = IVFFlatIndex(num_cells=6, seed=0).build(corpus)
        sizes = [len(ids) for ids in index._cell_ids]
        assert all(size > 0 for size in sizes)
        # The small cluster is recoverable with a single probe.
        ids, _ = index.search(np.array([0, 1.0, 0], dtype=np.float32), 4, nprobe=1)
        assert set(ids.tolist()) == {100, 101, 102, 103}


class TestNprobeHint:
    """Per-query probe-width override: extra_config={"nprobe": N}."""

    def test_hint_overrides_index_default(self, vec_session):
        session, _, _ = vec_session
        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=8, nprobe=1)").run()
        sql = TOPK_SQL.format(q="probe", k=10)
        hinted = session.sql.query(sql, extra_config={"nprobe": 8})
        assert "IndexScan" in hinted.explain()
        assert "nprobe=8 (hint)" in hinted.explain()
        default = session.sql.query(sql)
        assert "(hint)" not in default.explain()
        # Probing every cell is exact: hint results must match the exact plan.
        exact = session.sql.query(sql, extra_config=EXACT)
        assert _ids(hinted.run()) == _ids(exact.run())

    def test_hint_is_part_of_the_plan_cache_fingerprint(self, vec_session):
        session, _, _ = vec_session
        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=8, nprobe=1)").run()
        sql = TOPK_SQL.format(q="probe", k=5)
        plain = session.sql.query(sql)
        hinted = session.sql.query(sql, extra_config={"nprobe": 4})
        assert plain is not hinted
        assert session.sql.query(sql, extra_config={"nprobe": 4}) is hinted

    def test_hint_clamps_to_cell_count(self, vec_session):
        session, _, _ = vec_session
        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=4, nprobe=4)").run()
        sql = TOPK_SQL.format(q="q0", k=5)
        got = session.sql.query(sql, extra_config={"nprobe": 1000}).run()
        want = session.sql.query(sql, extra_config=EXACT).run()
        assert _ids(got) == _ids(want)

    def test_bad_hints_rejected(self, vec_session):
        session, _, _ = vec_session
        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=4, nprobe=4)").run()
        sql = TOPK_SQL.format(q="q0", k=5)
        with pytest.raises(ValueError, match="nprobe"):
            session.sql.query(sql, extra_config={"nprobe": 0})
        with pytest.raises(ValueError, match="nprobe"):
            session.sql.query(sql, extra_config={"nprobe": "wide"})


def _one(result, column):
    values = result.column(column)
    assert len(values) == 1
    return values[0]
