"""Inference-aware execution: the session tensor cache + expression CSE.

Covers the materialization-cache acceptance contract: repeated statements
skip inference, a UDF duplicated between SELECT and WHERE invokes its model
exactly once (CSE + subset gather), index builds and similarity queries
share corpus embeddings in both directions, and trainable / non-
deterministic / mutated-weight paths never serve stale results.
"""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.core.session import Session
from repro.core.tensor_cache import TensorCache, state_fingerprint
from repro.storage.column import buffer_lineage
from repro.storage.encodings import EncodedTensor, PlainEncoding
from repro.storage.frame import DataFrame
from repro.tcr import nn, ops
from repro.tcr.tensor import Tensor


def _register_numbers(session, n=8, device="cpu"):
    session.sql.register_dict(
        {"k": np.arange(n, dtype=np.int64),
         "x": np.arange(n, dtype=np.float32)}, "t", device=device)
    return n


def _counting_probe(session, factor=2.0):
    calls = []

    @session.udf("float", name="probe")
    def probe(x):
        calls.append(x.shape[0])
        return x * factor

    return calls


class TestUdfOutputCache:
    def test_repeated_statement_skips_inference(self, session):
        n = _register_numbers(session)
        calls = _counting_probe(session)
        sql = "SELECT probe(x) AS y FROM t"
        first = session.sql.query(sql).run(toPandas=True)
        cold_calls = sum(calls)
        assert cold_calls == n
        second = session.sql.query(sql).run(toPandas=True)
        assert sum(calls) == cold_calls          # no new model work
        assert first["y"].tolist() == second["y"].tolist()
        stats = session.tensor_cache.stats
        assert stats["hits"] >= 1
        assert stats["size"] >= 1

    def test_udf_duplicated_select_where_single_pass(self):
        """The acceptance criterion: SELECT f(x) ... WHERE f(x) > c invokes
        the model exactly once (one whole-column invocation)."""
        session = Session()
        n = _register_numbers(session, n=40, device="cuda")
        calls = _counting_probe(session)
        out = session.sql.query(
            "SELECT probe(x) AS s FROM t WHERE probe(x) > 10",
            device="cuda").run(toPandas=True)
        assert calls == [n]                      # exactly one evaluation pass
        expected = np.arange(n, dtype=np.float32) * 2.0
        assert out["s"].tolist() == expected[expected > 10].tolist()

    def test_cse_within_select_list_without_cache(self, session):
        """Structural-hash CSE is per-pass and works with the cache off."""
        n = _register_numbers(session, n=40, device="cuda")
        calls = _counting_probe(session)
        out = session.sql.query(
            "SELECT probe(x) + 1 AS a, probe(x) * 2 AS b FROM t",
            device="cuda",
            extra_config={"tensor_cache": False}).run(toPandas=True)
        assert calls == [n]                      # shared subtree, one invoke
        np.testing.assert_allclose(out["a"], np.arange(n) * 2.0 + 1)
        np.testing.assert_allclose(out["b"], np.arange(n) * 4.0)

    def test_subset_after_filter_gathers_from_full_entry(self, session):
        n = _register_numbers(session)
        calls = _counting_probe(session)
        full = session.sql.query("SELECT probe(x) AS s FROM t").run(toPandas=True)
        assert sum(calls) == n
        filtered = session.sql.query(
            "SELECT probe(x) AS s FROM t WHERE k < 3").run(toPandas=True)
        assert sum(calls) == n                   # gathered, not recomputed
        assert filtered["s"].tolist() == full["s"].tolist()[:3]
        assert session.tensor_cache.stats["gather_hits"] >= 1
        scattered = session.sql.query(
            "SELECT probe(x) AS s FROM t WHERE k = 1 OR k > 5").run(toPandas=True)
        assert scattered["s"].tolist() == [full["s"][i] for i in (1, 6, 7)]
        assert sum(calls) == n
        assert session.tensor_cache.stats["rows_computed"] == n

    def test_config_flag_disables_cache(self, session):
        n = _register_numbers(session)
        calls = _counting_probe(session)
        config = {"tensor_cache": False}
        session.sql.query("SELECT probe(x) AS y FROM t", extra_config=config).run()
        session.sql.query("SELECT probe(x) AS y FROM t", extra_config=config).run()
        assert sum(calls) == 2 * n

    def test_zero_budget_session_disables_cache(self):
        session = Session(tensor_cache_bytes=0)
        n = _register_numbers(session)
        calls = _counting_probe(session)
        session.sql.query("SELECT probe(x) AS y FROM t").run()
        session.sql.query("SELECT probe(x) AS y FROM t").run()
        assert sum(calls) == 2 * n
        assert len(session.tensor_cache) == 0


class TestCacheBypasses:
    def test_nondeterministic_udf_never_cached(self, session):
        _register_numbers(session, n=4, device="cuda")
        counter = [0.0]

        @session.udf("float", name="rnd", deterministic=False)
        def rnd(x):
            counter[0] += 1.0
            return x * 0 + counter[0]

        sql = "SELECT rnd(x) AS a, rnd(x) AS b FROM t"
        out = session.sql.query(sql, device="cuda").run(toPandas=True)
        # No CSE between the two references, and no cross-statement reuse.
        assert out["a"][0] != out["b"][0]
        out2 = session.sql.query(sql, device="cuda").run(toPandas=True)
        assert out2["a"][0] not in (out["a"][0], out["b"][0])
        assert session.tensor_cache.stats["hits"] == 0

    def test_trainable_queries_never_touch_cache(self, session):
        _register_numbers(session, n=8)
        model = nn.Linear(1, 1)
        calls = []

        @session.udf("float", name="scored", modules=[model])
        def scored(x):
            calls.append(x.shape[0])
            return model(x.reshape(-1, 1)).reshape(-1)

        query = session.sql.query("SELECT scored(x) AS y FROM t",
                                  extra_config={"trainable": True})
        query.run()
        query.run()
        assert sum(calls) == 16                  # both runs computed
        assert len(session.tensor_cache) == 0

    def test_in_place_weight_mutation_invalidates(self, session):
        _register_numbers(session, n=6)
        model = nn.Linear(1, 1)

        @session.udf("float", name="scored", modules=[model])
        def scored(x):
            return model(x.reshape(-1, 1)).reshape(-1)

        sql = "SELECT scored(x) AS y FROM t"
        before = session.sql.query(sql).run(toPandas=True)
        again = session.sql.query(sql).run(toPandas=True)
        assert before["y"].tolist() == again["y"].tolist()
        model.weight.data = model.weight.data * 2.0 + 1.0
        after = session.sql.query(sql).run(toPandas=True)
        expected = (np.arange(6, dtype=np.float32).reshape(-1, 1)
                    @ model.weight.data.T + model.bias.data).reshape(-1)
        np.testing.assert_allclose(after["y"], expected, rtol=1e-5)
        assert before["y"].tolist() != after["y"].tolist()


class TestInvalidation:
    def test_table_reregistration_invalidates(self, session):
        _register_numbers(session, n=4)
        _counting_probe(session)
        sql = "SELECT probe(x) AS y FROM t"
        first = session.sql.query(sql).run(toPandas=True)
        session.sql.register_dict(
            {"k": np.arange(4, dtype=np.int64),
             "x": np.arange(4, dtype=np.float32) + 100}, "t")
        second = session.sql.query(sql).run(toPandas=True)
        np.testing.assert_allclose(second["y"], (np.arange(4) + 100) * 2.0)
        assert first["y"].tolist() != second["y"].tolist()

    def test_udf_reregistration_invalidates(self, session):
        _register_numbers(session, n=4)

        @session.udf("float", name="f")
        def f_v1(x):
            return x * 2.0

        sql = "SELECT f(x) AS y FROM t"
        assert session.sql.query(sql).run(toPandas=True)["y"].tolist() == \
            [0.0, 2.0, 4.0, 6.0]

        @session.udf("float", name="f")
        def f_v2(x):
            return x * 3.0

        assert session.sql.query(sql).run(toPandas=True)["y"].tolist() == \
            [0.0, 3.0, 6.0, 9.0]


class TestEmbeddingSharing:
    """Query-time UDF evaluation and index builds share corpus encodes."""

    def _session(self, rng):
        session = Session()
        corpus = rng.normal(size=(64, 8)).astype(np.float32)
        corpus /= np.linalg.norm(corpus, axis=1, keepdims=True)
        vocab = {"q": corpus[3] + 0.01, "other": corpus[40]}
        encoded_rows = []

        class TwoTower(nn.Module):
            def encode_image(self, images: Tensor) -> Tensor:
                encoded_rows.append(images.shape[0])
                return images

            def encode_text(self, texts) -> Tensor:
                return Tensor(np.stack([vocab[t] for t in texts]))

        model = TwoTower()
        session.sql.register_dict(
            {"id": np.arange(64), "emb": corpus}, "vecs")

        @session.udf("float", name="vec_sim", modules=[model],
                     ann="inner_product")
        def vec_sim(query: str, emb: Tensor) -> Tensor:
            img = model.encode_image(emb)
            txt = model.encode_text([query])
            return ops.matmul(img, ops.reshape(txt, (-1, 1))).reshape(-1)

        return session, encoded_rows

    SQL = ("SELECT id, vec_sim('q', emb) AS score FROM vecs "
           "ORDER BY score DESC LIMIT 5")
    EXACT = {"disable_rules": ("vector_index",)}

    def test_index_build_after_query_reuses_embeddings(self, rng):
        """A cold exact top-k on the default device calls vec_sim once on
        the whole column: one corpus encode, and the cache holds the UDF
        output, the corpus and the query text, not an entry per row."""
        session, encoded_rows = self._session(rng)
        exact = session.sql.query(self.SQL).run()
        assert encoded_rows == [64]              # cold: one whole-column call
        assert len(session.tensor_cache) <= 3
        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=4, nprobe=4)"
        ).run()
        indexed = session.sql.query(self.SQL)
        assert "IndexScan" in indexed.explain()
        got = indexed.run()                      # triggers the lazy build
        assert encoded_rows == [64]              # zero additional encodes
        assert got.column("id").tolist() == exact.column("id").tolist()
        np.testing.assert_array_equal(got.column("score"),
                                      exact.column("score"))

    def test_query_after_index_build_reuses_embeddings(self, rng):
        session, encoded_rows = self._session(rng)
        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=4, nprobe=4)"
        ).run()
        session.sql.query(self.SQL).run()        # builds: one corpus encode
        assert sum(encoded_rows) == 64
        session.sql.query(self.SQL, extra_config=self.EXACT).run()
        assert sum(encoded_rows) == 64           # exact scan reused the build

    def test_cache_disabled_query_also_disables_build_sharing(self, rng):
        """extra_config={"tensor_cache": False} covers the lazy index build
        a query triggers, not just its expression evaluation."""
        session, encoded_rows = self._session(rng)
        off = {"tensor_cache": False}
        session.sql.query(self.SQL, extra_config={**self.EXACT, **off}).run()
        assert sum(encoded_rows) == 64
        session.sql.query(
            "CREATE VECTOR INDEX vidx ON vecs(emb) WITH (cells=4, nprobe=4)"
        ).run()
        session.sql.query(self.SQL, extra_config=off).run()
        assert sum(encoded_rows) >= 128          # build re-encoded the corpus
        assert session.tensor_cache.stats["hits"] == 0

    def test_stale_tags_never_leak_into_other_udfs(self, session):
        """A model shared between a deterministic and a deterministic=False
        UDF must not serve (or capture) encoder entries for the latter."""
        corpus = np.arange(16, dtype=np.float32).reshape(8, 2)
        encoded_rows = []

        class Encoder(nn.Module):
            def encode_image(self, images):
                encoded_rows.append(images.shape[0])
                return images

            def encode_text(self, texts):
                return Tensor(np.ones((len(texts), 2), dtype=np.float32))

        model = Encoder()
        session.sql.register_dict({"emb": corpus}, "t")

        @session.udf("float", name="f_det", modules=[model])
        def f_det(emb):
            return ops.sum(model.encode_image(emb), dim=1)

        @session.udf("float", name="f_rand", modules=[model],
                     deterministic=False)
        def f_rand(emb):
            return ops.sum(model.encode_image(emb), dim=1)

        session.sql.query("SELECT f_det(emb) AS y FROM t").run()
        assert sum(encoded_rows) == 8
        session.sql.query("SELECT f_rand(emb) AS y FROM t").run()
        session.sql.query("SELECT f_rand(emb) AS y FROM t").run()
        assert sum(encoded_rows) == 24           # f_rand always re-encodes


class TestUdfRowDeltas:
    """UDF entries are kept per base and filled row by row, like encoder
    entries: a UDF over a registered row range computes only the rows its
    entry lacks."""

    SQL = "SELECT probe(x) AS y FROM t"
    OFF = {"tensor_cache": False}

    @staticmethod
    def _register(session, view):
        session.sql.register_dict({"x": view}, "t")

    def _run(self, session, config=None):
        return np.asarray(session.sql.query(self.SQL, extra_config=config).run().column("y"))

    def test_appended_rows_are_the_only_rows_computed(self, session):
        buf = np.arange(600, dtype=np.float32)
        calls = _counting_probe(session)
        self._register(session, buf[:400])
        results = [self._run(session)]
        assert calls == [400]
        self._register(session, buf[:420])
        results.append(self._run(session))
        assert calls == [400, 20]                # the 20 appended rows
        assert session.tensor_cache.stats["rows_computed"] == 420
        self._register(session, buf[100:200])
        results.append(self._run(session))
        results.append(self._run(session))       # a repeated statement
        assert calls == [400, 20]                # both gathered
        assert session.tensor_cache.stats["rows_computed"] == 420
        for view, got in zip([buf[:400], buf[:420], buf[100:200], buf[100:200]],
                             results):
            self._register(session, view)
            np.testing.assert_array_equal(got, self._run(session, self.OFF))

    def test_column_arguments_over_different_row_sets_go_uncached(self, session):
        left = np.arange(100, dtype=np.float32)
        right = np.arange(100, dtype=np.float32) * 10
        calls = []

        @session.udf("float", name="pair")
        def pair(x, z):
            calls.append(x.shape[0])
            return x + z

        sql = "SELECT pair(x, z) AS y FROM t"

        def run(x, z, config=None):
            session.sql.register_dict({"x": x, "z": z}, "t")
            return np.asarray(session.sql.query(sql, extra_config=config).run().column("y"))

        shifted = [run(left[:50], right[10:60]) for _ in range(2)]
        assert calls == [50, 50]                 # rows 0..49 and 10..59
        aligned = [run(left[:50], right[:50]) for _ in range(2)]
        assert calls == [50, 50, 50]             # one row set: memoised
        np.testing.assert_array_equal(shifted[1], run(left[:50], right[10:60], self.OFF))
        np.testing.assert_array_equal(aligned[1], run(left[:50], right[:50], self.OFF))
        np.testing.assert_array_equal(shifted[0], left[:50] + right[10:60])


class TestRegisteredBuffers:
    """Registration stores numpy arrays without copying and freezes their
    buffer, so an in-place write can never be served stale UDF results."""

    def _doubled(self, session):
        @session.udf("float", name="g")
        def g(x):
            return x * 2

    def test_in_place_write_to_registered_array_raises(self, session):
        buf = np.arange(4, dtype=np.float32)
        session.sql.register_dict({"x": buf}, "t")
        self._doubled(session)
        sql = "SELECT SUM(g(x)) AS s FROM t"
        assert session.sql.query(sql).run().scalar() == 12
        with pytest.raises(ValueError):
            buf += 100
        with pytest.raises(ValueError):
            buf[1:][0] = 5                       # views of it are frozen too
        assert session.sql.query(sql).run().scalar() == \
            session.sql.query("SELECT SUM(x) * 2 AS s FROM t").run().scalar()

    def test_registering_a_copy_after_a_write_is_fresh(self, session):
        buf = np.arange(4, dtype=np.float32)
        session.sql.register_dict({"x": buf}, "t")
        self._doubled(session)
        assert session.sql.query("SELECT SUM(g(x)) AS s FROM t").run().scalar() == 12
        fresh = np.array(buf)
        fresh += 100
        session.sql.register_dict({"x": fresh}, "t")
        assert session.sql.query("SELECT SUM(g(x)) AS s FROM t").run().scalar() == 812

    def test_register_df_freezes_the_frame_columns(self, session):
        buf = np.arange(4, dtype=np.float32)
        session.sql.register_df(DataFrame({"x": buf}), "t")
        assert not buf.flags.writeable

    def test_copied_and_tensor_registrations_stay_writable(self, session):
        wide = np.arange(4, dtype=np.float64)    # stored as a float32 copy
        session.sql.register_dict({"x": wide}, "t")
        wide += 1
        tensor = Tensor(np.arange(4, dtype=np.float32))
        session.sql.register_tensor(tensor, "u")
        tensor.data += 1                         # trainable queries do this
        array = np.arange(4, dtype=np.float32)
        session.sql.register_numpy(array, "v")
        array += 1
        assert session.sql.query("SELECT SUM(x) AS s FROM t").run().scalar() == 6


class TestBufferLineage:
    def test_row_ranges_share_the_buffer_token(self):
        buf = np.zeros((10, 4), dtype=np.float32)
        token, rows = buffer_lineage(buf)
        assert rows is None
        assert buffer_lineage(buf[:6])[0] == token
        np.testing.assert_array_equal(buffer_lineage(buf[3:7])[1], np.arange(3, 7))
        assert buffer_lineage(buf[:, 0]) is None          # not a row range

    def test_reinterpretations_never_share(self):
        buf = np.zeros((10, 4), dtype=np.float32)
        tokens = {buffer_lineage(buf)[0],
                  buffer_lineage(buf.view(np.int32))[0],
                  buffer_lineage(buf.reshape(-1, 8))[0],
                  buffer_lineage(buf.reshape(-1))[0]}
        assert len(tokens) == 4

    def test_reused_id_gets_a_new_token(self):
        def fresh_buffer():
            return np.zeros((4, 2), dtype=np.float32)

        first = fresh_buffer()
        address, token = id(first), buffer_lineage(first)[0]
        del first
        gc.collect()
        keep = []
        for _ in range(1000):
            candidate = fresh_buffer()
            if id(candidate) == address:
                assert buffer_lineage(candidate)[0] != token
                return
            keep.append(candidate)
        pytest.skip("the allocator never reused the freed array's id()")


class TestDeltaEncoding:
    """Encoder entries are per base buffer and filled row by row: a
    registered row range encodes only rows the session never embedded."""

    W = np.random.default_rng(3).normal(size=(8, 4)).astype(np.float32)

    def _session(self, buf, max_bytes=None):
        session = Session() if max_bytes is None else Session(tensor_cache_bytes=max_bytes)
        encoded_rows = []
        weights = self.W

        class TwoTower(nn.Module):
            def encode_image(self, images: Tensor) -> Tensor:
                encoded_rows.append(images.shape[0])
                return Tensor(np.tanh(images.data @ weights))

            def encode_text(self, texts) -> Tensor:
                return Tensor(np.stack([np.full(4, len(t), dtype=np.float32)
                                        for t in texts]))

        model = TwoTower()

        @session.udf("float", name="vec_sim", modules=[model],
                     ann="inner_product")
        def vec_sim(query: str, emb: Tensor) -> Tensor:
            img = model.encode_image(emb)
            txt = model.encode_text([query])
            return ops.matmul(img, ops.reshape(txt, (-1, 1))).reshape(-1)

        return session, encoded_rows

    @staticmethod
    def _register(session, view, name="vecs"):
        session.sql.register_dict({"id": np.arange(len(view)), "emb": view}, name)

    @staticmethod
    def _scores(session, text, config=None):
        return session.sql.query(
            f"SELECT vec_sim('{text}', emb) AS s FROM vecs",
            extra_config=config).run().column("s")

    def test_appended_rows_are_the_only_rows_encoded(self, rng):
        buf = rng.normal(size=(80, 8)).astype(np.float32)
        session, encoded_rows = self._session(buf)
        self._register(session, buf[:40])
        self._scores(session, "q")
        assert encoded_rows == [40]
        self._register(session, buf[:60])
        grown = self._scores(session, "q")
        assert encoded_rows == [40, 20]          # the 20 appended rows
        assert session.tensor_cache.stats["rows_encoded"] == 60
        self._register(session, buf[:40])
        shrunk = self._scores(session, "qq")     # new text: no UDF-output hit
        assert encoded_rows == [40, 20]          # a pure gather
        off = {"tensor_cache": False}
        np.testing.assert_allclose(shrunk, self._scores(session, "qq", off), atol=1e-5)
        self._register(session, buf[:60])
        np.testing.assert_allclose(grown, self._scores(session, "q", off), atol=1e-5)
        np.testing.assert_allclose(grown, _reference(buf[:60], "q", self.W), atol=1e-5)

    def test_udf_delta_rows_carry_lineage_to_the_encoder(self, rng):
        """A UDF computing only its missing rows passes them as a view that
        keeps their base rows, so the encoder memo inside it gathers."""
        buf = rng.normal(size=(60, 8)).astype(np.float32)
        session, encoded_rows = self._session(buf)
        self._register(session, buf)
        self._scores(session, "q")               # embeds all 60 rows
        self._register(session, buf[:40])
        self._scores(session, "qq")
        self._register(session, buf)
        grown = self._scores(session, "qq")      # computes rows 40..59
        assert encoded_rows == [60]
        assert session.tensor_cache.stats["rows_computed"] == 60 + 40 + 20
        np.testing.assert_allclose(grown, _reference(buf, "qq", self.W), atol=1e-5)

    def test_index_build_over_the_buffer_serves_later_views(self, rng):
        buf = rng.normal(size=(64, 8)).astype(np.float32)
        session, encoded_rows = self._session(buf)
        self._register(session, buf, name="archive")
        session.sql.query(
            "CREATE VECTOR INDEX vidx ON archive(emb) WITH (cells=4, nprobe=4)").run()
        session.sql.query("SELECT id, vec_sim('q', emb) AS s FROM archive "
                          "ORDER BY s DESC LIMIT 3").run()
        assert encoded_rows == [64]              # the build
        gathers = session.tensor_cache.stats["gather_hits"]
        self._register(session, buf[10:30])
        scores = self._scores(session, "q")
        assert encoded_rows == [64]              # gathered from the build's entry
        assert session.tensor_cache.stats["gather_hits"] > gathers
        np.testing.assert_allclose(scores, _reference(buf[10:30], "q", self.W),
                                   atol=1e-5)

    def test_reinterpreted_buffer_is_encoded_afresh(self, rng):
        buf = rng.normal(size=(32, 8)).astype(np.float32)
        session, encoded_rows = self._session(buf)
        self._register(session, buf)
        self._scores(session, "q")
        self._register(session, buf.view(np.int32))  # same bytes, new dtype
        self._scores(session, "q")
        assert encoded_rows == [32, 32]
        self._register(session, buf.reshape(-1, 4).reshape(-1, 8))
        self._scores(session, "qq")
        assert encoded_rows == [32, 32]          # same dtype and row shape

    def test_growing_an_entry_past_the_budget_evicts(self):
        cache = TensorCache(max_bytes=24 * 10)       # 16 B row + 8 B row index
        images = Tensor(np.ones((12, 4), dtype=np.float32))
        calls = []

        def encode(x):
            calls.append(x.shape[0])
            return x

        def lookup(base, rows):
            return _encode_rows(cache, base, np.arange(rows),
                                Tensor(images.data[:rows]), encode)

        lookup(1, 5)
        lookup(2, 5)
        assert cache.current_bytes == 240 and cache.evictions == 0
        lookup(2, 8)                             # grows: base 1 is evicted
        assert calls == [5, 5, 3]
        assert cache.evictions == 1 and len(cache) == 1
        lookup(2, 12)                            # past the whole budget
        assert cache.evictions == 2 and len(cache) == 0
        assert cache.stats["rows_encoded"] == 5 + 5 + 3 + 4

    def test_subset_of_a_base_larger_than_the_budget_hits_on_repeat(self):
        """Only encoded rows are stored and charged: a tail subset of a
        large base fits, and a second subset that would outgrow the budget
        replaces the first instead of being dropped."""
        cache = TensorCache(max_bytes=24 * 10)
        base = np.arange(1000 * 4, dtype=np.float32).reshape(1000, 4)
        calls = []

        def encode(x):
            calls.append(x.shape[0])
            return Tensor(x.data * 2)

        def lookup(rows):
            return _encode_rows(cache, 7, rows, Tensor(base[rows]), encode)

        tail, head = np.arange(990, 1000), np.arange(0, 10)
        lookup(tail)
        np.testing.assert_array_equal(lookup(tail).data, base[tail] * 2)
        assert calls == [10] and cache.current_bytes == 240
        lookup(head)                             # union of 20 rows: too big
        assert calls == [10, 10] and cache.evictions == 1
        np.testing.assert_array_equal(lookup(head).data, base[head] * 2)
        assert calls == [10, 10] and cache.stats["gather_hits"] == 2

    def test_eviction_between_lookup_and_fill_keeps_the_answer(self):
        """The answer is built from the rows captured at lookup plus the
        fresh rows: evicting the entry while the encoder runs (another
        worker's insert under budget pressure) cannot zero the rows the
        lookup found."""
        cache = TensorCache(max_bytes=24 * 10)
        images = np.arange(10 * 4, dtype=np.float32).reshape(10, 4)
        filler = Tensor(np.zeros(60, dtype=np.float32))   # the whole budget

        def lookup(stop, encode):
            rows = np.arange(stop)
            return _encode_rows(cache, 7, rows, Tensor(images[:stop]), encode)

        lookup(5, lambda x: Tensor(x.data * 2))

        def encode_under_pressure(x):
            cache.put(("other",), filler, filler.data.nbytes)
            return Tensor(x.data * 2)

        out = lookup(10, encode_under_pressure)
        assert cache.evictions == 2                  # the entry, then filler
        np.testing.assert_allclose(out.data, images * 2)

    def test_empty_input_stores_nothing(self):
        cache = TensorCache()
        empty = Tensor(np.zeros((0, 4), dtype=np.float32))
        out = _encode_rows(cache, 7, np.arange(0), empty, lambda x: x * 2)
        assert out.shape == (0, 4)
        assert len(cache) == 0 and cache.stats["rows_encoded"] == 0

    def test_concurrent_fills_of_one_entry_lose_no_rows(self):
        """Workers filling disjoint row ranges of one base concurrently:
        each fill merges into the entry under the lock, so afterwards every
        row is served without encoding."""
        cache = TensorCache()
        images = np.arange(80 * 4, dtype=np.float32).reshape(80, 4)
        calls = []

        def encode(x):
            calls.append(x.shape[0])
            return x * 2

        def lookup(start, stop):
            rows = np.arange(start, stop)
            return _encode_rows(cache, 7, rows, Tensor(images[start:stop]), encode)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=lookup, args=(k * 10, k * 10 + 10))
                       for k in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert sum(calls) == 80
        np.testing.assert_array_equal(lookup(0, 80).data, images * 2)
        assert sum(calls) == 80


class TestModelState:
    """Weights are hashed only when they differ bitwise from the snapshot
    kept beside the last fingerprint; every other statement compares."""

    SQL = "SELECT scored(x) AS y FROM t"

    def _scored(self, session, n=6):
        _register_numbers(session, n=n)
        model = nn.Linear(1, 1)

        @session.udf("float", name="scored", modules=[model])
        def scored(x):
            return model(x.reshape(-1, 1)).reshape(-1)

        return model

    def _expected(self, model, n=6):
        x = np.arange(n, dtype=np.float32).reshape(-1, 1)
        return (x @ model.weight.data.T + model.bias.data).reshape(-1)

    def _run(self, session, sql=None):
        return np.asarray(session.sql.query(sql or self.SQL).run().column("y"))

    def test_raw_numpy_write_in_place_gives_fresh_results(self, session):
        model = self._scored(session)
        before = self._run(session)
        np.testing.assert_allclose(before, self._expected(model), rtol=1e-6)
        weight = model.weight.data
        weight += 1.0                      # same array object, new bytes
        assert model.weight.data is weight
        after = self._run(session)
        np.testing.assert_allclose(after, self._expected(model), rtol=1e-6)
        assert not np.allclose(before, after)
        assert session.tensor_cache.stats["state_hashes"] == 2

    def test_nan_weight_matches_its_snapshot(self, session):
        model = self._scored(session)
        model.weight.data[...] = np.nan
        first = self._run(session)
        stats = session.tensor_cache.stats
        assert stats["state_hashes"] == 1
        second = self._run(session)
        assert np.isnan(first).all() and np.isnan(second).all()
        after = session.tensor_cache.stats
        assert after["state_hashes"] == 1
        assert after["state_reuses"] == stats["state_reuses"] + 1

    def test_fifty_statements_over_an_unchanged_model_hash_once(self, session):
        model = self._scored(session)
        for i in range(50):
            got = self._run(session, f"SELECT scored(x) AS y FROM t WHERE k >= {i % 3}")
            np.testing.assert_allclose(got, self._expected(model)[i % 3:], rtol=1e-6)
        stats = session.tensor_cache.stats
        assert stats["state_hashes"] == 1
        assert stats["state_reuses"] == 49

    def test_zero_budget_keeps_no_snapshot(self):
        session = Session(tensor_cache_bytes=0)
        model = self._scored(session)
        before = self._run(session)
        model.weight.data[...] *= 3.0
        after = self._run(session)
        np.testing.assert_allclose(after, self._expected(model), rtol=1e-6)
        assert not np.allclose(before, after)
        stats = session.tensor_cache.stats
        assert len(session.tensor_cache) == 0 and stats["bytes"] == 0
        assert stats["state_hashes"] == 0 and stats["state_reuses"] == 0

    def test_snapshot_is_charged_and_evictable(self):
        session = Session(tensor_cache_bytes=4096)
        model = self._scored(session)
        self._run(session)
        cache = session.tensor_cache
        weight_bytes = model.weight.data.nbytes + model.bias.data.nbytes
        snapshots = [e for k, e in cache._entries.items() if k[0] == "state"]
        assert [e.nbytes for e in snapshots] == [weight_bytes]
        assert cache.stats["bytes"] >= weight_bytes
        # A filler the size of the whole budget evicts everything.
        filler = Tensor(np.zeros(1024, dtype=np.float32))
        cache.put(("filler",), filler, filler.data.nbytes)
        assert not any(k[0] == "state" for k in cache._entries)
        got = self._run(session)
        np.testing.assert_allclose(got, self._expected(model), rtol=1e-6)
        assert cache.stats["state_hashes"] == 2

    def test_one_model_is_checked_once_per_statement(self, session):
        """A model behind two UDFs in one statement is compared once."""
        model = self._scored(session)

        @session.udf("float", name="scored2", modules=[model])
        def scored2(x):
            return model(x.reshape(-1, 1)).reshape(-1) * 2.0

        session.sql.query("SELECT scored(x) AS a, scored2(x) AS b FROM t").run()
        stats = session.tensor_cache.stats
        assert stats["state_hashes"] + stats["state_reuses"] == 1

    def test_model_state_fp_outside_a_statement(self):
        cache = TensorCache()
        model = nn.Linear(2, 2)
        fp = cache.model_state_fp(model)
        assert fp == state_fingerprint([model])
        assert cache.model_state_fp(model) == fp
        assert cache.stats["state_reuses"] == 1
        model.bias.data[0] += 1.0
        assert cache.model_state_fp(model) == state_fingerprint([model]) != fp
        assert cache.stats["state_hashes"] == 2


def _encode_rows(cache, base, rows, images, encode):
    """``encode(images)`` through the cache's one lookup method, as an
    encoder entry of ``base`` whose row ``i`` is base row ``rows[i]``."""
    def compute(part):
        x = images if part is None else ops.getitem(images, part)
        return EncodedTensor(encode(x), PlainEncoding())

    key = ("enc", 1, "fp", "cpu", base)
    return cache.lookup(key, rows, images.shape[0], compute).tensor


def _reference(rows, text, weights):
    return np.tanh(rows @ weights) @ np.full(4, len(text), dtype=np.float32)


class TestTensorCacheLru:
    def test_eviction_respects_byte_budget(self):
        cache = TensorCache(max_bytes=100)
        a = Tensor(np.zeros(10, dtype=np.float32))   # 40 bytes
        cache.put(("a",), a, a.data.nbytes)
        cache.put(("b",), a, a.data.nbytes)
        assert len(cache) == 2
        cache.put(("c",), a, a.data.nbytes)          # over budget: evict LRU
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache._touch(("a",)) is None          # oldest entry evicted
        assert cache._touch(("c",)) is not None

    def test_oversized_values_rejected(self):
        cache = TensorCache(max_bytes=16)
        big = Tensor(np.zeros(100, dtype=np.float32))
        cache.put(("big",), big, big.data.nbytes)
        assert len(cache) == 0

    def test_state_fingerprint_tracks_parameters(self):
        model = nn.Linear(2, 2)
        before = state_fingerprint([model])
        assert before == state_fingerprint([model])
        model.weight.data = model.weight.data + 1.0
        assert state_fingerprint([model]) != before
        assert state_fingerprint([object()]) == "stateless"
