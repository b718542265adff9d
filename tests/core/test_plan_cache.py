"""Query-plan cache: hits, config/device keying, invalidation, and scans
that resolve their tables on every run."""

import numpy as np
import pytest

from repro.core.session import Session


@pytest.fixture
def loaded_session():
    session = Session()
    session.sql.register_dict(
        {"k": np.arange(50, dtype=np.int64) % 5,
         "v": np.arange(50, dtype=np.float32)}, "t")
    return session


SQL = "SELECT k, SUM(v) FROM t WHERE v > 3 GROUP BY k ORDER BY k"


class TestPlanCacheHits:
    def test_repeat_compile_returns_cached_plan(self, loaded_session):
        q1 = loaded_session.sql.query(SQL)
        q2 = loaded_session.sql.query(SQL)
        assert q1 is q2
        assert loaded_session.plan_cache.stats["hits"] == 1
        assert loaded_session.plan_cache.stats["misses"] == 1

    def test_cached_plan_still_runs_correctly(self, loaded_session):
        first = loaded_session.sql.query(SQL).run(toPandas=True)
        again = loaded_session.sql.query(SQL).run(toPandas=True)
        assert first.equals(again)

    def test_different_statement_misses(self, loaded_session):
        loaded_session.sql.query(SQL)
        loaded_session.sql.query("SELECT k FROM t")
        assert loaded_session.plan_cache.stats["hits"] == 0

    def test_different_config_misses(self, loaded_session):
        q1 = loaded_session.sql.query(SQL)
        q2 = loaded_session.sql.query(SQL, extra_config={"compile_exprs": False})
        assert q1 is not q2

    def test_different_device_misses(self, loaded_session):
        q1 = loaded_session.sql.query(SQL, device="cpu")
        q2 = loaded_session.sql.query(SQL, device="cuda")
        assert q1 is not q2
        assert loaded_session.plan_cache.stats["hits"] == 0

    def test_spark_namespace_shares_cache(self, loaded_session):
        q1 = loaded_session.sql.query(SQL)
        q2 = loaded_session.spark.query(SQL)
        assert q1 is q2


class TestPlanCacheInvalidation:
    def test_same_schema_register_keeps_plan_and_reads_new_rows(self, loaded_session):
        q1 = loaded_session.sql.query(SQL)
        assert q1.run(toPandas=True)["SUM(v)"].tolist() != []
        version = loaded_session.catalog.version
        loaded_session.sql.register_dict(
            {"k": np.zeros(3, dtype=np.int64),
             "v": np.ones(3, dtype=np.float32)}, "t")
        q2 = loaded_session.sql.query(SQL)
        assert q1 is q2
        assert loaded_session.catalog.version == version
        assert q2.run(toPandas=True)["SUM(v)"].tolist() == []  # v > 3 empty
        loaded_session.sql.register_dict(
            {"k": np.array([1, 1, 2], dtype=np.int64),
             "v": np.array([4.0, 5.0, 6.0], dtype=np.float32)}, "t")
        assert loaded_session.sql.query(SQL) is q1
        assert q1.run(toPandas=True)["SUM(v)"].tolist() == [9.0, 6.0]

    def test_drop_invalidates(self, loaded_session):
        loaded_session.sql.register_dict({"x": [1.0]}, "other")
        q1 = loaded_session.sql.query(SQL)
        loaded_session.sql.drop("other")
        assert loaded_session.sql.query(SQL) is not q1

    def test_udf_registration_invalidates(self, loaded_session):
        q1 = loaded_session.sql.query(SQL)

        @loaded_session.udf("float", name="twice")
        def twice(x):
            return x * 2.0

        assert loaded_session.sql.query(SQL) is not q1

    def test_udf_replacement_recompiles_with_new_body(self, loaded_session):
        @loaded_session.udf("float", name="boost")
        def boost(x):
            return x + 1.0

        sql = "SELECT boost(v) AS y FROM t WHERE k = 0 ORDER BY y"
        first = loaded_session.sql.query(sql).run(toPandas=True)

        @loaded_session.udf("float", name="boost")
        def boost2(x):
            return x + 100.0

        second = loaded_session.sql.query(sql).run(toPandas=True)
        assert second["y"].tolist() == [v + 99.0 for v in first["y"].tolist()]

    def test_reset_clears_cache(self, loaded_session):
        loaded_session.sql.query(SQL)
        loaded_session.reset()
        assert len(loaded_session.plan_cache) == 0


class TestSchemaChangeRecompiles:
    """A re-registration that changes what the binder or the compiler can
    see of a table (a column's type, the column set, its encoding, its
    per-row shape or its device) bumps the catalog version, so the next
    compile misses and the new plan reads the new table correctly."""

    def _recompiles(self, session, name, before, after, sql, device=None):
        session.sql.register_dict(before, name, device=device)
        first = session.sql.query(sql)
        first.run()
        version = session.catalog.version
        changes = session.catalog.schema_changes
        session.sql.register_dict(after, name, device=device)
        second = session.sql.query(sql)
        assert second is not first
        assert session.catalog.version == version + 1
        assert session.catalog.schema_changes == changes + 1
        return second.run()

    def test_int_to_float_column(self, session):
        out = self._recompiles(
            session, "t", {"x": np.array([1, 2, 3], dtype=np.int64)},
            {"x": np.array([0.5, 1.5, 2.0], dtype=np.float32)},
            "SELECT x * 2 AS y FROM t")
        assert out.column("y").dtype.kind == "f"
        np.testing.assert_allclose(out.column("y"), [1.0, 3.0, 4.0])

    def test_added_column(self, session):
        out = self._recompiles(
            session, "t", {"x": np.arange(3, dtype=np.int64)},
            {"x": np.arange(3, dtype=np.int64), "w": np.arange(3) * 10},
            "SELECT * FROM t")
        assert out.column_names == ["x", "w"]
        assert np.asarray(out.column("w")).tolist() == [0, 10, 20]

    def test_string_to_int_same_name(self, session):
        out = self._recompiles(
            session, "t", {"s": np.array(["a", "b", "c"])},
            {"s": np.array([7, 8, 9], dtype=np.int64)},
            "SELECT s FROM t")
        assert np.asarray(out.column("s")).tolist() == [7, 8, 9]

    def test_images_of_a_new_row_shape(self, session):
        out = self._recompiles(
            session, "imgs", {"img": np.zeros((4, 2, 3), dtype=np.float32)},
            {"img": np.ones((4, 3, 3), dtype=np.float32)},
            "SELECT img FROM imgs")
        assert np.asarray(out.column("img")).shape == (4, 3, 3)

    def test_new_device(self, session):
        data = {"x": np.arange(4, dtype=np.float32)}
        session.sql.register_dict(dict(data), "t")
        first = session.sql.query("SELECT SUM(x) FROM t")
        version = session.catalog.version
        session.sql.register_dict(dict(data), "t", device="cuda")
        second = session.sql.query("SELECT SUM(x) FROM t")
        assert second is not first
        assert session.catalog.version == version + 1
        assert second.run().scalar() == pytest.approx(6.0)

    def test_same_schema_on_another_buffer_keeps_version(self, session):
        session.sql.register_dict({"x": np.arange(3, dtype=np.int64)}, "t")
        version = session.catalog.version
        session.sql.register_dict({"x": np.arange(30, dtype=np.int64)}, "T")
        assert session.catalog.version == version
        assert session.catalog.schema_changes == 0
        assert session.catalog.writes == 2


class TestPlanCachePolicy:
    def test_opt_out_config(self, loaded_session):
        q1 = loaded_session.sql.query(SQL, extra_config={"plan_cache": False})
        q2 = loaded_session.sql.query(SQL, extra_config={"plan_cache": False})
        assert q1 is not q2
        assert len(loaded_session.plan_cache) == 0

    def test_trainable_queries_never_cached(self, loaded_session):
        config = {"trainable": True}
        q1 = loaded_session.sql.query("SELECT SUM(v) FROM t", extra_config=config)
        q2 = loaded_session.sql.query("SELECT SUM(v) FROM t", extra_config=config)
        assert q1 is not q2

    def test_lru_eviction(self):
        session = Session(plan_cache_size=2)
        session.sql.register_dict({"x": [1.0, 2.0]}, "t")
        session.sql.query("SELECT x FROM t")
        session.sql.query("SELECT x + 1 FROM t")
        session.sql.query("SELECT x + 2 FROM t")      # evicts the first
        assert len(session.plan_cache) == 2
        session.sql.query("SELECT x FROM t")          # recompiled: a miss
        assert session.plan_cache.stats["hits"] == 0


class TestPlanCacheBound:
    """The cache driven to its ``maxsize``: it never holds more, evicts in
    LRU order, and evicted statements recompile to the same answers."""

    STATEMENTS = [f"SELECT k, SUM(v) FROM t WHERE v > {i} GROUP BY k ORDER BY k"
                  for i in range(6)]

    def test_six_statements_through_four_slots(self):
        session = Session(plan_cache_size=4)
        session.sql.register_dict({"k": np.arange(50) % 5,
                                   "v": np.arange(50, dtype=np.float32)}, "t")
        plans = [session.sql.query(sql) for sql in self.STATEMENTS[:4]]
        assert session.sql.query(self.STATEMENTS[0]) is plans[0]   # re-touched
        for sql in self.STATEMENTS[4:]:
            session.sql.query(sql)
        stats = session.plan_cache.stats
        assert (stats["size"], stats["evictions"], stats["maxsize"]) == (4, 2, 4)
        assert session.sql.query(self.STATEMENTS[0]) is plans[0]   # survived
        assert session.sql.query(self.STATEMENTS[1]) is not plans[1]
        assert session.plan_cache.stats["evictions"] == 3

    def test_results_stay_correct_after_eviction(self, loaded_session):
        session = Session(plan_cache_size=2)
        session.sql.register_dict({"k": np.arange(50) % 5,
                                   "v": np.arange(50, dtype=np.float32)}, "t")
        for sql in self.STATEMENTS * 2:
            got = session.sql.query(sql).run(toPandas=True)
            want = loaded_session.sql.query(
                sql, extra_config={"plan_cache": False}).run(toPandas=True)
            assert got.equals(want)
        stats = session.plan_cache.stats
        assert stats["size"] == 2 and stats["evictions"] == 10
        assert stats["hits"] == 0


class TestScanResolution:
    @pytest.mark.parametrize("device", ["cpu", "cuda"])
    def test_scans_resolve_fresh_every_run(self, loaded_session, device):
        """A compiled scan resolves its table from the catalog on every run,
        and a device scan re-transfers it: no run reads an earlier run's
        copy."""
        q = loaded_session.sql.query("SELECT SUM(v) FROM t", device=device)
        assert q.run().scalar() == pytest.approx(
            np.arange(50, dtype=np.float32).sum())
        loaded_session.sql.register_dict(
            {"k": np.zeros(3, dtype=np.int64),
             "v": np.full(3, 2.0, dtype=np.float32)}, "t")
        assert q.run().scalar() == pytest.approx(6.0)
