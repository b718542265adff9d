"""Query-plan cache: hits, config/device keying, invalidation, batching."""

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
    def test_register_invalidates(self, loaded_session):
        q1 = loaded_session.sql.query(SQL)
        loaded_session.sql.register_dict(
            {"k": np.zeros(3, dtype=np.int64),
             "v": np.ones(3, dtype=np.float32)}, "t")
        q2 = loaded_session.sql.query(SQL)
        assert q1 is not q2
        assert q2.run(toPandas=True)["SUM(v)"].tolist() == []  # v > 3 empty

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


class TestBatchExecution:
    def test_execute_many_results_match_individual_runs(self, loaded_session):
        statements = [
            "SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k",
            "SELECT v FROM t WHERE v > 40 ORDER BY v",
            "SELECT COUNT(*) FROM t",
        ]
        batch = loaded_session.execute_many(statements, toPandas=True)
        for statement, result in zip(statements, batch):
            alone = loaded_session.sql.query(statement).run(toPandas=True)
            assert result.equals(alone)

    def test_execute_many_shares_scans(self, loaded_session, monkeypatch):
        from repro.storage.column import Column
        transfers = []
        original = Column.to

        def counting_to(self, device):
            transfers.append(self.name)
            return original(self, device)

        monkeypatch.setattr(Column, "to", counting_to)
        loaded_session.execute_many(
            ["SELECT SUM(v) FROM t", "SELECT AVG(v) FROM t",
             "SELECT k, SUM(v) FROM t GROUP BY k"],
            device="cuda")
        # Three statements referencing v three times and k once, but each
        # column crosses to the device exactly once for the whole batch.
        assert sorted(transfers) == ["k", "v"]

    def test_run_many_on_compiled_queries(self, loaded_session):
        q1 = loaded_session.sql.query("SELECT COUNT(*) FROM t")
        q2 = loaded_session.sql.query("SELECT SUM(v) FROM t")
        r1, r2 = q1.run_many([q2])
        assert r1.scalar() == 50
        assert r2.scalar() == pytest.approx(np.arange(50, dtype=np.float32).sum())

    def test_shared_scan_memo_does_not_leak(self, loaded_session):
        from repro.core.operators import scan as scan_mod
        loaded_session.execute_many(["SELECT COUNT(*) FROM t"])
        assert scan_mod._SCAN_MEMO.get() is None

    def test_scans_resolve_fresh_outside_batches(self, loaded_session):
        q = loaded_session.sql.query("SELECT COUNT(*) FROM t")
        assert q.run().scalar() == 50
        loaded_session.sql.register_dict(
            {"k": np.zeros(3, dtype=np.int64),
             "v": np.ones(3, dtype=np.float32)}, "t")
        assert q.run().scalar() == 3   # runtime catalog resolution preserved
