"""Unit tests for the intra-query parallel execution subsystem (PR 5):
partition planning, the shard pool, plan lowering, knobs, and cache keys."""

import collections
import os
import sys
import threading

import numpy as np
import pytest

from repro.core.config import QueryConfig
from repro.core.partition import ShardPool, plan_shards
from repro.core.session import Session
from repro.storage.table import Table
from repro.storage.column import Column
from repro.tcr import nn
from repro.tcr.tensor import Tensor
# ``vec_session`` is a fixture: pytest finds it in this module's namespace.
from test_vector_index import TOPK_SQL, vec_session  # noqa: F401

# The benchmark's statement generator (rel_analytic / rel_sharded).
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "benchmarks", "e2e"))

SERIAL = {"shards": 1}
SHARDED = {"shards": 4, "parallel_min_rows": 2}


def _session(rows=400):
    session = Session()
    rng = np.random.default_rng(3)
    session.sql.register_dict(
        {"id": np.arange(rows, dtype=np.int64),
         "x": rng.integers(0, 50, rows).astype(np.int64),
         "y": rng.normal(size=rows).astype(np.float32),
         "s": np.array([f"w{i % 5}" for i in range(rows)], dtype=object)},
        "t",
    )
    return session


class TestPlanShards:
    def test_splits_into_contiguous_cover(self):
        bounds = plan_shards(100, 4, min_rows=2)
        assert bounds == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_min_rows_disables_splitting(self):
        assert plan_shards(100, 4, min_rows=200) == [(0, 100)]

    def test_degenerate_inputs(self):
        assert plan_shards(0, 4, min_rows=0) == [(0, 0)]
        assert plan_shards(1, 4, min_rows=0) == [(0, 1)]
        assert len(plan_shards(3, 7, min_rows=0)) <= 3


class TestShardPool:
    def test_results_in_submission_order(self):
        pool = ShardPool(workers=2)
        results = pool.run([lambda i=i: i * i for i in range(10)])
        assert results == [i * i for i in range(10)]

    def test_exceptions_reraise_by_shard_order(self):
        pool = ShardPool(workers=2)

        def boom():
            raise ValueError("shard failed")

        with pytest.raises(ValueError, match="shard failed"):
            pool.run([lambda: 1, boom, lambda: 3])

    def test_submitter_helps_with_zero_workers(self):
        pool = ShardPool(workers=0)        # no helper threads at all
        assert pool.run([lambda i=i: i for i in range(5)]) == list(range(5))

    def test_concurrent_batches_interleave(self):
        pool = ShardPool(workers=2)
        out = []

        def submit(i):
            out.append(pool.run([lambda j=j: (i, j) for j in range(8)]))

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert sorted(batch[0][0] for batch in out) == [0, 1, 2, 3]
        for batch in out:
            i = batch[0][0]
            assert batch == [(i, j) for j in range(8)]


class TestLowering:
    def test_pipeline_prefix_becomes_sharded_scan(self):
        q = _session().sql.query(
            "SELECT id, x * 2 AS v FROM t WHERE x > 10",
            extra_config={"shards": 4})
        assert "ShardedScan(shards=4" in q.explain()

    def test_mergeable_global_aggregate_lowered_to_partials(self):
        q = _session().sql.query(
            "SELECT COUNT(*), MIN(x), MAX(x), SUM(x), AVG(x) FROM t "
            "WHERE x > 10", extra_config={"shards": 4})
        assert "ShardedAggregate(" in q.explain()

    def test_float_sum_takes_merge_barrier(self):
        # Float partial sums would reorder rounding: the aggregate stays
        # serial, only the pipeline below it shards.
        q = _session().sql.query(
            "SELECT SUM(y) FROM t WHERE x > 10", extra_config={"shards": 4})
        text = q.explain()
        assert "ShardedAggregate(" not in text
        assert "ShardedScan(" in text

    def test_group_by_lowered_to_grouped_partials(self):
        q = _session().sql.query(
            "SELECT s, COUNT(*) FROM t WHERE x > 10 GROUP BY s",
            extra_config={"shards": 4})
        assert "ShardedGroupedAggregate(" in q.explain()

    def test_float_sum_group_by_takes_merge_barrier(self):
        # Float partial sums would reorder rounding even per group: the
        # grouped aggregate stays serial, only the pipeline below it shards.
        q = _session().sql.query(
            "SELECT s, SUM(y) FROM t WHERE x > 10 GROUP BY s",
            extra_config={"shards": 4})
        text = q.explain()
        assert "ShardedGroupedAggregate(" not in text
        assert "ShardedScan(" in text

    def test_shards_1_and_trainable_stay_serial(self):
        session = _session()
        assert "Sharded" not in session.sql.query(
            "SELECT id FROM t WHERE x > 10").explain()
        assert "Sharded" not in session.sql.query(
            "SELECT SUM(y) FROM t WHERE x > 10",
            extra_config={"shards": 4, "trainable": True}).explain()

    def test_suite_plans_have_only_sharded_drivers(self):
        """The benchmark's five TPC-H-shaped statements at ``shards=2``:
        contiguous sharded drivers only, no repartitioning operator."""
        import datagen
        orders = datagen.make_orders(1, 0.01)
        session = Session()
        session.sql.register_dict(datagen.make_lineitem(1, orders, 0.01),
                                  "lineitem")
        session.sql.register_dict(orders, "orders")
        statements = datagen.suite_statements(datagen.suite_params(1))
        assert len(statements) == 5
        for sql in statements.values():
            plan = session.sql.query(sql, extra_config={"shards": 2}).explain()
            assert "Sharded" in plan, plan
            assert "Partitioned" not in plan and "Exchange" not in plan, plan

    @pytest.mark.parametrize("device", ["cpu", "cuda"])
    def test_user_code_statements_lower_serially(self, device, vec_session):  # noqa: F811
        """A scalar UDF anywhere, a TVF or a similarity top-k makes the
        whole statement lower serially at any ``shards``: no ``Sharded``
        driver, results bitwise serial, and user code called as often as
        serially. 1300 rows put a cuda micro-batch boundary (512 rows)
        inside a would-be shard, and the UDF-after-filter statements feed
        the UDF a filtered remnant on a row-batching device."""
        session, _, _ = vec_session
        model = session.functions.lookup("vec_sim").modules[0]
        lin = nn.Linear(1, 1)
        calls = collections.Counter()       # each body calls its module once
        rows = 1300
        rng = np.random.default_rng(5)
        session.sql.register_dict(
            {"id": np.arange(rows, dtype=np.int64),
             "x": rng.integers(0, 50, rows).astype(np.int64),
             "y": rng.normal(size=rows).astype(np.float32)}, "t")

        @session.udf("float", name="aff", modules=[lin])
        def aff(v: Tensor) -> Tensor:
            calls["aff"] += 1
            return lin(v.to(device="cpu").reshape(-1, 1)).reshape(-1)

        @session.udf("z float", name="shift", modules=[lin])
        def shift(id, x, y):
            calls["shift"] += 1
            return lin(y.to(device="cpu").reshape(-1, 1)).reshape(-1)

        @session.udf("float", name="vec_sim", modules=[model],
                     ann="inner_product")
        def vec_sim(query: str, emb: Tensor) -> Tensor:
            calls["vec_sim"] += 1
            return model.similarity(query, emb.to(device="cpu"))

        session.sql.query("CREATE VECTOR INDEX vidx ON vecs(emb)").run()
        statements = [
            "SELECT id FROM t WHERE aff(y) > 0",
            "SELECT id, aff(y) AS a FROM t WHERE y > 0",
            "SELECT x, MAX(aff(y)) AS m FROM t WHERE x > 10 GROUP BY x",
            "SELECT shift(id, x, y) FROM t WHERE x > 10",
            TOPK_SQL.format(q="q0", k=5),
        ]
        for sql in statements:
            session.sql.query(sql, device=device).run()   # builds the index
            runs = []
            for config in (SERIAL, SHARDED):
                session.tensor_cache.clear()
                calls.clear()
                query = session.sql.query(sql, device=device,
                                          extra_config=config)
                assert "Sharded" not in query.explain(), (device, sql)
                runs.append((query.run(), sum(calls.values())))
            (serial, serial_calls), (sharded, sharded_calls) = runs
            _assert_bitwise(serial, sharded, (device, sql))
            assert 0 < serial_calls == sharded_calls, (device, sql)


class TestKnobs:
    def test_invalid_shards_rejected(self):
        for bad in (-1, 257, True, "four", 1.5):
            with pytest.raises(ValueError):
                QueryConfig({"shards": bad}).shards

    def test_invalid_min_rows_rejected(self):
        for bad in (-1, True, "many", "auto"):
            with pytest.raises(ValueError):
                QueryConfig({"parallel_min_rows": bad}).parallel_min_rows

    def test_knobs_fold_into_plan_cache_fingerprint(self):
        session = _session()
        stmt = "SELECT id FROM t WHERE x > 10"
        q1 = session.sql.query(stmt)
        q4 = session.sql.query(stmt, extra_config={"shards": 4})
        q1_again = session.sql.query(stmt)
        assert q1 is q1_again                  # cache hit for equal config
        assert q1 is not q4                    # shard count is in the key
        assert "ShardedScan" in q4.explain()
        assert "ShardedScan" not in q1.explain()


class TestReviewRegressions:
    def test_computed_string_columns_stitch(self):
        """Per-shard dictionary encodings (string builtins / literals)
        decode and re-encode at the stitch instead of failing."""
        session = _session()
        for stmt in ("SELECT UPPER(s) AS u FROM t WHERE x >= 0",
                     "SELECT 'tag' AS c, x FROM t WHERE x >= 0"):
            a = session.sql.query(stmt).run()
            b = session.sql.query(stmt, extra_config={
                "shards": 4, "parallel_min_rows": 2}).run()
            for name in a.column_names:
                assert np.array_equal(a.column(name), b.column(name)), (stmt, name)

    def test_rle_columns_share_one_materialized_base(self):
        """The shard driver materializes an RLE column once for the whole
        shard set: every shard slice is a view of one decoded buffer,
        instead of one full decode per shard. The decoded copy is scoped to
        the shard set — Column itself never pins it."""
        from repro.core.operators.scan import shard_slices
        from repro.storage.encodings import RunLengthEncoding
        col = Column("r", RunLengthEncoding.encode(np.repeat(np.arange(8), 50)))
        table = Table("t", [col])
        bounds = [(0, 100), (100, 200), (200, 300), (300, 400)]
        pieces = [piece.columns[0].tensor.data
                  for piece in shard_slices(table, bounds)]
        decoded = pieces[0].base
        assert decoded is not None and decoded.shape == (400,)
        assert all(np.shares_memory(piece, decoded) for piece in pieces)
        assert isinstance(col.encoding, RunLengthEncoding)  # still RLE itself


class TestExecutionParity:
    def test_limit_offset_and_distinct_over_sharded_prefix(self):
        session = _session()
        for stmt in (
            "SELECT id, y FROM t WHERE x > 5 ORDER BY y DESC, id LIMIT 9 OFFSET 3",
            "SELECT DISTINCT s FROM t WHERE x < 40",
            "SELECT s, AVG(x) AS m FROM t GROUP BY s ORDER BY s",
        ):
            a = session.sql.query(stmt).run()
            b = session.sql.query(stmt, extra_config={
                "shards": 5, "parallel_min_rows": 2}).run()
            assert a.column_names == b.column_names
            for name in a.column_names:
                av, bv = a.column(name), b.column(name)
                assert av.dtype == bv.dtype
                if av.dtype.kind == "f":
                    assert np.array_equal(av, bv, equal_nan=True)
                else:
                    assert np.array_equal(av, bv)

    @pytest.mark.parametrize("sql", [
        "SELECT x.id, x.f, d.w, d.label FROM t x JOIN dim d ON x.b = d.b",
        "SELECT x.id, x.f, d.w, d.label FROM t x LEFT JOIN dim d ON x.b = d.b",
        "SELECT x.id, d.w FROM t x JOIN dim d ON x.b = d.b AND x.k = d.k",
        "SELECT x.id, d.w FROM t x LEFT JOIN dim d "
        "ON x.b = d.b AND d.w > 10 WHERE x.k < 4",
        "SELECT s, SUM(f) AS sf FROM t GROUP BY s",
        "SELECT b, AVG(g) AS ag FROM t GROUP BY b",
        "SELECT s, b, COUNT(DISTINCT k) AS cd FROM t GROUP BY s, b",
        "SELECT g, COUNT(*) AS c, SUM(f) AS sf FROM t GROUP BY g",
        "SELECT k, SUM(f * 2.0) AS sf FROM t WHERE b < 20 GROUP BY k",
        "SELECT d.label, SUM(x.f) AS sf, AVG(x.g) AS ag "
        "FROM t x JOIN dim d ON x.b = d.b GROUP BY d.label",
    ], ids=["join", "left-join", "multi-key-join", "residual-where",
            "float-sum", "nan-avg", "count-distinct", "nan-keys",
            "filtered-expr-sum", "above-join"])
    def test_joins_and_groups(self, sql):
        """Joins and non-mergeable grouped aggregates run serially above
        the stitch barrier of their sharded scans: bitwise serial."""
        session = _join_session()
        serial = session.sql.query(sql, extra_config=SERIAL).run()
        sharded = session.sql.query(sql, extra_config=SHARDED).run()
        _assert_bitwise(serial, sharded, sql)

    def test_small_input_stays_serial(self):
        session = _join_session(n=8)
        sql = "SELECT x.id, d.w FROM t x JOIN dim d ON x.b = d.b"
        big_min = {"shards": 4, "parallel_min_rows": 100000}
        serial = session.sql.query(sql, extra_config=SERIAL).run()
        _assert_bitwise(serial,
                        session.sql.query(sql, extra_config=big_min).run())


def _assert_bitwise(result_a, result_b, context=""):
    assert result_a.column_names == result_b.column_names, context
    for name in result_a.column_names:
        a = np.asarray(result_a.column(name))
        b = np.asarray(result_b.column(name))
        assert a.dtype == b.dtype, (context, name, a.dtype, b.dtype)
        assert a.shape == b.shape, (context, name, a.shape, b.shape)
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), (context, name)


def _join_session(n=600, seed=7, dim_rows=23):
    """A fact table (duplicate, NaN and string keys) and a dimension."""
    rng = np.random.default_rng(seed)
    session = Session()
    session.sql.register_dict({
        "id": np.arange(n, dtype=np.int64),
        "b": rng.integers(0, dim_rows + 8, n).astype(np.int64),
        "k": rng.integers(0, 5, n).astype(np.int64),
        "f": np.round(rng.normal(size=n), 3),
        "g": np.where(rng.random(n) < 0.25, np.nan, rng.normal(size=n)),
        "s": np.array([["alpha", "beta", "gamma", "delta"][i]
                       for i in rng.integers(0, 4, n)], dtype=object),
    }, "t")
    session.sql.register_dict({
        "b": np.arange(dim_rows, dtype=np.int64),
        "k": (np.arange(dim_rows, dtype=np.int64) % 5),
        "w": rng.integers(0, 50, dim_rows).astype(np.int64),
        "label": np.array([["x", "y", "z"][i % 3] for i in range(dim_rows)],
                          dtype=object),
    }, "dim")
    return session


def _soft_session(rows=64):
    from repro.storage.encodings import PEEncoding
    from repro.tcr import nn
    from repro.tcr.tensor import Tensor

    session = Session()
    model = nn.Linear(2, 2)

    @session.udf("Label float", name="classify", modules=[model])
    def classify(x):
        return PEEncoding.encode(model(x), domain=[0, 1])

    rng = np.random.default_rng(0)
    features = rng.normal(size=(rows, 2)).astype(np.float32)
    session.sql.register_tensor(Tensor(features), "bag")
    return session


class TestSoftDecline:
    """Soft aggregates carry per-row weights the stitch barrier cannot
    merge, so ``groupby_impl="soft"`` lowers serially at any shard count."""

    SQL = "SELECT Label, COUNT(*) AS c FROM classify(bag) GROUP BY Label"

    def test_soft_aggregate_runs_serially(self):
        session = _soft_session()
        soft_serial = {"shards": 1, "groupby_impl": "soft"}
        soft_sharded = {"shards": 4, "parallel_min_rows": 2,
                        "groupby_impl": "soft"}
        serial = session.sql.query(self.SQL, extra_config=soft_serial).run()
        sharded = session.sql.query(self.SQL, extra_config=soft_sharded).run()
        _assert_bitwise(serial, sharded)

    def test_soft_plan_has_no_partition_drivers(self):
        session = _soft_session()
        plan = session.sql.query(
            "EXPLAIN " + self.SQL,
            extra_config={"shards": 4, "parallel_min_rows": 2,
                          "groupby_impl": "soft"}).run()
        text = "\n".join(str(v) for v in np.asarray(plan.column("plan")))
        assert "SoftAggregate" in text
        assert "Sharded" not in text
