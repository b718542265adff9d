"""Unit tests for intra-query parallel execution: partition planning, the
shard pool, the lowering rule (only a scan chain that feeds a join shards),
the ``shards`` knob, and cache keys."""

import collections
import os
import sys
import threading

import numpy as np
import pytest

from repro.core.config import QueryConfig
from repro.core.operators.base import Relation
from repro.core.partition import (
    PARALLEL_MIN_ROWS,
    ShardPool,
    plan_shards,
    stitch_relations,
)
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
SHARDED = {"shards": 4}
SELF_JOIN = "FROM t a JOIN t b ON a.id = b.id"


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
        bounds = plan_shards(100, 4)
        assert bounds == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_min_rows_disables_splitting(self):
        rows = PARALLEL_MIN_ROWS - 1
        assert plan_shards(rows, 4) == [(0, rows)]

    def test_degenerate_inputs(self, tiny_shards):
        assert plan_shards(0, 4) == [(0, 0)]
        assert plan_shards(1, 4) == [(0, 1)]
        assert plan_shards(3, 7) == [(0, 1), (1, 2), (2, 3)]


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


def _physical(plan_text: str):
    return plan_text.split("== Physical operators ==\n", 1)[1].splitlines()


def _parents(lines, prefix):
    """The operator line directly above each line that starts with
    ``prefix`` in an EXPLAIN tree (the nearest less-indented line)."""
    parents = []
    for i, line in enumerate(lines):
        if not line.lstrip().startswith(prefix):
            continue
        depth = len(line) - len(line.lstrip())
        above = next(up for up in reversed(lines[:i])
                     if len(up) - len(up.lstrip()) < depth)
        parents.append(above.strip())
    return parents


class TestLowering:
    def test_join_input_chains_become_sharded_scans(self):
        q = _session().sql.query(
            f"SELECT a.id, b.x * 2 AS v {SELF_JOIN} WHERE a.x > 10",
            extra_config={"shards": 4})
        parents = _parents(_physical(q.explain()), "ShardedScan(shards=4)")
        assert parents == ["Join(INNER)", "Join(INNER)"], q.explain()

    @pytest.mark.parametrize("sql", [
        "SELECT id, x * 2 AS v FROM t WHERE x > 10",
        "SELECT COUNT(*), MIN(x), MAX(x), SUM(x), AVG(x) FROM t WHERE x > 10",
        "SELECT SUM(y) FROM t WHERE x > 10",
        "SELECT s, COUNT(*) FROM t WHERE x > 10 GROUP BY s",
        "SELECT s, SUM(y) FROM t WHERE x > 10 GROUP BY s",
        "SELECT id, y FROM t ORDER BY y DESC LIMIT 5",
    ], ids=["pipeline", "global-agg", "float-sum", "group-by",
            "float-sum-group-by", "topk"])
    def test_other_shapes_lower_serially(self, sql):
        """Without a join, ``shards`` changes nothing: the physical plan is
        the serial one, byte for byte."""
        session = _session()
        serial = session.sql.query(sql).explain()
        assert session.sql.query(sql, extra_config=SHARDED).explain() == serial
        assert "Sharded" not in serial

    def test_shards_1_and_trainable_stay_serial(self):
        session = _session()
        sql = f"SELECT SUM(a.y) {SELF_JOIN} WHERE a.x > 10"
        assert "ShardedScan" in session.sql.query(
            sql, extra_config=SHARDED).explain()
        assert "Sharded" not in session.sql.query(sql).explain()
        assert "Sharded" not in session.sql.query(
            sql, extra_config={"shards": 4, "trainable": True}).explain()
        soft = _soft_session().sql.query(
            "SELECT Label, COUNT(*) AS c FROM classify(bag) GROUP BY Label",
            extra_config={"shards": 4, "trainable": True}).explain()
        assert "SoftAggregate" in soft and "Sharded" not in soft

    def test_trainable_soft_aggregate_is_the_same_at_any_shard_count(self):
        session = _soft_session()
        sql = "SELECT Label, COUNT(*) AS c FROM classify(bag) GROUP BY Label"
        queries = [session.sql.query(sql, extra_config={"shards": shards,
                                                        "trainable": True})
                   for shards in (1, 4)]
        serial, sharded = (q.run() for q in queries)
        assert serial.requires_grad and sharded.requires_grad
        np.testing.assert_array_equal(serial.data, sharded.data)
        for q in queries:
            q.eval()
        serial, sharded = (q.run(toPandas=True) for q in queries)
        assert serial["c"].tolist() == sharded["c"].tolist()
        assert sum(serial["c"]) == 64

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_suite_shards_only_join_inputs(self, seed):
        """The benchmark's five TPC-H-shaped statements at ``shards=2``:
        sharded scans sit only directly beneath q3's and q12's joins, and
        q1, q6 and topk print the serial plan text byte for byte."""
        import datagen
        orders = datagen.make_orders(seed, 0.01)
        session = Session()
        session.sql.register_dict(datagen.make_lineitem(seed, orders, 0.01),
                                  "lineitem")
        session.sql.register_dict(orders, "orders")
        statements = datagen.suite_statements(datagen.suite_params(seed))
        assert sorted(statements) == ["q1", "q12", "q3", "q6", "topk"]
        for name, sql in statements.items():
            sharded = session.sql.query(sql, extra_config={"shards": 2}).explain()
            parents = _parents(_physical(sharded), "ShardedScan(")
            if name in ("q3", "q12"):
                assert parents == ["Join(INNER)", "Join(INNER)"], sharded
            else:
                assert sharded == session.sql.query(sql).explain(), name
                assert not parents, sharded

    def test_user_code_statements_lower_serially(self, vec_session):  # noqa: F811
        """A scalar UDF anywhere, a TVF or a similarity top-k makes the
        whole statement lower serially at any ``shards``, join inputs
        included: no ``Sharded`` driver, results bitwise serial, and user
        code called as often as serially. The UDF-after-filter statements
        feed the UDF a filtered remnant."""
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
            return lin(v.reshape(-1, 1)).reshape(-1)

        @session.udf("z float", name="shift", modules=[lin])
        def shift(id, x, y):
            calls["shift"] += 1
            return lin(y.reshape(-1, 1)).reshape(-1)

        @session.udf("float", name="vec_sim", modules=[model],
                     ann="inner_product")
        def vec_sim(query: str, emb: Tensor) -> Tensor:
            calls["vec_sim"] += 1
            return model.similarity(query, emb)

        session.sql.query("CREATE VECTOR INDEX vidx ON vecs(emb)").run()
        # The same join without user code shards.
        assert "ShardedScan" in session.sql.query(
            f"SELECT a.id {SELF_JOIN} WHERE a.y > 0",
            extra_config=SHARDED).explain()
        statements = [
            f"SELECT a.id {SELF_JOIN} WHERE aff(a.y) > 0",
            f"SELECT a.id, aff(a.y) AS a {SELF_JOIN} WHERE a.y > 0",
            f"SELECT a.x, MAX(aff(b.y)) AS m {SELF_JOIN} WHERE a.x > 10 "
            "GROUP BY a.x",
            f"SELECT shift(a.id, a.x, b.y) {SELF_JOIN} WHERE a.x > 10",
            TOPK_SQL.format(q="q0", k=5),
        ]
        for sql in statements:
            session.sql.query(sql).run()                  # builds the index
            runs = []
            for config in (SERIAL, SHARDED):
                session.tensor_cache.clear()
                calls.clear()
                query = session.sql.query(sql, extra_config=config)
                assert "Sharded" not in query.explain(), sql
                runs.append((query.run(), sum(calls.values())))
            (serial, serial_calls), (sharded, sharded_calls) = runs
            _assert_bitwise(serial, sharded, sql)
            assert 0 < serial_calls == sharded_calls, sql


class TestKnobs:
    def test_invalid_shards_rejected(self):
        for bad in (-1, 257, True, "four", 1.5):
            with pytest.raises(ValueError):
                QueryConfig({"shards": bad}).shards

    def test_knobs_fold_into_plan_cache_fingerprint(self):
        session = _session()
        stmt = f"SELECT a.id {SELF_JOIN} WHERE a.x > 10"
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
        decode and re-encode at the stitch instead of failing. A derived
        table that feeds a join computes both per shard."""
        session = _session()
        stmt = ("SELECT a.u, a.c, b.y FROM (SELECT UPPER(s) AS u, 'tag' AS c, "
                "id FROM t WHERE x >= 0) a JOIN t b ON a.id = b.id")
        sharded = session.sql.query(stmt, extra_config=SHARDED)
        assert "ShardedScan(" in sharded.explain()
        _assert_bitwise(session.sql.query(stmt).run(), sharded.run(), stmt)

    def test_stitch_reencodes_per_shard_dictionaries(self):
        pieces = [Relation(Table("t", [Column.from_values(
            "u", np.array(words, dtype=object))]))
            for words in (["b", "a"], ["c"], ["a", "d"])]
        encodings = {id(p.table.columns[0].encoding) for p in pieces}
        assert len(encodings) == 3            # one dictionary per shard
        stitched = stitch_relations(pieces).table.columns[0]
        assert list(stitched.decode()) == ["b", "a", "c", "a", "d"]


    def test_repeated_values_count_by_row(self):
        """A column of long runs answers by row, serial and sharded: the
        shards split rows, and every column of a table has its row count."""
        session = Session()
        session.sql.register_dict(
            {"id": np.arange(400, dtype=np.int64),
             "r": np.repeat(np.arange(8, dtype=np.int64), 50)}, "t")
        cases = [
            (f"SELECT COUNT(*) AS c {SELF_JOIN}", {"c": [400]}),
            (f"SELECT SUM(a.r) AS total {SELF_JOIN}", {"total": [1400]}),
            (f"SELECT a.r {SELF_JOIN} WHERE a.r > 6", {"r": [7] * 50}),
        ]
        for stmt, want in cases:
            serial = session.sql.query(stmt, extra_config=SERIAL).run()
            sharded = session.sql.query(stmt, extra_config=SHARDED)
            assert "ShardedScan(" in sharded.explain(), stmt
            got = sharded.run()
            _assert_bitwise(serial, got, stmt)
            for name, values in want.items():
                assert got.column(name).tolist() == values, stmt

    def test_shard_slices_are_views_of_the_scan_columns(self, monkeypatch):
        """Each shard reads a zero-copy view of the scanned table's
        columns under the stored encoding; no shard decodes or re-encodes
        its slice."""
        from repro.core.operators.sharded import ShardedScanExec
        session = _session()
        pieces = []
        task = ShardedScanExec._task

        def spy(op, table, index):
            pieces.append(table)
            return task(op, table, index)

        monkeypatch.setattr(ShardedScanExec, "_task", spy)
        stmt = f"SELECT a.s, b.y {SELF_JOIN} WHERE a.x > 10"
        sharded = session.sql.query(stmt, extra_config=SHARDED)
        _assert_bitwise(session.sql.query(stmt).run(), sharded.run(), stmt)
        stored = session.catalog.get("t")
        assert len(pieces) >= 4
        assert sum(piece.num_rows for piece in pieces) % stored.num_rows == 0
        for piece in pieces:
            for col in piece.columns:
                base = stored.column(col.name)
                assert col.encoding is base.encoding, col.name
                assert np.shares_memory(col.tensor.data, base.tensor.data)


class TestExecutionParity:
    def test_limit_offset_and_distinct_above_sharded_join(self):
        session = _session()
        for stmt in (
            f"SELECT a.id, b.y {SELF_JOIN} WHERE a.x > 5 "
            "ORDER BY b.y DESC, a.id LIMIT 9 OFFSET 3",
            f"SELECT DISTINCT a.s {SELF_JOIN} WHERE b.x < 40",
            f"SELECT a.s, AVG(b.x) AS m {SELF_JOIN} GROUP BY a.s ORDER BY a.s",
        ):
            sharded = session.sql.query(stmt, extra_config={"shards": 5})
            assert "ShardedScan(shards=5)" in sharded.explain(), stmt
            _assert_bitwise(session.sql.query(stmt).run(), sharded.run(), stmt)

    @pytest.mark.parametrize("sql", [
        "SELECT x.id, x.f, d.w, d.label FROM t x JOIN dim d ON x.b = d.b",
        "SELECT x.id, x.f, d.w, d.label FROM t x LEFT JOIN dim d ON x.b = d.b",
        "SELECT x.id, d.w FROM t x JOIN dim d ON x.b = d.b AND x.k = d.k",
        "SELECT x.id, d.w FROM t x LEFT JOIN dim d "
        "ON x.b = d.b AND d.w > 10 WHERE x.k < 4",
        "SELECT x.s, SUM(x.f) AS sf FROM t x JOIN dim d ON x.b = d.b "
        "GROUP BY x.s",
        "SELECT x.b, AVG(x.g) AS ag FROM t x JOIN dim d ON x.b = d.b "
        "GROUP BY x.b",
        "SELECT x.s, x.b, COUNT(DISTINCT x.k) AS cd "
        "FROM t x JOIN dim d ON x.b = d.b GROUP BY x.s, x.b",
        "SELECT x.g, COUNT(*) AS c, SUM(x.f) AS sf "
        "FROM t x LEFT JOIN dim d ON x.b = d.b GROUP BY x.g",
        "SELECT x.k, SUM(x.f * 2.0) AS sf FROM t x JOIN dim d ON x.b = d.b "
        "WHERE x.b < 20 GROUP BY x.k",
        "SELECT d.label, SUM(x.f) AS sf, AVG(x.g) AS ag "
        "FROM t x JOIN dim d ON x.b = d.b GROUP BY d.label",
    ], ids=["join", "left-join", "multi-key-join", "residual-where",
            "float-sum", "nan-avg", "count-distinct", "nan-keys",
            "filtered-expr-sum", "above-join"])
    def test_joins_and_groups(self, sql, tiny_shards):
        """Joins and the grouped aggregates above them run serially over
        the stitched outputs of their sharded scans: bitwise serial."""
        session = _join_session()
        sharded = session.sql.query(sql, extra_config=SHARDED)
        assert "ShardedScan(" in sharded.explain(), sql
        serial = session.sql.query(sql, extra_config=SERIAL).run()
        _assert_bitwise(serial, sharded.run(), sql)

    def test_small_input_stays_serial(self):
        session = _join_session(n=8)
        sql = "SELECT x.id, d.w FROM t x JOIN dim d ON x.b = d.b"
        tasks = session.shard_pool.stats["tasks"]
        sharded = session.sql.query(sql, extra_config=SHARDED)
        assert "ShardedScan(" in sharded.explain()
        serial = session.sql.query(sql, extra_config=SERIAL).run()
        _assert_bitwise(serial, sharded.run())
        assert session.shard_pool.stats["tasks"] == tasks


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

    session = Session()
    model = nn.Linear(2, 2)

    @session.udf("Label float", name="classify", modules=[model])
    def classify(x):
        return PEEncoding.encode(model(x), domain=[0, 1])

    rng = np.random.default_rng(0)
    features = rng.normal(size=(rows, 2)).astype(np.float32)
    session.sql.register_tensor(Tensor(features), "bag")
    return session
