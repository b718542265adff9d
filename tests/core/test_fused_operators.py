"""The row-wise pipeline operator: plan shape, stage splitting, equivalence."""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.miniduck import MiniDuck
from repro.core.compiler import Compiler
from repro.core.config import QueryConfig
from repro.core.session import Session
from repro.errors import SqlError
from repro.sql import bound as b
from repro.sql import logical
from repro.storage import types as dt
from tcr_lowering import LOWERINGS, QUERIES, query_over_tcr

# The benchmark's statement generator (rel_analytic / rel_sharded).
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "benchmarks", "e2e"))


def _table_data():
    rng = np.random.default_rng(0)
    return {
        "k": rng.integers(0, 20, size=500),
        "a": rng.normal(size=500).astype(np.float32),
        "b": rng.normal(size=500).astype(np.float32),
        "s": rng.choice(["red", "green", "blue"], size=500),
    }


@pytest.fixture
def session():
    session = Session()
    session.sql.register_dict(_table_data(), "t")
    return session


def _physical(query) -> str:
    return query.explain().split("== Physical operators ==")[1]


def _reference(session, data, sql):
    """The outside oracle (miniduck) where it can run the statement; the
    interpreter leg for the engine-only surface (builtin functions)."""
    duck = MiniDuck()
    duck.register("t", data)
    try:
        return duck.execute(sql)
    except SqlError:
        return query_over_tcr(session, sql).run(toPandas=True)


# Queries exercising single- and multi-stage pipelines, including the shapes
# used by bench_ablation_operators (group-by over a filtered scan, top-k).
EQUIVALENCE_QUERIES = [
    "SELECT a, b FROM t WHERE a > 0",
    "SELECT a + b AS s2, a * 2 AS d FROM t WHERE a > 0 AND b < 1 AND a < b",
    "SELECT k FROM t WHERE a > 0 AND k < 10 AND s = 'red'",
    "SELECT k, COUNT(*), SUM(a) FROM t WHERE a > 0 AND b < 0.5 GROUP BY k ORDER BY k",
    "SELECT a FROM t WHERE s LIKE 'r%' ORDER BY a DESC LIMIT 5",
    "SELECT ABS(a) AS m FROM t WHERE a BETWEEN -1 AND 1 AND k IN (1, 2, 3)",
    "SELECT a FROM t WHERE a > 100",                     # empty result
    "SELECT k, a FROM t WHERE k = 3 ORDER BY a LIMIT 7",
]


class TestPipelineEquivalence:
    @pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
    def test_pipeline_matches_reference(self, session, sql):
        got = session.sql.query(sql).run(toPandas=True)
        assert got.equals(_reference(session, _table_data(), sql), atol=1e-5)

    @given(lo=st.floats(-2, 2), hi=st.floats(-2, 2))
    @settings(max_examples=20, deadline=None)
    def test_range_filters_match(self, lo, hi):
        rng = np.random.default_rng(5)
        data = {"x": rng.normal(size=200).astype(np.float32)}
        session = Session()
        session.sql.register_dict(data, "t")
        sql = f"SELECT x * 2 AS y FROM t WHERE x > {lo} AND x < {hi}"
        got = session.sql.query(sql).run(toPandas=True)
        assert got.equals(_reference(session, data, sql), atol=1e-5)


class TestPipelinePlanShape:
    def test_filter_project_chain_is_one_stage(self, session):
        physical = _physical(session.sql.query(
            "SELECT a + b AS c FROM t WHERE a > 0 AND b < 1"))
        assert physical.strip().splitlines() == [
            "Pipeline[kernel]([(a > 0) AND (b < 1)] -> c)", "  Scan(t)"]

    def test_one_stage_under_an_aggregate(self, session):
        physical = _physical(session.sql.query(
            "SELECT k, COUNT(*) FROM t WHERE a > 0 AND b < 1 GROUP BY k"))
        assert physical.count("Pipeline[") == 1

    def test_knobs_select_only_the_body(self, session):
        """The lowering namespace and `trainable` change the stage body,
        never the plan shape."""
        sql = "SELECT SUM(a) FROM t WHERE a > 0 AND b < 1"
        shapes = []
        queries = (session.sql.query(sql), query_over_tcr(session, sql),
                   session.sql.query(sql, extra_config={"trainable": True}))
        for query, body in zip(queries, ("kernel", "interp", "interp")):
            physical = _physical(query)
            assert physical.count("Pipeline[") == 1
            assert f"Pipeline[{body}]" in physical
            shapes.append(physical.replace(f"[{body}]", "[]"))
        assert shapes[0] == shapes[1] == shapes[2]

    def test_rel_analytic_plans_are_legible(self):
        """The benchmark's five TPC-H-shaped statements: expression text is
        SQL-shaped (no dataclass reprs), every scan feeds a pipeline stage,
        and no statement has more row-wise nodes than it had when they were
        Filter/FusedFilter/FusedFilterProject/Project operators."""
        import datagen
        orders = datagen.make_orders(1, 0.01)
        session = Session()
        session.sql.register_dict(datagen.make_lineitem(1, orders, 0.01), "lineitem")
        session.sql.register_dict(orders, "orders")
        statements = datagen.suite_statements(datagen.suite_params(1))
        row_wise_before = {"q1": 3, "q6": 3, "q3": 6, "q12": 5, "topk": 1}
        assert set(statements) == set(row_wise_before)
        for name, sql in statements.items():
            plan = session.sql.query(sql).explain()
            assert "DataType(" not in plan, plan
            lines = _physical(session.sql.query(sql)).strip().splitlines()
            for above, line in zip(lines, lines[1:]):
                if line.lstrip().startswith("Scan("):
                    assert above.lstrip().startswith("Pipeline["), plan
            assert not any(line.lstrip().startswith(("Filter", "Project"))
                           for line in lines), plan
            stages = sum(line.lstrip().startswith("Pipeline[") for line in lines)
            assert 1 <= stages <= row_wise_before[name], plan

    @pytest.mark.parametrize("key", ["fuse_operators", "compile_pipelines",
                                     "parallel_scan", "exchange", "join_impl",
                                     "topk_impl", "batch_window",
                                     "shed_policy", "parallel_min_rows",
                                     "priority", "deadline",
                                     "scheduler_workers", "max_queue_depth",
                                     "soft_filter", "soft_temperature",
                                     "groupby_impl", "compile_exprs"])
    def test_removed_knobs_are_unknown_keys(self, key):
        with pytest.raises(ValueError, match="unknown config key"):
            QueryConfig({key: False})
        assert len(QueryConfig().fingerprint()) == 8


def _udf_session(seen):
    session = Session()
    session.sql.register_dict({
        "x": np.array([1, 2, 3, 4, 5, 6], dtype=np.float32),
        "y": np.arange(6, dtype=np.float32),
    }, "t")

    @session.udf("float", name="f")
    def f(y):
        seen.append(y.shape[0])
        return y * 2

    return session


class TestStageBreakers:
    """One test per rule of ``compiler._breaks_stage``."""

    @pytest.mark.parametrize("conjunct, expected", [
        ("f(y) > 0", [5.0, 6.0]),
        # A UDF under IS NULL, LIKE or a BETWEEN bound is still a UDF (these
        # node kinds used to report contains_udf() == False, which let the
        # call run over all six rows inside the x > 4 stage).
        ("f(y) IS NOT NULL", [5.0, 6.0]),
        ("CAST(f(y) AS STRING) LIKE '1%'", [6.0]),
        ("x BETWEEN 0 AND f(y)", [5.0, 6.0]),
    ])
    def test_udf_conjunct_starts_a_stage_over_survivors(self, conjunct, expected):
        seen = []
        session = _udf_session(seen)
        sql = f"SELECT x FROM t WHERE x > 4 AND {conjunct}"
        for compile_ in QUERIES:
            seen.clear()
            query = compile_(session, sql, extra_config={"tensor_cache": False})
            physical = _physical(query)
            assert physical.count("Pipeline[") == 2
            assert physical.index("f(y)") < physical.index("(x > 4)")
            assert query.run(toPandas=True)["x"].tolist() == expected
            assert sum(seen) == 2                # only the x > 4 survivors

    def test_udf_conjunct_sees_prefiltered_rows(self, session):
        seen_rows = []

        @session.udf("bool", name="probe")
        def probe(x):
            seen_rows.append(x.shape[0])
            return x > 0

        sql = "SELECT a FROM t WHERE k < 5 AND probe(a)"
        out = session.sql.query(sql).run(toPandas=True)
        # The cheap k<5 conjunct must prune rows before the UDF runs: the
        # probe invocations together see < 500 rows.
        assert 0 < sum(seen_rows) < 500
        interpreted = query_over_tcr(session, sql).run(toPandas=True)
        assert out.equals(interpreted, atol=1e-6)

    def test_udf_projection_is_not_inlined(self):
        """Project(z = y * y) over Project(y = f(x)): inlining would call
        ``f`` twice per row."""
        seen = []
        session = _udf_session(seen)
        info = session.functions.lookup("f")
        x = b.BColumn(0, "x", dt.FLOAT)
        inner = logical.Project(
            logical.Scan("t", [("x", dt.FLOAT), ("y", dt.FLOAT)]),
            [b.BCall(info, [x], dt.FLOAT)], [("y", dt.FLOAT)])
        y = b.BColumn(0, "y", dt.FLOAT)
        outer = logical.Project(
            inner, [b.BBinary("*", y, y, dt.FLOAT)], [("z", dt.FLOAT)])
        config = QueryConfig({"tensor_cache": False})
        query = Compiler(session.catalog, config, "cpu").compile(outer, "<manual>")
        assert query.root.pretty().count("Pipeline[") == 2
        np.testing.assert_allclose(
            query.run(toPandas=True)["z"], [4, 16, 36, 64, 100, 144])
        assert sum(seen) == 6

    @pytest.mark.parametrize("lowering", LOWERINGS)
    def test_positional_round_is_not_moved_across_a_selection(self, lowering):
        """Two-argument ROUND reads element 0 of its digits operand, so with
        a digits *column* its value depends on which rows it is given."""
        session = Session()
        session.sql.register_dict({
            "x": np.array([1.234, 5.678, 9.1011], dtype=np.float32),
            "d": np.array([0, 2, 1], dtype=np.int64),
            "a": np.array([-1, 1, 1], dtype=np.int64),
        }, "t")
        # As a later conjunct it must read only the a > 0 survivors
        # (digits = 2: 5.68 and 9.1), not all rows (digits = 0: 6 and 9).
        with lowering():
            query = session.sql.query(
                "SELECT x FROM t WHERE a > 0 AND ROUND(x, d) < 5.9",
                extra_config={"plan_cache": False})
        assert _physical(query).count("Pipeline[") == 2
        np.testing.assert_allclose(query.run(toPandas=True)["x"], [5.678])

        # As an output *below* a selection it must read all rows (digits = 0).
        schema = [("x", dt.FLOAT), ("d", dt.INT), ("a", dt.INT)]
        x, d, a = (b.BColumn(i, n, t) for i, (n, t) in enumerate(schema))
        rounded = logical.Project(
            logical.Scan("t", schema),
            [b.BBuiltin("ROUND", [x, d], dt.FLOAT), a],
            [("r", dt.FLOAT), ("a", dt.INT)])
        guarded = logical.Filter(
            rounded, b.BBinary(">", b.BColumn(1, "a", dt.INT),
                               b.BLiteral(0, dt.INT), dt.BOOL))
        with lowering():
            query = Compiler(session.catalog, QueryConfig(), "cpu").compile(
                guarded, "<manual>")
        assert query.root.pretty().count("Pipeline[") == 2
        np.testing.assert_allclose(query.run(toPandas=True)["r"], [6.0, 9.0])


class TestFilterChainOrder:
    def test_inner_guard_filter_runs_before_outer_udf(self):
        """A chained Filter below a UDF-bearing Filter must keep guarding it.

        Lowering flattens Filter chains; the conjuncts must keep *execution*
        order (innermost first) so the UDF never sees rows its guard
        excluded.
        """
        session = Session()
        session.sql.register_dict(
            {"x": np.array([-3.0, -1.0, 0.5, 2.0, 4.0], dtype=np.float32)}, "t")
        seen = []

        @session.udf("bool", name="picky")
        def picky(x):
            assert (x.detach().data > 0).all(), "guard violated"
            seen.append(x.shape[0])
            return x > 1.0

        info = session.functions.lookup("picky")
        schema = [("x", dt.FLOAT)]
        guard = logical.Filter(
            logical.Scan("t", schema),
            b.BBinary(">", b.BColumn(0, "x", dt.FLOAT),
                      b.BLiteral(0.0, dt.FLOAT), dt.BOOL))
        chained = logical.Filter(
            guard, b.BCall(info, [b.BColumn(0, "x", dt.FLOAT)], dt.BOOL))
        for lowering in LOWERINGS:
            seen.clear()
            with lowering():
                query = Compiler(session.catalog, QueryConfig(), "cpu").compile(
                    chained, "<manual>")
            out = query.run(toPandas=True)
            assert out["x"].tolist() == [2.0, 4.0]
            assert sum(seen) == 3                # only the guarded rows


class TestProjectProjectMerge:
    def test_adjacent_projects_collapse_to_one_operator(self):
        schema_in = [("x", dt.FLOAT)]
        inner = logical.Project(
            logical.Scan("t", schema_in),
            [b.BBinary("+", b.BColumn(0, "x", dt.FLOAT),
                       b.BLiteral(1.0, dt.FLOAT), dt.FLOAT)],
            [("y", dt.FLOAT)],
        )
        outer = logical.Project(
            inner,
            [b.BBinary("*", b.BColumn(0, "y", dt.FLOAT),
                       b.BLiteral(2.0, dt.FLOAT), dt.FLOAT)],
            [("z", dt.FLOAT)],
        )
        session = Session()
        session.sql.register_dict(
            {"x": np.array([1.0, 2.0], dtype=np.float32)}, "t")
        compiler = Compiler(session.catalog, QueryConfig(), "cpu")
        query = compiler.compile(outer, "<manual>")
        assert query.root.pretty().count("Pipeline[") == 1
        out = query.run(toPandas=True)
        np.testing.assert_allclose(out["z"], [4.0, 6.0])


class TestPipelineOperatorUnits:
    def test_multi_conjunct_filter_single_gather(self, session):
        from repro.storage.table import Table
        takes = []
        original = Table.take

        def counting_take(self, indices):
            takes.append(len(self.columns))
            return original(self, indices)

        Table.take = counting_take
        try:
            session.sql.query(
                "SELECT k, a, b, s FROM t WHERE a > 0 AND b > 0 AND k > 2").run()
        finally:
            Table.take = original
        # One gather for three conjuncts (the seed cascade did three).
        assert len(takes) == 0 or len(takes) == 1
