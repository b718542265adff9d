"""MiniDuck engine: behaviour + differential testing against TDP."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.miniduck import MiniDuck
from repro.core.session import Session
from repro.errors import BindError, SqlError
from repro.storage.frame import DataFrame


@pytest.fixture
def duck():
    engine = MiniDuck()
    engine.register("t", DataFrame({
        "k": ["a", "b", "a", "c", "b", "a"],
        "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        "n": [10, 20, 30, 40, 50, 60],
    }))
    return engine


class TestMiniDuck:
    def test_projection_filter(self, duck):
        out = duck.execute("SELECT n FROM t WHERE v > 2.5")
        assert out["n"].tolist() == [30, 40, 50, 60]

    def test_string_filter(self, duck):
        out = duck.execute("SELECT v FROM t WHERE k = 'a'")
        assert out["v"].tolist() == [1.0, 3.0, 6.0]

    def test_group_by(self, duck):
        out = duck.execute("SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k "
                           "ORDER BY k")
        assert out["k"].tolist() == ["a", "b", "c"]
        assert out["COUNT(*)"].tolist() == [3, 2, 1]
        assert out["SUM(v)"].tolist() == [10.0, 7.0, 4.0]

    def test_global_aggregates(self, duck):
        out = duck.execute("SELECT AVG(v), MIN(n), MAX(n) FROM t")
        assert out["AVG(v)"][0] == pytest.approx(3.5)
        assert out["MIN(n)"][0] == 10
        assert out["MAX(n)"][0] == 60

    def test_order_limit(self, duck):
        out = duck.execute("SELECT n FROM t ORDER BY v DESC LIMIT 2")
        assert out["n"].tolist() == [60, 50]

    def test_distinct(self, duck):
        out = duck.execute("SELECT DISTINCT k FROM t ORDER BY k")
        assert out["k"].tolist() == ["a", "b", "c"]

    def test_between_in_like(self, duck):
        assert len(duck.execute("SELECT v FROM t WHERE v BETWEEN 2 AND 4")) == 3
        assert len(duck.execute("SELECT v FROM t WHERE k IN ('a','c')")) == 4
        assert len(duck.execute("SELECT v FROM t WHERE k LIKE 'a%'")) == 3

    def test_subquery(self, duck):
        out = duck.execute("SELECT COUNT(*) FROM (SELECT v FROM t WHERE v > 3)")
        assert out["COUNT(*)"].tolist() == [3]

    def test_having(self, duck):
        out = duck.execute("SELECT k, COUNT(*) FROM t GROUP BY k "
                           "HAVING COUNT(*) > 1 ORDER BY k")
        assert out["k"].tolist() == ["a", "b"]

    def test_grouped_min_max_propagate_nan_without_warning(self):
        engine = MiniDuck()
        engine.register("t", DataFrame({
            "k": ["a", "b", "a", "c", "b"],
            "v": [1.0, 2.0, np.nan, -3.0, 5.0],
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = engine.execute("SELECT k, MIN(v), MAX(v) FROM t GROUP BY k "
                                 "ORDER BY k")
        assert out["k"].tolist() == ["a", "b", "c"]
        mins = np.asarray(out["MIN(v)"], dtype=np.float64)
        maxs = np.asarray(out["MAX(v)"], dtype=np.float64)
        assert np.isnan(mins[0]) and np.isnan(maxs[0])
        assert mins[1:].tolist() == [2.0, -3.0]
        assert maxs[1:].tolist() == [5.0, -3.0]

    def test_unknown_table_and_function(self, duck):
        with pytest.raises(BindError):
            duck.execute("SELECT * FROM missing")
        with pytest.raises(SqlError):
            duck.execute("SELECT my_udf(v) FROM t")


class TestDifferentialAgainstTdp:
    """MiniDuck and TDP are independent engines; they must agree."""

    @given(
        st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-20, 20)),
                 min_size=1, max_size=50),
        st.integers(-20, 20),
    )
    @settings(max_examples=25, deadline=None)
    def test_filter_aggregate_agreement(self, rows, threshold):
        keys = [r[0] for r in rows]
        values = np.asarray([r[1] for r in rows], dtype=np.int64)

        duck = MiniDuck()
        duck.register("data", DataFrame({"k": keys, "v": values}))
        session = Session()
        session.sql.register_dict({"k": keys, "v": values}, "data")

        sql = (f"SELECT k, COUNT(*), SUM(v) FROM data WHERE v >= {threshold} "
               f"GROUP BY k ORDER BY k")
        duck_out = duck.execute(sql)
        tdp_out = session.spark.query(sql).run(toPandas=True)

        assert duck_out["k"].tolist() == tdp_out["k"].tolist()
        assert duck_out["COUNT(*)"].tolist() == tdp_out["COUNT(*)"].tolist()
        assert [float(x) for x in duck_out["SUM(v)"]] == \
               [float(x) for x in tdp_out["SUM(v)"]]

    @given(st.lists(st.floats(-100, 100, allow_nan=False, width=32),
                    min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_order_limit_agreement(self, values):
        duck = MiniDuck()
        duck.register("data", DataFrame({"v": np.asarray(values, dtype=np.float32)}))
        session = Session()
        session.sql.register_dict({"v": np.asarray(values, dtype=np.float32)},
                                  "data")
        sql = "SELECT v FROM data ORDER BY v DESC LIMIT 5"
        duck_out = duck.execute(sql)["v"]
        tdp_out = session.spark.query(sql).run(toPandas=True)["v"]
        np.testing.assert_allclose(duck_out.astype(float),
                                   tdp_out.astype(float), rtol=1e-5)
