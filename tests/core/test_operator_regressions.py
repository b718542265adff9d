"""Regression tests for operator correctness fixes.

Each test failed on the seed implementations:

* multi-key equi-join composed key codes with radix arithmetic that wraps
  int64 for high-cardinality composite keys (phantom matches);
* a residual join predicate ran after NULL-filling, silently degrading
  LEFT/RIGHT joins to inner joins;
* ``HashAggregateExec`` stacked mixed-dtype group keys through float64,
  collapsing distinct int keys above 2^53;
* empty-input aggregation emitted int64 columns regardless of the
  aggregate's real output dtype;
* ``groupby_impl="hash"`` merged NaN group keys into one group while the
  default kept each NaN key its own group.
"""

import numpy as np
import pytest

from repro.baselines.miniduck import MiniDuck
from repro.core.session import Session


class TestMultiKeyJoinOverflow:
    def test_no_phantom_matches_at_radix_overflow(self):
        # Five key columns whose per-key code domain is exactly {0..65534}
        # (radix 65536 = 2^16 in the old scheme). With five keys the radix
        # product is 2^80: the first key's contribution is ≡ 0 (mod 2^64),
        # so the seed matched (2,7,7,7,7) against left row (7,7,7,7,7).
        n = 65535
        session = Session()
        base = np.arange(n, dtype=np.int64)
        session.sql.register_dict(
            {"a": base, "b": base, "c": base, "d": base, "e": base,
             "v": np.arange(n, dtype=np.float32)}, "l")
        session.sql.register_dict(
            {"a": [2, 9], "b": [7, 9], "c": [7, 9], "d": [7, 9], "e": [7, 9],
             "w": [111.0, 222.0]}, "r")
        out = session.spark.query(
            "SELECT l.v, r.w FROM l JOIN r ON l.a = r.a AND l.b = r.b "
            "AND l.c = r.c AND l.d = r.d AND l.e = r.e ORDER BY l.v"
        ).run(toPandas=True)
        # Only (9,9,9,9,9) truly matches; the seed also returned v=7.
        assert out["v"].tolist() == [9.0]
        assert out["w"].tolist() == [222.0]

    def test_three_key_join_matches_reference(self):
        rng = np.random.default_rng(7)
        session = Session()
        left = {k: rng.integers(0, 4, size=60) for k in ("a", "b", "c")}
        left["v"] = np.arange(60, dtype=np.float32)
        right = {k: rng.integers(0, 4, size=40) for k in ("a", "b", "c")}
        right["w"] = np.arange(40, dtype=np.float32)
        session.sql.register_dict(left, "l")
        session.sql.register_dict(right, "r")
        out = session.spark.query(
            "SELECT l.v, r.w FROM l JOIN r ON l.a = r.a AND l.b = r.b "
            "AND l.c = r.c"
        ).run(toPandas=True)
        want = sorted(
            (float(left["v"][i]), float(right["w"][j]))
            for i in range(60) for j in range(40)
            if all(left[k][i] == right[k][j] for k in ("a", "b", "c"))
        )
        got = sorted(zip(out["v"].tolist(), out["w"].tolist()))
        assert got == want


class TestOuterJoinResidual:
    def _session(self):
        session = Session()
        session.sql.register_dict({"a": [1, 2, 3], "v": [10.0, 20.0, 30.0]}, "l")
        session.sql.register_dict({"a": [1, 2], "w": [3.0, 8.0]}, "r")
        return session

    def test_left_join_keeps_unmatched_rows(self):
        out = self._session().spark.query(
            "SELECT l.a, r.w FROM l LEFT JOIN r ON l.a = r.a AND r.w > 5.0 "
            "ORDER BY l.a"
        ).run(toPandas=True)
        # Seed applied the residual after NULL-filling and returned only a=2.
        assert out["a"].tolist() == [1, 2, 3]
        w = out["w"].tolist()
        assert np.isnan(w[0])        # matched, but every match fails the residual
        assert w[1] == 8.0
        assert np.isnan(w[2])        # no key match at all

    def test_right_join_keeps_unmatched_rows(self):
        session = Session()
        session.sql.register_dict({"a": [1, 2], "v": [10.0, 20.0]}, "l")
        session.sql.register_dict({"a": [1, 2, 3], "w": [3.0, 8.0, 9.0]}, "r")
        out = session.spark.query(
            "SELECT r.a, r.w, l.v FROM l RIGHT JOIN r ON l.a = r.a AND l.v > 15.0 "
            "ORDER BY r.a"
        ).run(toPandas=True)
        assert out["a"].tolist() == [1, 2, 3]
        v = out["v"].tolist()
        assert np.isnan(v[0])
        assert v[1] == 20.0
        assert np.isnan(v[2])

    def test_inner_join_residual_still_filters(self):
        out = self._session().spark.query(
            "SELECT l.a, r.w FROM l JOIN r ON l.a = r.a AND r.w > 5.0"
        ).run(toPandas=True)
        assert out["a"].tolist() == [2]
        assert out["w"].tolist() == [8.0]


class TestHashAggregateMixedKeys:
    def test_int_keys_above_2_53_stay_distinct(self):
        session = Session()
        session.sql.register_dict(
            {"k1": np.array([2**53, 2**53 + 1, 2**53], dtype=np.int64),
             "k2": np.array([0.5, 0.5, 0.5], dtype=np.float32),
             "v": np.array([1.0, 2.0, 4.0], dtype=np.float32)}, "t")
        out = session.spark.query(
            "SELECT k1, k2, COUNT(*), SUM(v) FROM t GROUP BY k1, k2 ORDER BY k1",
        ).run(toPandas=True)
        # Seed promoted k1 to float64 (2^53 == 2^53+1) and returned 1 group.
        assert out["k1"].tolist() == [2**53, 2**53 + 1]
        assert out["COUNT(*)"].tolist() == [2, 1]
        assert out["SUM(v)"].tolist() == [5.0, 2.0]

    def test_mixed_keys_match_miniduck(self):
        rng = np.random.default_rng(3)
        data = {"ki": rng.integers(0, 5, size=50),
                "kf": rng.integers(0, 3, size=50).astype(np.float32) / 2.0,
                "v": rng.normal(size=50).astype(np.float32)}
        session = Session()
        session.sql.register_dict(dict(data), "t")
        duck = MiniDuck()
        duck.register("t", dict(data))
        sql = "SELECT ki, kf, COUNT(*), SUM(v) FROM t GROUP BY ki, kf ORDER BY ki, kf"
        got = session.spark.query(sql).run(toPandas=True)
        assert got.equals(duck.execute(sql), atol=1e-4)


class TestEmptyAggregateDtypes:
    def test_empty_input_matches_nonempty_dtypes(self):
        session = Session()
        session.sql.register_dict(
            {"k": np.array([1, 2], dtype=np.int64),
             "v": np.array([1.5, 2.5], dtype=np.float32),
             "b": np.array([True, False]),
             "i": np.array([3, -4], dtype=np.int32)}, "t")
        sql_tail = ("SUM(v), AVG(v), MIN(v), MAX(v), COUNT(*), SUM(b), SUM(i) "
                    "FROM t {} GROUP BY k")
        empty = session.spark.query(
            "SELECT k, " + sql_tail.format("WHERE k < 0")).run()
        full = session.spark.query("SELECT k, " + sql_tail.format("")).run()
        assert len(empty) == 0
        for name in empty.column_names:
            assert empty.column(name).dtype == full.column(name).dtype, name


class TestNanGroupKeys:
    def test_each_nan_key_is_its_own_group_under_every_plan(self):
        # The seed's hash implementation returned 3 groups here (one NaN
        # group), the default 4. Only the default's behaviour remains: every
        # NaN key is its own group, after all values, in row order.
        session = Session()
        session.sql.register_dict(
            {"g": np.array([1.0, np.nan, np.nan, 2.0], dtype=np.float32),
             "v": np.array([1, 2, 4, 8], dtype=np.int64)}, "t")
        sql = "SELECT g, COUNT(*) AS c, SUM(v) AS s FROM t GROUP BY g"
        for extra in (None, {"compile_exprs": False}):
            out = session.sql.query(sql, extra_config=extra).run()
            g = np.asarray(out.column("g"))
            assert g[:2].tolist() == [1.0, 2.0] and np.isnan(g[2:]).all(), extra
            assert out.column("c").tolist() == [1, 1, 1, 1], extra
            assert out.column("s").tolist() == [1, 8, 2, 4], extra
        for removed in ("hash", "sort", "soft"):
            with pytest.raises(ValueError, match="unknown config key"):
                session.sql.query(sql, extra_config={"groupby_impl": removed})


class TestTopKFastPath:
    """TopK with one key and more rows than it keeps takes the argpartition
    fast path instead of sort + limit; the two must pick the same rows."""

    @staticmethod
    def _ops(k, offset, ascending):
        from repro.core.kernels.compiler import ExprCompiler
        from repro.core.operators.sort import LimitExec, SortExec, TopKExec
        from repro.sql import bound as b
        from repro.storage import types as dt

        keys = [(b.BColumn(0, "v", dt.FLOAT), ascending)]
        top = TopKExec(keys, k, offset, ExprCompiler())
        return top, lambda rel: LimitExec(k, offset)(SortExec(keys, ExprCompiler())(rel))

    @staticmethod
    def _relation(values):
        from repro.core.operators.base import Relation
        from repro.storage.table import Table

        values = np.asarray(values, dtype=np.float32)
        payload = np.arange(len(values), dtype=np.int64) * 10
        return Relation(Table.from_dict("t", {"v": values, "id": payload}))

    def test_argpartition_fast_path_keeps_rows_aligned(self):
        top, _ = self._ops(2, 0, ascending=False)
        out = top(self._relation([5.0, 1.0, 4.0, 2.0, 3.0])).table   # n > k
        assert out.column("v").decode().tolist() == [5.0, 4.0]
        assert out.column("id").decode().tolist() == [0, 20]

    @pytest.mark.parametrize("ascending", [True, False])
    def test_fast_path_equals_sort_then_limit(self, ascending):
        values = np.random.default_rng(3).permutation(200).astype(np.float32)
        for k, offset in ((1, 0), (7, 0), (5, 11), (30, 150)):
            top, slow = self._ops(k, offset, ascending)
            got, want = top(self._relation(values)).table, slow(self._relation(values)).table
            for name in ("v", "id"):
                assert (got.column(name).decode().tolist()
                        == want.column(name).decode().tolist()), (k, offset, name)


class TestDistinctLargeIntKeys:
    def test_no_float64_collapse_above_2_to_53(self):
        session = Session()
        session.sql.register_dict(
            {"k": np.array([2**53, 2**53 + 1, 2**53], dtype=np.int64)}, "t")
        out = session.spark.query(
            "SELECT DISTINCT k FROM t ORDER BY k").run(toPandas=True)
        # Seed stacked keys through float64 (2^53 == 2^53+1): one row.
        assert out["k"].tolist() == [2**53, 2**53 + 1]

    def test_multi_column_distinct_matches_reference(self):
        rng = np.random.default_rng(11)
        session = Session()
        a = rng.integers(0, 4, size=60)
        s = np.array(["x", "y", "z"], dtype=object)[rng.integers(0, 3, size=60)]
        session.sql.register_dict({"a": a, "s": s}, "t")
        out = session.spark.query(
            "SELECT DISTINCT a, s FROM t ORDER BY a, s").run(toPandas=True)
        want = sorted(set(zip(a.tolist(), s.tolist())))
        assert list(zip(out["a"].tolist(), out["s"].tolist())) == want


class TestEmptyBuildSideOuterJoin:
    def test_left_join_against_zero_row_table(self):
        # Seed crashed in _null_fill_column: with a zero-row build side every
        # probe row is unmatched and the "safe" placeholder index 0 gathered
        # out of bounds.
        session = Session()
        session.sql.register_dict({"a": [1, 2, 3], "v": [10.0, 20.0, 30.0]}, "l")
        session.sql.register_dict(
            {"a": np.empty(0, dtype=np.int64),
             "w": np.empty(0, dtype=np.float64),
             "s": np.empty(0, dtype=object)}, "r")
        out = session.spark.query(
            "SELECT l.a, r.w, r.s FROM l LEFT JOIN r ON l.a = r.a ORDER BY l.a"
        ).run(toPandas=True)
        assert out["a"].tolist() == [1, 2, 3]
        assert all(np.isnan(w) for w in out["w"])
        assert out["s"].tolist() == ["", "", ""]

    def test_inner_join_against_zero_row_table_is_empty(self):
        session = Session()
        session.sql.register_dict({"a": [1, 2, 3], "v": [10.0, 20.0, 30.0]}, "l")
        session.sql.register_dict(
            {"a": np.empty(0, dtype=np.int64),
             "w": np.empty(0, dtype=np.float64)}, "r")
        out = session.spark.query(
            "SELECT l.a, r.w FROM l JOIN r ON l.a = r.a").run(toPandas=True)
        assert len(out) == 0
