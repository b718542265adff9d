"""Physical operators: key ids, grouped aggregation, joins, whole-column UDF
execution on each device."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tcr
from repro.baselines.miniduck import MiniDuck
from repro.core.operators import aggregate, direct_join_indices, key_ids
from repro.core.operators.aggregate import DENSE_FACTOR
from repro.core.operators.join import join_ids
from repro.core.session import Session
from repro.storage.column import Column
from tcr_lowering import LOWERINGS, query_over_tcr, tcr_lowering

GROUP_SQL = ("SELECT k, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM data "
             "GROUP BY k ORDER BY k")


class TestAggregateEquivalence:
    @given(st.lists(st.tuples(st.integers(0, 5),
                              st.floats(-100, 100, allow_nan=False)),
                    min_size=1, max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_matches_miniduck(self, rows):
        keys = np.asarray([r[0] for r in rows], dtype=np.int64)
        values = np.asarray([r[1] for r in rows], dtype=np.float32)
        session = Session()
        session.sql.register_dict({"k": keys, "v": values}, "data")
        duck = MiniDuck()
        duck.register("data", {"k": keys, "v": values})
        got = session.spark.query(GROUP_SQL).run(toPandas=True)
        assert got.equals(duck.execute(GROUP_SQL), atol=1e-3)

    @given(st.lists(st.sampled_from(["apple", "pear", "kiwi", "fig"]),
                    min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_string_group_counts_match_numpy(self, labels):
        session = Session()
        session.sql.register_dict(
            {"k": labels, "v": np.ones(len(labels), dtype=np.float32)}, "data")
        out = session.spark.query(
            "SELECT k, COUNT(*) FROM data GROUP BY k ORDER BY k"
        ).run(toPandas=True)
        uniques, counts = np.unique(np.asarray(labels, dtype=object),
                                    return_counts=True)
        assert out["k"].tolist() == uniques.tolist()
        assert out["COUNT(*)"].tolist() == counts.tolist()

    def test_integer_sum_stays_exact_near_int64_limit(self):
        # 64 values near 2^62 / 64 per group: float64 accumulation would
        # round every sum, int64 must hold it exactly.
        n = 128
        values = np.full(n, 2**62 // 64 - 7, dtype=np.int64)
        values[::3] -= 12345
        keys = np.arange(n, dtype=np.int64) % 2
        session = Session()
        session.sql.register_dict({"k": keys, "v": values}, "data")
        out = session.sql.query(
            "SELECT k, SUM(v) AS s FROM data GROUP BY k").run()
        want = [sum(int(v) for v in values[keys == g]) for g in (0, 1)]
        assert out.column("s").dtype == np.int64
        assert [int(v) for v in out.column("s")] == want


# Output dtype per (aggregate, argument column): grouped, grouped over no
# rows, global, global over no rows. Grouped SUM takes ``np.add.reduce``'s
# dtype over rows or none (a bool SUM is int64 either way).
AGG_DTYPES = {
    ("COUNT", "i"): ("int64", "int64", "int64", "int64"),
    ("COUNT", "f"): ("int64", "int64", "int64", "int64"),
    ("COUNT", "b"): ("int64", "int64", "int64", "int64"),
    ("SUM", "i"): ("int64", "int64", "int64", "float32"),
    ("SUM", "f"): ("float32", "float32", "float32", "float32"),
    ("SUM", "b"): ("int64", "int64", "int64", "float32"),
    ("AVG", "i"): ("float32", "float32", "float32", "float32"),
    ("AVG", "f"): ("float32", "float32", "float32", "float32"),
    ("AVG", "b"): ("float32", "float32", "float32", "float32"),
    ("MIN", "i"): ("int64", "int64", "int64", "float32"),
    ("MIN", "f"): ("float32", "float32", "float32", "float32"),
    ("MIN", "b"): ("bool", "bool", "bool", "float32"),
    ("MAX", "i"): ("int64", "int64", "int64", "float32"),
    ("MAX", "f"): ("float32", "float32", "float32", "float32"),
    ("MAX", "b"): ("bool", "bool", "bool", "float32"),
}


@pytest.mark.parametrize("func,col", sorted(AGG_DTYPES))
def test_aggregate_output_dtypes(func, col):
    session = Session()
    session.sql.register_dict(
        {"k": np.array([1, 2, 1], dtype=np.int64),
         "i": np.array([3, -4, 5], dtype=np.int64),
         "f": np.array([1.5, 2.5, -1.0], dtype=np.float32),
         "b": np.array([True, False, True])}, "t")
    got = []
    for group in ("k, ", ""):
        for where in ("", "WHERE k < 0 "):
            tail = "GROUP BY k" if group else ""
            result = session.sql.query(
                f"SELECT {group}{func}({col}) AS a FROM t {where}{tail}").run()
            got.append(str(result.column("a").dtype))
    assert tuple(got) == AGG_DTYPES[(func, col)]


def _key_arrays(keys):
    return [k.tensor.detach().data if isinstance(k, Column) else k for k in keys]


def _assert_ids_follow_lexsort(keys):
    """Ids are dense int64 in ``[0, domain)``, sort rows exactly as
    ``np.lexsort`` does, and are equal exactly where the keys are equal
    (every NaN key is distinct)."""
    ids, domain = key_ids(keys)
    arrays = _key_arrays(keys)
    n = len(arrays[0])
    assert ids.dtype == np.int64 and ids.shape == (n,)
    assert domain <= 4 * n
    if n:
        assert 0 <= ids.min() and ids.max() < domain
    order = np.lexsort(tuple(reversed(arrays)))
    assert np.array_equal(np.argsort(ids, kind="stable"), order)
    same_key = np.ones(max(n - 1, 0), dtype=bool)
    for array in arrays:
        a, b = array[order][1:], array[order][:-1]
        same_key &= a == b
    assert np.array_equal(ids[order][1:] == ids[order][:-1], same_key)
    return ids, domain


class TestKeyIds:
    rng = np.random.default_rng(5)

    def test_dictionary_column_uses_codes_and_cardinality(self):
        words = np.array(["pear", "apple", "fig", "kiwi"], dtype=object)
        column = Column.from_values("s", words[self.rng.integers(0, 3, 50)])
        ids, domain = _assert_ids_follow_lexsort([column])
        assert domain == column.encoding.cardinality
        assert np.array_equal(ids, column.tensor.data)

    def test_bool_column(self):
        _, domain = _assert_ids_follow_lexsort([self.rng.random(30) > 0.5])
        assert domain == 2

    def test_dense_int_column_is_offset_not_factorized(self):
        values = self.rng.integers(-20, 20, 60)
        ids, domain = _assert_ids_follow_lexsort([values])
        assert np.array_equal(ids, values - values.min())
        assert domain == values.max() - values.min() + 1

    def test_sparse_int_column(self):
        values = self.rng.integers(0, 40, 60) * 1_000_003
        _, domain = _assert_ids_follow_lexsort([values])
        assert domain == len(np.unique(values))

    def test_int64_extremes_in_one_column(self):
        values = np.array([2**63 - 1, -2**63, 0, -2**63, 2**63 - 1], dtype=np.int64)
        _, domain = _assert_ids_follow_lexsort([values])
        assert domain == 3

    def test_adjacent_integers_above_2_to_53_stay_distinct(self):
        values = np.array([2**53 + 1, 2**53, 2**53 + 1], dtype=np.int64)
        ids, _ = _assert_ids_follow_lexsort([values])
        assert ids.tolist() == [1, 0, 1]

    def test_float_nan_and_signed_zero(self):
        values = np.array([0.0, np.nan, -0.0, 1.5, np.nan, -1.0], dtype=np.float32)
        ids, domain = _assert_ids_follow_lexsort([values])
        assert ids[0] == ids[2]                  # -0.0 and 0.0: one key
        assert ids[1] != ids[4]                  # every NaN its own key ...
        assert ids[1] < ids[4] and ids[4] == domain - 1    # ... last, in row order

    def test_mixed_columns(self):
        words = np.array(["b", "a", "c"], dtype=object)
        keys = [Column.from_values("s", words[self.rng.integers(0, 3, 80)]),
                self.rng.integers(0, 3, 80) * 1_000_003,
                self.rng.random(80) > 0.5,
                self.rng.integers(0, 4, 80).astype(np.float32) / 2]
        _assert_ids_follow_lexsort(keys)

    def test_radix_product_overflowing_int64(self):
        # Three dense columns whose ranges are each just under 4x the row
        # count: the mixed-radix product exceeds 2^63.
        n = 600_000
        columns = []
        for _ in range(3):
            values = self.rng.integers(0, 4 * n - 1, n)
            values[:2] = (0, 4 * n - 2)
            columns.append(values)
        assert (4 * n - 1) ** 3 >= 2**63
        _assert_ids_follow_lexsort(columns)

    @pytest.mark.parametrize("dtype,n", [(np.int8, 100), (np.int16, 20_000)])
    def test_narrow_int_spanning_its_whole_range(self, dtype, n):
        # value - min exceeds the dtype's maximum: it must not wrap.
        info = np.iinfo(dtype)
        values = self.rng.integers(info.min, info.max + 1, n).astype(dtype)
        values[:2] = (info.min, info.max)
        ids, domain = _assert_ids_follow_lexsort([values])
        assert domain == int(info.max) - int(info.min) + 1     # addressed, not compacted
        assert np.array_equal(ids, values.astype(np.int64) - int(info.min))
        other = self.rng.integers(info.min, info.max + 1, n).astype(dtype)
        other[-2:] = (info.max, info.min)
        _assert_ids_follow_lexsort([values, other])

    def test_uint64_across_2_to_63(self):
        # Addressed as value - min although the int64 casts wrap.
        values = np.array([2**63 + 1, 2**63 - 2, 2**63, 2**63 + 1], dtype=np.uint64)
        ids, domain = key_ids([values])
        assert ids.tolist() == [3, 0, 2, 3] and domain == 4

    def test_empty_and_single_row(self):
        assert key_ids([np.zeros(0, dtype=np.int64)])[1] == 0
        _assert_ids_follow_lexsort([np.zeros(0, dtype=np.float32)])
        ids, domain = _assert_ids_follow_lexsort([np.array([7]), np.array([np.nan])])
        assert ids.tolist() == [0] and domain == 1


def _reference_equi_join(left_codes, right_codes, keep_unmatched_left=False):
    """The sorted-lookup join as it stood before direct addressing: sort
    the right side once, binary-search each left row's matching range."""
    if len(left_codes) == 0 or (len(right_codes) == 0 and not keep_unmatched_left):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    order = np.argsort(right_codes, kind="stable")
    sorted_right = right_codes[order]
    lo = np.searchsorted(sorted_right, left_codes, side="left")
    hi = np.searchsorted(sorted_right, left_codes, side="right")
    counts = hi - lo
    out_counts = np.maximum(counts, 1) if keep_unmatched_left else counts
    total = int(out_counts.sum())
    left_idx = np.repeat(np.arange(len(left_codes)), out_counts)
    block_starts = np.concatenate([[0], np.cumsum(out_counts)[:-1]])
    within = np.arange(total) - np.repeat(block_starts, out_counts)
    right_sorted_pos = np.repeat(lo, out_counts) + within
    matched = np.repeat(counts > 0, out_counts)
    right_idx = np.full(total, -1, dtype=np.int64)
    right_idx[matched] = order[right_sorted_pos[matched]]
    return left_idx, right_idx


class TestDirectJoinLaw:
    @given(left=st.lists(st.integers(0, 12), max_size=40),
           right=st.lists(st.integers(0, 12), max_size=40),
           kind=st.sampled_from(["INNER", "LEFT", "RIGHT"]),
           stride=st.sampled_from([1, 1_000_003]))
    @settings(max_examples=80, deadline=None)
    def test_direct_address_equals_sorted_reference(self, left, right, kind,
                                                    stride):
        """Same ``(li, ri)`` pairs, in the same order, as the sorted lookup,
        on both sides of ``key_ids``' dense threshold: stride 1 keys are
        mostly addressed as ``value - min``, stride 1_000_003 keys are
        always compacted by ``np.unique`` first."""
        left_keys = np.asarray(left, dtype=np.int64) * stride
        right_keys = np.asarray(right, dtype=np.int64) * stride
        left_ids, right_ids, domain = join_ids([(left_keys, right_keys)])
        joint = np.concatenate([left_keys, right_keys])
        if len(joint):
            span = joint.max() - joint.min()
            addressed = span < DENSE_FACTOR * len(joint)
            assert domain == (span + 1 if addressed else len(np.unique(joint)))
        _assert_join_equals_reference(left_keys, right_keys, kind)

    @given(left=st.lists(st.sampled_from([-1.5, -0.0, 0.0, 2.0, np.nan]), max_size=30),
           right=st.lists(st.sampled_from([-1.5, -0.0, 0.0, 2.0, np.nan]), max_size=30),
           kind=st.sampled_from(["INNER", "LEFT", "RIGHT"]))
    @settings(max_examples=60, deadline=None)
    def test_float_keys_equal_sorted_reference(self, left, right, kind):
        """Float keys are factorized, then addressed like any other: NaN
        matches NaN and -0.0 matches 0.0, as in the sorted lookup over the
        raw values."""
        _assert_join_equals_reference(np.asarray(left, dtype=np.float32),
                                      np.asarray(right, dtype=np.float32), kind)

    @pytest.mark.parametrize("kind", ["INNER", "LEFT", "RIGHT"])
    @pytest.mark.parametrize("dtype,n", [(np.int8, 60), (np.int16, 10_000)])
    def test_narrow_int_keys_spanning_their_range(self, dtype, n, kind):
        rng = np.random.default_rng(3)
        info = np.iinfo(dtype)
        left = rng.integers(info.min, info.max + 1, n).astype(dtype)
        right = rng.integers(info.min, info.max + 1, n).astype(dtype)
        left[:2], right[:2] = (info.min, info.max), (info.max, info.min)
        _, _, domain = join_ids([(left, right)])
        assert domain == int(info.max) - int(info.min) + 1
        _assert_join_equals_reference(left, right, kind)


def _equi_join(left_keys, right_keys, keep_unmatched_left=False):
    left_ids, right_ids, domain = join_ids([(left_keys, right_keys)])
    return direct_join_indices(left_ids, right_ids, domain, keep_unmatched_left)


def _assert_join_equals_reference(left_keys, right_keys, kind):
    keep = kind != "INNER"
    if kind == "RIGHT":
        ri, li = _equi_join(right_keys, left_keys, keep)
        want_ri, want_li = _reference_equi_join(right_keys, left_keys, keep)
    else:
        li, ri = _equi_join(left_keys, right_keys, keep)
        want_li, want_ri = _reference_equi_join(left_keys, right_keys, keep)
    assert li.tolist() == want_li.tolist()
    assert ri.tolist() == want_ri.tolist()


class TestJoinIndices:
    def test_inner_basic(self):
        left = np.array([1, 2, 3])
        right = np.array([2, 2, 4])
        li, ri = _equi_join(left, right)
        assert li.tolist() == [1, 1]
        assert sorted(right[ri].tolist()) == [2, 2]

    def test_left_join_marks_unmatched(self):
        left = np.array([1, 9])
        right = np.array([1])
        li, ri = _equi_join(left, right, keep_unmatched_left=True)
        assert li.tolist() == [0, 1]
        assert ri.tolist() == [0, -1]

    def test_duplicates_both_sides(self):
        left = np.array([7, 7])
        right = np.array([7, 7, 7])
        li, ri = _equi_join(left, right)
        assert len(li) == 6

    def test_empty_sides(self):
        li, ri = _equi_join(np.array([], dtype=np.int64), np.array([1, 2]))
        assert len(li) == 0
        li, ri = _equi_join(np.array([1]), np.array([], dtype=np.int64))
        assert len(li) == 0

    @given(st.lists(st.integers(0, 8), max_size=30),
           st.lists(st.integers(0, 8), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_matches_nested_loop_reference(self, left, right):
        left_arr = np.asarray(left, dtype=np.int64)
        right_arr = np.asarray(right, dtype=np.int64)
        li, ri = _equi_join(left_arr, right_arr)
        got = sorted(zip(li.tolist(), ri.tolist()))
        want = sorted(
            (i, j)
            for i, lv in enumerate(left)
            for j, rv in enumerate(right)
            if lv == rv
        )
        assert got == want


class TestMultiKeyJoin:
    def test_two_key_join(self):
        session = Session()
        session.sql.register_dict(
            {"a": [1, 1, 2], "b": ["x", "y", "x"], "v": [10.0, 20.0, 30.0]}, "l")
        session.sql.register_dict(
            {"a": [1, 2], "b": ["y", "x"], "w": [5.0, 6.0]}, "r")
        out = session.spark.query(
            "SELECT l.v, r.w FROM l JOIN r ON l.a = r.a AND l.b = r.b "
            "ORDER BY l.v"
        ).run(toPandas=True)
        assert out["v"].tolist() == [20.0, 30.0]
        assert out["w"].tolist() == [5.0, 6.0]


class TestDeviceBatchedUdf:
    def _run(self, device, n=40):
        session = Session()
        calls = []

        @session.udf("float", name="probe")
        def probe(x):
            calls.append(x.shape[0])
            return x * 2.0

        session.sql.register_dict(
            {"x": np.arange(n, dtype=np.float32)}, "t", device=device)
        out = session.spark.query("SELECT probe(x) AS y FROM t",
                                  device=device).run(toPandas=True)
        return out, calls

    @pytest.mark.parametrize("device", ["cpu", "cuda"])
    def test_one_call_per_statement(self, device):
        out, calls = self._run(device)
        assert calls == [40]
        np.testing.assert_allclose(out["y"], np.arange(40) * 2.0)

    def test_results_identical_across_devices(self):
        cpu_out, _ = self._run("cpu")
        gpu_out, _ = self._run("cuda")
        assert cpu_out.equals(gpu_out)

    def test_training_mode_never_chunks(self):
        session = Session()
        model = tcr.nn.Linear(1, 1)
        calls = []

        @session.udf("float", name="scored", modules=[model])
        def scored(x):
            calls.append(x.shape[0])
            return model(x.reshape(-1, 1)).reshape(-1)

        session.sql.register_dict(
            {"x": np.arange(32, dtype=np.float32)}, "t")
        query = session.spark.query(
            "SELECT scored(x) AS y FROM t",
            extra_config={"trainable": True},
        )
        query.run()
        # Gradient taping requires the whole batch in one call.
        assert calls == [32]


FOLD_SQL = ("SELECT k, g, COUNT(*) AS c, SUM(v) AS sv, AVG(v) AS av, "
            "SUM(i) AS si, AVG(i) AS ai, MIN(v) AS mn, MAX(i) AS mx, "
            "COUNT(DISTINCT d) AS cd, SUM(v * (1 - w)) AS e, SUM(-i + 2) AS ni "
            "FROM t WHERE r < {cut} GROUP BY k, g")


class TestGroupByFold:
    """A GROUP BY over a filter stage folds the selection into its group ids
    (``access=fold``): its results must equal the gathered path's bits."""

    N = 1000
    CUT = int(aggregate.FOLD_MIN_KEPT * N)      # the fewest kept rows that fold

    def _session(self):
        rng = np.random.default_rng(4)
        n = self.N
        session = Session()
        session.sql.register_dict({
            "k": np.array(["x", "y", "z"], dtype=object)[rng.integers(0, 3, n)],
            "g": rng.integers(0, 4, n),
            "v": rng.normal(size=n).astype(np.float32),
            "w": rng.random(n).astype(np.float32),
            "i": rng.integers(-50, 50, n),
            "d": rng.integers(0, 7, n),
            "r": rng.permutation(n),
        }, "t")
        return session

    @staticmethod
    def _access(session, sql, config=None):
        """The GroupedAggregate line of the statement's EXPLAIN ANALYZE."""
        plan = session.sql.query("EXPLAIN ANALYZE " + sql, extra_config=config)
        (line,) = [p for p in plan.run(toPandas=True)["plan"]
                   if p.lstrip().startswith("GroupedAggregate")]
        return line

    @staticmethod
    def _assert_same_bits(got, want):
        assert got.column_names == want.column_names
        for name in got.column_names:
            a, b = got.column(name), want.column(name)
            assert a.dtype == b.dtype, name
            if a.dtype == object:
                assert a.tolist() == b.tolist(), name
            else:
                assert a.tobytes() == b.tobytes(), name

    def _both(self, session, sql, monkeypatch):
        folded = session.sql.query(sql).run()
        with monkeypatch.context() as patch:
            patch.setattr(aggregate, "FOLD_MIN_KEPT", float("inf"))
            assert "access=gather why=selectivity" in self._access(session, sql)
            gathered = session.sql.query(sql).run()
        return folded, gathered

    @pytest.mark.parametrize("cut", [1, 200, 500, CUT - 1, CUT, 987, N])
    def test_folded_equals_gathered(self, cut, monkeypatch):
        session = self._session()
        sql = FOLD_SQL.format(cut=cut)
        monkeypatch.setattr(aggregate, "FOLD_MIN_KEPT", 0.0)
        assert "access=fold" in self._access(session, sql)
        folded, gathered = self._both(session, sql, monkeypatch)
        assert len(folded) > 0
        self._assert_same_bits(folded, gathered)

    def test_empty_selection(self, monkeypatch):
        session = self._session()
        sql = FOLD_SQL.format(cut=0)
        monkeypatch.setattr(aggregate, "FOLD_MIN_KEPT", 0.0)
        assert "access=fold" in self._access(session, sql)
        folded, gathered = self._both(session, sql, monkeypatch)
        assert len(folded) == 0
        self._assert_same_bits(folded, gathered)

    def test_threshold_is_fold_min_kept(self):
        session = self._session()
        assert "access=fold" in self._access(session, FOLD_SQL.format(cut=self.CUT))
        below = self._access(session, FOLD_SQL.format(cut=self.CUT - 1))
        assert "access=gather why=selectivity" in below

    def test_dropped_rows_neither_raise_nor_warn(self, monkeypatch):
        # float32 overflow (3e38 * 3e38), inf - inf and NaN live only in rows
        # the WHERE drops; the fold evaluates them anyway.
        v = np.array([1.0, 2.0, np.nan, np.inf, -np.inf, 3e38, 4.0, -3e38],
                     dtype=np.float32)
        session = Session()
        session.sql.register_dict({"k": np.array([0, 1, 0, 1, 0, 1, 0, 1]),
                                   "v": v, "keep": np.isfinite(v) & (abs(v) < 1e30)}, "t")
        sql = ("SELECT k, SUM(v * v) AS s, AVG(v - v) AS z, MIN(-v) AS m "
               "FROM t WHERE keep GROUP BY k")
        monkeypatch.setattr(aggregate, "FOLD_MIN_KEPT", 0.0)
        assert "access=fold" in self._access(session, sql)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            folded, gathered = self._both(session, sql, monkeypatch)
        self._assert_same_bits(folded, gathered)
        assert folded.column("s").tolist() == [17.0, 4.0]

    def test_udf_input_gathers_and_sees_only_kept_rows(self):
        session = self._session()
        seen = []

        @session.udf("float", name="counted")
        def counted(x):
            seen.append(x.shape[0])
            return x * 2

        sql = "SELECT k, SUM(counted(v)) AS s FROM t WHERE r < 900 GROUP BY k"
        assert "access=gather why=expression" in self._access(session, sql)
        seen.clear()
        session.sql.query(sql, extra_config={"tensor_cache": False}).run()
        assert seen == [900]

    def test_division_and_cast_are_not_folded(self):
        session = self._session()
        for expr in ("SUM(v / w)", "SUM(CAST(v AS INT))", "SUM(ABS(v))"):
            sql = f"SELECT k, {expr} AS s FROM t WHERE r < 900 GROUP BY k"
            assert "access=gather why=expression" in self._access(session, sql), expr

    def test_tcr_namespace_gathers(self):
        session = self._session()
        sql = FOLD_SQL.format(cut=900)
        with tcr_lowering():
            assert "access=gather why=namespace" in self._access(
                session, sql, {"plan_cache": False})
        interp = query_over_tcr(session, sql).run()
        self._assert_same_bits(interp, session.sql.query(sql).run())

    def test_global_aggregate_and_unfiltered_input_do_not_annotate(self):
        session = self._session()
        for lowering in LOWERINGS:
            for sql in ("SELECT SUM(v) AS s FROM t WHERE r < 900",
                        "SELECT k, SUM(v) AS s FROM t GROUP BY k"):
                with lowering():
                    assert "access=" not in self._access(
                        session, sql, {"plan_cache": False}), sql
