"""Targeted tests for the expression lowering (TQP-style codegen).

Covers the contracts the differential harness cannot pin down one by one:

* the dictionary LIKE kernel against a ground-truth SQL LIKE oracle,
  including the newline behaviour the old regex lowering (no ``DOTALL``)
  got wrong, wildcards, regex metacharacters in patterns, and characters
  at or past U+FFFF right after a LIKE prefix;
* the one lowering under both array namespaces (numpy for exact plans;
  tcr ops through ``tcr_lowering.query_over_tcr``): the stage label in the
  plan, every builtin, arithmetic and comparison giving the same values on
  both, SUBSTR's constant-bounds contract, and strings a UDF returns as
  values;
* string functions in aggregate, sort and join keys run on dictionary
  codes (no per-row decode);
* ``CAST(<non-finite> AS INT)`` is 0, warning-free, on both namespaces;
* the session memo for ``encode_text`` (satellite of the kernel work).
"""

import re

import numpy as np
import pytest

from repro.errors import EncodingError, ExecutionError
from repro.core.kernels import strings as string_kernels
from repro.core.session import Session
from repro.storage.column import Column
from repro.storage.encodings import DictionaryEncoding
from repro.tcr import nn
from repro.tcr.tensor import Tensor
from tcr_lowering import QUERIES, query_over_tcr


def _snapshot(result):
    return {name: np.asarray(result.column(name))
            for name in result.column_names}


def _assert_equal_results(a, b, context=""):
    assert list(a) == list(b), context
    for name in a:
        av, bv = a[name], b[name]
        assert av.dtype == bv.dtype, (context, name, av.dtype, bv.dtype)
        if av.dtype.kind == "f":
            assert np.array_equal(av, bv, equal_nan=True), (context, name)
        else:
            assert np.array_equal(av, bv), (context, name)


# ----------------------------------------------------------------------
# LIKE: dictionary kernel vs. ground truth
# ----------------------------------------------------------------------
LIKE_CORPUS = [
    "", "a", "ant", "bee", "a%t", "a_t", "a\nb", "ab\ncd", "\n",
    "A.b", "a*b", "[ant]", "(a)", "a+b", "a\\b", "aa", "ant bee", "tt",
    "a\U0001F600t", "a\uffff",
]
LIKE_PATTERNS = [
    "%", "_", "", "a%", "%t", "a_t", "__", "%%", "a%_t", "%a%t%",
    "%\n%", "_\n_", "a.b", "a*b", "[%]", "(a)", "a+b", "a\\b", "%.%",
]


def _like_oracle(value: str, pattern: str) -> bool:
    """SQL LIKE ground truth: % and _ match ANY character, newlines
    included; everything else is a literal."""
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern)
    return re.fullmatch(regex, value, re.DOTALL) is not None


class TestLikeKernel:
    def _column(self):
        return Column.from_values(
            "s", np.asarray(LIKE_CORPUS, dtype=object))

    @pytest.mark.parametrize("pattern", LIKE_PATTERNS)
    def test_matrix_kernel_matches_oracle(self, pattern):
        column = self._column()
        codes = np.asarray(column.tensor.detach().data)
        mask = string_kernels.like_mask(column.encoding, codes, pattern)
        expected = np.asarray(
            [_like_oracle(v, pattern) for v in LIKE_CORPUS])
        assert np.array_equal(mask, expected), pattern

    def test_wildcards_match_newlines_unlike_old_regex(self):
        """Regression: the old lowering compiled % -> ".*" and _ -> "."
        without re.DOTALL, so wildcards silently refused to cross
        newlines. SQL LIKE has no such rule."""
        assert re.fullmatch(".*", "a\nb") is None          # the old bug
        column = self._column()
        codes = np.asarray(column.tensor.detach().data)
        mask = string_kernels.like_mask(column.encoding, codes, "%")
        assert mask.all()
        under = string_kernels.like_mask(column.encoding, codes, "_\n_")
        assert under[LIKE_CORPUS.index("a\nb")]
        assert not under[LIKE_CORPUS.index("ant")]

    @pytest.mark.parametrize("pattern", LIKE_PATTERNS)
    def test_sql_like_matches_oracle_both_engines(self, pattern):
        if "\\" in pattern or "\n" in pattern:
            pytest.skip("not expressible as a plain SQL literal here")
        session = Session()
        session.sql.register_dict(
            {"id": np.arange(len(LIKE_CORPUS), dtype=np.int64),
             "s": np.asarray(LIKE_CORPUS, dtype=object)}, "t")
        expected = [i for i, v in enumerate(LIKE_CORPUS)
                    if _like_oracle(v, pattern)]
        stmt = f"SELECT id FROM t WHERE s LIKE '{pattern}'"
        for query in QUERIES:
            got = query(session, stmt).run()
            assert got.column("id").tolist() == expected, (pattern, query)

    @pytest.mark.parametrize("pattern", [
        p for p in LIKE_PATTERNS if "\\" not in p and "\n" not in p])
    def test_constant_operand_folds_at_plan_time(self, pattern):
        """``'text' LIKE pattern`` folds to a constant while lowering; it
        keeps every row or none, as the oracle says."""
        session = Session()
        session.sql.register_dict({"id": np.arange(3, dtype=np.int64)}, "t")
        for value in ("", "ant", "a_t", "ant bee"):
            for negated in (False, True):
                stmt = (f"SELECT id FROM t WHERE '{value}' "
                        f"{'NOT ' if negated else ''}LIKE '{pattern}'")
                keep = _like_oracle(value, pattern) != negated
                got = session.sql.query(stmt).run().column("id").tolist()
                assert got == ([0, 1, 2] if keep else []), stmt


# ----------------------------------------------------------------------
# One lowering, two namespaces
# ----------------------------------------------------------------------
def _numbers_session(n=32):
    session = Session()
    session.sql.register_dict({
        "id": np.arange(n, dtype=np.int64),
        "x": (np.arange(n, dtype=np.int64) * 7) % 11 - 5,
        "s": np.asarray([("ant", "bee", "cat")[i % 3] for i in range(n)],
                        dtype=object),
    }, "t")
    return session


# One projection per builtin form and arithmetic operator; every name in
# ``_BUILTINS`` must appear (``test_every_builtin_is_listed``).
BUILTIN_AND_ARITH_EXPRS = [
    "ABS(x)", "SQRT(p)", "SQRT(x * x)", "EXP(p)", "EXP(x)", "LN(p)",
    "LOG(p * 2)", "POW(p, 2)", "POW(p, 0.5)", "POWER(p, x)",
    "ROUND(p * 3.3)", "ROUND(p * 3.3, 1)", "FLOOR(p * 1.5)", "CEIL(p * 1.5)",
    "LEAST(x, p, 2)", "GREATEST(x, p)", "SIGMOID(x)", "SIGMOID(p - 2)",
    "COALESCE(f, p)", "COALESCE(f, f, 0)",
    "x + p", "x - 2", "x * p", "x / p", "id / (x * x + 1)", "x % 3",
    "p % 1.5", "-x", "-(p * x)",
]
COMPARE_PREDICATES = [
    "x = 1", "x != p", "x < p", "x <= 2", "p > x", "p >= 2.0", "f < p",
    "NOT (x = 2) AND (p < 3 OR x > 4)",
]


def _builtins_session(n=24):
    """Integers with zeros and negatives, positive floats (LN/SQRT stay
    warning-free) and a float column with NaNs (COALESCE has work)."""
    i = np.arange(n, dtype=np.int64)
    session = Session()
    session.sql.register_dict({
        "id": i,
        "x": (i * 7) % 11 - 5,
        "p": (0.25 + (i % 9) * 0.5).astype(np.float32),
        "f": np.where(i % 4 == 0, np.nan, i * 0.3 - 2).astype(np.float32),
    }, "t")
    return session


class TestOneLowering:
    def test_every_builtin_is_listed(self):
        from repro.core.kernels.compiler import _BUILTINS
        calls = (re.match(r"([A-Z]+)\(", e) for e in BUILTIN_AND_ARITH_EXPRS)
        assert {m.group(1) for m in calls if m} == set(_BUILTINS)

    def test_stage_body_appears_in_plan(self):
        session = _numbers_session()
        stmt = "SELECT id, x + 1 AS v FROM t WHERE x > 0"
        assert "Pipeline[kernel]" in session.sql.query(stmt).explain()
        over_tcr = query_over_tcr(session, stmt).explain()
        assert "Pipeline[kernel]" not in over_tcr
        assert "Pipeline[interp]" in over_tcr

    @pytest.mark.parametrize("query", QUERIES)
    def test_substr_bounds_must_be_constant(self, query):
        """SUBSTR folds its bounds at plan time (one dictionary transform
        per statement): non-constant bounds are the statement's error, at
        run time, on either namespace."""
        session = _numbers_session()
        compiled = query(
            session, "SELECT id, SUBSTR(s, 1 + x % 2, 2) AS sx FROM t WHERE x > 0")
        with pytest.raises(ExecutionError, match="constant"):
            compiled.run()

    def test_cast_to_string_agrees_across_namespaces(self):
        session = _numbers_session()
        stmt = "SELECT id, CAST(x AS STRING) AS sx FROM t WHERE x > 0"
        self._assert_namespaces_agree(session, stmt)

    @pytest.mark.parametrize("projection", BUILTIN_AND_ARITH_EXPRS)
    def test_builtins_and_arithmetic_agree_across_namespaces(self, projection):
        """Every ``_BUILTINS`` entry and arithmetic operator gives the same
        column over numpy and over tcr ops (LN/LOG, POW's float exponent
        and SIGMOID included: each is one tcr op the interp leg needs)."""
        stmt = f"SELECT id, {projection} AS v FROM t"
        self._assert_namespaces_agree(_builtins_session(), stmt)

    @pytest.mark.parametrize("predicate", COMPARE_PREDICATES)
    def test_comparisons_agree_across_namespaces(self, predicate):
        stmt = f"SELECT id, p FROM t WHERE {predicate}"
        self._assert_namespaces_agree(_builtins_session(), stmt)

    @staticmethod
    def _assert_namespaces_agree(session, stmt):
        kernel = session.sql.query(stmt)
        interp = query_over_tcr(session, stmt)
        assert "Pipeline[kernel]" in kernel.explain()
        assert "Pipeline[interp]" in interp.explain()
        got, want = _snapshot(interp.run()), _snapshot(kernel.run())
        assert len(want["id"]) > 0, stmt
        _assert_equal_results(got, want, stmt)

    @pytest.mark.parametrize("query", QUERIES)
    def test_strings_returned_by_a_udf(self, query):
        """A UDF may hand back strings as values (an object array); they
        become a dictionary column. Every string function takes them and
        answers what python's str methods answer."""
        session = _numbers_session(12)
        texts = [f" Row{i % 4}x " for i in range(12)]

        @session.udf("string", name="tag")
        def tag(ids):
            return np.asarray([texts[int(i)] for i in ids.data], dtype=object)

        got = query(
            session,
            "SELECT id, UPPER(tag(id)) AS u, LENGTH(tag(id)) AS n, "
            "TRIM(tag(id)) AS t, SUBSTR(tag(id), 2, 3) AS sub FROM t "
            "WHERE tag(id) LIKE '%ow1%' OR tag(id) LIKE ' Row2_ '").run()
        keep = [i for i, text in enumerate(texts)
                if "ow1" in text or text.startswith(" Row2")]
        assert keep and got.column("id").tolist() == keep
        assert got.column("u").tolist() == [texts[i].upper() for i in keep]
        assert got.column("n").tolist() == [len(texts[i]) for i in keep]
        assert got.column("t").tolist() == [texts[i].strip() for i in keep]
        assert got.column("sub").tolist() == [texts[i][1:4] for i in keep]

    def test_nul_strings_are_rejected_at_every_entry(self):
        """NUL is the dictionary's padding: stored, 'a\\x00b' would read
        back as 'ab', match ``= 'ab'`` and share its group. Registered
        table data and UDF string outputs both refuse it."""
        session = Session()
        with pytest.raises(EncodingError):
            session.sql.register_dict(
                {"w": np.asarray(["a\x00b", "ab", "a\x00"], dtype=object)},
                "t")
        session = _numbers_session(3)

        @session.udf("string", name="nul")
        def nul(ids):
            return np.asarray(["a\x00b", "ab", "a\x00"], dtype=object)

        with pytest.raises(EncodingError):
            session.sql.query("SELECT nul(id) AS w FROM t").run()

    @pytest.mark.parametrize("query", QUERIES)
    def test_cast_non_finite_to_int_is_zero(self, query):
        """docs/KERNEL_COMPILATION.md: NaN and +-inf cast to integer 0 (a
        bare numpy astype is platform-dependent and warns)."""
        import warnings
        session = Session()
        session.sql.register_dict(
            {"v": np.array([1.9, np.nan, np.inf, -np.inf, -2.5],
                           dtype=np.float32)}, "t")
        session.sql.register_dict({"v": np.zeros(0, dtype=np.float32)}, "e")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = query(session, "SELECT CAST(v AS INT) AS i FROM t").run().column("i")
            empty = query(session, "SELECT CAST(v AS INT) AS i FROM e").run().column("i")
            total = query(session, "SELECT SUM(CAST(v AS INT)) AS s FROM t").run().scalar()
        assert got.dtype == np.int64 and got.tolist() == [1, 0, 0, 0, -2]
        assert empty.dtype == np.int64 and len(empty) == 0
        assert total == -1


# ----------------------------------------------------------------------
# IN / NOT IN against the oracle, under both namespaces
# ----------------------------------------------------------------------
IN_PREDICATES = [
    "s IN ('bee', 'yak')",                 # 'yak' is not in the dictionary
    "s IN ('yak', 'emu')",                 # no value is
    "s IN ('ant', 'dog', 'ant')",          # a duplicate
    "i IN (-1000, 3, 7, 10000000000)",     # two values outside the column's range
    "i IN (" + ", ".join(str(v) for v in range(0, 40, 2)) + ")",  # a long list
    "x IN (0.5, 1.5)",                     # NaN in the column
    "x IN (0.5, NULL)",                    # and in the list
]


class TestInMembership:
    """A dictionary column's IN is a lookup in a bool table over its codes,
    any other column's goes to ``np.isin``; both must agree with miniduck
    (which keeps its own ``np.isin``) on every shape, in both namespaces."""

    @staticmethod
    def _data(n):
        rng = np.random.default_rng(9)
        x = rng.choice(np.array([0.5, 1.5, 2.5, np.nan], dtype=np.float32), n)
        return {"id": np.arange(n),
                "s": np.array(["ant", "bee", "cat", "dog"], dtype=object)[
                    rng.integers(0, 4, n)],
                "i": rng.integers(-5, 20, n),
                "x": x}

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("negated", ["", "NOT "])
    @pytest.mark.parametrize("predicate", IN_PREDICATES)
    @pytest.mark.parametrize("rows", [50, 0])
    def test_matches_miniduck(self, query, negated, predicate, rows):
        from repro.baselines.miniduck import MiniDuck
        data = self._data(rows)
        session = Session()
        session.sql.register_dict(data, "t")
        duck = MiniDuck()
        duck.register("t", data)
        sql = "SELECT id FROM t WHERE " + predicate.replace(" IN ", f" {negated}IN ", 1)
        got = query(session, sql).run().column("id").tolist()
        assert got == list(duck.execute(sql)["id"]), sql
        if rows:
            assert 0 < len(got) < rows or "yak', 'emu" in predicate, sql

    def test_dictionary_column_never_reaches_isin(self, monkeypatch):
        session = Session()
        session.sql.register_dict(self._data(50), "t")
        sql = "SELECT id FROM t WHERE s IN ('bee', 'dog')"
        want = session.sql.query(sql).run().column("id").tolist()
        called = []
        monkeypatch.setattr(np, "isin", lambda *a, **k: called.append(a))
        assert session.sql.query(sql).run().column("id").tolist() == want
        assert called == []


class TestStringKeysRunOnCodes:
    """String functions in group, sort and join keys transform the
    dictionary once and gather codes; no operator decodes the row-length
    carrier back to python strings."""

    ROWS, OTHER = 60, 25

    @pytest.fixture
    def session(self):
        rng = np.random.default_rng(5)
        words = np.asarray(["Ant", "bEE", "Cat", "dog", "ANT", "bee"],
                           dtype=object)
        session = Session()
        self.s = words[rng.integers(0, len(words), self.ROWS)]
        self.v = rng.integers(0, 100, self.ROWS)
        self.r = words[rng.integers(0, len(words), self.OTHER)]
        session.sql.register_dict({"s": self.s, "v": self.v}, "t")
        session.sql.register_dict(
            {"s": self.r, "k": np.arange(self.OTHER)}, "o")
        return session

    def _run_counting_decodes(self, monkeypatch, query):
        lengths = []
        original = DictionaryEncoding.decode

        def counting(encoding, tensor):
            lengths.append(tensor.shape[0])
            return original(encoding, tensor)

        monkeypatch.setattr(DictionaryEncoding, "decode", counting)
        result = query.run()
        monkeypatch.setattr(DictionaryEncoding, "decode", original)
        # Dictionary-sized decodes are fine; nothing at row scale.
        assert all(n < self.OTHER for n in lengths), lengths
        return result

    def test_group_by_upper(self, session, monkeypatch):
        query = session.sql.query(
            "SELECT UPPER(s) AS u, COUNT(*) AS c, SUM(v) AS total FROM t "
            "GROUP BY UPPER(s) ORDER BY u")
        got = self._run_counting_decodes(monkeypatch, query)
        want = {}
        for text, value in zip(self.s, self.v):
            count, total = want.get(text.upper(), (0, 0))
            want[text.upper()] = (count + 1, total + int(value))
        assert got.column("u").tolist() == sorted(want)
        assert got.column("c").tolist() == [want[u][0] for u in sorted(want)]
        assert got.column("total").tolist() == [want[u][1] for u in sorted(want)]

    def test_order_by_substr(self, session, monkeypatch):
        query = session.sql.query(
            "SELECT s, v FROM t ORDER BY SUBSTR(s, 2, 3), v, s")
        got = self._run_counting_decodes(monkeypatch, query)
        want = sorted(zip(self.s, self.v),
                      key=lambda row: (row[0][1:4], row[1], row[0]))
        assert list(zip(got.column("s"), got.column("v"))) == want

    @pytest.mark.parametrize("on, fold", [
        ("LOWER(t.s) = LOWER(o.s)", str.lower),      # residual compare
        ("t.s = o.s", str),                          # equi-join key codes
    ])
    def test_join_on_strings_of_two_dictionaries(self, session, monkeypatch,
                                                 on, fold):
        query = session.sql.query(
            f"SELECT t.v AS v, o.k AS k FROM t JOIN o ON {on} ORDER BY v, k")
        got = self._run_counting_decodes(monkeypatch, query)
        want = sorted((int(v), k) for text, v in zip(self.s, self.v)
                      for k, other in enumerate(self.r)
                      if fold(text) == fold(other))
        assert want and list(zip(got.column("v"), got.column("k"))) == want


# ----------------------------------------------------------------------
# encode_text session memo (satellite)
# ----------------------------------------------------------------------
class TestEncodeTextMemo:
    def _session(self):
        session = Session()
        calls = []

        class TextTower(nn.Module):
            def encode_text(self, texts):
                calls.append(tuple(texts))
                out = np.asarray([[float(len(t)), 1.0] for t in texts],
                                 dtype=np.float32)
                return Tensor(out)

        model = TextTower()
        session.sql.register_dict(
            {"emb": np.ones((6, 2), dtype=np.float32)}, "docs")

        @session.udf("float", name="txt_score", modules=[model])
        def txt_score(query: str, emb: Tensor) -> Tensor:
            txt = model.encode_text([query])
            from repro.tcr import ops
            return ops.matmul(emb, ops.reshape(txt, (-1, 1))).reshape(-1)

        return session, model, calls

    def test_repeated_queries_encode_once(self):
        session, model, calls = self._session()
        stmt = "SELECT txt_score('hello', emb) AS s FROM docs"
        first = session.sql.query(stmt).run().column("s")
        second = session.sql.query(stmt).run().column("s")
        assert calls == [("hello",)]      # second run served from the memo
        np.testing.assert_array_equal(first, second)

    def test_distinct_texts_miss(self):
        session, model, calls = self._session()
        session.sql.query("SELECT txt_score('aa', emb) AS s FROM docs").run()
        session.sql.query("SELECT txt_score('bb', emb) AS s FROM docs").run()
        assert calls == [("aa",), ("bb",)]

    def test_cache_disabled_bypasses_memo(self):
        session, model, calls = self._session()
        stmt = "SELECT txt_score('hello', emb) AS s FROM docs"
        off = {"tensor_cache": False}
        session.sql.query(stmt, extra_config=off).run()
        first = len(calls)
        assert first >= 1 and set(calls) == {("hello",)}
        session.sql.query(stmt, extra_config=off).run()
        # No active cache, no memo: the second run re-encodes everything.
        assert len(calls) == 2 * first

    def test_wrapper_installs_once(self):
        session, model, calls = self._session()
        assert getattr(model.encode_text, "__tdp_encoder_orig__", None) \
            is not None
        # Re-registering a UDF over the same module must not double-wrap.
        before = model.encode_text

        @session.udf("float", name="txt_score2", modules=[model])
        def txt_score2(query: str, emb: Tensor) -> Tensor:
            from repro.tcr import ops
            txt = model.encode_text([query])
            return ops.matmul(emb, ops.reshape(txt, (-1, 1))).reshape(-1)

        assert model.encode_text is before
