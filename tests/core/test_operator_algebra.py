"""Property-based operator-algebra tests (hypothesis).

Three algebraic contracts the execution engine relies on:

* **Pipeline transparency** — the fixed statement suite below gives the
  same bits on the default (numpy) leg as on the tcr-ops leg.
* **Shard-count invariance** — `shards ∈ {1, 2, 3, 7}` produce bit-identical
  results over randomized tables, including empty tables, all-NULL columns
  and shards that degenerate to single rows. Only a scan chain that feeds a
  join shards, so these laws run join statements and check that their
  plans hold a ``ShardedScan``.
* **numpy ≡ tcr** — the one expression lowering gives the same bits in
  numpy on detached data (exact plans) as over tcr ops (the
  `tcr_lowering.query_over_tcr` leg),
  over randomized expression trees (arithmetic, comparisons, CASE, CAST,
  builtins, LIKE/IN/BETWEEN/IS NULL, NULL/NaN data, empty and single-row
  tables, dictionary-encoded string columns, characters past U+FFFF) at
  shards 1/3/4, with the filter evaluated on the shards of a join input.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.session import Session
from tcr_lowering import query_over_tcr

SETTINGS = dict(max_examples=25, deadline=None)


# ----------------------------------------------------------------------
# Table strategies
# ----------------------------------------------------------------------
@st.composite
def tables(draw, min_rows=0, max_rows=48,
           vocab=("ant", "bee", "cat", "dog", "")):
    n = draw(st.integers(min_rows, max_rows))
    ints = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    floats = draw(st.lists(
        st.one_of(st.floats(-100, 100, width=32), st.just(float("nan"))),
        min_size=n, max_size=n))
    words = draw(st.lists(st.sampled_from(vocab),
                          min_size=n, max_size=n))
    return {
        "id": np.arange(n, dtype=np.int64),
        "x": np.asarray(ints, dtype=np.int64),
        "y": np.asarray(floats, dtype=np.float32),
        "s": np.asarray(words, dtype=object),
    }


def _register(data) -> Session:
    session = Session()
    session.sql.register_dict(dict(data), "t")
    return session


def _register_keyed(data) -> Session:
    """``t`` plus ``u``, a one-column table holding every ``t.id``: joining
    ``t JOIN u ON id = uid`` keeps each row of ``t`` once, and leaves every
    column name unambiguous."""
    session = _register(data)
    session.sql.register_dict({"uid": np.asarray(data["id"])}, "u")
    return session


def _run_sharded(session, stmt, extra):
    """Run ``stmt`` under a sharded ``extra`` config, after checking that
    the plan really splits a join input."""
    query = session.sql.query(stmt, extra_config=extra)
    assert "ShardedScan(" in query.explain(), stmt
    return _snapshot(query.run())


def _snapshot(result):
    return {name: np.asarray(result.column(name))
            for name in result.column_names}


def _assert_bitwise(a, b, context):
    assert list(a) == list(b), context
    for name in a:
        av, bv = a[name], b[name]
        assert av.dtype == bv.dtype, (context, name, av.dtype, bv.dtype)
        if av.dtype.kind == "f":
            assert np.array_equal(av, bv, equal_nan=True), (context, name)
        else:
            assert np.array_equal(av, bv), (context, name)


STATEMENTS = [
    "SELECT id, x * 2 - 1 AS v, y FROM t WHERE x > -10 AND y < 50.0",
    "SELECT id, y + y AS w FROM t WHERE x % 3 = 0 OR s = 'bee'",
    "SELECT id FROM t WHERE s IN ('ant', 'dog') AND x BETWEEN -20 AND 20",
    "SELECT COUNT(*) AS c, MIN(x) AS mn, MAX(x) AS mx, SUM(x) AS sm, "
    "AVG(x) AS av FROM t WHERE y IS NOT NULL",
    "SELECT s, COUNT(*) AS c, SUM(x) AS sm FROM t GROUP BY s",
    "SELECT id, x FROM t ORDER BY x DESC, id LIMIT 7",
    "SELECT id, CASE WHEN x > 0 THEN y ELSE -y END AS v FROM t "
    "WHERE s LIKE '%t' OR UPPER(s) = 'BEE'",
    "SELECT id, CAST(y AS INT) AS yi, ROUND(y, 1) AS yr FROM t "
    "WHERE LENGTH(s) BETWEEN 1 AND 3 AND s NOT LIKE '_o%'",
]


# ----------------------------------------------------------------------
# Default leg vs. interpreter leg
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(data=tables())
def test_statements_equal_interpreter_leg(data):
    session = _register(data)
    for stmt in STATEMENTS:
        default = _snapshot(session.sql.query(stmt).run())
        interpreted = _snapshot(query_over_tcr(session, stmt).run())
        _assert_bitwise(default, interpreted, stmt)


# ----------------------------------------------------------------------
# Shard-count invariance (join statements: only join inputs shard)
# ----------------------------------------------------------------------
SELF_JOIN = "FROM t a JOIN t b ON a.id = b.id"
JOIN_STATEMENTS = [
    f"SELECT a.id, a.x * 2 - 1 AS v, b.y {SELF_JOIN} "
    "WHERE a.x > -10 AND b.y < 50.0",
    "SELECT a.id, b.id AS bid FROM t a JOIN t b ON a.x = b.x "
    "WHERE a.s IN ('ant', 'dog') AND b.x BETWEEN -20 AND 20",
    f"SELECT COUNT(*) AS c, MIN(b.x) AS mn, MAX(b.x) AS mx, SUM(a.x) AS sm, "
    f"AVG(a.x) AS av {SELF_JOIN} WHERE b.y IS NOT NULL",
    f"SELECT a.s, COUNT(*) AS c, SUM(b.x) AS sm {SELF_JOIN} GROUP BY a.s",
    f"SELECT a.id, b.x {SELF_JOIN} ORDER BY b.x DESC, a.id LIMIT 7",
    "SELECT a.id, b.y FROM t a LEFT JOIN t b ON a.x = b.id AND b.y > 0 "
    "WHERE a.s LIKE '%t' OR a.x % 3 = 0",
    # A derived table below the join: its projections run per shard.
    "SELECT a.id, a.v, a.c, a.k, b.y FROM (SELECT id, CASE WHEN y > 0 "
    "THEN x * 2 ELSE -x END AS v, UPPER(s) AS c, CAST(y AS INT) AS k FROM t "
    "WHERE x > -10) a JOIN t b ON a.id = b.id",
]


@pytest.mark.usefixtures("tiny_shards")
@settings(**SETTINGS)
@given(data=tables())
def test_shard_count_invariance(data):
    session = _register(data)
    for stmt in JOIN_STATEMENTS:
        serial = _snapshot(session.sql.query(stmt).run())
        for shards in (2, 3, 7):
            sharded = _run_sharded(session, stmt, {"shards": shards})
            _assert_bitwise(serial, sharded, (stmt, shards))


@pytest.mark.usefixtures("tiny_shards")
@settings(**SETTINGS)
@given(data=tables(min_rows=0, max_rows=3))
def test_shard_invariance_degenerate_tables(data):
    """Empty tables, single rows, and shard counts exceeding the row count."""
    session = _register(data)
    for stmt in JOIN_STATEMENTS:
        serial = _snapshot(session.sql.query(stmt).run())
        sharded = _run_sharded(session, stmt, {"shards": 7})
        _assert_bitwise(serial, sharded, stmt)


@pytest.mark.usefixtures("tiny_shards")
@settings(**SETTINGS)
@given(n=st.integers(0, 40))
def test_shard_invariance_all_null_column(n):
    session = _register({
        "id": np.arange(n, dtype=np.int64),
        "x": np.arange(n, dtype=np.int64) % 5,
        "y": np.full(n, np.nan, dtype=np.float32),
    })
    for stmt in (f"SELECT a.id, b.y {SELF_JOIN} WHERE b.y IS NULL",
                 f"SELECT COUNT(*) AS c, MIN(b.y) AS mn, MAX(a.y) AS mx "
                 f"{SELF_JOIN}",
                 "SELECT a.x, COUNT(*) AS c FROM t a JOIN t b ON a.x = b.x "
                 "GROUP BY a.x"):
        serial = _snapshot(session.sql.query(stmt).run())
        sharded = _run_sharded(session, stmt, {"shards": 4})
        _assert_bitwise(serial, sharded, stmt)


def test_count_distinct_collapses_nans_consistently():
    """All NULLs (NaNs) count as one distinct value, identically in the
    grouped and global aggregates (review finding: the run-comparison paths
    treated every NaN as its own value)."""
    session = _register({
        "k": np.asarray([0, 0, 0, 1, 1], dtype=np.int64),
        "y": np.asarray([np.nan, np.nan, 1.0, np.nan, 2.0], dtype=np.float32),
    })
    result = session.sql.query(
        "SELECT k, COUNT(DISTINCT y) AS c FROM t GROUP BY k").run()
    assert result.column("c").tolist() == [2, 2]
    top = session.sql.query("SELECT COUNT(DISTINCT y) AS c FROM t").run()
    assert top.scalar() == 3


# ----------------------------------------------------------------------
# Compiled kernels ≡ interpreter
# ----------------------------------------------------------------------
# Odd and even shard counts: unequal and equal splits of the join input.
SHARD_COUNTS = (3, 4)
# Every law statement filters ``t`` below this identity join, so the
# sharded configs evaluate the filter per shard and stitch the survivors.
# The always-true ``id >= 0`` keeps a filter on ``t``'s side even when the
# generated condition folds to a constant.
KEYED_JOIN = "FROM t JOIN u ON id = uid WHERE id >= 0 AND"

_NUM_LEAVES = ("id", "x", "y", "3", "0.5", "-2")
_STR_LITERALS = ("ant", "bee", "cat", "dog", "", "a%t")
_LIKE_PATTERNS = ("%t", "_o%", "a_t", "%", "", "b%e", "c__", "%a%")


@st.composite
def bool_exprs(draw, depth=2):
    """Randomized boolean SQL expression over the `tables()` schema."""
    choices = ["compare", "strcmp", "like", "in", "null", "between"]
    if depth > 0:
        choices += ["and", "or", "not", "strfn"]
    kind = draw(st.sampled_from(choices))
    if kind == "compare":
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        left = draw(num_exprs(depth=max(depth - 1, 0)))
        right = draw(num_exprs(depth=max(depth - 1, 0)))
        return f"({left} {op} {right})"
    if kind == "strcmp":
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        lit = draw(st.sampled_from(_STR_LITERALS))
        if draw(st.booleans()):
            return f"('{lit}' {op} s)"
        return f"(s {op} '{lit}')"
    if kind == "like":
        pattern = draw(st.sampled_from(_LIKE_PATTERNS))
        negated = "NOT " if draw(st.booleans()) else ""
        return f"(s {negated}LIKE '{pattern}')"
    if kind == "in":
        negated = "NOT " if draw(st.booleans()) else ""
        if draw(st.booleans()):
            values = draw(st.lists(st.sampled_from(_STR_LITERALS),
                                   min_size=1, max_size=3))
            vals = ", ".join(f"'{v}'" for v in values)
        else:
            values = draw(st.lists(st.integers(-5, 5),
                                   min_size=1, max_size=3))
            vals = ", ".join(str(v) for v in values)
            return f"(x {negated}IN ({vals}))"
        return f"(s {negated}IN ({vals}))"
    if kind == "null":
        negated = "NOT " if draw(st.booleans()) else ""
        return f"(y IS {negated}NULL)"
    if kind == "between":
        lo = draw(st.integers(-30, 0))
        hi = draw(st.integers(0, 30))
        col = draw(st.sampled_from(["x", "y", "id"]))
        negated = "NOT " if draw(st.booleans()) else ""
        return f"({col} {negated}BETWEEN {lo} AND {hi})"
    if kind in ("and", "or"):
        left = draw(bool_exprs(depth=depth - 1))
        right = draw(bool_exprs(depth=depth - 1))
        return f"({left} {kind.upper()} {right})"
    if kind == "not":
        return f"(NOT {draw(bool_exprs(depth=depth - 1))})"
    # strfn: UPPER/LOWER equality or a LENGTH bound
    if draw(st.booleans()):
        fn = draw(st.sampled_from(["UPPER", "LOWER"]))
        lit = draw(st.sampled_from(["ANT", "BEE", "cat", ""]))
        return f"({fn}(s) = '{lit}')"
    op = draw(st.sampled_from(["<", "=", ">"]))
    return f"(LENGTH(s) {op} {draw(st.integers(0, 3))})"


@st.composite
def num_exprs(draw, depth=2):
    """Randomized numeric SQL expression over the `tables()` schema."""
    choices = ["leaf"]
    if depth > 0:
        choices += ["binary", "builtin", "case", "cast", "neg"]
    kind = draw(st.sampled_from(choices))
    if kind == "leaf":
        return draw(st.sampled_from(_NUM_LEAVES))
    if kind == "binary":
        op = draw(st.sampled_from(["+", "-", "*", "/", "%"]))
        left = draw(num_exprs(depth=depth - 1))
        right = draw(num_exprs(depth=depth - 1))
        if op in ("/", "%"):
            # Keep denominators nonzero: the law is about expression
            # semantics, not warning behaviour on division by zero.
            right = f"(ABS({right}) + 1)"
        return f"({left} {op} {right})"
    if kind == "builtin":
        fn = draw(st.sampled_from(["ABS", "FLOOR", "CEIL", "ROUND", "ROUND1",
                                   "SIGMOID", "SQRTABS", "LEAST", "GREATEST"]))
        inner = draw(num_exprs(depth=depth - 1))
        if fn == "SQRTABS":
            return f"SQRT(ABS({inner}))"
        if fn == "ROUND1":
            return f"ROUND({inner}, 1)"
        if fn in ("LEAST", "GREATEST"):
            return f"{fn}({inner}, {draw(num_exprs(depth=depth - 1))})"
        return f"{fn}({inner})"
    if kind == "case":
        cond = draw(bool_exprs(depth=depth - 1))
        then = draw(num_exprs(depth=depth - 1))
        other = draw(num_exprs(depth=depth - 1))
        return f"(CASE WHEN {cond} THEN {then} ELSE {other} END)"
    if kind == "cast":
        target = draw(st.sampled_from(["INT", "FLOAT"]))
        return f"CAST({draw(num_exprs(depth=depth - 1))} AS {target})"
    return f"(-({draw(num_exprs(depth=depth - 1))}))"


def _assert_compiled_law(session, stmt):
    """Serial numpy is the base; tcr ops (serial) and numpy at each shard
    count must give its bits."""
    base = _snapshot(session.sql.query(stmt).run())
    _assert_bitwise(base, _snapshot(query_over_tcr(session, stmt).run()),
                    (stmt, "tcr ops"))
    for shards in SHARD_COUNTS:
        _assert_bitwise(base, _run_sharded(session, stmt, {"shards": shards}),
                        (stmt, shards))


@pytest.mark.usefixtures("tiny_shards")
@settings(**SETTINGS)
@given(data=tables(), num=num_exprs(), cond=bool_exprs())
def test_compiled_equals_interpreted(data, num, cond):
    """Vectorized expression kernels are bit-identical to the interpreter
    over randomized trees, serial and sharded (NaN NULLs, empty tables and
    single rows come from the `tables()` strategy). The expression is
    computed in a derived table below the join, so the sharded legs
    evaluate it per shard."""
    session = _register_keyed(data)
    stmt = (f"SELECT id, e0, s FROM (SELECT id, {num} AS e0, s FROM t "
            f"WHERE id >= 0 AND {cond}) a JOIN u ON id = uid")
    _assert_compiled_law(session, stmt)


@pytest.mark.usefixtures("tiny_shards")
@settings(**SETTINGS)
@given(data=tables(), num=num_exprs(), cond=bool_exprs())
def test_pipeline_grouped_aggregate_law(data, num, cond):
    """The compiled ≡ interpreted law over pipelines ending in a grouped
    aggregate (filter → project → join → GROUP BY), with integer and float
    aggregates over the stitched join input; the projection runs per
    shard."""
    session = _register_keyed(data)
    stmt = (f"SELECT s, COUNT(*) AS c, SUM(x1) AS sm, MIN(e0) AS mn, "
            f"AVG(y) AS av FROM (SELECT s, x + 1 AS x1, {num} AS e0, y, id "
            f"FROM t WHERE id >= 0 AND {cond}) a JOIN u ON id = uid GROUP BY s")
    _assert_compiled_law(session, stmt)


# Characters at and past U+FFFF right after the LIKE prefixes 'a' and 'b'.
WIDE_VOCAB = ("ant", "a\U0001F600t", "a\uffff", "b\U0010FFFFe", "bee", "")


@pytest.mark.usefixtures("tiny_shards")
@settings(**SETTINGS)
@given(data=tables(vocab=WIDE_VOCAB), cond=bool_exprs())
def test_compiled_equals_interpreted_wide_strings(data, cond):
    """The same law when the string column holds characters outside the
    basic multilingual plane: compares, LIKE prefixes and string functions
    order and match by code point on both namespaces, serial and sharded."""
    session = _register_keyed(data)
    stmt = f"SELECT id, s {KEYED_JOIN} {cond}"
    _assert_compiled_law(session, stmt)
