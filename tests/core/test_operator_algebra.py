"""Property-based operator-algebra tests (hypothesis).

Four algebraic contracts the execution engine relies on:

* **Pipeline transparency** — the fixed statement suite below gives the
  same bits on the default (numpy) leg as on the tcr-ops leg.
* **Partial-aggregate soundness** — merging per-shard partial states equals
  aggregating the whole relation, for every exact-mergeable aggregate and
  every split of the input (including empty and single-row shards).
* **Shard-count invariance** — `shards ∈ {1, 2, 3, 7}` produce bit-identical
  results over randomized tables, including empty tables, all-NULL columns
  and shards that degenerate to single rows.
* **numpy ≡ tcr** — the one expression lowering gives the same bits in
  numpy on detached data (`compile_exprs` on) as over tcr ops (off),
  over randomized expression trees (arithmetic, comparisons, CASE, CAST,
  builtins, LIKE/IN/BETWEEN/IS NULL, NULL/NaN data, empty and single-row
  tables, dictionary- and char-code-encoded string columns) at shards
  1/3/4, including the sharded grouped-partial merge.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.operators.aggregate import (
    _global_agg_column,
    global_partial,
    merge_global_partials,
    spec_mergeable,
)
from repro.core.session import Session
from repro.sql.bound import AggSpec
from repro.storage import types as dt
from repro.storage.column import Column
from repro.storage.table import Table

SETTINGS = dict(max_examples=25, deadline=None)


# ----------------------------------------------------------------------
# Table strategies
# ----------------------------------------------------------------------
@st.composite
def tables(draw, min_rows=0, max_rows=48):
    n = draw(st.integers(min_rows, max_rows))
    ints = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    floats = draw(st.lists(
        st.one_of(st.floats(-100, 100, width=32), st.just(float("nan"))),
        min_size=n, max_size=n))
    words = draw(st.lists(st.sampled_from(["ant", "bee", "cat", "dog", ""]),
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
        interpreted = _snapshot(session.sql.query(
            stmt, extra_config={"compile_exprs": False}).run())
        _assert_bitwise(default, interpreted, stmt)


# ----------------------------------------------------------------------
# Shard-count invariance
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(data=tables())
def test_shard_count_invariance(data):
    session = _register(data)
    for stmt in STATEMENTS:
        serial = _snapshot(session.sql.query(stmt).run())
        for shards in (2, 3, 7):
            sharded = _snapshot(session.sql.query(stmt, extra_config={
                "shards": shards, "parallel_min_rows": 2}).run())
            _assert_bitwise(serial, sharded, (stmt, shards))


@settings(**SETTINGS)
@given(data=tables(min_rows=0, max_rows=3))
def test_shard_invariance_degenerate_tables(data):
    """Empty tables, single rows, and shard counts exceeding the row count."""
    session = _register(data)
    for stmt in STATEMENTS:
        serial = _snapshot(session.sql.query(stmt).run())
        sharded = _snapshot(session.sql.query(stmt, extra_config={
            "shards": 7, "parallel_min_rows": 0}).run())
        _assert_bitwise(serial, sharded, stmt)


@settings(**SETTINGS)
@given(n=st.integers(0, 40))
def test_shard_invariance_all_null_column(n):
    session = _register({
        "id": np.arange(n, dtype=np.int64),
        "x": np.arange(n, dtype=np.int64) % 5,
        "y": np.full(n, np.nan, dtype=np.float32),
    })
    for stmt in ("SELECT id, y FROM t WHERE y IS NULL",
                 "SELECT COUNT(*) AS c, MIN(y) AS mn, MAX(y) AS mx FROM t",
                 "SELECT x, COUNT(*) AS c FROM t GROUP BY x"):
        serial = _snapshot(session.sql.query(stmt).run())
        sharded = _snapshot(session.sql.query(stmt, extra_config={
            "shards": 4, "parallel_min_rows": 2}).run())
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
# Partial-aggregate merge == whole-relation aggregate
# ----------------------------------------------------------------------
def _spec(func, arg_kind=None):
    arg = None
    if arg_kind is not None:
        from repro.sql.bound import BColumn
        data_type = dt.INT if arg_kind == "int" else dt.FLOAT
        arg = BColumn(0, "v", data_type)
    out_type = dt.INT if func == "COUNT" else (
        dt.FLOAT if func == "AVG" else
        (dt.INT if arg_kind == "int" else dt.FLOAT))
    return AggSpec(func=func, arg=arg, distinct=False, name="out",
                   data_type=out_type)


@settings(**SETTINGS)
@given(
    values=st.lists(st.integers(-1000, 1000), max_size=60),
    cuts=st.lists(st.integers(0, 60), max_size=5),
    func=st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG"]),
)
def test_partial_merge_equals_whole_int(values, cuts, func):
    data = np.asarray(values, dtype=np.int64)
    n = len(data)
    spec = _spec(func, None if func == "COUNT" else "int")
    assert spec_mergeable(spec)
    column = Column.from_values("v", data)
    whole = _global_agg_column(spec, None if spec.arg is None else column,
                               n, column.device)
    bounds = sorted({min(c, n) for c in cuts} | {0, n})
    partials = []
    for start, stop in zip(bounds, bounds[1:] or [n]):
        piece = column.slice_rows(start, stop)
        partials.append(global_partial(
            spec, None if spec.arg is None else piece, stop - start))
    if not partials:
        partials.append(global_partial(
            spec, None if spec.arg is None else column.slice_rows(0, 0), 0))
    merged = merge_global_partials(spec, partials, column.device)
    a, b = whole.tensor.detach().data, merged.tensor.detach().data
    assert a.dtype == b.dtype, (func, a.dtype, b.dtype)
    assert np.array_equal(a, b, equal_nan=True), (func, a, b)


# ----------------------------------------------------------------------
# Compiled kernels ≡ interpreter
# ----------------------------------------------------------------------
INTERP_CONFIG = {"compile_exprs": False}
KERNEL_CONFIGS = (
    # Serial and sharded (odd and even shard counts — unequal and equal
    # grouped-partial splits).
    {"compile_exprs": True},
    {"compile_exprs": True, "shards": 3, "parallel_min_rows": 2},
    {"compile_exprs": True, "shards": 4, "parallel_min_rows": 2},
)

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
    base = _snapshot(session.sql.query(stmt, extra_config=INTERP_CONFIG).run())
    for extra in KERNEL_CONFIGS:
        compiled = _snapshot(session.sql.query(stmt, extra_config=extra).run())
        _assert_bitwise(base, compiled, (stmt, tuple(sorted(extra.items()))))


@settings(**SETTINGS)
@given(data=tables(), num=num_exprs(), cond=bool_exprs())
def test_compiled_equals_interpreted(data, num, cond):
    """Vectorized expression kernels are bit-identical to the interpreter
    over randomized trees, serial and sharded (NaN NULLs, empty tables and
    single rows come from the `tables()` strategy)."""
    session = _register(data)
    stmt = f"SELECT id, {num} AS e0, s FROM t WHERE {cond}"
    _assert_compiled_law(session, stmt)


@settings(**SETTINGS)
@given(data=tables(), num=num_exprs(), cond=bool_exprs())
def test_pipeline_grouped_aggregate_law(data, num, cond):
    """The compiled ≡ interpreted law over pipelines ending in a grouped
    aggregate (filter → project → GROUP BY). Int aggregates
    shard through exact-mergeable grouped partials; AVG over a float
    expression is non-mergeable and must keep the merge barrier — both
    sides of that plan-time split have to hold the law bit-for-bit."""
    session = _register(data)
    stmt = (f"SELECT s, COUNT(*) AS c, SUM(x + 1) AS sm, MIN({num}) AS mn, "
            f"AVG(y) AS av FROM t WHERE {cond} GROUP BY s")
    _assert_compiled_law(session, stmt)


@settings(**SETTINGS)
@given(data=tables(), cond=bool_exprs())
def test_compiled_equals_interpreted_char_codes(data, cond):
    """The same law when the string column is stored as a padded char-code
    matrix instead of sorted dictionary codes."""
    table = Table.from_dict("t", dict(data))
    columns = [col.to_char_codes() if col.name == "s" else col
               for col in table.columns]
    session = Session()
    session.sql.register_table(Table("t", columns))
    stmt = f"SELECT id, s FROM t WHERE {cond}"
    _assert_compiled_law(session, stmt)


@settings(**SETTINGS)
@given(
    values=st.lists(st.one_of(st.floats(-50, 50, width=32),
                              st.just(float("nan"))), max_size=40),
    cut=st.integers(0, 40),
    func=st.sampled_from(["MIN", "MAX", "COUNT"]),
)
def test_partial_merge_equals_whole_float(values, cut, func):
    """Floats: only order-insensitive aggregates are mergeable (and the
    planner must agree)."""
    data = np.asarray(values, dtype=np.float32)
    n = len(data)
    spec = _spec(func, None if func == "COUNT" else "float")
    assert spec_mergeable(spec)
    for bad in ("SUM", "AVG"):
        assert not spec_mergeable(_spec(bad, "float"))
    column = Column.from_values("v", data)
    whole = _global_agg_column(spec, None if spec.arg is None else column,
                               n, column.device)
    cut = min(cut, n)
    partials = [
        global_partial(spec, None if spec.arg is None
                       else column.slice_rows(0, cut), cut),
        global_partial(spec, None if spec.arg is None
                       else column.slice_rows(cut, n), n - cut),
    ]
    merged = merge_global_partials(spec, partials, column.device)
    a, b = whole.tensor.detach().data, merged.tensor.detach().data
    assert np.array_equal(a, b, equal_nan=True), (func, a, b)
