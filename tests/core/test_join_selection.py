"""A join reads each input as its base table and selection.

Both inputs of every statement here arrive under a selection (a WHERE on
each side: pushed below an INNER join, written in a derived table for
LEFT/RIGHT). The join gathers only its key columns over a selection;
output and residual columns are gathered over the matched pairs. Results
must equal the statement with pushdown off (the WHERE above the join) and
a hand-written numpy nested-loop join.
"""

import re

import numpy as np
import pytest

from repro.core.session import Session
from repro.storage.column import Column

N_LEFT, N_RIGHT = 300, 90
LEFT_WHERE, RIGHT_WHERE = "w >= 3", "x < 0.6"
OUTPUTS = "a.k, a.v, a.s, b.rk, b.x, b.y"
DERIVED = (f"SELECT {OUTPUTS} FROM (SELECT k, v, s FROM l WHERE {LEFT_WHERE}) a "
           "{kind} JOIN (SELECT rk, x, y FROM r WHERE " + RIGHT_WHERE + ") b "
           "ON a.k = b.rk{residual}")
STATEMENTS = {
    "INNER": (f"SELECT k, v, s, rk, x, y FROM l JOIN r ON k = rk "
              f"WHERE {LEFT_WHERE} AND {RIGHT_WHERE}"),
    "LEFT": DERIVED.format(kind="LEFT", residual=""),
    "RIGHT": DERIVED.format(kind="RIGHT", residual=""),
    "LEFT_RESIDUAL": DERIVED.format(kind="LEFT", residual=" AND a.v < b.x"),
}


def _tables():
    rng = np.random.default_rng(11)
    left = {"k": rng.integers(0, 120, N_LEFT),
            "w": rng.integers(0, 10, N_LEFT),
            "v": rng.normal(size=N_LEFT).astype(np.float32),
            "s": np.array(["ant", "bee", "cat", "dog"],
                          dtype=object)[rng.integers(0, 4, N_LEFT)]}
    right = {"rk": rng.integers(0, 150, N_RIGHT),
             "x": rng.random(N_RIGHT).astype(np.float32),
             "y": rng.integers(-5, 5, N_RIGHT)}
    return left, right


def _selections(left, right):
    return np.flatnonzero(left["w"] >= 3), np.flatnonzero(right["x"] < 0.6)


def _session(left, right):
    session = Session()
    session.sql.register_dict(left, "l")
    session.sql.register_dict(right, "r")
    return session


def _numpy_join(name, left, right):
    """``(li, ri)``: the pairs of a nested-loop join over the selected rows,
    in preserved-side row order, each row's matches in the other side's
    row order; -1 marks the missing side of an unmatched row."""
    lrows, rrows = _selections(left, right)

    def match(i, j):
        return (left["k"][i] == right["rk"][j]
                and (name != "LEFT_RESIDUAL" or left["v"][i] < right["x"][j]))

    pairs = []
    if name == "RIGHT":
        for j in rrows:
            pairs += [(i, j) for i in lrows if match(i, j)] or [(-1, j)]
    else:
        for i in lrows:
            hits = [(i, j) for j in rrows if match(i, j)]
            pairs += hits or ([(i, -1)] if name != "INNER" else [])
    li, ri = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return li, ri


def _assert_matches_numpy(got, name, left, right):
    li, ri = _numpy_join(name, left, right)
    assert len(got) == len(li)
    for columns, rows, names in ((left, li, ("k", "v", "s")),
                                 (right, ri, ("rk", "x", "y"))):
        hit = rows >= 0
        for column in names:
            values = got.column(column)
            assert values[hit].tolist() == columns[column][rows[hit]].tolist(), column
            if values.dtype.kind == "f":
                assert np.isnan(values[~hit]).all(), column


def _assert_same_bits(got, want):
    assert got.column_names == want.column_names
    for name in got.column_names:
        a, b = got.column(name), want.column(name)
        assert a.dtype == b.dtype, name
        if a.dtype == object:
            assert a.tolist() == b.tolist(), name
        else:
            assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("name", list(STATEMENTS))
def test_join_over_selections_equals_unpushed_and_numpy(name):
    left, right = _tables()
    session = _session(left, right)
    sql = STATEMENTS[name]
    assert "access=selection" in _join_line(session, sql)
    got = session.sql.query(sql).run()
    unpushed = session.sql.query(
        sql, extra_config={"disable_rules": ["pushdown"]}).run()
    _assert_same_bits(got, unpushed)
    _assert_matches_numpy(got, name, left, right)


@pytest.mark.parametrize("name", list(STATEMENTS))
def test_only_key_columns_are_gathered_over_a_selection(name, monkeypatch):
    left, right = _tables()
    session = _session(left, right)
    sql = STATEMENTS[name]
    session.sql.query(sql).run()                  # compile outside the spy
    lrows, rrows = _selections(left, right)
    pairs = len(_numpy_join(name, left, right)[0])
    selected = {len(lrows), len(rrows)}
    assert pairs not in selected                  # the spy can tell them apart
    taken = []
    real_take = Column.take

    def spy(column, indices):
        taken.append((column.name, len(indices)))
        return real_take(column, indices)

    monkeypatch.setattr(Column, "take", spy)
    session.sql.query(sql).run()
    assert {n for n, rows in taken if rows in selected} == {"k", "rk"}
    assert {n for n, rows in taken if rows == pairs} >= {"v", "s", "x", "y"}


def _join_line(session, sql, config=None):
    plan = session.sql.query("EXPLAIN ANALYZE " + sql, extra_config=config)
    (line,) = [p for p in plan.run(toPandas=True)["plan"]
               if p.lstrip().startswith("Join(")]
    return line


def test_explain_analyze_reports_probed_and_matched_rows():
    """``probed=`` counts the probe side's rows, ``matched=`` those with a
    build row; ``access=selection`` only when an input arrived under a
    selection."""
    left, right = _tables()
    session = _session(left, right)
    lrows, rrows = _selections(left, right)
    matched = np.isin(left["k"][lrows], right["rk"][rrows]).sum()
    line = _join_line(session, STATEMENTS["INNER"])
    assert "access=selection domain=" in line
    assert re.search(rf"probed={len(lrows)} matched={matched}\]", line), line
    unpushed = _join_line(session, STATEMENTS["INNER"],
                          {"disable_rules": ["pushdown"]})
    assert "access=" not in unpushed
    everywhere = np.isin(left["k"], right["rk"]).sum()
    assert re.search(rf"probed={N_LEFT} matched={everywhere}\]", unpushed), unpushed
