"""Seeded random schema + SQL statement generator for differential testing.

Every artifact is a pure function of the seed: ``gen_tables(seed)`` builds
the table set and ``gen_statements(seed, count)`` the statement stream, so a
failure reported as ``seed=S case=I`` reproduces exactly (see README.md).

The grammar is restricted to the surface both the TDP engine and the
``miniduck`` oracle accept — single-table SELECT with WHERE (comparisons,
AND/OR/NOT, IN, BETWEEN, LIKE), arithmetic projections with aliases,
GROUP BY with COUNT/SUM/AVG/MIN/MAX (+ DISTINCT / HAVING), ORDER BY, LIMIT/
OFFSET and DISTINCT — plus engine-only statements (joins) that are checked
for shard-count invariance but not against the oracle.

Determinism-by-construction rules that make three-way comparison sound:

* every projection item is aliased, so output column names agree;
* every plain SELECT projects ``id`` (a unique key) and every ORDER BY ends
  with ``id``, so ordered results are totally ordered; grouped SELECTs
  project their group keys, which are unique per output row — either way
  the comparison has an exact-typed canonical sort key.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import numpy as np

VOCAB = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "Theta", "io_ta",
         "al\U0001F600a"]
LIKE_PATTERNS = ["al%", "%ta", "%et%", "_eta", "%a_a%", "zeta", "%o%"]

INT_COLS = ("a", "b", "u")
FLOAT_COLS = ("f", "g")
STRING_COL = "s"


class DiffStatement:
    """One generated case: the SQL text plus comparison metadata."""

    __slots__ = ("sql", "table", "sort_keys", "ordered", "oracle")

    def __init__(self, sql: str, table: str, sort_keys: List[str],
                 ordered: bool, oracle: bool):
        self.sql = sql
        self.table = table
        self.sort_keys = sort_keys  # exact-typed output columns to canonicalise on
        self.ordered = ordered      # True: row order must match as produced
        self.oracle = oracle        # False: engine-only (outside miniduck surface)

    def __repr__(self) -> str:
        return f"DiffStatement({self.sql!r})"


def gen_tables(seed: int) -> Dict[str, Dict[str, np.ndarray]]:
    """The seed's table set: a general table, a NaN-heavy one, an empty one,
    a single-row one, and three join dimensions — a clean one keyed on b, an
    awkward one (duplicate/composite/NaN keys) and a zero-row one."""
    rng = np.random.default_rng(seed)

    def build(n: int, nan_rate: float = 0.1) -> Dict[str, np.ndarray]:
        ids = np.arange(n, dtype=np.int64)
        rng.shuffle(ids)
        g = rng.normal(scale=3.0, size=n)
        if n:
            g[rng.random(n) < nan_rate] = np.nan
        return {
            "id": ids,
            "a": rng.integers(-5, 21, n).astype(np.int64),
            "b": rng.integers(0, 10, n).astype(np.int64),
            "u": rng.integers(0, 1_000_000, n).astype(np.int64),
            "f": np.round(rng.normal(scale=2.0, size=n), 4),
            "g": g,
            "s": np.array([VOCAB[i] for i in rng.integers(0, len(VOCAB), n)],
                          dtype=object),
        }

    tables = {
        "t0": build(int(rng.integers(20, 70))),
        "t1": build(int(rng.integers(5, 40)), nan_rate=0.4),
        "t_empty": build(0),
        "t_one": build(1),
        "t_tiny": build(int(rng.integers(2, 5))),
    }
    # h: f, except ±inf wherever b = 9; the fold shape's WHERE drops those
    # rows. A separate stream leaves every other column as it was.
    extra = np.random.default_rng([seed, 7])
    for name in ("t0", "t1", "t_empty", "t_one", "t_tiny"):
        table = tables[name]
        signs = extra.choice([-np.inf, np.inf], size=len(table["b"]))
        table["h"] = np.where(table["b"] == 9, signs, table["f"])
    # All-NULL float column variant (the satellite's all-NULL case).
    tables["t1"]["g"] = np.full_like(tables["t1"]["g"], np.nan) \
        if rng.random() < 0.3 else tables["t1"]["g"]
    # Join pair: dimension table keyed on the fact table's b column.
    dim_n = 10
    tables["dim"] = {
        "b": np.arange(dim_n, dtype=np.int64),
        "w": rng.integers(0, 50, dim_n).astype(np.int64),
        "label": np.array([VOCAB[i % len(VOCAB)] for i in range(dim_n)],
                          dtype=object),
    }
    # Awkward dimension table for multi-key joins: duplicate int keys (fan
    # out), a string key, and a float key carrying NaNs.
    dim2_n = 16
    d2g = np.round(rng.normal(scale=2.0, size=dim2_n), 4)
    d2g[rng.random(dim2_n) < 0.25] = np.nan
    tables["dim2"] = {
        "b": rng.integers(0, 10, dim2_n).astype(np.int64),
        "s": np.array([VOCAB[i] for i in rng.integers(0, len(VOCAB), dim2_n)],
                      dtype=object),
        "g": d2g,
        "w2": rng.integers(0, 100, dim2_n).astype(np.int64),
    }
    # Zero-row build side (joins against it must still type correctly).
    tables["dim_empty"] = {
        "b": np.empty(0, dtype=np.int64),
        "w": np.empty(0, dtype=np.int64),
        "label": np.empty(0, dtype=object),
    }
    return tables


# ----------------------------------------------------------------------
# Expression fragments
# ----------------------------------------------------------------------
def _int_literal(r: random.Random) -> str:
    return str(r.randint(-5, 20))


def _float_literal(r: random.Random) -> str:
    return f"{r.choice([-2.5, -1.0, -0.25, 0.0, 0.5, 1.5, 3.0]):g}"


def _numeric_expr(r: random.Random) -> Tuple[str, str]:
    """(sql, kind) — arithmetic over int/float columns and literals."""
    choice = r.random()
    if choice < 0.3:
        col = r.choice(INT_COLS)
        return f"{col} {r.choice(['+', '-', '*'])} {_int_literal(r)}", "int"
    if choice < 0.45:
        return f"{r.choice(INT_COLS)} + {r.choice(INT_COLS)} * 2", "int"
    if choice < 0.6:
        return f"{r.choice(INT_COLS)} % {r.randint(2, 9)}", "int"
    if choice < 0.75:
        return f"{r.choice(FLOAT_COLS)} * {_float_literal(r)}", "float"
    if choice < 0.9:
        return f"{r.choice(FLOAT_COLS)} + {r.choice(FLOAT_COLS)}", "float"
    return f"{r.choice(INT_COLS)} / {r.choice(['2.0', '4.0', '8.0'])}", "float"


def _comparison(r: random.Random) -> str:
    op = r.choice(["=", "!=", "<", "<=", ">", ">="])
    kind = r.random()
    if kind < 0.35:
        return f"{r.choice(INT_COLS)} {op} {_int_literal(r)}"
    if kind < 0.55:
        return f"{r.choice(FLOAT_COLS)} {op} {_float_literal(r)}"
    if kind < 0.7:
        return f"a {op} b"
    if kind < 0.85:
        return f"{STRING_COL} {op} '{r.choice(VOCAB)}'"
    return f"f {op} g"


def _atom(r: random.Random) -> str:
    kind = r.random()
    if kind < 0.55:
        return _comparison(r)
    if kind < 0.7:
        lo = r.randint(-5, 10)
        neg = "NOT " if r.random() < 0.3 else ""
        return f"{r.choice(INT_COLS)} {neg}BETWEEN {lo} AND {lo + r.randint(0, 10)}"
    if kind < 0.85:
        neg = "NOT " if r.random() < 0.3 else ""
        if r.random() < 0.5:
            values = ", ".join(str(r.randint(-5, 20)) for _ in range(r.randint(1, 4)))
            return f"{r.choice(INT_COLS)} {neg}IN ({values})"
        values = ", ".join(f"'{w}'" for w in r.sample(VOCAB, r.randint(1, 3)))
        return f"{STRING_COL} {neg}IN ({values})"
    neg = "NOT " if r.random() < 0.3 else ""
    return f"{STRING_COL} {neg}LIKE '{r.choice(LIKE_PATTERNS)}'"


def _predicate(r: random.Random) -> str:
    n = r.randint(1, 3)
    parts = []
    for _ in range(n):
        atom = _atom(r)
        if r.random() < 0.15:
            atom = f"NOT ({atom})"
        parts.append(atom)
    out = parts[0]
    for part in parts[1:]:
        out = f"{out} {r.choice(['AND', 'OR'])} {part}"
    return out


def _agg_item(r: random.Random, tag: int) -> Tuple[str, str]:
    """(sql, alias) for one aggregate output."""
    func = r.choice(["COUNT", "SUM", "AVG", "MIN", "MAX"])
    alias = f"agg{tag}"
    if func == "COUNT":
        inner = r.random()
        if inner < 0.5:
            return f"COUNT(*) AS {alias}", alias
        if inner < 0.75:
            return f"COUNT({r.choice(INT_COLS)}) AS {alias}", alias
        cols = INT_COLS + FLOAT_COLS + (STRING_COL,)
        return f"COUNT(DISTINCT {r.choice(cols)}) AS {alias}", alias
    col = r.choice(INT_COLS if r.random() < 0.6 else FLOAT_COLS)
    return f"{func}({col}) AS {alias}", alias


# ----------------------------------------------------------------------
# Statement shapes
# ----------------------------------------------------------------------
def _pick_table(r: random.Random) -> str:
    roll = r.random()
    if roll < 0.6:
        return "t0"
    if roll < 0.8:
        return "t1"
    return r.choice(["t_empty", "t_one", "t_tiny"])


def _projection_stmt(r: random.Random) -> DiffStatement:
    table = _pick_table(r)
    items = ["id"]
    for i in range(r.randint(0, 3)):
        if r.random() < 0.45:
            items.append(r.choice(INT_COLS + FLOAT_COLS + (STRING_COL,)))
        else:
            expr, _ = _numeric_expr(r)
            items.append(f"{expr} AS e{i}")
    # De-duplicate plain column repeats (duplicate output names would make
    # name-keyed comparison ambiguous).
    seen, unique = set(), []
    for item in items:
        name = item.split(" AS ")[-1]
        if name not in seen:
            seen.add(name)
            unique.append(item)
    sql = f"SELECT {', '.join(unique)} FROM {table}"
    if r.random() < 0.75:
        sql += f" WHERE {_predicate(r)}"
    ordered = False
    if r.random() < 0.5:
        # g carries NaNs: exercises NULL placement under ASC/DESC ordering.
        key = r.choice(["id", "a", "b", "f", "u", "g"])
        direction = r.choice(["ASC", "DESC"])
        order = f"{key} {direction}, id" if key != "id" else f"id {direction}"
        sql += f" ORDER BY {order}"
        ordered = True
        if r.random() < 0.6:
            sql += f" LIMIT {r.randint(1, 12)}"
            if r.random() < 0.3:
                sql += f" OFFSET {r.randint(1, 5)}"
    return DiffStatement(sql, table, ["id"], ordered, oracle=True)


def _alias_order_stmt(r: random.Random) -> DiffStatement:
    """ORDER BY a projected alias (exercises alias resolution in both)."""
    table = _pick_table(r)
    expr, _ = _numeric_expr(r)
    sql = f"SELECT id, {expr} AS v FROM {table}"
    if r.random() < 0.5:
        sql += f" WHERE {_predicate(r)}"
    sql += f" ORDER BY v {r.choice(['ASC', 'DESC'])}, id"
    if r.random() < 0.5:
        sql += f" LIMIT {r.randint(1, 10)}"
    return DiffStatement(sql, table, ["id"], ordered=True, oracle=True)


def _distinct_stmt(r: random.Random) -> DiffStatement:
    table = _pick_table(r)
    cols = r.sample(["s", "a", "b"], r.randint(1, 2))
    sql = f"SELECT DISTINCT {', '.join(cols)} FROM {table}"
    if r.random() < 0.6:
        sql += f" WHERE {_predicate(r)}"
    return DiffStatement(sql, table, cols, ordered=False, oracle=True)


def _global_agg_stmt(r: random.Random) -> DiffStatement:
    table = _pick_table(r)
    items = [_agg_item(r, i)[0] for i in range(r.randint(1, 4))]
    sql = f"SELECT {', '.join(items)} FROM {table}"
    if r.random() < 0.7:
        sql += f" WHERE {_predicate(r)}"
    return DiffStatement(sql, table, [], ordered=True, oracle=True)


def _group_agg_stmt(r: random.Random) -> DiffStatement:
    table = _pick_table(r)
    keys = r.choice([["s"], ["a"], ["b"], ["s", "a"]])
    items = list(keys)
    for i in range(r.randint(1, 3)):
        items.append(_agg_item(r, i)[0])
    sql = f"SELECT {', '.join(items)} FROM {table}"
    if r.random() < 0.6:
        sql += f" WHERE {_predicate(r)}"
    sql += f" GROUP BY {', '.join(keys)}"
    if r.random() < 0.3:
        sql += f" HAVING COUNT(*) > {r.randint(0, 3)}"
    ordered = False
    if r.random() < 0.4:
        sql += f" ORDER BY {', '.join(keys)}"
        ordered = True
    return DiffStatement(sql, table, list(keys), ordered, oracle=True)


def _pipeline_group_stmt(r: random.Random) -> DiffStatement:
    """Filter → (computed) project → GROUP BY: the shape the pipeline
    lowering fuses into one stage, with expression-valued aggregate
    arguments so the fused projection feeds the aggregate. Miniduck
    evaluates expression aggregates, so this stays oracle-covered."""
    table = _pick_table(r)
    keys = r.choice([["s"], ["a"], ["b"], ["s", "b"]])
    items = list(keys)
    for i in range(r.randint(1, 3)):
        alias = f"agg{i}"
        roll = r.random()
        if roll < 0.3:
            items.append(f"COUNT(*) AS {alias}")
        elif roll < 0.6:
            col = r.choice(INT_COLS)
            items.append(f"SUM({col} {r.choice(['+', '*'])} "
                         f"{r.randint(1, 4)}) AS {alias}")
        elif roll < 0.8:
            items.append(f"{r.choice(['MIN', 'MAX'])}"
                         f"({r.choice(INT_COLS)} % {r.randint(2, 9)}) AS {alias}")
        else:
            items.append(f"AVG({r.choice(FLOAT_COLS)} * "
                         f"{_float_literal(r)}) AS {alias}")
    sql = f"SELECT {', '.join(items)} FROM {table}"
    sql += f" WHERE {_predicate(r)}"
    sql += f" GROUP BY {', '.join(keys)}"
    ordered = False
    if r.random() < 0.4:
        sql += f" ORDER BY {', '.join(keys)}"
        ordered = True
    return DiffStatement(sql, table, list(keys), ordered, oracle=True)


def _fold_group_stmt(r: random.Random) -> DiffStatement:
    """GROUP BY under a WHERE that keeps most rows, so the engine folds the
    selection into its group ids: the rows it drops hold ±inf in h, and are
    evaluated anyway. Every result stays finite unless a dropped row leaks."""
    table = _pick_table(r)
    keys = r.choice([["s"], ["a"], ["b"], ["s", "b"]])
    makers = [
        lambda: "COUNT(*)",
        lambda: "SUM(h)",
        lambda: f"SUM(h * {_float_literal(r)} + f)",
        lambda: "AVG(h)",
        lambda: "SUM(h - f)",
        lambda: f"{r.choice(['MIN', 'MAX'])}(-h)",
        lambda: f"SUM({r.choice(INT_COLS)} * 2 - a)",
        lambda: "COUNT(DISTINCT a)",
    ]
    items = list(keys) + [f"{maker()} AS agg{i}"
                          for i, maker in enumerate(r.sample(makers, r.randint(1, 4)))]
    where = "b < 9" if r.random() < 0.6 else f"b < 9 AND a > {r.randint(-5, -4)}"
    sql = f"SELECT {', '.join(items)} FROM {table} WHERE {where} GROUP BY {', '.join(keys)}"
    ordered = r.random() < 0.4
    if ordered:
        sql += f" ORDER BY {', '.join(keys)}"
    return DiffStatement(sql, table, list(keys), ordered, oracle=True)


def _builtin_stmt(r: random.Random) -> DiffStatement:
    """Engine-only: scalar builtins/CAST the oracle has no functions for
    (PR 8's TRIM/SUBSTR/COALESCE and CAST-to-string kernel lowerings).
    Checked for shard- and kernel-invariance like every statement. Half
    the statements compute the builtins in a derived table that feeds a
    join, so the shard legs run the kernels per shard and stitch them."""
    table = _pick_table(r)
    makers = [
        lambda: f"TRIM({STRING_COL})",
        lambda: f"SUBSTR({STRING_COL}, {r.randint(-1, 4)}, {r.randint(0, 5)})",
        lambda: f"SUBSTR({STRING_COL}, {r.randint(1, 3)})",
        lambda: f"COALESCE(g, {_float_literal(r)})",
        lambda: f"COALESCE(g, f, {_float_literal(r)})",
        lambda: f"CAST({r.choice(INT_COLS)} AS STRING)",
        lambda: f"CAST(f AS STRING)",
        lambda: f"CAST(f AS INT)",
        lambda: f"LENGTH(TRIM({STRING_COL}))",
        lambda: f"UPPER(SUBSTR({STRING_COL}, 1, 3))",
    ]
    items = ["id"] + [f"{maker()} AS e{i}"
                      for i, maker in enumerate(r.sample(makers, r.randint(1, 3)))]
    where = f" WHERE {_predicate(r)}" if r.random() < 0.7 else ""
    order = r.random() < 0.3
    if r.random() < 0.5:
        # dim holds each b once, so the LEFT JOIN keeps every row once.
        names = ["x.id"] + [f"x.e{i}" for i in range(len(items) - 1)]
        sql = (f"SELECT {', '.join(names)}, d.w FROM (SELECT {', '.join(items)}, "
               f"b FROM {table}{where}) x LEFT JOIN dim d ON x.b = d.b")
        sql += " ORDER BY x.id" if order else ""
    else:
        sql = f"SELECT {', '.join(items)} FROM {table}{where}"
        sql += " ORDER BY id" if order else ""
    return DiffStatement(sql, table, ["id"], ordered="ORDER BY" in sql,
                         oracle=False)


def _join_stmt(r: random.Random) -> DiffStatement:
    """Engine-only: the oracle has no join support. Half the statements
    filter ``dim`` in a derived table, so its side reaches the join under a
    selection whatever the join kind (an INNER join's WHERE is pushed to
    the fact side too)."""
    table = r.choice(["t0", "t1", "t_tiny"])
    kind = r.choice(["JOIN", "LEFT JOIN", "RIGHT JOIN"])
    dim = "dim"
    if r.random() < 0.5:
        dim = f"(SELECT b, w, label FROM dim WHERE w > {r.randint(0, 40)})"
    sql = (f"SELECT x.id, x.a, d.w, d.label FROM {table} x {kind} {dim} d "
           f"ON x.b = d.b")
    if r.random() < 0.5:
        sql += f" WHERE x.a > {r.randint(-5, 10)}"
    if r.random() < 0.4:
        sql += " ORDER BY x.id"
    return DiffStatement(sql, table, ["id"], ordered="ORDER BY" in sql,
                         oracle=False)


def _multikey_join_stmt(r: random.Random) -> DiffStatement:
    """Engine-only: joins through the awkward key shapes the sharded legs
    must keep bit-identical — composite keys, duplicate build keys that fan
    rows out, float keys carrying NaNs, and empty build/probe sides."""
    table = r.choice(["t0", "t1", "t_tiny", "t_one", "t_empty"])
    kind = r.choice(["JOIN", "LEFT JOIN"])
    roll = r.random()
    if roll < 0.4:
        dim, on, payload = "dim2", "x.b = d.b AND x.s = d.s", "d.w2"
    elif roll < 0.6:
        dim, on, payload = "dim2", "x.g = d.g", "d.w2"
    elif roll < 0.8:
        dim, on, payload = "dim2", "x.b = d.b", "d.w2"
    else:
        dim, on, payload = "dim_empty", "x.b = d.b", "d.w"
    sql = f"SELECT x.id, x.b, {payload} FROM {table} x {kind} {dim} d ON {on}"
    if r.random() < 0.4:
        sql += f" WHERE x.a > {r.randint(-5, 10)}"
    if r.random() < 0.3:
        sql += " ORDER BY x.id"
    return DiffStatement(sql, table, ["id"], ordered="ORDER BY" in sql,
                         oracle=False)


_SHAPES = [
    (_projection_stmt, 0.23),
    (_alias_order_stmt, 0.09),
    (_distinct_stmt, 0.08),
    (_global_agg_stmt, 0.14),
    (_group_agg_stmt, 0.16),
    (_pipeline_group_stmt, 0.10),
    (_fold_group_stmt, 0.06),
    (_builtin_stmt, 0.07),
    (_join_stmt, 0.06),
    (_multikey_join_stmt, 0.07),
]


def gen_statements(seed: int, count: int) -> List[DiffStatement]:
    r = random.Random(seed)
    weights = [w for _, w in _SHAPES]
    makers = [m for m, _ in _SHAPES]
    return [r.choices(makers, weights)[0](r) for _ in range(count)]
