"""MiniDuck: a small embedded columnar SQL engine over plain numpy.

The DuckDB stand-in for the paper's Fig 3-left comparison: an embedded
analytical engine with fast scans over *pre-extracted relational data* — no
tensors, no encodings, no UDFs, no autograd. Its executor is deliberately
independent from the TDP engine (it interprets the AST directly), so the
comparison measures two genuinely different systems.

Supported surface: single-table SELECT with WHERE (comparisons, AND/OR/NOT,
IN, BETWEEN, LIKE), GROUP BY with COUNT/SUM/AVG/MIN/MAX, ORDER BY, LIMIT,
DISTINCT, arithmetic expressions and aliases.
"""

from __future__ import annotations

import re
from typing import Dict

import numpy as np

from repro.errors import BindError, SqlError
from repro.sql import nodes
from repro.sql.parser import parse
from repro.storage.frame import DataFrame


class MiniDuck:
    """``duckdb.connect()``-style facade: register frames, execute SQL."""

    def __init__(self):
        self._tables: Dict[str, Dict[str, np.ndarray]] = {}

    def register(self, name: str, frame: "DataFrame | Dict[str, np.ndarray]") -> None:
        if isinstance(frame, DataFrame):
            data = {col: frame[col] for col in frame.columns}
        else:
            data = {k: np.asarray(v) for k, v in frame.items()}
        self._tables[name.lower()] = data

    def execute(self, statement: str) -> DataFrame:
        ast = parse(statement)
        return _Executor(self._tables).run(ast)


class _Executor:
    def __init__(self, tables: Dict[str, Dict[str, np.ndarray]]):
        self.tables = tables

    # ------------------------------------------------------------------
    def run(self, stmt: nodes.SelectStmt) -> DataFrame:
        columns = self._resolve_from(stmt.from_clause)

        if stmt.where is not None:
            mask = np.asarray(self._eval(stmt.where, columns), dtype=bool)
            columns = {k: v[mask] for k, v in columns.items()}

        is_aggregate = stmt.group_by or any(_has_agg(i.expr) for i in stmt.items)
        if not is_aggregate and stmt.order_by:
            # Sort before projection so ORDER BY may reference input columns.
            columns = self._order_columns(columns, stmt)
        if is_aggregate:
            frame = self._aggregate(stmt, columns)
        else:
            frame = self._project(stmt, columns)

        if stmt.distinct:
            frame = _distinct(frame)
        if is_aggregate and stmt.order_by:
            frame = _order(frame, stmt, self)
        if stmt.limit is not None:
            offset = stmt.offset or 0
            frame = DataFrame({k: frame[k][offset:offset + stmt.limit]
                               for k in frame.columns})
        return frame

    def _order_columns(self, columns: Dict[str, np.ndarray],
                       stmt: nodes.SelectStmt) -> Dict[str, np.ndarray]:
        # ORDER BY may reference projection aliases as well as input columns
        # (differential-harness finding: `SELECT a+1 AS v ... ORDER BY v`
        # was rejected); evaluate aliased items into the sort environment.
        env = dict(columns)
        for item in stmt.items:
            if item.alias and item.alias not in env \
                    and not isinstance(item.expr, nodes.Star):
                value = self._eval(item.expr, columns)
                if np.isscalar(value):
                    value = np.full(_row_count(columns), value)
                env[item.alias] = np.asarray(value)
        keys = [_sort_key(np.asarray(self._eval(item.expr, env)), item.ascending)
                for item in stmt.order_by]
        order = np.lexsort(tuple(reversed(keys)))
        return {name: values[order] for name, values in columns.items()}

    def _resolve_from(self, from_clause) -> Dict[str, np.ndarray]:
        if isinstance(from_clause, nodes.TableRef):
            table = self.tables.get(from_clause.name.lower())
            if table is None:
                raise BindError(f"miniduck: unknown table {from_clause.name!r}")
            return dict(table)
        if isinstance(from_clause, nodes.SubqueryRef):
            frame = self.run(from_clause.query)
            return {col: frame[col] for col in frame.columns}
        raise SqlError("miniduck supports single tables and subqueries in FROM")

    # ------------------------------------------------------------------
    def _project(self, stmt: nodes.SelectStmt,
                 columns: Dict[str, np.ndarray]) -> DataFrame:
        out = DataFrame()
        n = _row_count(columns)
        for i, item in enumerate(stmt.items):
            if isinstance(item.expr, nodes.Star):
                for name, values in columns.items():
                    out[name] = values
                continue
            name = item.alias or _item_name(item.expr, i)
            value = self._eval(item.expr, columns)
            if np.isscalar(value):
                value = np.full(n, value)
            out[name] = value
        return out

    def _aggregate(self, stmt: nodes.SelectStmt,
                   columns: Dict[str, np.ndarray]) -> DataFrame:
        group_arrays = [np.asarray(self._eval(e, columns)) for e in stmt.group_by]
        n = _row_count(columns)
        if group_arrays:
            index, inverse, num_groups = _groups(group_arrays)
        else:
            index = np.zeros(1, dtype=int)
            inverse = np.zeros(n, dtype=int)
            num_groups = 1 if n else 1

        out = DataFrame()
        for i, item in enumerate(stmt.items):
            name = item.alias or _item_name(item.expr, i)
            out[name] = self._eval_agg_item(item.expr, stmt, columns, group_arrays,
                                            index, inverse, num_groups)
        if stmt.having is not None:
            mask = np.asarray(self._eval_agg_item(
                stmt.having, stmt, columns, group_arrays, index, inverse, num_groups
            ), dtype=bool)
            out = DataFrame({k: out[k][mask] for k in out.columns})
        return out

    def _eval_agg_item(self, expr, stmt, columns, group_arrays, index, inverse,
                       num_groups):
        group_keys = [str(g).lower() for g in stmt.group_by]
        key = str(expr).lower()
        if key in group_keys:
            return group_arrays[group_keys.index(key)][index]
        if isinstance(expr, nodes.FuncCall) and expr.name.upper() in (
                "COUNT", "SUM", "AVG", "MIN", "MAX"):
            return self._compute_agg(expr, columns, inverse, num_groups)
        if isinstance(expr, nodes.BinaryOp):
            left = self._eval_agg_item(expr.left, stmt, columns, group_arrays,
                                       index, inverse, num_groups)
            right = self._eval_agg_item(expr.right, stmt, columns, group_arrays,
                                        index, inverse, num_groups)
            return _apply_binop(expr.op, left, right)
        if isinstance(expr, nodes.Literal):
            return np.full(num_groups, expr.value)
        raise SqlError(f"miniduck: unsupported aggregate-context expression {expr}")

    def _compute_agg(self, call: nodes.FuncCall, columns, inverse, num_groups):
        func = call.name.upper()
        if func == "COUNT" and isinstance(call.args[0], nodes.Star):
            return np.bincount(inverse, minlength=num_groups).astype(np.int64)
        if func == "COUNT":
            if not getattr(call, "distinct", False):
                return np.bincount(inverse, minlength=num_groups).astype(np.int64)
            # COUNT(DISTINCT x): unique values per group (differential-
            # harness finding: the DISTINCT qualifier was silently ignored).
            # NaN-aware like the TDP engine: all NULLs count as one value.
            raw = np.asarray(self._eval(call.args[0], columns))
            codes = _to_sortable(raw)
            if len(codes) == 0:
                return np.zeros(num_groups, dtype=np.int64)
            order = np.lexsort((codes, inverse))
            g, v = inverse[order], codes[order]
            new_run = np.ones(len(v), dtype=np.int64)
            same = (g[1:] == g[:-1]) & (
                (v[1:] == v[:-1]) | (np.isnan(v[1:]) & np.isnan(v[:-1])))
            new_run[1:] = ~same
            return np.bincount(g, weights=new_run,
                               minlength=num_groups).astype(np.int64)
        values = np.asarray(self._eval(call.args[0], columns), dtype=np.float64)
        sums = np.zeros(num_groups)
        if func in ("SUM", "AVG"):
            np.add.at(sums, inverse, values)
            if func == "SUM":
                return sums
            counts = np.bincount(inverse, minlength=num_groups)
            return sums / np.maximum(counts, 1)
        counts = np.bincount(inverse, minlength=num_groups)
        # A NaN value propagates into its group (as in the engine's
        # reduceat); comparing against it is expected, not a warning.
        with np.errstate(invalid="ignore"):
            if func == "MIN":
                out = np.full(num_groups, np.inf)
                np.minimum.at(out, inverse, values)
            else:
                out = np.full(num_groups, -np.inf)
                np.maximum.at(out, inverse, values)
        # MIN/MAX over zero rows is NULL (NaN), not the accumulator identity
        # (differential-harness finding: an empty global MAX returned -inf).
        out[counts == 0] = np.nan
        return out

    # ------------------------------------------------------------------
    def _eval(self, expr: nodes.Expr, columns: Dict[str, np.ndarray]):
        if isinstance(expr, nodes.Literal):
            return expr.value
        if isinstance(expr, nodes.ColumnRef):
            values = columns.get(expr.name)
            if values is None:
                for name, array in columns.items():
                    if name.lower() == expr.name.lower():
                        return array
                raise BindError(f"miniduck: unknown column {expr.name!r}")
            return values
        if isinstance(expr, nodes.BinaryOp):
            left = self._eval(expr.left, columns)
            right = self._eval(expr.right, columns)
            return _apply_binop(expr.op, left, right)
        if isinstance(expr, nodes.UnaryOp):
            value = self._eval(expr.operand, columns)
            if expr.op == "NOT":
                return ~np.asarray(value, dtype=bool)
            return -np.asarray(value)
        if isinstance(expr, nodes.Between):
            value = np.asarray(self._eval(expr.operand, columns))
            low = self._eval(expr.low, columns)
            high = self._eval(expr.high, columns)
            mask = (value >= low) & (value <= high)
            return ~mask if expr.negated else mask
        if isinstance(expr, nodes.InList):
            value = np.asarray(self._eval(expr.operand, columns))
            literals = [self._in_literal(v) for v in expr.values]
            mask = np.isin(value, literals)
            return ~mask if expr.negated else mask
        if isinstance(expr, nodes.Like):
            value = np.asarray(self._eval(expr.operand, columns)).astype(str)
            pattern = re.compile(
                "".join(".*" if c == "%" else "." if c == "_" else re.escape(c)
                        for c in expr.pattern)
            )
            mask = np.fromiter((pattern.fullmatch(v) is not None for v in value),
                               dtype=bool, count=len(value))
            return ~mask if expr.negated else mask
        if isinstance(expr, nodes.FuncCall):
            raise SqlError(
                f"miniduck has no function {expr.name!r} (UDFs are a TDP feature)"
            )
        raise SqlError(f"miniduck: unsupported expression {type(expr).__name__}")

    @staticmethod
    def _in_literal(expr: nodes.Expr):
        """IN-list member → python value (negative numbers parse as a unary
        minus over a literal — fold it, mirroring the TDP binder)."""
        if (isinstance(expr, nodes.UnaryOp) and expr.op == "-"
                and isinstance(expr.operand, nodes.Literal)
                and isinstance(expr.operand.value, (int, float))):
            return -expr.operand.value
        if isinstance(expr, nodes.Literal):
            return expr.value
        raise SqlError("miniduck: IN lists must contain literals")


def _apply_binop(op: str, left, right):
    if op == "AND":
        return np.asarray(left, dtype=bool) & np.asarray(right, dtype=bool)
    if op == "OR":
        return np.asarray(left, dtype=bool) | np.asarray(right, dtype=bool)
    table = {
        "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide,
        "%": np.remainder, "=": np.equal, "!=": np.not_equal, "<": np.less,
        "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
    }
    if op not in table:
        raise SqlError(f"miniduck: unsupported operator {op}")
    left_arr = np.asarray(left)
    right_arr = np.asarray(right)
    if left_arr.dtype == object or right_arr.dtype == object:
        left_arr = left_arr.astype(str)
        right_arr = right_arr.astype(str)
    return table[op](left_arr, right_arr)


def _has_agg(expr: nodes.Expr) -> bool:
    if isinstance(expr, nodes.FuncCall):
        return expr.name.upper() in ("COUNT", "SUM", "AVG", "MIN", "MAX")
    if isinstance(expr, nodes.BinaryOp):
        return _has_agg(expr.left) or _has_agg(expr.right)
    if isinstance(expr, nodes.UnaryOp):
        return _has_agg(expr.operand)
    return False


def _item_name(expr: nodes.Expr, position: int) -> str:
    if isinstance(expr, nodes.ColumnRef):
        return expr.name
    if isinstance(expr, nodes.FuncCall):
        return str(expr)
    return f"col{position}"


def _row_count(columns: Dict[str, np.ndarray]) -> int:
    for values in columns.values():
        return len(values)
    return 0


def _to_sortable(array: np.ndarray) -> np.ndarray:
    """A key that compares as the values do: numbers in their own dtype
    (an int64 above 2^53 stays exact), strings as their rank codes."""
    if array.dtype == object or array.dtype.kind in ("U", "S"):
        _, inverse = np.unique(array.astype(str), return_inverse=True)
        return inverse.reshape(-1)
    return array


def _sort_key(array: np.ndarray, ascending: bool) -> np.ndarray:
    """An ascending ``np.lexsort`` key for one ORDER BY item. DESC negates
    floats (NaN stays last) and bit-flips integers and bools, which reverses
    their order without overflowing at the int64 minimum."""
    key = _to_sortable(array)
    if ascending:
        return key
    return -key if key.dtype.kind == "f" else ~key


def _groups(arrays):
    """``(first row of each group, group id of each row, group count)``
    over key arrays compared in their own dtypes, groups in ascending key
    order. NaN != NaN, so every NaN key is a group of its own."""
    keys = [_to_sortable(array) for array in arrays]
    order = np.lexsort(tuple(reversed(keys)))
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse, int(starts.sum())


def _distinct(frame: DataFrame) -> DataFrame:
    if len(frame) == 0:
        return frame
    first, _, _ = _groups([frame[c] for c in frame.columns])
    keep = np.sort(first)
    return DataFrame({c: frame[c][keep] for c in frame.columns})


def _order(frame: DataFrame, stmt: nodes.SelectStmt, executor: _Executor) -> DataFrame:
    columns = {c: frame[c] for c in frame.columns}
    keys = []
    for item in stmt.order_by:
        try:
            values = executor._eval(item.expr, columns)
        except (BindError, SqlError):
            raise SqlError(f"miniduck: ORDER BY must reference output columns")
        keys.append(_sort_key(np.asarray(values), item.ascending))
    order = np.lexsort(tuple(reversed(keys)))
    return DataFrame({c: frame[c][order] for c in frame.columns})
