"""Bound (name- and type-resolved) expressions.

The binder turns parser ASTs into these nodes: column references become
input-schema indexes, function names are resolved against the UDF registry
and builtin table, and every node carries a :class:`~repro.storage.types.DataType`.
The engine's expression evaluator interprets bound trees against tables.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, List, Optional, Tuple

from repro.storage import types as dt


class BoundExpr:
    """Base class; every bound expression has a result ``data_type``."""

    data_type: dt.DataType

    def references(self) -> set:
        """Set of input column indexes this expression reads."""
        raise NotImplementedError

    def children(self) -> Iterator["BoundExpr"]:
        """Direct sub-expressions, in field order (generic over node kinds:
        every bound node is a dataclass whose expression-valued fields are
        BoundExpr instances, lists of them, or BCase's (cond, value) pairs)."""
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, BoundExpr):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, BoundExpr):
                        yield item
                    elif isinstance(item, tuple):
                        yield from (sub for sub in item
                                    if isinstance(sub, BoundExpr))

    def walk(self) -> Iterator["BoundExpr"]:
        """Depth-first, pre-order walk over the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def contains_udf(self) -> bool:
        return any(isinstance(node, BCall) for node in self.walk())


@dataclasses.dataclass
class BColumn(BoundExpr):
    index: int
    name: str
    data_type: dt.DataType

    def references(self) -> set:
        return {self.index}

    def __str__(self):
        return self.name


@dataclasses.dataclass
class BLiteral(BoundExpr):
    value: object
    data_type: dt.DataType

    def references(self) -> set:
        return set()

    def __str__(self):
        return repr(self.value)


@dataclasses.dataclass
class BBinary(BoundExpr):
    op: str
    left: BoundExpr
    right: BoundExpr
    data_type: dt.DataType

    def references(self) -> set:
        return self.left.references() | self.right.references()

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclasses.dataclass
class BUnary(BoundExpr):
    op: str
    operand: BoundExpr
    data_type: dt.DataType

    def references(self) -> set:
        return self.operand.references()

    def __str__(self):
        return f"({self.op} {self.operand})"


@dataclasses.dataclass
class BCall(BoundExpr):
    """Scalar UDF call (runs user code on encoded tensors)."""
    udf: object                       # repro.core.udf.UdfInfo
    args: List[BoundExpr]
    data_type: dt.DataType

    def references(self) -> set:
        refs = set()
        for arg in self.args:
            refs |= arg.references()
        return refs

    def __str__(self):
        return f"{self.udf.name}({', '.join(str(a) for a in self.args)})"


@dataclasses.dataclass
class BBuiltin(BoundExpr):
    name: str
    args: List[BoundExpr]
    data_type: dt.DataType

    def references(self) -> set:
        refs = set()
        for arg in self.args:
            refs |= arg.references()
        return refs

    def __str__(self):
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclasses.dataclass
class BBetween(BoundExpr):
    operand: BoundExpr
    low: BoundExpr
    high: BoundExpr
    negated: bool
    data_type: dt.DataType = dt.BOOL

    def references(self) -> set:
        return self.operand.references() | self.low.references() | self.high.references()

    def __str__(self):
        negation = "NOT " if self.negated else ""
        return f"({self.operand} {negation}BETWEEN {self.low} AND {self.high})"


@dataclasses.dataclass
class BIn(BoundExpr):
    operand: BoundExpr
    values: List[object]
    negated: bool
    data_type: dt.DataType = dt.BOOL

    def references(self) -> set:
        return self.operand.references()

    def __str__(self):
        negation = "NOT " if self.negated else ""
        values = ", ".join(repr(v) for v in self.values)
        return f"({self.operand} {negation}IN ({values}))"


@dataclasses.dataclass
class BLike(BoundExpr):
    operand: BoundExpr
    pattern: str
    negated: bool
    data_type: dt.DataType = dt.BOOL

    def references(self) -> set:
        return self.operand.references()

    def __str__(self):
        negation = "NOT " if self.negated else ""
        return f"({self.operand} {negation}LIKE {self.pattern!r})"


@dataclasses.dataclass
class BIsNull(BoundExpr):
    operand: BoundExpr
    negated: bool
    data_type: dt.DataType = dt.BOOL

    def references(self) -> set:
        return self.operand.references()

    def __str__(self):
        negation = "NOT " if self.negated else ""
        return f"({self.operand} IS {negation}NULL)"


@dataclasses.dataclass
class BCase(BoundExpr):
    whens: List[Tuple[BoundExpr, BoundExpr]]
    else_: Optional[BoundExpr]
    data_type: dt.DataType

    def references(self) -> set:
        refs = set()
        for cond, value in self.whens:
            refs |= cond.references() | value.references()
        if self.else_ is not None:
            refs |= self.else_.references()
        return refs

    def __str__(self):
        whens = " ".join(f"WHEN {c} THEN {v}" for c, v in self.whens)
        else_ = f" ELSE {self.else_}" if self.else_ is not None else ""
        return f"CASE {whens}{else_} END"


@dataclasses.dataclass
class BCast(BoundExpr):
    operand: BoundExpr
    data_type: dt.DataType

    def references(self) -> set:
        return self.operand.references()

    def __str__(self):
        return f"CAST({self.operand} AS {self.data_type})"


AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


@dataclasses.dataclass
class AggSpec:
    """One aggregate slot of a group-by (or global) aggregation."""
    func: str                          # COUNT / SUM / AVG / MIN / MAX
    arg: Optional[BoundExpr]           # None for COUNT(*)
    distinct: bool
    name: str
    data_type: dt.DataType

    def __str__(self):
        inner = "*" if self.arg is None else str(self.arg)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.func}({prefix}{inner})"


def map_columns(expr: BoundExpr,
                fn: Callable[[BColumn], BoundExpr]) -> BoundExpr:
    """Rebuild ``expr`` with every ``BColumn`` leaf replaced by ``fn(leaf)``
    (generic over node kinds, on the same field walk as ``children``)."""
    if isinstance(expr, BColumn):
        return fn(expr)

    def rebuild(value):
        if isinstance(value, BoundExpr):
            return map_columns(value, fn)
        if isinstance(value, tuple):
            return tuple(rebuild(item) for item in value)
        return value

    changes = {}
    for name in expr.__dataclass_fields__:
        value = getattr(expr, name)
        if isinstance(value, BoundExpr):
            changes[name] = map_columns(value, fn)
        elif isinstance(value, list):
            changes[name] = [rebuild(item) for item in value]
    return dataclasses.replace(expr, **changes) if changes else expr


def remap_columns(expr: BoundExpr, mapping) -> BoundExpr:
    """Rewrite BColumn indexes through ``mapping`` (dict old->new).

    Used by optimizer rules when expressions move across projections.
    """
    return map_columns(
        expr, lambda col: BColumn(mapping[col.index], col.name, col.data_type))


def substitute_columns(expr: BoundExpr, inner_exprs: List[BoundExpr]) -> BoundExpr:
    """Inline an inner projection: replace ``BColumn(i)`` with ``inner_exprs[i]``.

    This is classic projection merging — the substituted expression evaluates
    directly against the inner projection's *input*, removing one
    materialisation.
    """
    return map_columns(expr, lambda col: inner_exprs[col.index])
