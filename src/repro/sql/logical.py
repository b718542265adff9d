"""Logical query plan nodes.

Every node carries an output ``schema``: a list of (name, DataType) pairs.
The optimizer rewrites these trees; the physical planner lowers them to
executable operator Modules.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.sql.bound import AggSpec, BoundExpr
from repro.storage import types as dt

Schema = List[Tuple[str, dt.DataType]]


class LogicalPlan:
    schema: Schema

    def children(self) -> List["LogicalPlan"]:
        raise NotImplementedError

    def with_children(self, children: List["LogicalPlan"]) -> "LogicalPlan":
        raise NotImplementedError

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [pad + self.describe()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__


@dataclasses.dataclass
class Scan(LogicalPlan):
    table_name: str
    schema: Schema

    def children(self):
        return []

    def with_children(self, children):
        assert not children
        return self

    def describe(self):
        return f"Scan({self.table_name})"


@dataclasses.dataclass
class TVFScan(LogicalPlan):
    """Apply a table-valued function to the rows of the input plan.

    ``arg_exprs`` are bound expressions over the input schema in call order;
    scalar constants appear as ``BLiteral`` nodes (e.g. the text query in
    ``image_text_similarity``-style functions).
    """
    input: LogicalPlan
    udf: object                      # repro.core.udf.UdfInfo
    arg_exprs: List[BoundExpr]
    schema: Schema

    def children(self):
        return [self.input]

    def with_children(self, children):
        return dataclasses.replace(self, input=children[0])

    def describe(self):
        return f"TVFScan({self.udf.name})"


@dataclasses.dataclass
class Filter(LogicalPlan):
    input: LogicalPlan
    predicate: BoundExpr
    schema: Schema = None

    def __post_init__(self):
        if self.schema is None:
            self.schema = self.input.schema

    def children(self):
        return [self.input]

    def with_children(self, children):
        return Filter(children[0], self.predicate)

    def describe(self):
        return f"Filter({self.predicate})"


@dataclasses.dataclass
class Project(LogicalPlan):
    input: LogicalPlan
    exprs: List[BoundExpr]
    schema: Schema

    def children(self):
        return [self.input]

    def with_children(self, children):
        return dataclasses.replace(self, input=children[0])

    def describe(self):
        names = ", ".join(name for name, _ in self.schema)
        return f"Project({names})"


@dataclasses.dataclass
class Aggregate(LogicalPlan):
    input: LogicalPlan
    group_exprs: List[BoundExpr]
    group_names: List[str]
    aggregates: List[AggSpec]
    schema: Schema

    def children(self):
        return [self.input]

    def with_children(self, children):
        return dataclasses.replace(self, input=children[0])

    def describe(self):
        groups = ", ".join(self.group_names)
        aggs = ", ".join(str(a) for a in self.aggregates)
        return f"Aggregate(groups=[{groups}], aggs=[{aggs}])"


@dataclasses.dataclass
class JoinPlan(LogicalPlan):
    left: LogicalPlan
    right: LogicalPlan
    kind: str                          # INNER, LEFT, RIGHT, CROSS
    left_keys: List[BoundExpr]
    right_keys: List[BoundExpr]        # indexes relative to the right schema
    residual: Optional[BoundExpr]      # over the combined schema
    schema: Schema

    def children(self):
        return [self.left, self.right]

    def with_children(self, children):
        return dataclasses.replace(self, left=children[0], right=children[1])

    def describe(self):
        keys = ", ".join(f"{lk}={rk}"
                         for lk, rk in zip(self.left_keys, self.right_keys))
        return f"Join({self.kind}, on=[{keys}])"


@dataclasses.dataclass
class Sort(LogicalPlan):
    input: LogicalPlan
    keys: List[Tuple[BoundExpr, bool]]     # (expr over input schema, ascending)
    schema: Schema = None

    def __post_init__(self):
        if self.schema is None:
            self.schema = self.input.schema

    def children(self):
        return [self.input]

    def with_children(self, children):
        return Sort(children[0], self.keys)

    def describe(self):
        keys = ", ".join(f"{e} {'ASC' if asc else 'DESC'}" for e, asc in self.keys)
        return f"Sort({keys})"


@dataclasses.dataclass
class Limit(LogicalPlan):
    input: LogicalPlan
    count: int
    offset: int = 0
    schema: Schema = None

    def __post_init__(self):
        if self.schema is None:
            self.schema = self.input.schema

    def children(self):
        return [self.input]

    def with_children(self, children):
        return Limit(children[0], self.count, self.offset)

    def describe(self):
        return f"Limit({self.count}, offset={self.offset})"


@dataclasses.dataclass
class Distinct(LogicalPlan):
    input: LogicalPlan
    schema: Schema = None

    def __post_init__(self):
        if self.schema is None:
            self.schema = self.input.schema

    def children(self):
        return [self.input]

    def with_children(self, children):
        return Distinct(children[0])


@dataclasses.dataclass
class TopKSimilarity(LogicalPlan):
    """ANN-accelerated ``ORDER BY <similarity> DESC LIMIT k`` over a scan.

    Produced by the optimizer's ``vector_index`` rule when the sort key is a
    similarity call over an indexed embedding column. ``exprs`` (the final
    projection), ``residual`` (leftover WHERE conjuncts, post-filtered over
    index candidates) and ``sim_expr`` (the ranking similarity call) are
    all bound against the input scan's schema.
    """
    input: LogicalPlan                  # the Scan feeding candidate rows
    index_name: str
    table_name: str
    column: str                         # indexed embedding column
    query_text: str                     # the literal text argument
    sim_expr: BoundExpr                 # the similarity call ranking rows
    exprs: List[BoundExpr]
    residual: Optional[BoundExpr]
    k: int
    offset: int
    schema: Schema

    def children(self):
        return [self.input]

    def with_children(self, children):
        return dataclasses.replace(self, input=children[0])

    def describe(self):
        return (f"TopKSimilarity(index={self.index_name}, "
                f"{self.table_name}.{self.column}, q={self.query_text!r}, "
                f"k={self.k})")


# ----------------------------------------------------------------------
# DDL plans (vector-index subsystem)
# ----------------------------------------------------------------------

class DdlPlan(LogicalPlan):
    """Base for statements that mutate/inspect session state when run.

    DDL plans skip the optimizer and are never plan-cached; they lower to
    operators that act on the session's :class:`IndexManager`.
    """

    def children(self):
        return []

    def with_children(self, children):
        assert not children
        return self


STATUS_SCHEMA: Schema = [("status", dt.STRING)]
SHOW_INDEXES_SCHEMA: Schema = [
    ("name", dt.STRING), ("table", dt.STRING), ("column", dt.STRING),
    ("cells", dt.INT), ("nprobe", dt.INT), ("rows", dt.INT),
    ("status", dt.STRING),
]


@dataclasses.dataclass
class CreateIndex(DdlPlan):
    name: str
    table: str
    column: str
    cells: int = 16
    nprobe: Optional[int] = None
    seed: int = 0
    schema: Schema = dataclasses.field(default_factory=lambda: list(STATUS_SCHEMA))

    def describe(self):
        return f"CreateIndex({self.name} ON {self.table}({self.column}))"


@dataclasses.dataclass
class DropIndex(DdlPlan):
    name: str
    if_exists: bool = False
    schema: Schema = dataclasses.field(default_factory=lambda: list(STATUS_SCHEMA))

    def describe(self):
        return f"DropIndex({self.name})"


@dataclasses.dataclass
class ShowIndexes(DdlPlan):
    schema: Schema = dataclasses.field(
        default_factory=lambda: list(SHOW_INDEXES_SCHEMA))


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------

EXPLAIN_SCHEMA: Schema = [("plan", dt.STRING)]


@dataclasses.dataclass
class ExplainPlan(LogicalPlan):
    """``EXPLAIN [ANALYZE] <statement>``.

    Not a :class:`DdlPlan`: the wrapped statement must flow through the
    optimizer and physical planner so plain ``EXPLAIN`` renders the real
    lowered tree (sharded scans, compiled kernels and all). ``sql`` keeps
    the inner statement's source text because ``EXPLAIN ANALYZE`` re-enters
    the session's compile path at run time to attribute plan-cache hits.
    """

    input: LogicalPlan
    analyze: bool
    sql: str
    schema: Schema = dataclasses.field(default_factory=lambda: list(EXPLAIN_SCHEMA))

    def children(self):
        return [self.input]

    def with_children(self, children):
        assert len(children) == 1
        return dataclasses.replace(self, input=children[0])

    def describe(self):
        mode = "ANALYZE" if self.analyze else ""
        return f"Explain({mode})"
