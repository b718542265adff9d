"""Compiled queries: executable operator trees that are also nn.Modules.

Paper §2: "The output of query compilation is a PyTorch model and, as such,
it can be: used in a training loop, executed on different hardware devices,
further optimized ... profiled ...". Here the compiled query is a Module of
our TCR, so ``parameters()``, ``train()/eval()`` and backprop all work on it.
"""

from __future__ import annotations

import contextlib
import time
from typing import List, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.core.config import QueryConfig
from repro.core.operators.base import Operator, Relation
from repro.core.telemetry import QueryTrace, current_trace, span, tracing
from repro.storage.frame import DataFrame
from repro.storage.table import Table
from repro.tcr import ops
from repro.tcr.autograd import no_grad
from repro.tcr.nn.module import Module
from repro.tcr.tensor import Tensor


class ExecNode(Module):
    """One operator plus its input subtrees."""

    def __init__(self, op: Operator, children: List["ExecNode"]):
        super().__init__()
        self.op = op
        for i, child in enumerate(children):
            self.register_module(f"child{i}", child)
        self._children_nodes = children

    def forward(self) -> Relation:
        # Children evaluate before this operator's span opens, so operator
        # spans are siblings mirroring the tree rather than one deep nest;
        # each span contains only its operator's internal detail spans
        # (shard tasks, index probes, cache counts).
        inputs = [child() for child in self._children_nodes]
        if not tracing():
            return self.op(*inputs)
        with span("operator", node=id(self), op=self.op.describe()) as sp:
            if inputs:
                sp.set(rows_in=sum(r.num_rows for r in inputs))
            result = self.op(*inputs)
            sp.set(rows_out=result.num_rows)
        return result

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.op.describe()]
        for child in self._children_nodes:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


class QueryResult:
    """Materialised result of a non-trainable query."""

    def __init__(self, table: Table):
        self.table = table

    def __len__(self) -> int:
        return self.table.num_rows

    @property
    def column_names(self) -> List[str]:
        return self.table.column_names

    def column(self, name: str) -> np.ndarray:
        return self.table.column(name).decode()

    def to_frame(self) -> DataFrame:
        return self.table.to_frame()

    def scalar(self):
        """The single value of a 1x1 result (e.g. a global COUNT)."""
        if self.table.num_rows != 1 or self.table.num_columns != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got {self.table.num_rows}x"
                f"{self.table.num_columns}"
            )
        return self.table.columns[0].decode()[0]

    def __repr__(self) -> str:
        return repr(self.to_frame())


class CompiledQuery(Module):
    """The artifact returned by ``tdp.sql.spark.query`` (paper Listing 2)."""

    def __init__(self, root: ExecNode, config: QueryConfig, device, sql_text: str,
                 plan_text: str, output_schema, aggregate_outputs: List[int],
                 tensor_cache=None, session=None):
        super().__init__()
        self.root = root
        self.config = config
        self.device = device
        self.sql_text = sql_text
        self.plan_text = plan_text
        self.output_schema = output_schema
        self.aggregate_outputs = aggregate_outputs
        self.tensor_cache = tensor_cache
        self.session = session          # owning Session, for telemetry sinks
        self.explain_mode = None        # None | "plan" | "analyze"
        self.explain_sql = ""           # inner statement text for EXPLAIN
        # False when the plan calls a deterministic=False UDF or TVF: then
        # two runs may differ, so no run may stand in for another.
        self.deterministic = True
        self._last_trace: Optional[QueryTrace] = None
        # Trainable queries start in training mode (soft operators active);
        # everything else starts deployed/eval (exact operators).
        self.train(config.trainable)

    def forward(self) -> Relation:
        return self.root()

    # ------------------------------------------------------------------
    # Execution API
    # ------------------------------------------------------------------
    def run(self, toPandas: bool = False):
        """Execute the query.

        Returns, in order of precedence:
          * a DataFrame when ``toPandas=True`` (paper Listing 3);
          * a differentiable Tensor for trainable queries in training mode
            (paper Listing 5 does arithmetic directly on the result);
          * a :class:`QueryResult` otherwise.

        ``EXPLAIN`` statements instead return a one-column ``plan`` relation
        describing the physical tree; ``EXPLAIN ANALYZE`` executes the inner
        statement under a trace first (see :meth:`last_trace`).
        """
        if self.explain_mode == "plan":
            return self._wrap_plan_text(self._render_plain_explain(), toPandas)
        if self.explain_mode == "analyze":
            return self._run_analyze(toPandas)
        trace = None
        if self.config.telemetry and current_trace() is None:
            # An ambient trace (e.g. this query runs inside another traced
            # scope) wins: spans join it, and last_trace() stays untouched.
            trace = QueryTrace(self.sql_text, str(self.device))
        start = time.perf_counter()
        if trace is not None:
            with trace.activate():
                result = self._execute(toPandas)
            self._last_trace = trace
        else:
            result = self._execute(toPandas)
        self._observe_run(time.perf_counter() - start, trace)
        return result

    def _execute(self, toPandas: bool):
        if self.training and self.config.trainable:
            table = self.forward().table
        else:
            # A root under a selection gathers here, inside the scope, so
            # nothing lazy outlives the run.
            with no_grad(), self._materialization_scope():
                table = self.forward().table
        if toPandas:
            return table.to_frame()
        if self.config.trainable and self.training:
            return self._trainable_output(table)
        return QueryResult(table)

    def _observe_run(self, seconds: float, trace) -> None:
        session = self.session
        if session is None:
            return
        session.metrics.histogram("query.latency_seconds").observe(seconds)
        session.slow_log.observe(self.sql_text, seconds, trace,
                                 threshold=self.config.slow_query_seconds)

    # ------------------------------------------------------------------
    # Telemetry / EXPLAIN
    # ------------------------------------------------------------------
    def last_trace(self) -> Optional[QueryTrace]:
        """The structured trace of the most recent traced ``run`` (or None).

        Populated when the run itself created a trace — via the ``telemetry``
        config knob or ``EXPLAIN ANALYZE`` — not when it merely joined an
        ambient one.
        """
        return self._last_trace

    def _render_plain_explain(self) -> str:
        from repro.core.telemetry.explain import render_plan
        return (f"EXPLAIN {self.explain_sql}\n"
                f"{render_plan(self.root)}")

    def _run_analyze(self, toPandas: bool):
        from repro.core.telemetry.explain import render_analyze
        trace = QueryTrace(self.explain_sql, str(self.device))
        start = time.perf_counter()
        with trace.activate():
            if self.session is not None:
                # Re-enter the session's compile path inside the trace: the
                # compile/parse/bind/optimize/lower spans AND the plan-cache
                # verdict (hit on a warm statement) land in this trace.
                inner = self.session.compile_query(
                    self.explain_sql, device=self.device,
                    extra_config=self.config.as_mapping())
            else:
                inner = self
            with no_grad(), inner._materialization_scope():
                relation = inner.forward()
                relation.table          # the result gather is part of the run
        seconds = time.perf_counter() - start
        self._last_trace = trace
        if self.session is not None:
            self.session.metrics.histogram("query.latency_seconds").observe(seconds)
            self.session.slow_log.observe(self.explain_sql, seconds, trace,
                                          threshold=self.config.slow_query_seconds)
        trace.result_rows = relation.num_rows
        text = render_analyze(inner.root, trace, statement=self.explain_sql)
        return self._wrap_plan_text(text, toPandas)

    @staticmethod
    def _wrap_plan_text(text: str, toPandas: bool):
        from repro.storage.column import Column
        lines = np.asarray(text.split("\n"), dtype=object)
        table = Table("explain", [Column.from_values("plan", lines)])
        if toPandas:
            return table.to_frame()
        return QueryResult(table)

    def _materialization_scope(self):
        """Activate the session's tensor cache for this run.

        Trainable compilations never use it (they own parameters whose state
        changes between runs), and the per-query ``tensor_cache`` flag or a
        zero session budget turns it off.
        """
        cache = self.tensor_cache
        if (cache is None or cache.max_bytes <= 0 or self.config.trainable
                or not self.config.tensor_cache):
            return contextlib.nullcontext()
        return cache.activate()

    def _trainable_output(self, table: Table) -> Tensor:
        columns = table.columns
        if self.aggregate_outputs:
            tensors = [columns[i].tensor for i in self.aggregate_outputs]
        else:
            tensors = [c.tensor for c in columns if c.tensor.dtype.kind == "f"]
            if not tensors:
                raise ExecutionError(
                    "trainable query produced no differentiable output column"
                )
        if len(tensors) == 1:
            return tensors[0]
        return ops.stack(tensors, dim=1)

    def explain(self) -> str:
        """Logical plan (post-optimizer) and the physical operator tree."""
        return f"== Optimized logical plan ==\n{self.plan_text}\n" \
               f"== Physical operators ==\n{self.root.pretty()}"

    def __repr__(self) -> str:
        mode = "trainable" if self.config.trainable else "inference"
        return f"CompiledQuery({self.sql_text!r}, mode={mode}, device={self.device})"
