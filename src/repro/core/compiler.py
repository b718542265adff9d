"""Lower optimized logical plans to physical operator trees.

This is the physical planning stage the paper describes in §2: "For each
physical operator, we can have more than one [tensor] implementation, and at
compilation time we use a mix of flags (e.g., Listing 6) and heuristics to
pick which one to use." Flags arrive through :class:`QueryConfig`; the
heuristics live in ``_pick_aggregate`` / ``_maybe_fuse_topk``. The one
partition driver is one more implementation choice made here, while
lowering: with ``shards != 1`` and a statement that calls no user code,
``_lower_pipeline`` builds a :class:`ShardedScanExec` for a Filter/Project
chain over a base-table scan that is a direct input of a join. Every other
shape lowers serially, and no pass rewrites the tree afterwards.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import PlanError
from repro.core.compiled_query import CompiledQuery, ExecNode
from repro.core.config import QueryConfig
from repro.core.operators import (
    CreateIndexExec,
    DistinctExec,
    DropIndexExec,
    GroupedAggregateExec,
    IndexScanExec,
    JoinExec,
    LimitExec,
    PipelineExec,
    ScanExec,
    ShardedScanExec,
    ShowIndexesExec,
    SoftAggregateExec,
    SortExec,
    TVFExec,
    TopKExec,
)
from repro.core.kernels.compiler import NUMPY, TCR, ExprCompiler
from repro.sql import bound as b
from repro.sql import logical
from repro.sql.optimizer.pushdown import split_conjuncts
from repro.tcr.device import as_device


class Compiler:
    def __init__(self, catalog, config: QueryConfig, device, indexes=None,
                 tensor_cache=None, shard_pool=None, session=None):
        self.catalog = catalog
        self.config = config
        self.device = as_device(device)
        self.indexes = indexes          # the session's IndexManager (or None)
        self.tensor_cache = tensor_cache  # the session's TensorCache (or None)
        self.shard_pool = shard_pool    # the session's ShardPool (or None)
        self.session = session          # back-reference for telemetry (or None)
        # The one expression-engine decision: numpy kernels on detached data
        # for exact plans, the same lowering over tcr ops where autograd must
        # flow (trainable) or was asked for (compile_exprs=False).
        self.lowering = ExprCompiler(
            NUMPY if config.compile_exprs and not config.trainable else TCR)
        self._calls_udf = False         # set per statement by compile()

    def compile(self, plan: logical.LogicalPlan, sql_text: str) -> CompiledQuery:
        explain_mode = None
        if isinstance(plan, logical.ExplainPlan):
            # Lower the wrapped statement for real so plain EXPLAIN shows
            # the true physical tree (sharded scans, compiled kernels...).
            explain_mode = "analyze" if plan.analyze else "plan"
            inner_sql = plan.sql
            plan = plan.input
        udfs = _called_udfs(plan)
        self._calls_udf = bool(udfs)
        query = CompiledQuery(
            root=self._lower(plan),
            config=self.config,
            device=self.device,
            sql_text=sql_text,
            plan_text=plan.pretty(),
            output_schema=plan.schema,
            aggregate_outputs=_aggregate_output_slots(plan),
            tensor_cache=self.tensor_cache,
            session=self.session,
        )
        query.deterministic = all(udf.deterministic for udf in udfs)
        if explain_mode is not None:
            query.explain_mode = explain_mode
            query.explain_sql = inner_sql
        return query

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def _lower(self, plan: logical.LogicalPlan,
               join_input: bool = False) -> ExecNode:
        if isinstance(plan, logical.Scan):
            op = ScanExec(self.catalog, plan.table_name,
                          [name for name, _ in plan.schema], self.device)
            return ExecNode(op, [])

        if isinstance(plan, logical.TVFScan):
            child = self._lower(plan.input)
            op = TVFExec(plan.udf, plan.arg_exprs,
                         [name for name, _ in plan.schema], self.lowering)
            return ExecNode(op, [child])

        if isinstance(plan, (logical.Filter, logical.Project)):
            return self._lower_pipeline(plan, join_input and self._sharding)

        if isinstance(plan, logical.Aggregate):
            child = self._lower(plan.input)
            return ExecNode(self._pick_aggregate(plan), [child])

        if isinstance(plan, logical.JoinPlan):
            left = self._lower(plan.left, join_input=True)
            right = self._lower(plan.right, join_input=True)
            left_names = [name for name, _ in plan.left.schema]
            right_names = [name for name, _ in plan.right.schema]
            op = JoinExec(plan.kind, plan.left_keys, plan.right_keys, plan.residual,
                          left_names, right_names, self.lowering)
            return ExecNode(op, [left, right])

        if isinstance(plan, logical.Limit):
            fused = self._maybe_fuse_topk(plan)
            if fused is not None:
                return fused
            child = self._lower(plan.input)
            return ExecNode(LimitExec(plan.count, plan.offset), [child])

        if isinstance(plan, logical.Sort):
            child = self._lower(plan.input)
            return ExecNode(SortExec(plan.keys, self.lowering), [child])

        if isinstance(plan, logical.Distinct):
            child = self._lower(plan.input)
            return ExecNode(DistinctExec(), [child])

        if isinstance(plan, logical.TopKSimilarity):
            if self.indexes is None:
                raise PlanError("TopKSimilarity requires a session IndexManager")
            child = self._lower(plan.input)
            op = IndexScanExec(
                self.indexes, plan, self.lowering, nprobe=self.config.nprobe,
                use_tensor_cache=self.config.tensor_cache)
            return ExecNode(op, [child])

        if isinstance(plan, (logical.CreateIndex, logical.DropIndex,
                             logical.ShowIndexes)):
            if self.indexes is None:
                raise PlanError("index DDL requires a session IndexManager")
            if isinstance(plan, logical.CreateIndex):
                return ExecNode(CreateIndexExec(self.indexes, plan), [])
            if isinstance(plan, logical.DropIndex):
                return ExecNode(DropIndexExec(self.indexes, plan), [])
            return ExecNode(ShowIndexesExec(self.indexes), [])

        raise PlanError(f"cannot lower {type(plan).__name__}")

    # ------------------------------------------------------------------
    # Flag combinations
    # ------------------------------------------------------------------
    @property
    def _sharding(self) -> bool:
        # A shard count of 1 (the default) is serial execution by
        # definition. Trainable compilations keep the exact differentiable
        # shape, so they lower serially. So does a statement that calls user
        # code anywhere: no UDF, TVF or similarity top-k ever reads a sliced
        # or stitched column. Even then only join inputs shard (see
        # ``_lower_pipeline``).
        return (self.config.shards != 1 and not self.config.trainable
                and not self._calls_udf)

    # ------------------------------------------------------------------
    # Row-wise pipelines (Filter/Project chains)
    # ------------------------------------------------------------------
    def _lower_pipeline(self, plan: logical.LogicalPlan,
                        shard: bool = False) -> ExecNode:
        """Lower a maximal Filter/Project chain to :class:`PipelineExec` stages.

        Links are taken in *execution* order (innermost first: an inner
        filter guards the predicates stacked above it) and the conjunct
        order is kept as given, since cost ordering is the optimizer's job.
        Each link is inlined onto the current stage's input columns
        (classic projection merging), so a whole chain is normally one
        stage; ``_breaks_stage`` says where a second one must start. With
        ``shard`` set (the chain is a join input and sharding is on), a
        chain over a base-table scan becomes one :class:`ShardedScanExec`
        holding the scan and the stages. Measured at ``shards=2`` on two
        cores, only that shape wins: a filtered scan feeding a join (TPC-H
        Q3, Q12) runs faster split, while an aggregate or a top-k directly
        over the split scan (Q1, Q6, top-k) runs slower than serial.
        """
        chain: List[logical.LogicalPlan] = []
        while isinstance(plan, (logical.Project, logical.Filter)):
            chain.append(plan)
            plan = plan.input
        node = self._lower(plan)
        stages: List[PipelineExec] = []
        stage = _Stage()
        for link in reversed(chain):
            if isinstance(link, logical.Project):
                if _breaks_stage(stage):
                    stages.append(self._stage_op(stage))
                    stage = _Stage()
                stage.exprs = [stage.inline(e) for e in link.exprs]
                stage.names = [name for name, _ in link.schema]
                continue
            for conjunct in split_conjuncts(link.predicate):
                if _breaks_stage(stage, conjunct):
                    stages.append(self._stage_op(stage))
                    stage = _Stage()
                stage.conjuncts.append(stage.inline(conjunct))
        stages.append(self._stage_op(stage))
        if shard and isinstance(plan, logical.Scan):
            return ExecNode(ShardedScanExec(node.op, stages, self.shard_pool,
                                            self.config.shards), [])
        for op in stages:
            node = ExecNode(op, [node])
        return node

    def _stage_op(self, stage: "_Stage") -> PipelineExec:
        return PipelineExec(stage.conjuncts, stage.exprs, stage.names,
                            self.lowering)

    # ------------------------------------------------------------------
    # Implementation choices (flags + heuristics)
    # ------------------------------------------------------------------
    def _pick_aggregate(self, plan: logical.Aggregate):
        args = (plan.group_exprs, plan.group_names, plan.aggregates,
                self.lowering)
        if self.config.trainable and plan.group_exprs:
            return SoftAggregateExec(*args)
        return GroupedAggregateExec(*args)

    def _maybe_fuse_topk(self, plan: logical.Limit):
        if not isinstance(plan.input, logical.Sort):
            return None
        sort_plan = plan.input
        child = self._lower(sort_plan.input)
        op = TopKExec(sort_plan.keys, plan.count, plan.offset, self.lowering)
        return ExecNode(op, [child])


class _Stage:
    """A :class:`PipelineExec` under construction: conjuncts and outputs,
    both written against the stage's *input* columns."""

    def __init__(self):
        self.conjuncts: List[b.BoundExpr] = []
        self.exprs: Optional[List[b.BoundExpr]] = None     # None = identity
        self.names: Optional[List[str]] = None

    def inline(self, expr: b.BoundExpr) -> b.BoundExpr:
        if self.exprs is None:
            return expr
        return b.substitute_columns(expr, self.exprs)


def _called_udfs(plan: logical.LogicalPlan) -> list:
    """The user code any node of ``plan`` runs: its TVFs, and the scalar
    UDFs in its expressions (a similarity top-k's ranking call included)."""
    udfs = []
    if isinstance(plan, logical.TVFScan):
        udfs.append(plan.udf)
        exprs = plan.arg_exprs
    elif isinstance(plan, logical.TopKSimilarity):
        exprs = [plan.sim_expr, plan.residual, *plan.exprs]
    elif isinstance(plan, logical.Filter):
        exprs = [plan.predicate]
    elif isinstance(plan, logical.Project):
        exprs = plan.exprs
    elif isinstance(plan, logical.Aggregate):
        exprs = plan.group_exprs + [s.arg for s in plan.aggregates]
    elif isinstance(plan, logical.JoinPlan):
        exprs = plan.left_keys + plan.right_keys + [plan.residual]
    elif isinstance(plan, logical.Sort):
        exprs = [e for e, _ in plan.keys]
    else:
        exprs = []
    udfs += [node.udf for e in exprs if e is not None
             for node in e.walk() if isinstance(node, b.BCall)]
    for child in plan.children():
        udfs += _called_udfs(child)
    return udfs


def _position_dependent(expr: b.BoundExpr) -> bool:
    """True when evaluating ``expr`` over a different row subset could
    change its per-row values: two-argument ROUND reads element 0 of its
    evaluated digits operand, so unless that operand is a literal the
    result depends on which row happens to be first."""
    return any(isinstance(node, b.BBuiltin) and node.name == "ROUND"
               and len(node.args) == 2
               and not isinstance(node.args[1], b.BLiteral)
               for node in expr.walk())


def _breaks_stage(stage: _Stage, conjunct: Optional[b.BoundExpr] = None) -> bool:
    """Must the next link (``conjunct``, or a projection when None) start a
    new stage instead of being inlined into ``stage``? The three breakers:

    1. a UDF-bearing conjunct must see only the rows that survive the
       conjuncts before it (user code, the argument shapes it is called
       with and the materialization cache are all row-set visible);
    2. a projection holding a UDF is never inlined: that would duplicate
       the call, or move it across a selection;
    3. a two-argument ROUND with non-literal digits is not moved across a
       selection, neither as a later conjunct (it would read all input
       rows) nor as an output below one (it would read only survivors).
    """
    outputs = stage.exprs or []
    if any(e.contains_udf() for e in outputs):
        return True
    if conjunct is None:
        return False
    if stage.conjuncts and (conjunct.contains_udf()
                            or _position_dependent(conjunct)):
        return True
    return any(_position_dependent(e) for e in outputs)


def _aggregate_output_slots(plan: logical.LogicalPlan) -> List[int]:
    """Output column indexes that carry aggregate values (for trainable runs).

    Walks down through output-preserving nodes to the Aggregate (if any) and
    maps its aggregate slots through intervening projections.
    """
    node = plan
    mapping = list(range(len(plan.schema)))
    while True:
        if isinstance(node, logical.Aggregate):
            num_groups = len(node.group_names)
            agg_slots = set(range(num_groups, num_groups + len(node.aggregates)))
            return [i for i, src in enumerate(mapping) if src in agg_slots]
        if isinstance(node, logical.Project):
            new_mapping = []
            for out_idx, src in enumerate(mapping):
                expr = node.exprs[src] if 0 <= src < len(node.exprs) else None
                if isinstance(expr, b.BColumn):
                    new_mapping.append(expr.index)
                else:
                    new_mapping.append(-1)
            mapping = new_mapping
            node = node.input
            continue
        if isinstance(node, (logical.Filter, logical.Sort, logical.Limit, logical.Distinct)):
            node = node.input
            continue
        return []
