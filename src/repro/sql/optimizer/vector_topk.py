"""The ``vector_index`` rule: rewrite top-k similarity queries to ANN probes.

Recognises the paper's Fig 2 top-k shape after the other rules have run:
a ``Limit`` over a single-key *descending* ``Sort`` whose key is a
similarity UDF call ``f('query text', embedding_column)`` (either argument
order) over a column covered by a vector index, with nothing but
projections and filters between the Limit and the underlying ``Scan``.
The whole pipeline is rewritten into one
:class:`~repro.sql.logical.TopKSimilarity` node: projections (including
the hidden-sort-column strip and pruning's narrowing projects) are inlined
by substitution, filters become the node's ``residual`` (the physical
operator over-fetches candidates and post-filters them), and the sort key
becomes the node's ``sim_expr``.

Inlining may duplicate the similarity call between ``sim_expr`` and the
output projection — deliberately so: the ANN path never evaluates
``sim_expr`` row-wise (the index ranks), and the output projection runs
over only k rows, so the duplicate is k cheap evaluations, not n.

Queries that don't match — or whose index can't serve the UDF — keep the
exact Sort/TopK plan, which is also the physical operator's runtime
fallback.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sql import bound as b
from repro.sql import logical
from repro.sql.optimizer.pushdown import combine, split_conjuncts


def _similarity_call(expr: b.BoundExpr) -> Optional[Tuple[object, str, int]]:
    """Match ``udf('text', column)`` / ``udf(column, 'text')`` similarity calls.

    Returns (udf, query_text, column_index) or None.
    """
    if not isinstance(expr, b.BCall) or len(expr.args) != 2:
        return None
    literals = [a for a in expr.args if isinstance(a, b.BLiteral)
                and isinstance(a.value, str)]
    columns = [a for a in expr.args if isinstance(a, b.BColumn)]
    if len(literals) != 1 or len(columns) != 1:
        return None
    return expr.udf, literals[0].value, columns[0].index


def _match(plan: logical.LogicalPlan, indexes) -> Optional[logical.LogicalPlan]:
    if not isinstance(plan, logical.Limit) or plan.count is None:
        return None
    # Walk Project/Sort/Filter chains down to the Scan, keeping the final
    # output expressions (`post`), the descending sort key (`key_expr`) and
    # collected filter conjuncts rebound against the current node's input.
    post: List[b.BoundExpr] = [
        b.BColumn(i, name, typ) for i, (name, typ) in enumerate(plan.schema)
    ]
    key_expr: Optional[b.BoundExpr] = None
    conjuncts: List[b.BoundExpr] = []
    node = plan.input
    while True:
        if isinstance(node, logical.Project):
            inner = node.exprs
            post = [b.substitute_columns(e, inner) for e in post]
            if key_expr is not None:
                key_expr = b.substitute_columns(key_expr, inner)
            conjuncts = [b.substitute_columns(c, inner) for c in conjuncts]
            node = node.input
        elif isinstance(node, logical.Sort):
            if key_expr is not None or len(node.keys) != 1:
                return None
            key_expr, ascending = node.keys[0]
            # Similarity ranking is highest-first: only DESC keys match.
            if ascending:
                return None
            node = node.input
        elif isinstance(node, logical.Filter):
            conjuncts.extend(split_conjuncts(node.predicate))
            node = node.input
        else:
            break
    if key_expr is None or not isinstance(node, logical.Scan):
        return None
    match = _similarity_call(key_expr)
    if match is None:
        return None
    udf, query_text, column_index = match
    column_name = node.schema[column_index][0]
    entry = indexes.find(node.table_name, column_name)
    if entry is None or not indexes.supports(entry, udf):
        return None
    return logical.TopKSimilarity(
        input=node,
        index_name=entry.name,
        table_name=node.table_name,
        column=column_name,
        query_text=query_text,
        sim_expr=key_expr,
        exprs=post,
        residual=combine(conjuncts),
        k=plan.count,
        offset=plan.offset or 0,
        schema=list(plan.schema),
    )


def rewrite_topk_similarity(plan: logical.LogicalPlan, indexes) -> logical.LogicalPlan:
    """Bottom-up application of the TopKSimilarity rewrite."""
    plan = plan.with_children([rewrite_topk_similarity(c, indexes)
                               for c in plan.children()])
    return _match(plan, indexes) or plan
