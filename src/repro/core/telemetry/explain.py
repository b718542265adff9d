"""Rendering for ``EXPLAIN`` / ``EXPLAIN ANALYZE``.

``EXPLAIN`` shows the compiled physical tree; ``EXPLAIN ANALYZE`` executes
the statement under a :class:`~repro.core.telemetry.spans.QueryTrace` and
re-renders the same tree with each operator's measured wall time, row
counts, kernel-vs-fallback path, per-shard timings and cache attribution
folded in. Operator spans carry ``node=id(exec_node)`` so measurements can
be matched back to tree positions without the renderer re-walking any
execution state.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.telemetry.spans import QueryTrace, Span


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def _format_extras(span_: Span, skip=("node", "op", "rows_in", "rows_out")) -> List[str]:
    parts = []
    for key, value in span_.attrs.items():
        if key in skip:
            continue
        parts.append(f"{key}={value}")
    for key, value in sorted(span_.counts.items()):
        parts.append(f"{key}={value}")
    return parts


def _detail_lines(span_: Span, indent: str) -> List[str]:
    """Non-operator child spans (shards, stitch, flushes) as nested lines."""
    lines: List[str] = []
    for child in span_.children:
        if child.name == "operator":
            continue
        parts = [f"{child.name}"]
        for key in ("index", "op"):
            if key in child.attrs:
                parts[0] = f"{child.name} {child.attrs[key]}"
                break
        stats = [f"time={_ms(child.seconds)}"]
        for key, value in child.attrs.items():
            if key in ("index", "op"):
                continue
            stats.append(f"{key}={value}")
        for key, value in sorted(child.counts.items()):
            stats.append(f"{key}={value}")
        lines.append(f"{indent}+ {parts[0]}: " + " ".join(stats))
        lines.extend(_detail_lines(child, indent + "  "))
    return lines


def render_plan(root) -> str:
    """Plain ``EXPLAIN``: the physical operator tree, one line per operator."""
    lines: List[str] = []

    def walk(node, depth: int) -> None:
        lines.append("  " * depth + node.op.describe())
        for child in node._children_nodes:
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def render_analyze(root, trace: QueryTrace, statement: str = "") -> str:
    """``EXPLAIN ANALYZE``: the tree annotated with the trace's measurements."""
    by_node: Dict[int, Span] = {}
    for span_ in trace.root.walk():
        if span_.name == "operator" and "node" in span_.attrs:
            by_node[span_.attrs["node"]] = span_

    lines: List[str] = []
    header = statement or trace.statement
    if header:
        lines.append(f"EXPLAIN ANALYZE {header}")
    total = trace.seconds
    device = trace.device or trace.root.attrs.get("device", "")
    summary = f"total: {_ms(total)}"
    if device:
        summary += f"  device={device}"
    lines.append(summary)
    lines.append(_compile_line(trace))

    def walk(node, depth: int) -> None:
        indent = "  " * depth
        span_ = by_node.get(id(node))
        if span_ is None:
            lines.append(f"{indent}{node.op.describe()}  [not executed]")
        else:
            stats = []
            if "rows_in" in span_.attrs:
                stats.append(f"rows_in={span_.attrs['rows_in']}")
            if "rows_out" in span_.attrs:
                stats.append(f"rows_out={span_.attrs['rows_out']}")
            stats.append(f"time={_ms(span_.seconds)}")
            stats.extend(_format_extras(span_))
            lines.append(f"{indent}{node.op.describe()}  [" + " ".join(stats) + "]")
            lines.extend(_detail_lines(span_, indent + "  "))
        for child in node._children_nodes:
            walk(child, depth + 1)

    walk(root, 0)

    totals = trace.total_counts()
    if totals:
        lines.append("counts: " + " ".join(
            f"{key}={value}" for key, value in sorted(totals.items())))
    return "\n".join(lines)


def _compile_line(trace: QueryTrace) -> str:
    """One line summarising compilation: phase times + plan-cache verdict."""
    compile_spans = trace.find("compile")
    if not compile_spans:
        return "compile: (not traced)"
    compile_span = compile_spans[0]
    parts = [f"compile: {_ms(compile_span.seconds)}"]
    verdict = compile_span.attrs.get("plan_cache")
    for phase in ("parse", "bind", "optimize", "lower"):
        phase_spans = [c for c in compile_span.walk() if c.name == phase]
        if phase_spans:
            parts.append(f"{phase}={_ms(sum(s.seconds for s in phase_spans))}")
    if verdict:
        parts.append(f"plan_cache={verdict}")
    return "  ".join(parts)
