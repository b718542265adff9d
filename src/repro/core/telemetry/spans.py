"""Trace spans: lightweight, nestable, contextvar-carried timing scopes.

One :class:`QueryTrace` is created per traced execution (the ``telemetry``
config knob, or an ``EXPLAIN ANALYZE`` statement) and activated for the
duration of the run. Instrumented code calls :func:`span` (a context
manager), :func:`annotate` and :func:`count`; when no trace is active these
return/are no-ops that allocate nothing — the *only* cost on the disabled
path is one ``ContextVar.get`` — so instrumentation can stay permanently in
the execution path.

Two contextvars carry the state:

* ``_TRACE`` — the active trace (None almost always);
* ``_SPAN`` — the innermost open span, which is how nested spans find
  their parent and how :func:`annotate`/:func:`count` attribute details
  (cache hits, kernel-vs-fallback paths) to the operator that caused them.

Because both are contextvars, shard tasks — which :class:`ShardPool` runs
under a *copy* of the submitter's context — automatically nest their spans
under the sharded operator's span, while concurrent queries on scheduler
worker threads each see only their own trace: spans can never interleave
across queries. Child-list appends take the trace's lock, since shard
tasks of one query do append to a shared parent concurrently.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from typing import Dict, List, Optional

_TRACE: "contextvars.ContextVar[Optional[QueryTrace]]" = contextvars.ContextVar(
    "tdp_active_trace", default=None)
_SPAN: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "tdp_current_span", default=None)


def current_trace() -> Optional["QueryTrace"]:
    """The trace activated by the current execution context, if any."""
    return _TRACE.get()


def tracing() -> bool:
    """True when a trace is active (the one check hot paths should make)."""
    return _TRACE.get() is not None


def span(name: str, **attrs) -> "Span":
    """Open a child span of the innermost active span.

    Returns the shared :data:`NULL_SPAN` singleton when no trace is active:
    ``with span(...) as sp`` then enters/exits a pre-existing object and
    ``bool(sp)`` is False, so callers can guard their attribute bookkeeping.
    """
    trace = _TRACE.get()
    if trace is None:
        return NULL_SPAN
    return Span(trace, name, attrs)


def annotate(**attrs) -> None:
    """Set attributes on the innermost open span (no-op when untraced)."""
    current = _SPAN.get()
    if current is not None:
        current.set(**attrs)


def count(**deltas) -> None:
    """Add integer deltas to the innermost open span's counters.

    Used for per-operator cache attribution: a tensor-cache hit inside an
    expression evaluation bumps ``tensor_cache_hits`` on whichever operator
    span is open, so ``EXPLAIN ANALYZE`` can say *which* operator was served
    from cache.
    """
    current = _SPAN.get()
    if current is not None:
        current.bump(**deltas)


class _NullSpan:
    """The disabled path: one shared, immutable, do-nothing span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def __bool__(self) -> bool:
        return False

    def set(self, **attrs) -> None:
        return None

    def bump(self, **deltas) -> None:
        return None


NULL_SPAN = _NullSpan()


class Span:
    """One timed scope inside a trace.

    ``attrs`` hold descriptive values (operator text, shard index, kernel
    path); ``counts`` hold additive integers (cache hits/misses). ``seconds``
    is wall time between ``__enter__`` and ``__exit__``.
    """

    __slots__ = ("trace", "name", "attrs", "counts", "start", "end",
                 "thread", "parent", "children", "_token")

    def __init__(self, trace: "QueryTrace", name: str, attrs: Optional[dict] = None):
        self.trace = trace
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.counts: Dict[str, int] = {}
        self.start = 0.0
        self.end = 0.0
        self.thread = 0
        self.parent: Optional[Span] = None
        self.children: List[Span] = []
        self._token = None

    # ------------------------------------------------------------------
    # Context-manager protocol
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        parent = _SPAN.get()
        self.parent = parent
        self.thread = threading.get_ident()
        self.trace.attach(self, parent)
        self._token = _SPAN.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        _SPAN.reset(self._token)
        self._token = None

    def __bool__(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Annotation
    # ------------------------------------------------------------------
    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def bump(self, **deltas) -> None:
        # Counter bumps can arrive from helper threads evaluating inside
        # this span's scope; the trace lock keeps increments exact.
        with self.trace._lock:
            counts = self.counts
            for key, delta in deltas.items():
                counts[key] = counts.get(key, 0) + int(delta)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def seconds(self) -> float:
        end = self.end if self.end else time.perf_counter()
        return max(end - self.start, 0.0)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.seconds * 1e3:.3f}ms, attrs={self.attrs})"


class QueryTrace:
    """The structured trace of one traced query execution.

    Create, then run the query inside ``with trace.activate():``. The root
    span covers the whole execution; every :func:`span` opened inside the
    activation (including on shard-pool helper threads, whose tasks run
    under copies of the activating context) attaches beneath it.
    """

    def __init__(self, statement: str = "", device: str = ""):
        self.statement = statement
        self.device = device
        self.root = Span(self, "query", {"statement": statement} if statement else {})
        if device:
            self.root.attrs["device"] = device
        self.created_at = time.time()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def activate(self):
        """Context manager making this the ambient trace (and opening root)."""
        return _TraceActivation(self)

    def attach(self, span_: Span, parent: Optional[Span]) -> None:
        if parent is None:
            if span_ is self.root:
                return
            parent = self.root
            span_.parent = parent
        with self._lock:
            parent.children.append(span_)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def seconds(self) -> float:
        return self.root.seconds

    def spans(self) -> List[Span]:
        """Every span in the trace (pre-order), root first."""
        return list(self.root.walk())

    def find(self, name: str) -> List[Span]:
        return [s for s in self.root.walk() if s.name == name]

    def total_counts(self) -> Dict[str, int]:
        """All span counters summed trace-wide (cache totals etc.)."""
        totals: Dict[str, int] = {}
        for span_ in self.root.walk():
            for key, value in span_.counts.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # ------------------------------------------------------------------
    # Chrome trace_event export
    # ------------------------------------------------------------------
    def chrome_events(self) -> List[dict]:
        """Spans as Chrome ``trace_event`` complete events.

        Load the JSON written by :meth:`dump_chrome` in ``chrome://tracing``
        or https://ui.perfetto.dev to see shard and worker concurrency laid out
        per thread. Timestamps are microseconds relative to the root span's
        start; ``tid`` is the OS thread ident that ran the span, which is
        exactly what makes shard-pool parallelism visible.
        """
        t0 = self.root.start
        events: List[dict] = []
        for span_ in self.root.walk():
            args = {str(k): v for k, v in span_.attrs.items()}
            args.update({str(k): v for k, v in span_.counts.items()})
            events.append({
                "name": span_.attrs.get("op", span_.name),
                "cat": span_.name,
                "ph": "X",
                "ts": round((span_.start - t0) * 1e6, 3),
                "dur": round(span_.seconds * 1e6, 3),
                "pid": 1,
                "tid": span_.thread,
                "args": args,
            })
        return events

    def dump_chrome(self, path: str) -> str:
        """Write the Chrome ``trace_event`` JSON file; returns the path."""
        payload = {"traceEvents": self.chrome_events(),
                   "displayTimeUnit": "ms",
                   "otherData": {"statement": self.statement,
                                 "device": self.device}}
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
        return path


class _TraceActivation:
    __slots__ = ("trace", "_trace_token", "_span_token")

    def __init__(self, trace: QueryTrace):
        self.trace = trace

    def __enter__(self) -> QueryTrace:
        trace = self.trace
        self._trace_token = _TRACE.set(trace)
        trace.root.thread = threading.get_ident()
        self._span_token = _SPAN.set(trace.root)
        trace.root.start = time.perf_counter()
        return trace

    def __exit__(self, *exc) -> None:
        self.trace.root.end = time.perf_counter()
        _SPAN.reset(self._span_token)
        _TRACE.reset(self._trace_token)
