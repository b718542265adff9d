"""Engine-wide telemetry: trace spans, metrics, EXPLAIN ANALYZE, slow log.

The subsystems built so far (plan cache, ANN indexes, tensor cache,
concurrent scheduler, sharded scans, compiled kernels) each answer "how
often did X happen" through an ad-hoc ``stats()`` dict, but none can answer
"where did *this query's* time go". This package is that layer:

* :mod:`spans` — nestable trace spans carried via :mod:`contextvars`
  (:class:`QueryTrace`), a zero-alloc no-op when no trace is active;
* :mod:`metrics` — thread-safe counters/fixed-bucket histograms
  behind one namespaced :class:`MetricsRegistry`
  (``Session.metrics.snapshot()``);
* :mod:`explain` — the ``EXPLAIN ANALYZE`` renderer over a finished trace;
* :mod:`slowlog` — a threshold-gated ring buffer of slow statements.

Everything here is observation-only: disabling telemetry must never change
a query's result, and the disabled path must cost ~nothing (see
``benchmarks/bench_telemetry_overhead.py``).
"""

from repro.core.telemetry.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.core.telemetry.slowlog import SlowQueryLog
from repro.core.telemetry.spans import (
    NULL_SPAN,
    QueryTrace,
    Span,
    annotate,
    count,
    current_trace,
    span,
    tracing,
)

__all__ = [
    "Counter", "Histogram", "MetricsRegistry", "SlowQueryLog",
    "NULL_SPAN", "QueryTrace", "Span", "annotate", "count", "current_trace",
    "span", "tracing",
]
