"""Profile a Fig 2 multimodal top-k query with the telemetry subsystem.

Runs the paper's 'KFC Receipt' top-k similarity search, then:

1. ``EXPLAIN ANALYZE`` — per-operator rows/wall-time, kernel paths and
   cache attribution, cold vs cache-warm;
2. dumps a Chrome ``trace_event`` JSON of the run (open in
   chrome://tracing or https://ui.perfetto.dev, one lane per thread);
3. prints the session-wide metrics snapshot and the slow-query log.

Run:  python examples/profile_multimodal.py
"""

import numpy as np

from repro.apps.multimodal import fig2_queries, setup_multimodal
from repro.core.session import Session
from repro.datasets.attachments import make_attachments

TRACE_PATH = "multimodal_topk_trace.json"


def plan_text(result) -> str:
    return "\n".join(str(line) for line in np.asarray(result.column("plan")))


def main() -> None:
    session = Session()
    dataset = make_attachments(rng=np.random.default_rng(0))
    setup_multimodal(session, dataset)
    topk_q = fig2_queries()[2]

    # [1] Cold profile: first execution pays compilation and inference.
    explain = session.sql.query(f"EXPLAIN ANALYZE {topk_q}")
    print("=== cold run ===")
    print(plan_text(explain.run()))

    # [2] Warm profile: the plan cache and tensor cache absorb the repeat —
    # the compile line flips to plan_cache=hit and tensor_cache_hits counts
    # attribute the cached inference to the operator that asked for it.
    print("\n=== cache-warm run ===")
    print(plan_text(explain.run()))

    # [3] Chrome trace of the warm run, one lane per OS thread.
    trace = explain.last_trace()
    print(f"\nwrote {trace.dump_chrome(TRACE_PATH)} "
          f"({len(trace.spans())} spans) — open in chrome://tracing")

    # [4] Session-wide metrics: every subsystem under one snapshot.
    snapshot = session.metrics.snapshot()
    print("\n=== Session.metrics.snapshot() (selected) ===")
    for key in sorted(snapshot):
        if key.startswith(("plan_cache.", "tensor_cache.hits",
                           "tensor_cache.misses")):
            print(f"  {key} = {snapshot[key]}")
    latency = snapshot["query.latency_seconds"]
    print(f"  query.latency_seconds: count={latency['count']} "
          f"p50={latency['p50'] * 1e3:.1f}ms p99={latency['p99'] * 1e3:.1f}ms")

    # [5] Slow-query log: everything above the knob's threshold is kept.
    session.sql.query(topk_q, extra_config={"slow_query_seconds": 0.0,
                                            "telemetry": True}).run()
    entry = session.slow_log.last()
    print(f"\nslow log: {entry['statement'][:60]}... "
          f"took {entry['seconds'] * 1e3:.1f}ms; top operator: "
          f"{entry['trace_summary']['top_operators'][0]['op'][:60]}")


if __name__ == "__main__":
    main()
