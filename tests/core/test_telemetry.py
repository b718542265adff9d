"""Engine-wide telemetry: trace spans, EXPLAIN ANALYZE, the metrics
registry and the slow-query log (the PR 7 tentpole).

Covers the tentpole's cost contract (disabled path is a shared no-op
singleton), its correctness contract (EXPLAIN ANALYZE row counts match the
actual result cardinalities; spans never leak across concurrent queries),
and the registry's consistency contract (counters reconcile exactly under
a concurrent serving workload).
"""

import importlib.util
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.scheduler import QueryScheduler
from repro.core.session import Session
from repro.core.telemetry import (NULL_SPAN, Histogram, MetricsRegistry,
                                  SlowQueryLog, annotate, count,
                                  current_trace, span)
from repro.sql import logical, nodes
from repro.sql.binder import Binder
from repro.sql.parser import parse

ROWS = 512
SHARD_CONFIG = {"shards": 4, "parallel_min_rows": 8}
FILTER_SQL = "SELECT k, v FROM t WHERE v > 0.0"


def _numeric_session(rows: int = ROWS) -> Session:
    session = Session()
    rng = np.random.default_rng(7)
    session.sql.register_dict(
        {"k": np.arange(rows, dtype=np.int64) % 8,
         "v": rng.normal(size=rows).astype(np.float32)},
        "t",
    )
    return session


def _plan_text(result) -> str:
    return "\n".join(str(line) for line in np.asarray(result.column("plan")))


def _run_threads(n, target):
    errors = []

    def wrapped(i):
        try:
            target(i)
        except BaseException as exc:   # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "worker thread deadlocked"
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE through the SQL front end
# ---------------------------------------------------------------------------
class TestExplainParseBind:
    def test_parse_explain(self):
        stmt = parse("EXPLAIN SELECT k FROM t WHERE v > 0")
        assert isinstance(stmt, nodes.ExplainStmt)
        assert stmt.analyze is False
        assert stmt.sql == "SELECT k FROM t WHERE v > 0"
        assert isinstance(stmt.statement, nodes.SelectStmt)

    def test_parse_explain_analyze(self):
        stmt = parse("explain analyze SELECT COUNT(*) FROM t;")
        assert isinstance(stmt, nodes.ExplainStmt)
        assert stmt.analyze is True
        assert stmt.sql == "SELECT COUNT(*) FROM t"   # semicolon stripped

    def test_explain_is_soft_keyword(self):
        # A column named "explain" still parses as a plain identifier.
        stmt = parse("SELECT explain FROM t")
        assert isinstance(stmt, nodes.SelectStmt)

    def test_bind_wraps_inner_plan(self, session):
        session.sql.register_dict({"k": np.arange(4, dtype=np.int64)}, "t")
        bound = Binder(session.catalog, session.functions).bind(
            parse("EXPLAIN ANALYZE SELECT k FROM t"))
        assert isinstance(bound, logical.ExplainPlan)
        assert bound.analyze is True
        assert bound.sql == "SELECT k FROM t"
        assert [name for name, _ in bound.schema] == ["plan"]
        assert not isinstance(bound.input, logical.ExplainPlan)

    def test_plain_explain_renders_without_executing(self):
        session = _numeric_session(rows=32)
        text = _plan_text(session.sql.query(f"EXPLAIN {FILTER_SQL}").run())
        assert text.startswith(f"EXPLAIN {FILTER_SQL}")
        assert "Scan" in text
        assert "time=" not in text        # no measurements: nothing executed
        assert "rows_out=" not in text


class TestExplainAnalyze:
    def test_report_matches_actual_cardinalities(self):
        """Acceptance gate: on a sharded, kernel-compiled, cache-warm
        statement the report shows per-operator rows/time, per-shard
        timings, the kernel path and plan-cache attribution — and the
        reported row counts equal the actual result cardinalities."""
        session = _numeric_session()
        explain = session.sql.query(f"EXPLAIN ANALYZE {FILTER_SQL}",
                                    extra_config=SHARD_CONFIG)

        first = _plan_text(explain.run())
        assert "plan_cache=miss" in first
        direct = session.sql.query(FILTER_SQL, extra_config=SHARD_CONFIG).run()
        warm = _plan_text(explain.run())     # inner plan now cached
        assert "plan_cache=hit" in warm

        assert warm.startswith(f"EXPLAIN ANALYZE {FILTER_SQL}")
        assert re.search(r"total: \d+\.\d{3}ms  device=cpu", warm)
        assert re.search(r"compile: \d+\.\d{3}ms", warm)

        # Every operator line carries measured time; the root's rows_out is
        # the true result cardinality.
        op_lines = [ln for ln in warm.split("\n")
                    if re.search(r"\[.*time=\d+\.\d{3}ms", ln)]
        assert op_lines, warm
        root_rows = re.search(r"rows_out=(\d+)", op_lines[0])
        assert root_rows and int(root_rows.group(1)) == len(direct)

        # Sharded execution detail: one line per shard with its own timing
        # and row count, summing to the base table.
        shard_rows = [int(m.group(1)) for m in
                      re.finditer(r"\+ shard \d+: time=\d+\.\d{3}ms .*?rows=(\d+)",
                                  warm)]
        assert len(shard_rows) == SHARD_CONFIG["shards"]
        assert sum(shard_rows) == ROWS
        assert "+ stitch:" in warm
        assert "path=kernel" in warm         # compiled kernel, not fallback

        trace = explain.last_trace()
        assert trace is not None
        assert trace.result_rows == len(direct)

    def test_chrome_trace_export(self, tmp_path):
        session = _numeric_session(rows=64)
        query = session.sql.query(FILTER_SQL,
                                  extra_config={"telemetry": True})
        query.run()
        trace = query.last_trace()
        path = trace.dump_chrome(str(tmp_path / "trace.json"))
        with open(path) as handle:
            payload = json.load(handle)
        events = payload["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
        # Compile happened before the trace (at .query() time), so the
        # events cover the run: the root query span plus its operators.
        assert {"query", "operator"} <= {e["cat"] for e in events}
        assert payload["otherData"]["statement"] == FILTER_SQL

    def test_grouping_and_join_domain_labels(self):
        """Each exact GROUP BY reports its group count and key-id domain,
        and each equi-join its direct-address table's domain, on the
        benchmark's five TPC-H-shaped statements (small scale)."""
        path = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "datagen.py"
        spec = importlib.util.spec_from_file_location("e2e_datagen", path)
        datagen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(datagen)
        orders = datagen.make_orders(1, 0.01)
        session = Session()
        session.sql.register_dict(datagen.make_lineitem(1, orders, 0.01), "lineitem")
        session.sql.register_dict(orders, "orders")
        statements = datagen.suite_statements(datagen.suite_params(1))
        labelled = {"GroupedAggregate(groups=[": r"groups=\d+ domain=\d+",
                    "Join(INNER)": r"domain=\d+"}
        seen = {op: 0 for op in labelled}
        for sql in statements.values():
            plan = _plan_text(session.sql.query(f"EXPLAIN {sql}").run())
            text = _plan_text(session.sql.query(f"EXPLAIN ANALYZE {sql}").run())
            assert "GroupedAggregate(groups=[" in plan or "GROUP BY" not in sql
            for line in text.splitlines():
                op, _, stats = line.strip().partition("  [")
                for prefix, label in labelled.items():
                    if op.startswith(prefix) and op != "GroupedAggregate(groups=[])":
                        assert re.search(label, stats), line
                        seen[prefix] += 1
        # q1, q3 and q12 group; q3 and q12 join.
        assert seen == {"GroupedAggregate(groups=[": 3, "Join(INNER)": 2}


# ---------------------------------------------------------------------------
# Span mechanics: disabled path, nesting, isolation
# ---------------------------------------------------------------------------
class TestSpans:
    def test_disabled_path_is_shared_noop(self):
        assert current_trace() is None
        sp = span("operator", node=1)
        assert sp is NULL_SPAN and span("other") is sp
        assert not sp
        with sp as inner:
            inner.set(rows_out=3)
            inner.bump(hits=1)
        annotate(anything=1)               # no open span: silently dropped
        count(hits=1)

    def test_untraced_run_records_no_trace(self):
        session = _numeric_session(rows=32)
        query = session.sql.query(FILTER_SQL)
        query.run()
        assert query.last_trace() is None  # telemetry off by default

    def test_shard_spans_nest_under_their_operator(self):
        session = _numeric_session()
        config = dict(SHARD_CONFIG, telemetry=True)
        query = session.sql.query(FILTER_SQL, extra_config=config)
        query.run()
        trace = query.last_trace()
        shards = trace.find("shard")
        assert len(shards) == SHARD_CONFIG["shards"]
        for shard in shards:
            # shard task (helper thread) -> barrier -> the sharded operator
            assert shard.parent.name == "shard_barrier"
            assert shard.parent.parent.name == "operator"
        assert trace.find("stitch")
        # Shard tasks ran on pool threads, yet attached to this trace.
        threads = {s.thread for s in shards}
        assert threads, "shard spans lost their thread idents"

    def test_traces_stay_isolated_across_threads(self):
        """Two threads tracing different statements concurrently: each
        trace holds exactly the spans of its own query."""
        session = _numeric_session()
        statements = ["SELECT COUNT(*) FROM t WHERE v > 0",
                      "SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY k"]
        queries = [session.sql.query(s, extra_config={"telemetry": True})
                   for s in statements]
        baselines = []
        for q in queries:                   # serial baseline span counts
            q.run()
            baselines.append(len(q.last_trace().find("operator")))

        def work(i):
            for _ in range(25):
                queries[i].run()
                trace = queries[i].last_trace()
                assert trace.root.attrs["statement"] == statements[i]
                assert len(trace.find("operator")) == baselines[i]

        _run_threads(2, work)

    def test_traced_serving_under_scheduler(self):
        """serve(workers=4) with telemetry on: every query still returns
        the right result and the engine survives concurrent tracing."""
        session = _numeric_session()
        statements = ["SELECT COUNT(*) FROM t WHERE v > 0",
                      "SELECT SUM(v) FROM t",
                      "SELECT COUNT(*) FROM t"] * 4
        expected = [session.sql.query(s).run().scalar() for s in statements]
        served = session.serve(statements, workers=4,
                               extra_config={"telemetry": True})
        assert [r.scalar() for r in served] == expected


# ---------------------------------------------------------------------------
# Metrics: histograms, registry, scheduler reconciliation
# ---------------------------------------------------------------------------
class TestHistogram:
    def test_merge_is_exact_for_equal_bounds(self):
        bounds = [1.0, 2.0, 4.0, 8.0]
        a, b, all_ = (Histogram(n, bounds=bounds) for n in ("a", "b", "all"))
        left, right = [0.5, 1.5, 3.0], [5.0, 9.0, 0.25]
        for v in left:
            a.observe(v)
        for v in right:
            b.observe(v)
        for v in left + right:
            all_.observe(v)
        a.merge(b)
        assert a.snapshot() == all_.snapshot()

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError):
            Histogram("a", bounds=[1.0, 2.0]).merge(Histogram("b"))

    def test_quantiles_are_monotone_and_bounded(self):
        h = Histogram("lat")
        rng = np.random.default_rng(3)
        for v in rng.lognormal(mean=-6.0, sigma=1.5, size=500):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["count"] == 500
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] \
            <= snap["max"]

    def test_empty_snapshot(self):
        assert Histogram("x").snapshot() == {"count": 0, "sum": 0.0}
        assert Histogram("x").quantile(0.5) == 0.0

    def test_concurrent_observes_are_exact(self):
        h = Histogram("lat")
        per_thread, threads = 500, 8

        def work(i):
            for j in range(per_thread):
                h.observe(((i + j) % 10 + 1) * 1e-3)

        _run_threads(threads, work)
        snap = h.snapshot()
        assert snap["count"] == per_thread * threads
        assert snap["sum"] == pytest.approx(
            sum(((i + j) % 10 + 1) * 1e-3
                for i in range(threads) for j in range(per_thread)))


class TestMetricsRegistry:
    def test_get_or_create_and_snapshot_layout(self):
        reg = MetricsRegistry()
        assert reg.counter("a.n") is reg.counter("a.n")
        reg.counter("a.n").inc(3)
        reg.histogram("a.h").observe(0.01)
        reg.register_provider("comp", lambda: {"hits": 7})
        reg.register_provider("dead", lambda: 1 / 0)   # must not break
        snap = reg.snapshot()
        assert snap["a.n"] == 3
        assert snap["comp.hits"] == 7
        assert snap["a.h"]["count"] == 1
        assert not any(k.startswith("dead.") for k in snap)

    def test_session_snapshot_namespaces(self):
        session = _numeric_session(rows=32)
        session.sql.query(FILTER_SQL).run()
        snap = session.metrics.snapshot()
        for key in ("plan_cache.hits", "plan_cache.misses",
                    "plan_cache.evictions", "tensor_cache.hits",
                    "tensor_cache.size", "shard_pool.workers",
                    "indexes.size", "slow_log.observed"):
            assert key in snap, key
        assert snap["query.latency_seconds"]["count"] == 1

    def test_scheduler_counters_reconcile_exactly(self):
        """Concurrency stress: after a served workload, executed +
        coalesced == submitted, and the registry's counters/histograms
        agree with the scheduler's own stats."""
        session = _numeric_session()
        statements = ["SELECT COUNT(*) FROM t WHERE v > 0",
                      "SELECT SUM(v) FROM t",
                      "SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k",
                      "SELECT COUNT(*) FROM t"] * 8
        scheduler = QueryScheduler(session, workers=4)
        futures = [scheduler.submit(s) for s in statements]
        results = [f.result(timeout=60) for f in futures]
        stats = scheduler.stats
        scheduler.shutdown()
        assert len(results) == len(statements)

        snap = session.metrics.snapshot()
        assert stats["executed"] + stats["coalesced"] == len(statements)
        assert snap["scheduler.executed"] == stats["executed"]
        assert snap.get("scheduler.coalesced", 0) == stats["coalesced"]
        # Every dequeued job (leader or coalesced) observed its queue wait.
        assert snap["scheduler.queue_wait_seconds"]["count"] == len(statements)
        # Only leaders actually ran, and each run recorded one latency.
        assert snap["query.latency_seconds"]["count"] == stats["executed"]

    def test_reset_clears_metrics(self):
        session = _numeric_session(rows=32)
        session.sql.query("SELECT COUNT(*) FROM t").run()
        assert session.metrics.snapshot()["query.latency_seconds"]["count"] == 1
        session.reset()
        snap = session.metrics.snapshot()
        assert snap.get("query.latency_seconds", {"count": 0})["count"] == 0


# ---------------------------------------------------------------------------
# Slow-query log
# ---------------------------------------------------------------------------
class TestSlowQueryLog:
    def test_threshold_knob_and_trace_summary(self):
        session = _numeric_session(rows=64)
        session.sql.query(
            "SELECT SUM(v) FROM t",
            extra_config={"slow_query_seconds": 0.0, "telemetry": True},
        ).run()
        entry = session.slow_log.last()
        assert entry["statement"] == "SELECT SUM(v) FROM t"
        assert entry["seconds"] >= 0.0
        assert entry["trace_summary"]["top_operators"]

        # Default threshold (1s): a fast query is observed but not logged.
        before = len(session.slow_log)
        session.sql.query("SELECT COUNT(*) FROM t").run()
        assert len(session.slow_log) == before
        stats = session.slow_log.stats()
        assert stats["observed"] >= 2 and stats["logged"] == before

    def test_ring_buffer_retains_most_recent(self):
        log = SlowQueryLog(capacity=4, threshold_seconds=0.0)
        for i in range(10):
            assert log.observe(f"q{i}", seconds=0.5)
        assert len(log) == 4
        assert [e["statement"] for e in log.entries()] == \
            ["q6", "q7", "q8", "q9"]
        assert log.stats()["logged"] == 10 and log.stats()["retained"] == 4
