"""Concurrent-serving benchmark (the PR 4 scheduler subsystem).

Serves a mixed Fig 2 workload — top-k similarity, similarity filters /
aggregates, and vector-index DDL — from four concurrent client streams
against ``Session.serve(workers=4)``, and compares against strictly
serialized execution of the same statement list.

Regime: the session runs with ``tensor_cache_bytes=0``, modeling the
eviction-bound serving regime where the working set exceeds the
materialization cache and every statement pays its own inference (the same
deliberately-uncached regime ``bench_fig2_multimodal`` measures). What the
scheduler then buys, on any core count, is *work elimination*:

* identical in-flight statements coalesce into one execution
  (request-collapse against thundering herds), and
* concurrent queries' encoder micro-batches for the same (model, device)
  rendezvous in the inference batcher — N queries streaming the same corpus
  pay one forward pass per row instead of N.

Both mechanisms preserve results bit-for-bit: a coalesced duplicate gets
the leader's result, and deduplicated encodes are the *same* single
forward pass serialized execution would run (per-request shapes are never
changed, so no stacked BLAS shape can flip a float LSB).

Acceptance: >= 2x throughput at workers=4 over serialized execution, with
bit-identical results (ids, counts and raw float scores).
"""

import time

import numpy as np

from repro.bench.harness import (print_table, record_latency_metric,
                                 record_metric, scaled)
from repro.apps.multimodal import setup_multimodal
from repro.core.scheduler import QueryScheduler
from repro.core.session import Session

WORKERS = 4
CLIENTS = 4

# Exact plans only: with the vector_index rewrite left on, whether a query
# compiled before or after the stream's CREATE INDEX would pick the ANN
# access path depends on scheduling, and ANN candidate sets are not
# guaranteed recall-1.0 in general. Exact plans make serialized and
# concurrent execution compute identical operator trees, so the bit-identity
# gate is meaningful. (DDL still exercises concurrent epoch bumps and plan
# invalidation.)
CONFIG = {"disable_rules": ("vector_index",)}

TOPK_TEXTS = ["KFC Receipt", "beach sunset", "a photo of a dog",
              "STARBUCKS logo", "mountain hike", "UBER Receipt"]
FILTER_TEXTS = ["receipt", "logo"]


def _client_statements():
    """One client's statement stream (every client runs the same script,
    like a replayed load-test request log)."""
    statements = []
    for text in TOPK_TEXTS[:scaled(6, minimum=2)]:
        statements.append(
            f"SELECT attachment_id, image_text_similarity('{text}', images) "
            f"AS score FROM Attachments ORDER BY score DESC LIMIT 10")
    for text in FILTER_TEXTS[:scaled(2, minimum=1)]:
        statements.append(
            f"SELECT COUNT(*) FROM Attachments "
            f"WHERE image_text_similarity('{text}', images) > 0.8")
    statements.append("SELECT COUNT(*) FROM Attachments")
    statements.append(
        "SELECT MAX(attachment_id) FROM Attachments WHERE attachment_id < 150")
    return statements


def _workload():
    """CLIENTS concurrent copies of the stream, interleaved round-robin,
    with index DDL mixed in (single statements, not per client)."""
    per_client = _client_statements()
    flat = [per_client[i] for i in range(len(per_client))
            for _ in range(CLIENTS)]
    ddl = [
        (len(flat) // 3,
         "CREATE VECTOR INDEX serving_ivf ON Attachments(images) "
         "WITH (cells=16, nprobe=4)"),
        (2 * len(flat) // 3, "SHOW INDEXES"),
        (len(flat), "DROP INDEX IF EXISTS serving_ivf"),
    ]
    ddl_positions = set()
    for offset, (pos, statement) in enumerate(ddl):
        flat.insert(pos + offset, statement)
        ddl_positions.add(pos + offset)
    return flat, ddl_positions


def _build_session(dataset, model) -> Session:
    session = Session(tensor_cache_bytes=0)
    setup_multimodal(session, dataset, model)
    return session


def _snapshot(result):
    return {name: np.asarray(result.column(name))
            for name in result.column_names}


def _assert_identical(serial, concurrent, ddl_positions):
    compared = 0
    for i, (a, b) in enumerate(zip(serial, concurrent)):
        if i in ddl_positions:
            continue             # DDL emits status text, ordering-dependent
        sa, sb = _snapshot(a), _snapshot(b)
        assert list(sa) == list(sb)
        for name in sa:
            np.testing.assert_array_equal(sa[name], sb[name])
        compared += 1
    return compared


class TestConcurrentServing:
    def test_throughput_and_bit_identity(self, benchmark, fig2_dataset,
                                         clip_model):
        """Acceptance gate: >= 2x throughput at workers=4, bit-identical."""
        workload, ddl_positions = _workload()

        serial_session = _build_session(fig2_dataset, clip_model)
        serial, serial_latencies = [], []
        start = time.perf_counter()
        for s in workload:
            t0 = time.perf_counter()
            serial.append(serial_session.sql.query(s, extra_config=CONFIG).run())
            serial_latencies.append(time.perf_counter() - t0)
        t_serial = time.perf_counter() - start

        serve_session = _build_session(fig2_dataset, clip_model)
        scheduler = QueryScheduler(serve_session, workers=WORKERS)
        start = time.perf_counter()
        concurrent = scheduler.map(workload, extra_config=CONFIG)
        t_concurrent = time.perf_counter() - start
        stats = scheduler.stats
        scheduler.shutdown()

        compared = _assert_identical(serial, concurrent, ddl_positions)
        assert compared >= len(workload) - len(ddl_positions)

        speedup = t_serial / max(t_concurrent, 1e-9)
        qps_serial = len(workload) / t_serial
        qps_concurrent = len(workload) / t_concurrent
        print_table(
            f"concurrent serving: {len(workload)} statements, {CLIENTS} "
            f"client streams, eviction-bound regime",
            ["mode", "seconds", "stmts/s", "speedup"],
            [["serialized", t_serial, qps_serial, 1.0],
             [f"serve(workers={WORKERS})", t_concurrent, qps_concurrent,
              speedup]],
        )
        print(f"scheduler: executed={stats['executed']} "
              f"coalesced={stats['coalesced']} "
              f"batcher={stats['batcher']}")
        record_metric(
            "concurrent_serving",
            speedup=round(speedup, 2), workers=WORKERS,
            statements=len(workload),
            serial_s=round(t_serial, 3), concurrent_s=round(t_concurrent, 3),
            coalesced=stats["coalesced"],
            encoder_joins=stats["batcher"]["joins"],
        )
        # Per-statement latency shape, both modes: serialized from wall-clock
        # samples, served from the engine's own query.latency_seconds
        # histogram (exercising the Session.metrics path end to end).
        record_latency_metric("serialized_serving_latency", serial_latencies)
        served = serve_session.metrics.snapshot().get("query.latency_seconds", {})
        if served.get("count"):
            record_metric(
                "concurrent_serving_latency",
                count=served["count"],
                mean_ms=round(served["mean"] * 1e3, 3),
                p50=round(served["p50"] * 1e3, 3),
                p95=round(served["p95"] * 1e3, 3),
                p99=round(served["p99"] * 1e3, 3),
            )
        assert stats["coalesced"] > 0
        assert speedup >= 2.0
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_distinct_statements_share_inference(self, benchmark,
                                                 fig2_dataset, clip_model):
        """With no duplicate statements at all, concurrent queries still
        share corpus encodes through the inference batcher, bit-identically
        (every encode stays a per-request-shaped forward)."""
        statements = [
            f"SELECT attachment_id, image_text_similarity('{text}', images) "
            f"AS score FROM Attachments ORDER BY score DESC LIMIT 10"
            for text in TOPK_TEXTS[:4]
        ]
        serial_session = _build_session(fig2_dataset, clip_model)
        start = time.perf_counter()
        serial = [serial_session.sql.query(s, extra_config=CONFIG).run()
                  for s in statements]
        t_serial = time.perf_counter() - start

        serve_session = _build_session(fig2_dataset, clip_model)
        scheduler = QueryScheduler(serve_session, workers=WORKERS)
        start = time.perf_counter()
        concurrent = scheduler.map(statements, extra_config=CONFIG)
        t_concurrent = time.perf_counter() - start
        stats = scheduler.stats
        scheduler.shutdown()

        _assert_identical(serial, concurrent, set())
        assert stats["coalesced"] == 0            # nothing to coalesce...
        assert stats["batcher"]["joins"] > 0      # ...sharing is the batcher
        print_table(
            "distinct-statement serving (batcher dedup only)",
            ["mode", "seconds", "encoder joins"],
            [["serialized", t_serial, 0],
             [f"serve(workers={WORKERS})", t_concurrent,
              stats["batcher"]["joins"]]],
        )
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_serving_with_cache_matches_serial(self, benchmark, fig2_dataset,
                                               clip_model):
        """Default (cache-on) serving returns the serialized results too;
        the tensor cache and the batcher compose."""
        statements = _client_statements() * 2
        serial_session = Session()
        setup_multimodal(serial_session, fig2_dataset, clip_model)
        serial = [serial_session.sql.query(s, extra_config=CONFIG).run()
                  for s in statements]

        serve_session = Session()
        setup_multimodal(serve_session, fig2_dataset, clip_model)
        concurrent = serve_session.serve(statements, workers=WORKERS,
                                         extra_config=CONFIG)
        for a, b in zip(serial, concurrent):
            sa, sb = _snapshot(a), _snapshot(b)
            assert list(sa) == list(sb)
            for name in sa:
                np.testing.assert_allclose(sa[name], sb[name], rtol=1e-6)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
