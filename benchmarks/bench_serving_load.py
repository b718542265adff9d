"""Latency under load for the serving front door (ROADMAP item 3).

Three legs:

1. **Closed-loop client sweep** — 1/4/8 concurrent clients each stream
   statements back-to-back through the scheduler; per-request p50/p99 land
   in BENCH_RESULTS.json per client count. Service time is pinned by a
   sleeping UDF, so the numbers measure *queueing*, not machine speed.

2. **Overload + admission control (the gate)** — a burst far larger than
   the pool is submitted at once, with and without a queue-depth cap.
   Without admission control every request is admitted and p99 grows with
   the whole backlog (uncontrolled-queueing collapse: at 2x overload the
   last request waits behind everything). With ``max_queue_depth`` set,
   excess requests shed immediately with the typed ``ServerOverloaded``
   and the p99 of *admitted* requests stays bounded by the cap — the gate
   asserts shedding halves the admitted p99 and that the bound scales with
   the cap, not the burst.

3. **Async bit-identity** — statements awaited on an event loop through
   ``asyncio.wrap_future(scheduler.submit(...))`` (what the HTTP server's
   ``/query`` does) over a mixed Fig-2 workload (top-k similarity + filters
   + aggregates) return bit-identical results to the synchronous
   ``query().run()`` path.
"""

import asyncio
import time

import numpy as np

from repro.bench.harness import (percentiles, print_table,
                                 record_latency_metric, record_metric, scaled)
from repro.apps.multimodal import setup_multimodal
from repro.core.scheduler import QueryScheduler
from repro.core.session import Session
from repro.errors import ServerOverloaded
from repro.tcr.tensor import Tensor

SERVICE_SLEEP = 0.002     # seconds of pinned service time per statement
ROWS = 8
WORKERS = 2


def _serving_session() -> Session:
    session = Session()
    rng = np.random.default_rng(3)
    session.sql.register_dict(
        {"k": np.arange(ROWS, dtype=np.int64),
         "v": rng.normal(size=ROWS).astype(np.float32)},
        "t",
    )

    @session.udf("float", name="pause", deterministic=False)
    def pause(v: Tensor) -> Tensor:
        time.sleep(SERVICE_SLEEP)
        return v

    return session


STATEMENT = "SELECT SUM(pause(v)) FROM t"


def _client_latencies(scheduler, requests: int, client: str) -> list:
    """One closed-loop client: submit, wait, measure, repeat."""
    latencies = []
    for _ in range(requests):
        start = time.perf_counter()
        scheduler.submit(STATEMENT, client=client).result(timeout=60)
        latencies.append(time.perf_counter() - start)
    return latencies


class TestServingLoad:
    def test_latency_under_rising_client_counts(self, benchmark):
        """Closed-loop sweep: p50/p99 per client count into BENCH_RESULTS."""
        import threading
        per_client = scaled(12, minimum=6)
        rows = []
        for clients in (1, 4, 8):
            session = _serving_session()
            scheduler = QueryScheduler(session, workers=WORKERS)
            all_latencies = []
            threads = []
            errors = []

            def run(cid):
                try:
                    all_latencies.extend(
                        _client_latencies(scheduler, per_client, f"c{cid}"))
                except BaseException as exc:   # noqa: BLE001
                    errors.append(exc)

            start = time.perf_counter()
            for cid in range(clients):
                thread = threading.Thread(target=run, args=(cid,))
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join(timeout=120)
            elapsed = time.perf_counter() - start
            scheduler.shutdown()
            assert not errors, errors[0]
            pcts = percentiles([s * 1e3 for s in all_latencies])
            rows.append([clients, len(all_latencies),
                         len(all_latencies) / elapsed,
                         pcts["p50"], pcts["p99"]])
            record_latency_metric(f"serving_load_clients_{clients}",
                                  all_latencies, clients=clients,
                                  workers=WORKERS)
        print_table(
            f"closed-loop serving load (workers={WORKERS}, "
            f"service={SERVICE_SLEEP * 1e3:.0f}ms)",
            ["clients", "requests", "req/s", "p50 ms", "p99 ms"], rows)
        # More clients than workers queue up: p99 must reflect that
        # (sanity that the sweep actually exercised contention).
        assert rows[-1][4] >= rows[0][4]
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_admission_control_bounds_p99_under_overload(self, benchmark):
        """The gate: with shedding on, overload p99 stays bounded by the
        queue cap instead of collapsing with the backlog size."""
        burst = scaled(200, minimum=48)
        cap = 4

        def overload(max_queue_depth):
            session = _serving_session()
            scheduler = QueryScheduler(session, workers=WORKERS,
                                       max_queue_depth=max_queue_depth)
            starts = {}
            latencies = []
            shed = 0
            futures = []
            for i in range(burst):
                try:
                    future = scheduler.submit(STATEMENT, client=f"c{i % 4}")
                except ServerOverloaded:
                    shed += 1
                    continue
                starts[id(future)] = time.perf_counter()
                futures.append(future)
            for future in futures:
                future.result(timeout=120)
                latencies.append(time.perf_counter() - starts[id(future)])
            stats = scheduler.stats
            scheduler.shutdown()
            return latencies, shed, stats

        uncontrolled, shed_off, _ = overload(None)
        bounded, shed_on, stats = overload(cap)

        p_unc = percentiles([s * 1e3 for s in uncontrolled])
        p_bnd = percentiles([s * 1e3 for s in bounded])
        print_table(
            f"overload burst={burst} (workers={WORKERS}, cap={cap}, "
            f"service={SERVICE_SLEEP * 1e3:.0f}ms)",
            ["mode", "admitted", "shed", "p50 ms", "p99 ms"],
            [["uncontrolled queue", len(uncontrolled), shed_off,
              p_unc["p50"], p_unc["p99"]],
             [f"max_queue_depth={cap}", len(bounded), shed_on,
              p_bnd["p50"], p_bnd["p99"]]],
        )
        record_metric(
            "serving_admission",
            burst=burst, workers=WORKERS, max_queue_depth=cap,
            uncontrolled_p99_ms=round(p_unc["p99"], 3),
            bounded_p99_ms=round(p_bnd["p99"], 3),
            shed=shed_on,
            p99_ratio=round(p_unc["p99"] / max(p_bnd["p99"], 1e-9), 2),
        )
        assert shed_off == 0
        assert shed_on > 0
        assert stats["shed"] == shed_on
        # The collapse gate: every uncontrolled request waits behind the
        # whole backlog, so its p99 tracks the burst size; the capped
        # queue's p99 tracks (cap + workers) service times. Shedding must
        # at least halve the admitted p99 at this burst/cap ratio, and the
        # bound must scale with the cap (generous 8x slack for CI timer
        # jitter), not the burst.
        assert p_bnd["p99"] <= p_unc["p99"] / 2.0
        assert p_bnd["p99"] <= (cap + WORKERS) * SERVICE_SLEEP * 1e3 * 8.0
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_awaited_bit_identical_on_fig2_workload(self, benchmark,
                                                   fig2_dataset, clip_model):
        """Awaited scheduler results are byte-for-byte what
        ``query().run()`` returns on the mixed Fig-2 workload."""
        config = {"disable_rules": ("vector_index",)}
        statements = []
        for text in ["KFC Receipt", "beach sunset",
                     "a photo of a dog"][:scaled(3, minimum=2)]:
            statements.append(
                f"SELECT attachment_id, image_text_similarity('{text}', images) "
                f"AS score FROM Attachments ORDER BY score DESC LIMIT 10")
        statements.append(
            "SELECT COUNT(*) FROM Attachments "
            "WHERE image_text_similarity('receipt', images) > 0.8")
        statements.append("SELECT COUNT(*) FROM Attachments")

        sync_session = Session()
        setup_multimodal(sync_session, fig2_dataset, clip_model)
        sync_results = [sync_session.sql.query(s, extra_config=config).run()
                        for s in statements]

        async_session = Session()
        setup_multimodal(async_session, fig2_dataset, clip_model)

        scheduler = QueryScheduler(async_session, workers=WORKERS)

        async def run():
            return await asyncio.gather(*[
                asyncio.wrap_future(scheduler.submit(s, extra_config=config))
                for s in statements * 2])

        try:
            async_results = asyncio.run(run())
        finally:
            scheduler.shutdown()
        for i, result in enumerate(async_results):
            expected = sync_results[i % len(statements)]
            assert result.column_names == expected.column_names
            for name in expected.column_names:
                np.testing.assert_array_equal(
                    np.asarray(result.column(name)),
                    np.asarray(expected.column(name)))
        record_metric("serving_async_identity",
                      statements=len(async_results), bit_identical=True)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
