"""The serving front door: async surface, admission control, fairness,
priority/SLO dequeue, and the asyncio HTTP/JSON server (ROADMAP item 3)."""

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.core.scheduler import QueryScheduler
from repro.core.server import TdpServer
from repro.core.session import Session
from repro.errors import QueryDeadlineExceeded, ServerOverloaded
from repro.tcr.tensor import Tensor


def _numeric_session(rows: int = 64) -> Session:
    session = Session()
    rng = np.random.default_rng(7)
    session.sql.register_dict(
        {"k": np.arange(rows, dtype=np.int64) % 8,
         "v": rng.normal(size=rows).astype(np.float32)},
        "t",
    )
    return session


def _snapshot(result):
    return {name: np.asarray(result.column(name))
            for name in result.column_names}


def _register_gate(session, name="gate"):
    """A UDF that blocks until the returned event is set — the test's way
    of pinning scheduler workers so a queue builds up deterministically."""
    release = threading.Event()

    @session.udf("float", name=name, deterministic=False)
    def gate(v: Tensor) -> Tensor:
        assert release.wait(timeout=30), "gate never released"
        return v

    return release


STATEMENTS = [
    "SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY k",
    "SELECT COUNT(*) FROM t WHERE v > 0",
    "SELECT k, v FROM t WHERE k < 3 ORDER BY v DESC LIMIT 5",
    "SELECT MAX(v) FROM t",
]


class TestAsyncSurface:
    def test_aquery_matches_sync_query(self):
        session = _numeric_session()

        async def run():
            return [await session.aquery(s) for s in STATEMENTS]

        async_results = asyncio.run(run())
        sync_results = [session.sql.query(s).run() for s in STATEMENTS]
        for a, b in zip(async_results, sync_results):
            sa, sb = _snapshot(a), _snapshot(b)
            assert list(sa) == list(sb)
            for name in sa:
                np.testing.assert_array_equal(sa[name], sb[name])

    def test_concurrent_aquery_fan_in(self):
        """Many aquery coroutines in flight at once on one event loop all
        land, in order, with per-statement-correct results."""
        session = _numeric_session()
        expected = [session.sql.query(s).run() for s in STATEMENTS]

        async def run():
            return await session.aserve(STATEMENTS * 8)

        results = asyncio.run(run())
        assert len(results) == len(STATEMENTS) * 8
        for i, result in enumerate(results):
            sa = _snapshot(result)
            sb = _snapshot(expected[i % len(STATEMENTS)])
            assert list(sa) == list(sb)
            for name in sa:
                np.testing.assert_array_equal(sa[name], sb[name])

    def test_aquery_does_not_block_the_loop(self):
        """While a slow statement runs on the pool, the event loop keeps
        ticking (the bridge must never run the query on the loop thread)."""
        session = _numeric_session()

        @session.udf("float", name="naptime", deterministic=False)
        def naptime(v: Tensor) -> Tensor:
            time.sleep(0.2)
            return v

        ticks = []

        async def ticker():
            for _ in range(10):
                ticks.append(time.monotonic())
                await asyncio.sleep(0.01)

        async def run():
            query = session.aquery("SELECT SUM(naptime(v)) FROM t")
            result, _ = await asyncio.gather(query, ticker())
            return result

        result = asyncio.run(run())
        assert len(result) == 1
        assert len(ticks) == 10
        # The loop ticked during the 200ms sleep: gaps stay ~10ms, not one
        # 200ms stall.
        gaps = np.diff(ticks)
        assert float(np.max(gaps)) < 0.15


class TestAdmissionControl:
    def test_queue_depth_cap_sheds_with_reject(self):
        session = _numeric_session()
        release = _register_gate(session)
        scheduler = QueryScheduler(session, workers=1, max_queue_depth=2,
                                   coalesce=False)
        try:
            blocker = scheduler.submit("SELECT SUM(gate(v)) FROM t")
            time.sleep(0.05)          # let the worker pick the blocker up
            queued = [scheduler.submit(s) for s in STATEMENTS[:2]]
            with pytest.raises(ServerOverloaded) as excinfo:
                scheduler.submit(STATEMENTS[2])
            assert excinfo.value.reason == "queue_full"
            release.set()
            for f in [blocker, *queued]:
                f.result(timeout=30)
            stats = scheduler.stats
            assert stats["shed"] == 1
            assert stats["admitted"] == 3
            assert session.metrics.snapshot()["scheduler.shed"] == 1
        finally:
            release.set()
            scheduler.shutdown()

    def test_full_queue_never_displaces_a_queued_request(self):
        """At the cap the newcomer is rejected; what already waits in the
        queue keeps its place and completes with the serial result."""
        session = _numeric_session()
        release = _register_gate(session)
        expected = _snapshot(session.sql.query(STATEMENTS[0]).run())
        scheduler = QueryScheduler(session, workers=1, max_queue_depth=1,
                                   coalesce=False)
        try:
            blocker = scheduler.submit("SELECT SUM(gate(v)) FROM t")
            time.sleep(0.05)
            queued = scheduler.submit(STATEMENTS[0])
            with pytest.raises(ServerOverloaded) as excinfo:
                scheduler.submit(STATEMENTS[1])
            assert excinfo.value.reason == "queue_full"
            release.set()
            got = _snapshot(queued.result(timeout=30))
            assert list(got) == list(expected)
            for name in got:
                np.testing.assert_array_equal(got[name], expected[name])
            blocker.result(timeout=30)
            assert scheduler.stats["shed"] == 1
        finally:
            release.set()
            scheduler.shutdown()

    def test_deadline_lapsed_in_queue_is_dropped(self):
        session = _numeric_session()
        release = _register_gate(session)
        scheduler = QueryScheduler(session, workers=1, coalesce=False)
        try:
            blocker = scheduler.submit("SELECT SUM(gate(v)) FROM t")
            time.sleep(0.05)
            doomed = scheduler.submit(STATEMENTS[0],
                                      extra_config={"deadline": 0.01})
            time.sleep(0.1)           # let the budget lapse while queued
            release.set()
            with pytest.raises(QueryDeadlineExceeded):
                doomed.result(timeout=30)
            blocker.result(timeout=30)
            assert scheduler.stats["deadline_missed"] == 1
            assert session.metrics.snapshot()["scheduler.deadline_missed"] == 1
        finally:
            release.set()
            scheduler.shutdown()

    def test_priority_request_overtakes_bulk_backlog(self):
        session = _numeric_session()
        release = _register_gate(session)
        scheduler = QueryScheduler(session, workers=1, coalesce=False)
        order = []
        try:
            blocker = scheduler.submit("SELECT SUM(gate(v)) FROM t")
            time.sleep(0.05)
            bulk = []
            for i in range(4):
                f = scheduler.submit(STATEMENTS[i % len(STATEMENTS)])
                f.add_done_callback(
                    lambda _f, i=i: order.append(("bulk", i)))
                bulk.append(f)
            urgent = scheduler.submit(STATEMENTS[0],
                                      extra_config={"priority": 5})
            urgent.add_done_callback(lambda _f: order.append(("urgent", 0)))
            release.set()
            for f in [blocker, urgent, *bulk]:
                f.result(timeout=30)
            # The priority-5 request was submitted last but dequeued first.
            assert order[0] == ("urgent", 0)
        finally:
            release.set()
            scheduler.shutdown()

    def test_round_robin_fairness_under_greedy_client(self):
        """One greedy client's backlog cannot starve another client: the
        polite client's lone request dequeues after at most one greedy
        statement, not after all of them."""
        session = _numeric_session()
        release = _register_gate(session)
        scheduler = QueryScheduler(session, workers=1, coalesce=False)
        order = []
        try:
            blocker = scheduler.submit("SELECT SUM(gate(v)) FROM t",
                                       client="greedy")
            time.sleep(0.05)
            greedy = []
            for i in range(8):
                f = scheduler.submit(STATEMENTS[i % len(STATEMENTS)],
                                     client="greedy")
                f.add_done_callback(
                    lambda _f, i=i: order.append(("greedy", i)))
                greedy.append(f)
            polite = scheduler.submit(STATEMENTS[0], client="polite")
            polite.add_done_callback(lambda _f: order.append(("polite", 0)))
            release.set()
            for f in [blocker, polite, *greedy]:
                f.result(timeout=30)
            polite_pos = order.index(("polite", 0))
            assert polite_pos <= 1, order
        finally:
            release.set()
            scheduler.shutdown()

    def test_serving_knob_validation(self):
        from repro.core.config import QueryConfig
        with pytest.raises(ValueError):
            QueryConfig({"max_queue_depth": 0}).max_queue_depth
        with pytest.raises(ValueError):
            QueryConfig({"priority": "high"}).priority
        with pytest.raises(ValueError):
            QueryConfig({"deadline": -1}).deadline
        config = QueryConfig({"priority": 3, "deadline": 0.5,
                              "scheduler_workers": 2})
        assert config.priority == 3
        assert config.deadline == 0.5
        assert config.scheduler_workers == 2
        # Serving knobs enter the fingerprint like every other knob.
        assert QueryConfig().fingerprint() != config.fingerprint()


async def _http(port, method, path, body=None, client=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = (f"{method} {path} HTTP/1.1\r\nhost: t\r\n"
            f"content-length: {len(payload)}\r\n")
    if client:
        head += f"x-tdp-client: {client}\r\n"
    head += "connection: close\r\n\r\n"
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split()[1])
    return status, json.loads(body_blob)


class TestHttpServer:
    def test_query_round_trip_over_real_socket(self):
        session = _numeric_session()

        async def run():
            server = TdpServer(session, port=0, workers=2)
            await server.start()
            try:
                status, payload = await _http(
                    server.port, "POST", "/query",
                    {"statement": STATEMENTS[0]}, client="c1")
                assert status == 200
                expected = session.sql.query(STATEMENTS[0]).run()
                assert payload["rows"] == len(expected)
                np.testing.assert_allclose(
                    payload["columns"]["s"],
                    np.asarray(expected.column("s")), rtol=1e-6)

                status, health = await _http(server.port, "GET", "/health")
                assert status == 200 and health["status"] == "ok"

                status, metrics = await _http(server.port, "GET", "/metrics")
                assert status == 200
                assert metrics["scheduler.admitted"] >= 1
            finally:
                await server.stop()

        asyncio.run(run())

    def test_submit_then_poll_result(self):
        session = _numeric_session()

        async def run():
            server = TdpServer(session, port=0, workers=2)
            await server.start()
            try:
                status, accepted = await _http(
                    server.port, "POST", "/submit",
                    {"statement": "SELECT COUNT(*) FROM t"}, client="c1")
                assert status == 202
                qid = accepted["query_id"]
                for _ in range(100):
                    status, result = await _http(
                        server.port, "GET", f"/result/{qid}", client="c1")
                    if result.get("status") == "done":
                        break
                    await asyncio.sleep(0.02)
                assert status == 200 and result["status"] == "done"
                assert result["columns"]["COUNT(*)"] == [64]
                # Results deliver once; ids are scoped per client.
                status, again = await _http(
                    server.port, "GET", f"/result/{qid}", client="c1")
                assert status == 404
                status, other = await _http(
                    server.port, "GET", f"/result/{qid}", client="c2")
                assert status == 404
            finally:
                await server.stop()

        asyncio.run(run())

    def test_explain_endpoint(self):
        session = _numeric_session()

        async def run():
            server = TdpServer(session, port=0, workers=1)
            await server.start()
            try:
                status, payload = await _http(
                    server.port, "POST", "/explain",
                    {"statement": STATEMENTS[0]})
                assert status == 200
                assert any("EXPLAIN" in line for line in payload["plan"])
                assert len(payload["plan"]) > 1
            finally:
                await server.stop()

        asyncio.run(run())

    def test_overload_returns_typed_503(self):
        session = _numeric_session()
        release = _register_gate(session)

        async def run():
            server = TdpServer(session, port=0, workers=1, max_queue_depth=1)
            await server.start()
            try:
                blocker = asyncio.create_task(_http(
                    server.port, "POST", "/query",
                    {"statement": "SELECT SUM(gate(v)) FROM t"}, client="c1"))
                await asyncio.sleep(0.1)   # worker now pinned on the gate
                filler = asyncio.create_task(_http(
                    server.port, "POST", "/query",
                    {"statement": STATEMENTS[0]}, client="c1"))
                await asyncio.sleep(0.05)  # queue now holds one request
                status, payload = await _http(
                    server.port, "POST", "/query",
                    {"statement": STATEMENTS[1]}, client="c2")
                assert status == 503
                assert payload["error"]["type"] == "ServerOverloaded"
                assert payload["error"]["reason"] == "queue_full"
                release.set()
                status, _ = await blocker
                assert status == 200
                status, _ = await filler
                assert status == 200
            finally:
                release.set()
                await server.stop()

        asyncio.run(run())

    def test_malformed_requests_get_400_not_a_crash(self):
        session = _numeric_session()

        async def run():
            server = TdpServer(session, port=0, workers=1)
            await server.start()
            try:
                status, payload = await _http(
                    server.port, "POST", "/query", {"wrong": "shape"})
                assert status == 400
                status, payload = await _http(
                    server.port, "POST", "/query",
                    {"statement": "SELECT nonsense FROM nowhere"})
                assert status == 400
                assert "error" in payload
                # The server survived both: a good request still works.
                status, _ = await _http(server.port, "POST", "/query",
                                        {"statement": STATEMENTS[1]})
                assert status == 200
            finally:
                await server.stop()

        asyncio.run(run())


class TestPendingResultHygiene:
    """Regression: undelivered /submit results must not accumulate forever
    for clients that never poll (per-client cap + TTL eviction)."""

    def test_pending_cap_returns_typed_503(self):
        session = _numeric_session()

        async def run():
            server = TdpServer(session, port=0, workers=2,
                               max_pending_per_client=3,
                               result_ttl_seconds=300.0)
            await server.start()
            try:
                for _ in range(3):
                    status, _ = await _http(
                        server.port, "POST", "/submit",
                        {"statement": "SELECT COUNT(*) FROM t"}, client="c1")
                    assert status == 202
                status, payload = await _http(
                    server.port, "POST", "/submit",
                    {"statement": "SELECT COUNT(*) FROM t"}, client="c1")
                assert status == 503
                assert payload["error"]["type"] == "ServerOverloaded"
                assert payload["error"]["reason"] == "too_many_pending"
                # The cap is per client: a polite client is unaffected.
                status, _ = await _http(
                    server.port, "POST", "/submit",
                    {"statement": "SELECT COUNT(*) FROM t"}, client="c2")
                assert status == 202
                # Draining one result frees the slot.
                for _ in range(100):
                    status, result = await _http(
                        server.port, "GET", "/result/1", client="c1")
                    if result.get("status") == "done":
                        break
                    await asyncio.sleep(0.02)
                assert status == 200
                status, _ = await _http(
                    server.port, "POST", "/submit",
                    {"statement": "SELECT COUNT(*) FROM t"}, client="c1")
                assert status == 202
            finally:
                await server.stop()

        asyncio.run(run())

    def test_abandoned_results_are_ttl_evicted(self):
        session = _numeric_session()

        async def run():
            server = TdpServer(session, port=0, workers=2,
                               result_ttl_seconds=0.05)
            await server.start()
            try:
                status, accepted = await _http(
                    server.port, "POST", "/submit",
                    {"statement": "SELECT COUNT(*) FROM t"}, client="c1")
                assert status == 202
                qid = accepted["query_id"]
                # Wait for the result to materialize, then abandon it.
                pending = server._clients["c1"]
                for _ in range(100):
                    if pending[qid][0].done():
                        break
                    await asyncio.sleep(0.02)
                await asyncio.sleep(0.1)   # let the TTL lapse
                status, payload = await _http(
                    server.port, "GET", f"/result/{qid}", client="c1")
                assert status == 404
                assert server.results_evicted == 1
                assert qid not in pending
                status, health = await _http(server.port, "GET", "/health")
                assert status == 200 and health["results_evicted"] == 1
                assert health["clients"] == 0
            finally:
                await server.stop()

        asyncio.run(run())


async def _poll_done(port, query_id, client):
    """Poll GET /result/<id> until it stops answering "pending"."""
    for _ in range(200):
        status, result = await _http(port, "GET", f"/result/{query_id}",
                                     client=client)
        if result.get("status") != "pending":
            return status, result
        await asyncio.sleep(0.02)
    raise AssertionError(f"query {query_id} still pending")


class TestClientTable:
    """The server keeps per-client state only for clients with undelivered
    /submit results. Anonymous clients are keyed by ip:port, so every
    connection is a new client, dropped when it closes: anything else would
    grow without bound."""

    @staticmethod
    def _serve(session, scenario, **server_args):
        async def run():
            server = TdpServer(session, port=0, workers=2, **server_args)
            await server.start()
            try:
                await scenario(server)
            finally:
                await server.stop()

        asyncio.run(run())

    def test_anonymous_queries_leave_no_client_state(self):
        async def scenario(server):
            for _ in range(50):
                status, _ = await _http(server.port, "POST", "/query",
                                        {"statement": STATEMENTS[1]})
                assert status == 200
            status, health = await _http(server.port, "GET", "/health")
            assert status == 200 and health["clients"] == 0

        self._serve(_numeric_session(), scenario)

    def test_anonymous_submits_leave_with_their_connections(self):
        async def scenario(server):
            for _ in range(20):      # never polled; each connection closes
                status, _ = await _http(server.port, "POST", "/submit",
                                        {"statement": STATEMENTS[1]})
                assert status == 202
            status, health = await _http(server.port, "GET", "/health")
            assert status == 200 and health["clients"] == 0
            assert health["results_evicted"] == 20

        self._serve(_numeric_session(), scenario)

    def test_abandoned_result_swept_by_another_clients_submit(self):
        async def scenario(server):
            status, accepted = await _http(
                server.port, "POST", "/submit",
                {"statement": STATEMENTS[1]}, client="c1")
            assert status == 202
            future, _ = server._clients["c1"][accepted["query_id"]]
            for _ in range(100):
                if future.done():
                    break
                await asyncio.sleep(0.02)
            await asyncio.sleep(0.1)              # let the TTL lapse
            status, _ = await _http(server.port, "POST", "/submit",
                                    {"statement": STATEMENTS[1]}, client="c2")
            assert status == 202
            assert list(server._clients) == ["c2"]
            _, health = await _http(server.port, "GET", "/health")
            assert health["clients"] == 1 and health["results_evicted"] == 1

        self._serve(_numeric_session(), scenario, result_ttl_seconds=0.05)

    def test_explain_leaves_no_client_state(self):
        async def scenario(server):
            status, _ = await _http(server.port, "POST", "/explain",
                                    {"statement": STATEMENTS[0]}, client="c1")
            assert status == 200
            assert not server._clients

        self._serve(_numeric_session(), scenario)

    def test_result_for_unknown_client_is_404_without_state(self):
        async def scenario(server):
            status, payload = await _http(server.port, "GET", "/result/1",
                                          client="ghost")
            assert status == 404
            assert payload["error"]["type"] == "NotFound"
            assert not server._clients

        self._serve(_numeric_session(), scenario)

    def test_delivered_result_drops_the_client(self):
        async def scenario(server):
            status, accepted = await _http(
                server.port, "POST", "/submit",
                {"statement": STATEMENTS[1]}, client="c1")
            assert status == 202
            _, health = await _http(server.port, "GET", "/health")
            assert health["clients"] == 1
            status, result = await _poll_done(
                server.port, accepted["query_id"], "c1")
            assert status == 200 and result["status"] == "done"
            _, health = await _http(server.port, "GET", "/health")
            assert health["clients"] == 0

        self._serve(_numeric_session(), scenario)

    def test_failed_result_delivery_drops_the_client(self):
        session = _numeric_session()

        @session.udf("float", name="boom", deterministic=False)
        def boom(v: Tensor) -> Tensor:
            raise ValueError("boom")

        async def scenario(server):
            status, accepted = await _http(
                server.port, "POST", "/submit",
                {"statement": "SELECT SUM(boom(v)) FROM t"}, client="c1")
            assert status == 202
            status, result = await _poll_done(
                server.port, accepted["query_id"], "c1")
            assert status == 400 and result["status"] == "error"
            assert not server._clients

        self._serve(session, scenario)

    def test_query_ids_are_never_reused(self):
        """Ids come from one server-wide counter: a client whose entry was
        dropped never sees an id it was already given, and two clients
        never share one."""
        async def scenario(server):
            ids = []
            for client in ("c1", "c2", "c1"):
                status, accepted = await _http(
                    server.port, "POST", "/submit",
                    {"statement": STATEMENTS[1]}, client=client)
                assert status == 202
                ids.append(accepted["query_id"])
                status, _ = await _poll_done(server.port, ids[-1], client)
                assert status == 200
            assert not server._clients
            assert ids == sorted(set(ids))

        self._serve(_numeric_session(), scenario)


class TestServeCli:
    def test_parser_defaults(self):
        from repro.serve import make_parser
        args = make_parser().parse_args([])
        assert (args.host, args.port) == ("127.0.0.1", 8734)
        assert args.workers == 4 and args.max_queue_depth == 64
        assert not args.demo

    @pytest.mark.parametrize("flag", ["--batch-window", "--shed-policy"])
    def test_removed_flags_are_rejected(self, flag, capsys):
        from repro.serve import make_parser
        with pytest.raises(SystemExit):
            make_parser().parse_args([flag, "1"])
        assert "unrecognized arguments" in capsys.readouterr().err
