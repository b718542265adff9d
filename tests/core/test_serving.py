"""The serving front door: the scheduler bridged onto an event loop,
admission control, per-client fairness, and the asyncio HTTP/JSON server."""

import asyncio
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.scheduler import QueryScheduler
from repro.core.server import TdpServer
from repro.core.session import Session
from repro.errors import ServerOverloaded
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


async def _gather(scheduler, statements):
    """Await every statement on the running loop, as ``/query`` does."""
    return await asyncio.gather(*[asyncio.wrap_future(scheduler.submit(s))
                                  for s in statements])


class TestAsyncSurface:
    def test_awaited_results_match_sync_query(self):
        session = _numeric_session()
        scheduler = QueryScheduler(session, workers=4)
        try:
            async_results = asyncio.run(_gather(scheduler, STATEMENTS))
        finally:
            scheduler.shutdown()
        sync_results = [session.sql.query(s).run() for s in STATEMENTS]
        for a, b in zip(async_results, sync_results):
            sa, sb = _snapshot(a), _snapshot(b)
            assert list(sa) == list(sb)
            for name in sa:
                np.testing.assert_array_equal(sa[name], sb[name])

    def test_concurrent_awaits_fan_in(self):
        """Many awaited statements in flight at once on one event loop all
        land, in order, with per-statement-correct results."""
        session = _numeric_session()
        expected = [session.sql.query(s).run() for s in STATEMENTS]
        scheduler = QueryScheduler(session, workers=4)
        try:
            results = asyncio.run(_gather(scheduler, STATEMENTS * 8))
        finally:
            scheduler.shutdown()
        assert len(results) == len(STATEMENTS) * 8
        for i, result in enumerate(results):
            sa = _snapshot(result)
            sb = _snapshot(expected[i % len(STATEMENTS)])
            assert list(sa) == list(sb)
            for name in sa:
                np.testing.assert_array_equal(sa[name], sb[name])

    def test_query_does_not_block_the_loop(self):
        """While a slow statement runs on the pool, the server's event loop
        keeps ticking (it must never run the query on the loop thread)."""
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
            server = TdpServer(session, port=0, workers=1)
            await server.start()
            try:
                query = _http(server.port, "POST", "/query",
                              {"statement": "SELECT SUM(naptime(v)) FROM t"})
                (status, payload), _ = await asyncio.gather(query, ticker())
                return status, payload
            finally:
                await server.stop()

        status, payload = asyncio.run(run())
        assert status == 200 and payload["rows"] == 1
        assert len(ticks) == 10
        # The loop ticked during the 200ms sleep: gaps stay ~10ms, not one
        # 200ms stall.
        gaps = np.diff(ticks)
        assert float(np.max(gaps)) < 0.15


class TestAdmissionControl:
    def test_queue_depth_cap_sheds_with_reject(self):
        session = _numeric_session()
        release = _register_gate(session)
        scheduler = QueryScheduler(session, workers=1, max_queue_depth=2)
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
        scheduler = QueryScheduler(session, workers=1, max_queue_depth=1)
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

    def test_client_table_is_bounded_by_the_queue(self):
        """Ten clients against a four-deep queue: four are admitted, six
        are shed, and the per-client table never holds more clients than
        queued jobs; it empties once the backlog drains."""
        session = _numeric_session()
        release = _register_gate(session)
        scheduler = QueryScheduler(session, workers=1, max_queue_depth=4)
        try:
            blocker = scheduler.submit("SELECT SUM(gate(v)) FROM t",
                                       client="blocker")
            for _ in range(500):      # until the worker holds the blocker
                if scheduler.queue_depth == 0:
                    break
                time.sleep(0.01)
            admitted, shed = [], []
            for i in range(10):
                try:
                    admitted.append(scheduler.submit(
                        STATEMENTS[i % len(STATEMENTS)], client=f"c{i}"))
                except ServerOverloaded as exc:
                    shed.append(exc.reason)
                assert len(scheduler._queues) <= 4
            assert len(admitted) == 4
            assert shed == ["queue_full"] * 6
            assert scheduler.stats["shed"] == 6
            assert session.metrics.snapshot()["scheduler.shed"] == 6
            release.set()
            for f in [blocker, *admitted]:
                f.result(timeout=30)
            assert scheduler.queue_depth == 0
            assert not scheduler._queues
        finally:
            release.set()
            scheduler.shutdown()

    def test_round_robin_fairness_under_greedy_client(self):
        """One greedy client's backlog cannot starve another client: the
        polite client's lone request dequeues after at most one greedy
        statement, not after all of them."""
        session = _numeric_session()
        release = _register_gate(session)
        scheduler = QueryScheduler(session, workers=1)
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
                assert status == 200
                assert health == {"status": "ok", "queue_depth": 0}

                status, metrics = await _http(server.port, "GET", "/metrics")
                assert status == 200
                assert metrics["scheduler.admitted"] >= 1
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


class TestRequestBody:
    """A body carries ``statement``, ``device`` and ``extra_config``; any
    other key is an error, and ``extra_config`` reaches the engine."""

    @staticmethod
    def _post(session, body):
        async def run():
            server = TdpServer(session, port=0, workers=1)
            await server.start()
            try:
                return await _http(server.port, "POST", "/query", body)
            finally:
                await server.stop()

        return asyncio.run(run())

    def test_unknown_body_key_is_rejected(self):
        status, payload = self._post(_numeric_session(), {
            "statement": STATEMENTS[1], "config": {"plan_cache": False}})
        assert status == 400
        message = payload["error"]["message"]
        assert "'config'" in message
        for key in ("statement", "device", "extra_config"):
            assert key in message

    def test_extra_config_reaches_the_engine(self):
        status, payload = self._post(_numeric_session(), {
            "statement": STATEMENTS[1], "extra_config": {"no_such_key": 1}})
        assert status == 400
        assert "unknown config key" in payload["error"]["message"]

    def test_valid_extra_config_is_accepted(self):
        session = _numeric_session()
        status, payload = self._post(session, {
            "statement": STATEMENTS[1], "device": "cpu",
            "extra_config": {"plan_cache": False}})
        assert status == 200
        assert payload["columns"]["COUNT(*)"] == [
            session.sql.query(STATEMENTS[1]).run().scalar()]


class TestClientTable:
    """The server keeps no per-client state: the ``x-tdp-client`` label
    lives in the scheduler's queue only while that client has queued work."""

    @staticmethod
    def _serve(session, scenario):
        async def run():
            server = TdpServer(session, port=0, workers=2)
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
            assert status == 200
            assert health == {"status": "ok", "queue_depth": 0}
            assert not server.scheduler._queues

        self._serve(_numeric_session(), scenario)

    def test_explain_leaves_no_client_state(self):
        async def scenario(server):
            status, _ = await _http(server.port, "POST", "/explain",
                                    {"statement": STATEMENTS[0]}, client="c1")
            assert status == 200
            assert not server.scheduler._queues

        self._serve(_numeric_session(), scenario)

    def test_delivered_result_drops_the_client(self):
        async def scenario(server):
            status, payload = await _http(server.port, "POST", "/query",
                                          {"statement": STATEMENTS[1]},
                                          client="c1")
            assert status == 200 and "COUNT(*)" in payload["columns"]
            assert not server.scheduler._queues
            _, health = await _http(server.port, "GET", "/health")
            assert health == {"status": "ok", "queue_depth": 0}

        self._serve(_numeric_session(), scenario)

    def test_failed_result_delivery_drops_the_client(self):
        session = _numeric_session()

        @session.udf("float", name="boom", deterministic=False)
        def boom(v: Tensor) -> Tensor:
            raise ValueError("boom")

        async def scenario(server):
            status, payload = await _http(
                server.port, "POST", "/query",
                {"statement": "SELECT SUM(boom(v)) FROM t"}, client="c1")
            assert status == 400
            assert payload["error"]["type"] == "UdfError"
            assert not server.scheduler._queues
            # The failure leaves the server serving the next request.
            status, _ = await _http(server.port, "POST", "/query",
                                    {"statement": STATEMENTS[1]}, client="c1")
            assert status == 200
            assert not server.scheduler._queues

        self._serve(session, scenario)

    @pytest.mark.parametrize("method, path", [("POST", "/submit"),
                                              ("GET", "/result/1")])
    def test_polling_endpoints_are_gone(self, method, path):
        async def scenario(server):
            status, payload = await _http(server.port, method, path,
                                          {"statement": STATEMENTS[1]},
                                          client="c1")
            assert status == 404
            assert payload["error"]["type"] == "NotFound"

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

    def test_command_serves_the_demo_and_exits_0_on_sigint(self):
        """``python -m repro.serve --port 0 --demo`` as a child process: it
        prints where it listens, answers ``/health`` and ``/query``, and a
        SIGINT shuts it down with exit status 0."""
        import repro
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", "--demo",
             "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
        lines = queue.Queue()

        def read():
            for line in child.stdout:
                lines.put(line)
            lines.put(None)         # the child closed its output

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        try:
            # The demo trains TinyCLIP first when no cached weights exist.
            deadline, port = time.monotonic() + 180, None
            while port is None:
                line = lines.get(timeout=max(deadline - time.monotonic(), 0.01))
                assert line is not None, "repro.serve exited before listening"
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                port = int(match.group(1)) if match else None
            base = f"http://127.0.0.1:{port}"
            with urllib.request.urlopen(f"{base}/health", timeout=30) as reply:
                assert reply.status == 200
                assert json.loads(reply.read())["status"] == "ok"
            request = urllib.request.Request(
                f"{base}/query", method="POST",
                data=json.dumps({"statement":
                                 "SELECT COUNT(*) AS n FROM Attachments"}).encode())
            with urllib.request.urlopen(request, timeout=30) as reply:
                assert reply.status == 200
                assert json.loads(reply.read())["columns"]["n"] == [200]
            child.send_signal(signal.SIGINT)
            assert child.wait(timeout=10) == 0
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            reader.join(timeout=5)
            child.stdout.close()
