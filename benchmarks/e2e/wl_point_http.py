"""``point_http``: point lookups through ``TdpServer`` over a real socket.

The server runs in a child process (``serve_fixture``); this process is the
load generator: two threads, each with one keep-alive connection.

* Phase A, open loop: request ``i`` is due at ``t0 + i / RATE``, whichever
  connection is free takes the next one, and its latency counts from the
  due time, so a stall charges every request queued behind it. Gives
  ``op_p50_ms`` (and, in the traced pass, ``op.p90_ms`` and ``server.p99_ms``).
* Phase B, closed loop: both connections send back to back. Gives
  ``ops_per_s``.

Phase A's 200 req/s is about a quarter of what phase B measures, so p50 is
service time and p90 is the wide responses and what queues behind them.

Both numbers are medians over slices of the window: ``op_p50_ms`` of the
median latency of each second of phase A, ``ops_per_s`` of the completions
in each half second of phase B. This host slows by a third for a few
seconds at a time; a slow spell moves the slices it covers and leaves their
median alone, where it would drag a pooled median up the hot class's long
upper half (over ten runs the pooled median spread 21.5%, the sliced one
17%; pooled throughput 11.7%, sliced 8.5%).

Bodies are checked after each phase, outside the timed path: status 200 and
every value equal to the numpy floor's answer.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import datagen
import probes
import reference
from harness import OpLog, Tracer, median, percentile, run_segments, slice_medians
from serve_fixture import ServerProcess, WORKERS, build_session, split_cpus

RATE = 200.0              # phase A, requests per second
CONNECTIONS = 2
PHASE_A_SHARE = 0.6
LATE_LIMIT_MS = 5.0
SPIN_S = 0.0005
SLICE_S = 0.5


class Connection:
    """One keep-alive HTTP/1.1 connection speaking just enough protocol."""

    def __init__(self, port: int, client: str):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.client = client
        self.buffer = b""

    def encode(self, statement: str) -> bytes:
        body = json.dumps({"statement": statement}).encode()
        return (f"POST /query HTTP/1.1\r\nhost: bench\r\nx-tdp-client: {self.client}\r\n"
                f"content-length: {len(body)}\r\n\r\n").encode() + body

    def get(self, path: str) -> Tuple[int, bytes]:
        return self.exchange(f"GET {path} HTTP/1.1\r\nhost: bench\r\n"
                             f"x-tdp-client: {self.client}\r\n\r\n".encode())

    def exchange(self, request: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(request)
        data = self.buffer
        while b"\r\n\r\n" not in data:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        parts, have = [rest], len(rest)
        while have < length:
            chunk = self.sock.recv(262144)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            parts.append(chunk)
            have += len(chunk)
        payload = b"".join(parts)
        self.buffer = payload[length:]
        return status, payload[:length]

    def close(self) -> None:
        self.sock.close()


@contextlib.contextmanager
def connected(port: int):
    """The generator's keep-alive connections, closed on the way out."""
    connections = [Connection(port, f"c{i}") for i in range(CONNECTIONS)]
    try:
        yield connections
    finally:
        for connection in connections:
            connection.close()


class _Sample:
    __slots__ = ("request", "due", "sent", "done", "status", "body", "error")

    def __init__(self, request):
        self.request = request
        self.due = self.sent = self.done = 0.0
        self.status = 0
        self.body = b""
        self.error: Optional[str] = None


def _send(connection: Connection, wire: bytes, sample: _Sample) -> None:
    try:
        sample.status, sample.body = connection.exchange(wire)
    except (OSError, ValueError) as exc:
        sample.error = f"{type(exc).__name__}: {exc}"
    sample.done = time.perf_counter()


def open_loop(connections: List[Connection], requests, rate: float):
    """Phase A. Returns the samples and the generator's own lateness (s)."""
    samples = [_Sample(r) for r in requests]
    lateness: List[float] = []
    backlog: List[Tuple[float, int]] = []
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def worker(connection: Connection) -> None:
        while True:
            free_at = time.perf_counter()
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(samples):
                return
            sample = samples[index]
            wire = connection.encode(sample.request[1])
            sample.due = start + index / rate
            # Sleep to just short of the due time, then yield in a loop: a
            # plain sleep wakes 0.1-0.3 ms late on this VM, a tenth of the
            # latency being measured.
            wait = sample.due - time.perf_counter() - SPIN_S
            if wait > 0:
                time.sleep(wait)
            while time.perf_counter() < sample.due:
                time.sleep(0)
            sample.sent = time.perf_counter()
            # Late is what the generator added on its own: past the due time
            # and past the moment this connection became free.
            lateness.append(sample.sent - max(sample.due, free_at))
            backlog.append((sample.sent - start,
                            max(int((sample.sent - start) * rate) - index, 0)))
            _send(connection, wire, sample)

    _run_threads(worker, connections)
    return samples, lateness, backlog


def closed_phase(connections: List[Connection], streams, seconds: float):
    """Phase B. Returns the samples and the requests completed per second in
    each ``SLICE_S`` of the window."""
    results: List[List[_Sample]] = [[] for _ in connections]
    start = time.perf_counter()
    deadline = start + seconds

    def worker(connection: Connection) -> None:
        slot = connections.index(connection)
        for request in streams[slot]:
            if time.perf_counter() >= deadline:
                return
            sample = _Sample(request)
            sample.due = sample.sent = time.perf_counter()
            _send(connection, connection.encode(request[1]), sample)
            results[slot].append(sample)

    _run_threads(worker, connections)
    samples = [s for part in results for s in part]
    width = min(SLICE_S, seconds)
    counts = [0] * int(seconds / width)
    for sample in samples:
        slot = int((sample.done - start) / width)
        if slot < len(counts):          # the last requests end past the window
            counts[slot] += 1
    return samples, [count / width for count in counts]


def _run_threads(worker, connections) -> None:
    threads = [threading.Thread(target=worker, args=(c,)) for c in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class Checker:
    """Response bodies against the numpy floor; one parse per distinct body."""

    def __init__(self, orders: Dict[str, np.ndarray], wrong_reference: bool):
        self.floor = reference.NumpyFloor(None, orders)
        self.wide_rows = min(datagen.WIDE_ROWS, len(orders["o_orderkey"]) // 2)
        self.wrong = wrong_reference
        self.verified: Dict[Tuple[str, int], bytes] = {}

    def problem(self, sample: _Sample) -> Optional[str]:
        if sample.error:
            return sample.error
        if sample.status != 200:
            return f"status {sample.status}: {sample.body[:120]!r}"
        kind, _, key = sample.request
        kind = "wide" if kind == "wide" else "point"
        if self.verified.get((kind, key)) == sample.body:
            return None
        if kind == "wide":
            want = self.floor.wide(key, self.wide_rows, datagen.WIDE_COLUMNS)
        else:
            want = self.floor.point(key + self.wrong, datagen.POINT_COLUMNS)
        payload = json.loads(sample.body)
        got = {name: np.asarray(values) for name, values in payload["columns"].items()}
        if payload.get("rows") != len(next(iter(want.values()))):
            return f"{kind} {key}: {payload.get('rows')} rows"
        # The server widens a float32 to the double of the same value and
        # JSON carries doubles exactly, so equality is the right test.
        want = {n: v.astype(np.float64) if v.dtype.kind == "f" else v
                for n, v in want.items()}
        problem = reference.compare_columns(got, want)
        if problem is None:
            self.verified[(kind, key)] = sample.body
            return None
        return f"{kind} {key}: {problem}"


def _record(samples, checker: Checker, log: OpLog) -> None:
    for sample in samples:
        log.latencies.append(sample.done - sample.due)
        problem = checker.problem(sample)
        if problem:
            log.fail(problem)


def _loadgen_verdict(lateness, backlog) -> Tuple[float, float, bool]:
    late_p99_ms = percentile(lateness, 99) * 1e3
    backlog.sort()
    quarter = max(len(backlog) // 4, 1)
    first = sum(b for _, b in backlog[:quarter]) / quarter
    last = sum(b for _, b in backlog[-quarter:]) / quarter
    valid = late_p99_ms <= LATE_LIMIT_MS and last - first <= CONNECTIONS
    return late_p99_ms, last, valid


def run(options) -> dict:
    generator_cpu, server_cpu = split_cpus()
    n_orders = datagen.scaled(datagen.ORDERS_ROWS, options.scale)
    orders = datagen.make_orders(options.seed, options.scale)
    checker = Checker(orders, options.wrong_reference)
    if generator_cpu is not None:
        os.sched_setaffinity(0, {generator_cpu})
    log = OpLog()                   # every request, both phases
    second_medians_ms: List[float] = []     # phase A, one per second of schedule
    slice_rates: List[float] = []           # phase B, one per SLICE_S
    verdicts: List[Tuple[float, float, bool]] = []
    rss: List[float] = []
    segment = [0]

    def start_server() -> ServerProcess:
        return ServerProcess(options.seed, options.scale, server_cpu).start()

    def measure(server: ServerProcess, seconds: float) -> None:
        """Phase A then phase B against one server child."""
        number = segment[0]
        segment[0] += 1
        seconds_a = seconds * PHASE_A_SHARE
        seconds_b = seconds - seconds_a
        phase_a = datagen.request_mix(options.seed, max(int(RATE * seconds_a), 20),
                                      n_orders, stream=3 * number)
        # Far more than two connections can send in the window.
        phase_b = [datagen.request_mix(options.seed, int(4000 * seconds_b) + 100,
                                       n_orders, stream=3 * number + 1 + slot)
                   for slot in range(CONNECTIONS)]
        with connected(server.port) as connections:
            samples, lateness, backlog = open_loop(connections, phase_a, RATE)
            verdicts.append(_loadgen_verdict(lateness, backlog))
            before = log.attempted
            _record(samples, checker, log)
            second_medians_ms.extend(
                m * 1e3 for m in slice_medians(log.latencies[before:], int(RATE)))
            closed, rates = closed_phase(connections, phase_b, seconds_b)
            _record(closed, checker, log)
            slice_rates.extend(rates)
            rss.append(server.peak_rss_mb())

    if not options.trace:
        setup_s, _ = run_segments(start_server, lambda s: s.close(), measure,
                                  options.seconds)
        metrics = {"setup_s": setup_s, "op_p50_ms": median(second_medians_ms),
                   "ops_per_s": median(slice_rates),
                   "peak_rss_mb": median(rss)}
        valid = all(v[2] for v in verdicts)
    else:
        with ServerProcess(options.seed, options.scale, server_cpu) as server, \
                connected(server.port) as connections:
            metrics, valid = _traced(options, connections, log, checker, orders, n_orders)
    return {"attempted": log.attempted, "failed": log.failed, "notes": log.notes,
            "metrics": metrics, "valid": valid}


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def _traced(options, connections, log, checker, orders, n_orders):
    """Per-layer metrics and ``valid`` (did the generator keep its schedule)."""
    tracer = Tracer()
    phase_a = datagen.request_mix(
        options.seed, max(int(RATE * options.seconds * 0.3), 20), n_orders, stream=0)
    plain_samples, lateness, backlog = open_loop(connections, phase_a, RATE)
    late_p99_ms, backlog_end, valid = _loadgen_verdict(lateness, backlog)
    _record(plain_samples, checker, log)
    counters_before = _server_metrics(connections[0])
    # Same open loop again, this time keeping a span per request.
    samples, _, _ = open_loop(connections, phase_a, RATE)
    for index, sample in enumerate(samples):
        parent = tracer.add("op", sample.due, sample.done, None, op=index)
        tracer.add("loadgen.wait", sample.due, sample.sent, parent)
        tracer.add("server", sample.sent, sample.done, parent)
    counters = _server_metrics(connections[0])
    traced_log = OpLog()
    _record(samples, checker, traced_log)
    log.absorb(traced_log)

    plain_ms = [(s.done - s.due) * 1e3 for s in plain_samples]
    traced_ms = [s * 1e3 for s in traced_log.latencies]
    metrics = {
        "loadgen.late_p99_ms": late_p99_ms,
        "loadgen.backlog_end": backlog_end,
        "op.p90_ms": percentile(plain_ms, 90),
        "server.p99_ms": percentile(plain_ms, 99),
        "server.bytes_per_op": sum(len(s.body) for s in samples) / len(samples),
        "trace.overhead_ratio": median(traced_ms) / median(plain_ms),
        "trace.coverage_ratio": tracer.coverage(),
    }
    for name in ("admitted", "shed", "coalesced"):
        key = f"scheduler.{name}"
        metrics[key] = counters.get(key, 0) - counters_before.get(key, 0)
    hits = counters["plan_cache.hits"] - counters_before["plan_cache.hits"]
    misses = counters["plan_cache.misses"] - counters_before["plan_cache.misses"]
    metrics["session.plan_cache_hit_ratio"] = hits / max(hits + misses, 1)
    metrics["session.plan_cache_evictions"] = (
        counters["plan_cache.evictions"] - counters_before["plan_cache.evictions"])

    # One connection, hot point statements, back to back: the HTTP round trip.
    hot = [r[1] for r in phase_a if r[0] == "hot"][:200]
    connection = connections[0]
    wires = [connection.encode(s) for s in hot]
    http_us = []
    for number, wire in enumerate(wires):
        with tracer.span("server.roundtrip", op=-1 - number) as record:
            connection.exchange(wire)
        http_us.append((record["end"] - record["start"]) * 1e6)
    metrics["server.roundtrip_us"] = median(http_us)
    metrics.update(_in_process(options, tracer, hot, orders))
    metrics["server.overhead_us"] = (metrics["server.roundtrip_us"]
                                     - metrics["scheduler.roundtrip_us"])
    tracer.write("point_http", {"requests": len(samples),
                                "p50_ms": median(traced_ms)})
    return metrics, valid


def _server_metrics(connection: Connection) -> dict:
    status, body = connection.get("/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    return json.loads(body)


def _in_process(options, tracer: Tracer, hot: List[str], orders) -> Dict[str, float]:
    """The layers under the socket, on a twin session in this process."""
    from repro.core.scheduler import QueryScheduler
    session, _, register_ms = build_session(options.seed, options.scale)
    n_orders = len(orders["o_orderkey"])
    wide = datagen.wide_statement(0, min(datagen.WIDE_ROWS, n_orders // 2))
    metrics = {"storage.register_rel_ms": register_ms}

    def spans_us(name: str, calls) -> List[float]:
        out = []
        for number, call in enumerate(calls):
            with tracer.span(name, op=-1 - number) as record:
                call()
            out.append((record["end"] - record["start"]) * 1e6)
        return out

    queries = [session.compile_query(s) for s in hot]
    for query in queries[:8]:
        query.run()
    metrics["operators.point_us"] = median(spans_us("operators", [q.run for q in queries]))
    direct_us = median(spans_us(
        "session+operators", [lambda s=s: session.compile_query(s).run() for s in hot]))

    wide_query = session.compile_query(wide)
    wide_query.run()
    metrics["operators.wide_ms"] = median(spans_us("operators", [wide_query.run] * 10)) / 1e3
    result = wide_query.run()
    metrics["storage.decode_wide_ms"] = median(spans_us(
        "storage", [lambda: reference.result_columns(result)] * 10)) / 1e3
    # What the server does with a finished result: lists, then JSON text.
    columns = reference.result_columns(result)
    metrics["server.serialize_wide_ms"] = median(spans_us("server.serialize", [
        lambda: json.dumps({"columns": {n: v.tolist() for n, v in columns.items()},
                            "rows": len(result)})] * 10)) / 1e3

    scheduler = QueryScheduler(session, workers=WORKERS)
    try:
        for statement in hot[:8]:
            scheduler.submit(statement).result()
        metrics["scheduler.roundtrip_us"] = median(spans_us(
            "scheduler", [lambda s=s: scheduler.submit(s).result() for s in hot]))
    finally:
        scheduler.shutdown()
    metrics["scheduler.overhead_us"] = metrics["scheduler.roundtrip_us"] - direct_us
    metrics.update(probes.front_end(session, hot[:5] + [wide], tracer, repeats=3))
    return metrics
