"""Asyncio HTTP/JSON serving front door over the query scheduler.

The embedded engine becomes a servable system here: a single-threaded
asyncio accept loop parses HTTP/1.1 requests, admits statements into the
server's :class:`~repro.core.scheduler.QueryScheduler` (which owns the
worker threads, admission control and per-client fairness), and bridges
each ``concurrent.futures.Future`` back onto the event loop with
``asyncio.wrap_future`` — so thousands of in-flight requests ride on a
bounded thread pool and the accept loop never blocks on query execution.

Protocol (JSON request/response bodies; see docs/SERVING.md):

========  =================  ==============================================
method    path               effect
========  =================  ==============================================
POST      /query             run a statement to completion, return columns
POST      /explain           EXPLAIN (or EXPLAIN ANALYZE) a statement
GET       /metrics           ``Session.metrics.snapshot()``
GET       /health            ``{"status": "ok", "queue_depth": N}``
========  =================  ==============================================

Request bodies for the POST endpoints: ``{"statement": "...", "device":
"cpu", "extra_config": {...}}``; ``extra_config`` takes the engine's config
keys, and any other top-level key is rejected with a 400.

**Per-client state: none.** The ``x-tdp-client`` header (falling back to
the connection's peer address) labels the request for the scheduler's
round-robin fairness; the scheduler forgets a client with its last queued
request, and the server keeps nothing per client.

**Backpressure.** When admission control sheds a request the server
answers ``503`` with a typed body ``{"error": {"type": "ServerOverloaded",
"reason": "queue_full"}}``. Clients are expected to back off and retry —
the point of shedding is that the answer arrives *now*, not after the
backlog.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ServerOverloaded, TdpError

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024
_SERVER_NAME = "tdp-serve"
_BODY_KEYS = ("statement", "device", "extra_config")


def _json_default(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def _result_payload(result) -> dict:
    """JSON shape of one finished statement result."""
    from repro.core.compiled_query import QueryResult
    from repro.storage.frame import DataFrame
    if isinstance(result, QueryResult):
        columns = {name: np.asarray(result.column(name)).tolist()
                   for name in result.column_names}
        return {"columns": columns, "rows": len(result)}
    if isinstance(result, DataFrame):
        columns = {name: np.asarray(result[name]).tolist()
                   for name in result.columns}
        rows = len(next(iter(columns.values()))) if columns else 0
        return {"columns": columns, "rows": rows}
    return {"value": result}


class TdpServer:
    """One listening socket serving one :class:`Session`.

    The server owns a dedicated scheduler: its worker pool is the serving
    capacity and ``max_queue_depth`` its admission bound. ``port=0`` binds
    an ephemeral port, exposed as ``self.port`` after :meth:`start` — tests
    bind 0 and read it back.
    """

    def __init__(self, session, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 4, max_queue_depth: Optional[int] = 64,
                 default_device: str = "cpu"):
        from repro.core.scheduler import QueryScheduler
        self.session = session
        self.host = host
        self.port = port
        self.default_device = default_device
        self.scheduler = QueryScheduler(
            session, workers=workers, max_queue_depth=max_queue_depth)
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.scheduler.shutdown()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        peer_id = f"{peer[0]}:{peer[1]}" if peer else "unknown"
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                client_id = headers.get("x-tdp-client", peer_id)
                status, payload = await self._dispatch(
                    method, path, body, client_id)
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except ValueError as exc:
            # Oversized/garbled framing (readline limit, bad content-length).
            try:
                await self._write_response(
                    writer, 400, _error_body("BadRequest", str(exc)), False)
            except ConnectionError:
                pass
        except _BadRequest as exc:
            try:
                await self._write_response(
                    writer, 400, _error_body("BadRequest", str(exc)), False)
            except ConnectionError:
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, dict, bytes]]:
        try:
            line = await reader.readline()
        except ValueError:
            raise _BadRequest("request line too long")
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line: {line!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        total = len(line)
        while True:
            line = await reader.readline()
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                raise _BadRequest("headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise _BadRequest("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _write_response(self, writer: asyncio.StreamWriter, status: int,
                              payload: dict, keep_alive: bool) -> None:
        body = json.dumps(payload, default=_json_default).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  500: "Internal Server Error", 503: "Service Unavailable",
                  405: "Method Not Allowed"}.get(status, "OK")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"server: {_SERVER_NAME}\r\n"
                f"content-type: application/json\r\n"
                f"content-length: {len(body)}\r\n"
                f"connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                f"\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, path: str, body: bytes,
                        client_id: str) -> Tuple[int, dict]:
        try:
            if method == "POST" and path == "/query":
                return await self._post_query(body, client_id)
            if method == "POST" and path == "/explain":
                return await self._post_explain(body, client_id)
            if method == "GET" and path == "/metrics":
                return 200, _sanitize(self.session.metrics.snapshot())
            if method == "GET" and path == "/health":
                return 200, {"status": "ok",
                             "queue_depth": self.scheduler.queue_depth}
            if path in ("/query", "/explain", "/metrics", "/health"):
                return 405, _error_body("MethodNotAllowed",
                                        f"{method} not allowed on {path}")
            return 404, _error_body("NotFound", f"unknown path {path}")
        except ServerOverloaded as exc:
            return 503, _error_body("ServerOverloaded", str(exc),
                                    reason=exc.reason)
        except _BadRequest as exc:
            return 400, _error_body("BadRequest", str(exc))
        except (ValueError, KeyError, TypeError, TdpError) as exc:
            return 400, _error_body(type(exc).__name__, str(exc))
        except Exception as exc:     # noqa: BLE001 — the loop must survive
            return 500, _error_body(type(exc).__name__, str(exc))

    def _parse_statement_body(self, body: bytes) -> Tuple[str, str, Optional[dict]]:
        try:
            payload = json.loads(body.decode() or "{}")
        except ValueError as exc:
            raise _BadRequest(f"invalid JSON body: {exc}")
        if not isinstance(payload, dict) or "statement" not in payload:
            raise ValueError('body must be a JSON object with a "statement" key')
        unknown = sorted(set(payload) - set(_BODY_KEYS))
        if unknown:
            raise ValueError(f"unknown body keys {unknown}; valid keys: "
                             f"{list(_BODY_KEYS)} (engine config goes in "
                             f'"extra_config")')
        statement = payload["statement"]
        if not isinstance(statement, str) or not statement.strip():
            raise ValueError('"statement" must be a non-empty string')
        device = payload.get("device", self.default_device)
        extra_config = payload.get("extra_config")
        if extra_config is not None and not isinstance(extra_config, dict):
            raise ValueError('"extra_config" must be a JSON object')
        return statement, device, extra_config

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def _post_query(self, body: bytes, client_id: str) -> Tuple[int, dict]:
        statement, device, extra_config = self._parse_statement_body(body)
        future = self.scheduler.submit(statement, device=device,
                                       extra_config=extra_config,
                                       client=client_id)
        return 200, _result_payload(await asyncio.wrap_future(future))

    async def _post_explain(self, body: bytes, client_id: str) -> Tuple[int, dict]:
        statement, device, extra_config = self._parse_statement_body(body)
        if not statement.lstrip().lower().startswith("explain"):
            statement = f"EXPLAIN {statement}"
        future = self.scheduler.submit(statement, device=device,
                                       extra_config=extra_config,
                                       client=client_id)
        result = await asyncio.wrap_future(future)
        lines = [str(v) for v in np.asarray(result.column("plan"))]
        return 200, {"plan": lines}


class _BadRequest(Exception):
    """Protocol-level violation: answer 400 and close the connection."""


def _error_body(kind: str, message: str, **extra) -> dict:
    return {"error": {"type": kind, "message": message, **extra}}


def _sanitize(value):
    """Make a metrics snapshot JSON-encodable (numpy scalars, infinities)."""
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and (value != value or value in
                                     (float("inf"), float("-inf"))):
        return None
    return value
