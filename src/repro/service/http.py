"""Minimal HTTP/1.1 front end for the broker (stdlib asyncio only).

JSON in/out (plus two text endpoints), one request per connection
(``Connection: close`` — the clients are a benchmark harness, a CLI and
a dashboard page that re-fetches, not long-lived browser sessions):

* ``POST /v1/jobs`` — body ``{"job": {...}, "tenant": "name"}``; answers
  the :class:`~repro.service.jobs.JobResult` document, or a JSON error
  with the status the broker's exception maps to: 400 (bad spec), 429
  (tenant queue full), 503 (draining), 500 (retries exhausted).
* ``GET /v1/stats`` — the ``repro.service/stats-v2`` document: counters,
  gauges, latency histograms, the wall-clock series feeding the
  dashboard strips, and per-tenant counters.
* ``GET /v1/traces`` — recent trace summaries, newest first.
* ``GET /v1/traces/<id>`` — one full trace; ``?format=chrome`` renders
  it as a merged Chrome trace-event document instead.
* ``GET /dash`` — the live dashboard page (inline HTML/JS, zero deps).
* ``GET /metrics`` — Prometheus text exposition of the stats document
  (:func:`~repro.metrics.export.to_prometheus`, the run summary's exporter).
* ``GET /healthz`` — ``{"ok": true}`` while accepting jobs.

Error responses are uniformly shaped: a JSON object with ``error``
(human-readable) and ``status`` (the code, repeated in the body so
piped-through payloads stay self-describing); 405s additionally carry
``allowed`` so clients can self-correct the method.

A request the server cannot read is a 4xx, never a 500: 400 for a
malformed request line, a bad ``Content-Length`` or a body that ends
early, 413 for a body over ``_MAX_BODY``, 431 for a request or header
line over ``_MAX_LINE`` and 408 when the whole request has not arrived
within ``_READ_DEADLINE_S`` of the connection being accepted.

Deliberately hand-rolled over ``asyncio.start_server``: the container
has no aiohttp, and the protocol surface (request line, headers,
Content-Length body) is small enough that a framework would be the
bigger liability.
"""

from __future__ import annotations

import asyncio
import json

from repro.dash.page import render_page
from repro.dash.trace import trace_to_chrome
from repro.metrics.export import to_prometheus
from repro.service.broker import Broker, BrokerClosed, JobFailed, QueueFull
from repro.service.jobs import JobSpecError

__all__ = ["ServiceServer", "serve"]

_MAX_BODY = 1 << 20  # 1 MiB of job JSON is three orders past any real spec
_MAX_LINE = 1 << 16  # per request/header line (asyncio's default reader limit)
#: one deadline for the request line, headers and body together, so a
#: stalled or slow-drip client cannot hold a connection open forever
_READ_DEADLINE_S = 10.0
_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}
#: route → allowed methods; prefix routes (trailing ``/``) match by startswith
_ROUTE_METHODS = {
    "/healthz": ("GET",),
    "/v1/stats": ("GET",),
    "/v1/traces": ("GET",),
    "/v1/traces/": ("GET",),
    "/dash": ("GET",),
    "/metrics": ("GET",),
    "/v1/jobs": ("POST",),
}

_JSON = "application/json"
_HTML = "text/html; charset=utf-8"
_PROM = "text/plain; version=0.0.4"


def _error(status: int, message: str, **extra) -> tuple[int, dict]:
    """The uniform error payload: ``{"error": ..., "status": ...}``."""
    return status, {"error": message, "status": status, **extra}


class _Unreadable(Exception):
    """A request that cannot be read; carries the 4xx status to answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader) -> str:
    try:
        line = await reader.readline()
    except ValueError:  # StreamReader's limit overrun
        raise _Unreadable(
            431, f"request line or header field over {_MAX_LINE} bytes"
        ) from None
    return line.decode("latin-1").strip()


async def _read_request(reader: asyncio.StreamReader) -> tuple[str, str, str, bytes]:
    """Read one request: ``(method, path, query, body)``."""
    request_line = await _read_line(reader)
    parts = request_line.split()
    if len(parts) != 3:
        raise _Unreadable(400, f"malformed request line: {request_line!r}")
    method, target, _version = parts
    path, _, query = target.partition("?")
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _Unreadable(400, f"bad Content-Length: {raw_length!r}")
    digits = raw_length.lstrip("0") or "0"
    # width first: int() refuses a string of over 4300 digits
    if len(digits) > len(str(_MAX_BODY)) or int(digits) > _MAX_BODY:
        raise _Unreadable(413, f"body too large (over {_MAX_BODY} bytes)")
    length = int(digits)
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise _Unreadable(
            400, f"body ended after {len(exc.partial)} of {length} bytes"
        ) from None
    return method, path, query, body


class ServiceServer:
    """One broker behind one listening socket."""

    def __init__(self, broker: Broker, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.broker = broker
        self.host = host
        self.port = port  # 0 = ephemeral; resolved by start()
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> int:
        """Bind and listen; returns the resolved port.

        Raises ``OSError`` (EADDRINUSE) when the port is taken — the CLI
        turns that into a one-line diagnostic rather than a traceback.
        """
        await self.broker.start()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port, limit=_MAX_LINE
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        """Stop listening, then drain the broker (finishes accepted jobs)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.broker.drain()

    async def __aenter__(self) -> "ServiceServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # one deadline on all reading from the connection: a timer that
        # fails the pending read (asyncio.wait_for would add a task per
        # request)
        deadline = asyncio.get_running_loop().call_later(
            _READ_DEADLINE_S, reader.set_exception, TimeoutError()
        )
        ctype = None
        unread = False
        try:
            answer = await self._respond(reader, deadline)
            status, payload = answer[0], answer[1]
            if len(answer) == 3:
                ctype = answer[2]
        except _Unreadable as exc:
            unread = True
            status, payload = _error(exc.status, str(exc))
        except Exception as exc:  # defensive: a handler bug must not kill the server
            status, payload = _error(500, f"{type(exc).__name__}: {exc}")
        body = json.dumps(payload).encode() if isinstance(payload, dict) else payload
        if isinstance(body, str):
            body = body.encode("utf-8")
        if ctype is None:
            ctype = _JSON if isinstance(payload, dict) else _PROM
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode() + body)
            await writer.drain()
            if unread:
                # drop the rest of the refused request before closing: a
                # close with unread input resets the connection, and the
                # reset can overtake the answer
                writer.write_eof()
                while await reader.read(_MAX_LINE):
                    pass
        except (ConnectionError, BrokenPipeError, TimeoutError):
            pass  # client hung up mid-response, or the deadline passed
        finally:
            deadline.cancel()
            writer.close()

    async def _respond(self, reader: asyncio.StreamReader, deadline: asyncio.TimerHandle):
        try:
            method, path, query, body = await _read_request(reader)
        except TimeoutError:
            raise _Unreadable(
                408, f"request not complete within {_READ_DEADLINE_S:g} s"
            ) from None
        deadline.cancel()  # the whole request is in

        allowed = _ROUTE_METHODS.get(path)
        if allowed is None and path.startswith("/v1/traces/"):
            allowed = _ROUTE_METHODS["/v1/traces/"]
        if allowed is None:
            return _error(404, f"no such endpoint: {method} {path}")
        if method not in allowed:
            return _error(
                405,
                f"{method} not allowed for {path} (use {' or '.join(allowed)})",
                allowed=list(allowed),
            )

        if path == "/healthz":
            return 200, {"ok": not self.broker._draining}
        if path == "/v1/stats":
            return 200, self.broker.stats()
        if path == "/v1/traces":
            return 200, self.broker.traces_doc()
        if path.startswith("/v1/traces/"):
            return self._trace(path[len("/v1/traces/"):], query)
        if path == "/dash":
            return 200, render_page(None), _HTML
        if path == "/metrics":
            return 200, to_prometheus(self.broker.stats()).encode()
        return await self._submit(body)  # POST /v1/jobs — the only route left

    def _trace(self, trace_id: str, query: str):
        if self.broker.tracer is None:
            return _error(404, "tracing is disabled on this broker")
        doc = self.broker.trace_doc(trace_id)
        if doc is None:
            return _error(404, f"no such trace: {trace_id}")
        if "format=chrome" in query.split("&"):
            return 200, trace_to_chrome(doc)
        return 200, doc

    async def _submit(self, body: bytes) -> tuple[int, dict]:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _error(400, f"request body is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            return _error(400, "request body must be a JSON object")
        tenant = doc.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            return _error(400, "'tenant' must be a non-empty string")
        job = doc.get("job")
        if job is None:
            return _error(400, "request needs a 'job' object")
        try:
            result = await self.broker.submit(job, tenant=tenant)
        except JobSpecError as exc:
            return _error(400, str(exc))
        except QueueFull as exc:
            return _error(429, str(exc))
        except BrokerClosed as exc:
            return _error(503, str(exc))
        except JobFailed as exc:
            return _error(500, str(exc))
        return 200, result.to_dict()


async def serve(
    broker: Broker, *, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """Start a :class:`ServiceServer`; caller owns :meth:`ServiceServer.stop`."""
    server = ServiceServer(broker, host=host, port=port)
    await server.start()
    return server
