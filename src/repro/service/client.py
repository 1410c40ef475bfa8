"""Blocking HTTP client for the service (stdlib ``http.client`` only).

Used by ``repro submit`` and by the cross-process smoke tests.  Errors
are typed so callers can print one-line diagnostics instead of
tracebacks: :class:`ServiceUnavailable` for "nothing is listening
there", :class:`ServiceError` (carrying the HTTP status) for everything
the server itself rejected.
"""

from __future__ import annotations

import http.client
import json
import socket

__all__ = ["ServiceClient", "ServiceError", "ServiceUnavailable"]


class ServiceError(RuntimeError):
    """The server answered with a non-200 status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceUnavailable(RuntimeError):
    """No server is reachable at the given address."""


class ServiceClient:
    """One-request-per-call client (the server closes each connection)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321, *, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        except (ConnectionRefusedError, socket.timeout, socket.gaierror, OSError) as exc:
            raise ServiceUnavailable(
                f"no service at {self.host}:{self.port} ({type(exc).__name__}: {exc})"
            ) from exc
        finally:
            conn.close()
        ctype = resp.getheader("Content-Type", "")
        if ctype.startswith("application/json"):
            try:
                doc = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServiceError(resp.status, f"unparseable response body: {exc}") from exc
        else:
            doc = raw.decode("utf-8", errors="replace")
        if resp.status != 200:
            message = doc.get("error", str(doc)) if isinstance(doc, dict) else str(doc)
            raise ServiceError(resp.status, message)
        return doc

    # ------------------------------------------------------------------
    def submit(self, job: dict, *, tenant: str = "default") -> dict:
        """Submit one job; returns the JobResult document."""
        return self._request("POST", "/v1/jobs", {"job": job, "tenant": tenant})

    def stats(self) -> dict:
        """The ``repro.service/stats-v2`` document."""
        return self._request("GET", "/v1/stats")

    def metrics_text(self) -> str:
        """Prometheus text exposition of the broker's stats."""
        return self._request("GET", "/metrics")

    def traces(self) -> dict:
        """Recent trace summaries, newest first."""
        return self._request("GET", "/v1/traces")

    def trace(self, trace_id: str, *, chrome: bool = False) -> dict:
        """One full trace; ``chrome=True`` fetches the merged Chrome doc."""
        suffix = "?format=chrome" if chrome else ""
        return self._request("GET", f"/v1/traces/{trace_id}{suffix}")

    def dash_html(self) -> str:
        """The live dashboard page, as served at ``GET /dash``."""
        return self._request("GET", "/dash")

    def health(self) -> bool:
        """True while the server accepts jobs."""
        doc = self._request("GET", "/healthz")
        return bool(isinstance(doc, dict) and doc.get("ok"))
