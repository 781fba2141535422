"""Minimal stdlib client for the serve HTTP API.

Mirrors the three endpoints of :mod:`repro.serve.http`::

    from repro.serve.client import ServeClient

    client = ServeClient("http://127.0.0.1:8780")
    client.healthz()                          # liveness
    response = client.solve(problem={"family": "poisson", "target_n": 400})
    solution = response["solution"]           # list of floats
    client.stats()["latency_ms"]["total"]     # SLO percentiles

    # the zero-copy binary path: numpy in, numpy out, bitwise-exact
    response = client.solve_binary(problem={"family": "poisson"}, b=rhs)
    response["solution"]                      # np.ndarray (f64)

Retry policy: solve requests are idempotent (same problem/config/b → same
deterministic answer), so the client transparently retries *retryable*
failures — 503 overload responses and connection-level errors — with
exponential backoff and deterministic jitter, honouring the server's
``Retry-After`` hint when present.  Non-retryable errors (400 invalid
request, 404, 500, 504 deadline) surface immediately as
:class:`ServeClientError` with the server's stable error ``code``.

Connections: each calling thread keeps one persistent HTTP/1.1
:mod:`http.client` connection and sends every endpoint over it; the server
closes idle ones, and a request that finds its reused connection closed
before any response byte is re-sent once on a fresh one.  ``close()`` (or a
``with`` block) releases them.  Standard library only, so scripts and load
generators need no third-party HTTP stack.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import weakref
from typing import Dict, Optional, Sequence
from urllib.parse import urlsplit

__all__ = ["ServeClient", "ServeClientError"]

#: HTTP statuses worth retrying — overload shedding is explicitly transient
_RETRYABLE_STATUSES = frozenset({503})


def _error_from_response(status: int, reason: str, headers,
                         raw: bytes) -> "ServeClientError":
    """The :class:`ServeClientError` of an error-status response.

    Understands the structured body ``{"error": {"code", "message",
    "trace_id"}}``; any other body (a proxy's, a foreign server's) is
    reported verbatim as the message.
    """
    message, code, trace_id = raw.decode("utf-8", errors="replace"), None, None
    try:
        payload = json.loads(raw)
    except ValueError:  # not JSON: the body is the message
        payload = message
    detail = payload.get("error") if isinstance(payload, dict) else None
    if isinstance(detail, dict):
        message, code = str(detail.get("message", detail)), detail.get("code")
        trace_id = detail.get("trace_id")
    elif payload is not message:
        message = str(payload)
    if not isinstance(trace_id, str):
        trace_id = headers.get("X-Trace-Id")
    retry_after = headers.get("Retry-After")
    try:
        retry_after_s = float(retry_after) if retry_after else None
    except ValueError:
        retry_after_s = None
    return ServeClientError(status, message or str(reason), code=code,
                            retry_after_s=retry_after_s, trace_id=trace_id)


class ServeClientError(RuntimeError):
    """Raised when the server answers with an error payload or bad status.

    ``status`` is the HTTP status, ``code`` the server's stable error code
    (``invalid_request``, ``overloaded``, ``deadline_exceeded``, ...; None
    for unstructured errors), ``retry_after_s`` the parsed
    ``Retry-After`` hint when the server sent one, and ``trace_id`` the
    server-side trace of the failed request (from the error body or the
    ``X-Trace-Id`` response header) — quote it when filing a report against
    server logs.
    """

    def __init__(self, status: int, message: str, code: Optional[str] = None,
                 retry_after_s: Optional[float] = None,
                 trace_id: Optional[str] = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.code = code
        self.retry_after_s = retry_after_s
        self.trace_id = trace_id


class _Connection(http.client.HTTPConnection):
    """A thread's kept-alive connection; closed when that thread ends or
    the client is dropped, whichever frees it first."""

    def __del__(self) -> None:
        self.close()

    def _send_output(self, message_body=None, encode_chunked=False):
        """Headers and a bytes body in one send, so the server wakes once, on
        the whole request.  ``http.client``'s own ``_send_output`` joins the
        same buffer and sends the body after it; anything but a plain bytes
        body still goes through it."""
        if not isinstance(message_body, bytes) or encode_chunked:
            return super()._send_output(message_body, encode_chunked)
        self._buffer.extend((b"", message_body))
        message = b"\r\n".join(self._buffer)
        del self._buffer[:]
        self.send(message)


class ServeClient:
    """Thin client bound to one serve endpoint.

    Each calling thread keeps one persistent HTTP/1.1 connection and sends
    every endpoint over it, so a request pays no TCP handshake and the
    server no thread start.  The client is safe to share between threads;
    :meth:`close` (or leaving a ``with`` block) closes every connection.

    ``retries`` bounds how many times a retryable failure (503, connection
    refused/reset) is retried per request; backoff sleeps
    ``backoff_s * 2**attempt`` plus deterministic jitter from ``seed``, or
    the server's ``Retry-After`` when larger.  A request that fails on a
    *reused* connection before any response byte arrives (the server closed
    it while idle) is re-sent once on a fresh connection, outside that
    budget.
    """

    def __init__(self, base_url: str, timeout: float = 60.0, retries: int = 2,
                 backoff_s: float = 0.05, seed: int = 0) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"expected an http://host[:port] URL, got {base_url!r}")
        self._netloc = parts.netloc
        self._prefix = parts.path
        self.timeout = float(timeout)
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self._jitter = random.Random(seed)
        self._local = threading.local()
        #: every live thread's connection, for close()
        self._connections: "weakref.WeakSet[_Connection]" = weakref.WeakSet()
        self._connections_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _connection(self) -> "_Connection":
        """The calling thread's connection (created on its first request)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _Connection(self._netloc, timeout=self.timeout)
            self._local.connection = connection
            with self._connections_lock:
                self._connections.add(connection)
        return connection

    def close(self) -> None:
        """Close every thread's connection; a later request reconnects."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(self, method: str, path: str, body: Optional[bytes] = None,
                  headers: Optional[Dict[str, str]] = None) -> bytes:
        """One request/response on this thread's connection; the body bytes.

        An error status raises :class:`ServeClientError` (the body parsed as
        the server's structured error).  Any transport failure closes the
        connection, so the next request starts on a fresh one.
        """
        resent = False
        while True:
            connection = self._connection()
            reused = connection.sock is not None
            try:
                if not reused:
                    connection.connect()
                    # a request leaves in one send, but a large one spans
                    # segments: Nagle must not hold the short last one for
                    # the server's delayed ACK
                    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                connection.request(method, self._prefix + path, body=body,
                                   headers=headers or {})
                response = connection.getresponse()
            except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                connection.close()
                if reused and not resent:
                    resent = True  # the server closed it while idle: nothing was served
                    continue
                raise
            except BaseException:
                connection.close()
                raise
            try:
                data = response.read()
            except BaseException:
                connection.close()
                raise
            if response.status >= 400:
                raise _error_from_response(response.status, response.reason,
                                           response.headers, data)
            return data

    def _request(self, path: str, body: Optional[bytes] = None,
                 content_type: str = "application/json") -> bytes:
        """GET ``path``, or POST ``body`` to it, under the retry policy; the
        response body.  A retry carries the failed attempt's trace id as
        ``X-Retry-Of``, so the server can stitch the attempts together."""
        headers = {"Accept": content_type}
        if body is not None:
            headers["Content-Type"] = content_type
        attempt = 0
        while True:
            try:
                return self._exchange("GET" if body is None else "POST", path, body, headers)
            except ServeClientError as error:
                if error.status not in _RETRYABLE_STATUSES or attempt >= self.retries:
                    raise
                delay = error.retry_after_s
                if error.trace_id is not None:
                    headers["X-Retry-Of"] = error.trace_id
            except (OSError, http.client.HTTPException):
                # connection-level failure (refused, reset, timed out)
                if attempt >= self.retries:
                    raise
                delay = None
            backoff = self.backoff_s * (2.0 ** attempt)
            backoff += self._jitter.uniform(0.0, self.backoff_s)
            time.sleep(max(delay or 0.0, backoff))
            attempt += 1

    # ------------------------------------------------------------------ #
    def healthz(self) -> Dict:
        return json.loads(self._request("/healthz"))

    def stats(self) -> Dict:
        return json.loads(self._request("/stats"))

    def metrics(self) -> str:
        """Fetch ``GET /metrics`` (Prometheus text exposition, not JSON)."""
        return self._exchange("GET", "/metrics").decode("utf-8")

    def solve(
        self,
        problem: Optional[Dict] = None,
        b: Optional[Sequence[float]] = None,
        x0: Optional[Sequence[float]] = None,
        config: Optional[Dict] = None,
        deadline_ms: Optional[float] = None,
    ) -> Dict:
        """POST one solve request; returns the decoded response payload."""
        payload = {"problem": problem, "config": config,
                   "deadline_ms": float(deadline_ms) if deadline_ms is not None else None,
                   "b": [float(v) for v in b] if b is not None else None,
                   "x0": [float(v) for v in x0] if x0 is not None else None}
        return json.loads(self._request("/solve", json.dumps(payload).encode("utf-8")))

    def solve_binary(
        self,
        problem: Optional[Dict] = None,
        b=None,
        x0=None,
        config: Optional[Dict] = None,
        deadline_ms: Optional[float] = None,
    ) -> Dict:
        """POST one solve as a binary frame; floats never transit as text.

        ``b`` may be a 1-D right-hand side or a 2-D ``(n, k)`` block whose
        columns the server validates as a whole and solves as one lockstep
        batch (``k <= max_batch``; larger blocks run in ``max_batch``
        chunks), each column bit-identical to its own solve.  Returns the JSON
        response shape with ``solution`` (and per-column lists for blocks)
        as numpy arrays decoded zero-copy from the response frame —
        bitwise identical to the server's solve output.  Retry semantics
        match :meth:`solve`.
        """
        import numpy as np

        from .proto import CONTENT_TYPE, decode_frame, encode_frame

        meta: Dict = {"problem": problem, "config": config,
                      "deadline_ms": float(deadline_ms) if deadline_ms is not None else None}
        arrays: Dict = {}
        if b is not None:
            b = np.asarray(b, dtype=np.float64)
            if b.ndim == 2:
                arrays["B"] = b
            else:
                arrays["b"] = b
        if x0 is not None:
            arrays["x0"] = np.asarray(x0, dtype=np.float64)
        frame = decode_frame(self._request("/solve", encode_frame("solve", meta, arrays),
                                           CONTENT_TYPE))
        return {**frame.meta, **frame.arrays}
