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
from typing import Dict, Optional, Sequence, Tuple
from urllib.parse import urlsplit

__all__ = ["ServeClient", "ServeClientError"]

#: HTTP statuses worth retrying — overload shedding is explicitly transient
_RETRYABLE_STATUSES = frozenset({503})


def _parse_error_payload(raw: bytes) -> Tuple[str, Optional[str], Optional[str]]:
    """Extract (message, code, trace_id) from an error body.

    Understands the structured shape ``{"error": {"code", "message",
    "trace_id"}}``; any other body (a proxy's, a foreign server's) is
    reported verbatim as the message.
    """
    try:
        payload = json.loads(raw.decode("utf-8"))
    except Exception:  # noqa: BLE001 - best-effort error detail
        return raw.decode("utf-8", errors="replace"), None, None
    detail = payload.get("error") if isinstance(payload, dict) else None
    if isinstance(detail, dict):
        trace_id = detail.get("trace_id")
        return (str(detail.get("message", detail)), detail.get("code"),
                trace_id if isinstance(trace_id, str) else None)
    return str(payload), None, None


def _error_from_response(status: int, reason: str, headers,
                         raw: bytes) -> "ServeClientError":
    """The :class:`ServeClientError` of an error-status response."""
    message, code, trace_id = _parse_error_payload(raw)
    if trace_id is None:
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

    def _request_once(self, path: str, payload: Optional[Dict],
                      retry_of: Optional[str] = None) -> Dict:
        data = None
        headers = {"Accept": "application/json"}
        if retry_of is not None:
            # link this retry's server-side trace to the failed attempt's
            headers["X-Retry-Of"] = retry_of
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        body = json.loads(self._exchange("POST" if data is not None else "GET",
                                         path, data, headers).decode("utf-8"))
        if isinstance(body, dict) and "error" in body:
            detail = body["error"]
            if isinstance(detail, dict):
                trace_id = detail.get("trace_id")
                raise ServeClientError(
                    int(detail.get("status", 200)),
                    str(detail.get("message", detail)),
                    code=detail.get("code"),
                    trace_id=trace_id if isinstance(trace_id, str) else None,
                )
            raise ServeClientError(200, str(detail))
        return body

    def _request_frame_once(self, path: str, frame_bytes: bytes,
                            retry_of: Optional[str] = None) -> bytes:
        """POST one binary frame; returns the raw response frame bytes.

        Error responses are JSON regardless of the request encoding (the
        server's contract), so failures parse into the same
        :class:`ServeClientError` as the JSON path.
        """
        from .proto import CONTENT_TYPE

        headers = {"Content-Type": CONTENT_TYPE, "Accept": CONTENT_TYPE}
        if retry_of is not None:
            headers["X-Retry-Of"] = retry_of
        return self._exchange("POST", path, frame_bytes, headers)

    def _with_retries(self, attempt_fn):
        """The shared retry loop: 503 + connection errors, capped backoff.

        ``attempt_fn`` receives the trace id of the previous failed attempt
        (or None) so retried requests carry ``X-Retry-Of`` and the server can
        stitch the attempts into one logical story.
        """
        attempt = 0
        retry_of: Optional[str] = None
        while True:
            try:
                return attempt_fn(retry_of)
            except ServeClientError as error:
                if error.status not in _RETRYABLE_STATUSES or attempt >= self.retries:
                    raise
                delay = error.retry_after_s
                if error.trace_id is not None:
                    retry_of = error.trace_id
            except (OSError, http.client.HTTPException):
                # connection-level failure (refused, reset, timed out)
                if attempt >= self.retries:
                    raise
                delay = None
            backoff = self.backoff_s * (2.0 ** attempt)
            backoff += self._jitter.uniform(0.0, self.backoff_s)
            time.sleep(max(delay or 0.0, backoff))
            attempt += 1

    def _request(self, path: str, payload: Optional[Dict] = None) -> Dict:
        return self._with_retries(
            lambda retry_of: self._request_once(path, payload, retry_of))

    # ------------------------------------------------------------------ #
    def healthz(self) -> Dict:
        return self._request("/healthz")

    def stats(self) -> Dict:
        return self._request("/stats")

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
        payload: Dict = {}
        if problem is not None:
            payload["problem"] = problem
        if b is not None:
            payload["b"] = [float(v) for v in b]
        if x0 is not None:
            payload["x0"] = [float(v) for v in x0]
        if config is not None:
            payload["config"] = config
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        return self._request("/solve", payload)

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

        from .proto import decode_frame, encode_frame

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
        frame_bytes = encode_frame("solve", meta, arrays)
        raw = self._with_retries(
            lambda retry_of: self._request_frame_once("/solve", frame_bytes, retry_of)
        )
        frame = decode_frame(raw)
        response: Dict = dict(frame.meta)
        response["solution"] = frame.arrays["solution"]
        response["final_relative_residual"] = frame.arrays["final_relative_residual"]
        if "residual_history" in frame.arrays:
            response["residual_history"] = frame.arrays["residual_history"]
        return response
