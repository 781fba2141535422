"""Stdlib HTTP front end for :class:`~repro.serve.service.SolveService`.

Endpoints:

``POST /solve``
    One path for a request in either encoding.  A binary body
    (``Content-Type: application/x-repro-frame``) is a
    :mod:`repro.serve.proto` ``"solve"`` frame: ``meta`` holds
    ``problem``/``config``/``deadline_ms``, the blocks ``b`` (one right-hand
    side) *or* ``B`` (an ``(n, k)`` block, one lockstep batch for
    ``k <= max_batch`` through
    :meth:`~repro.serve.service.SolveService.submit_columns`) plus optional
    ``x0``.  Any other body is the JSON debug form of the same frame,
    ``{"problem", "config", "b", "x0", "deadline_ms"}`` with float lists.
    The spec is resolved server-side (:mod:`repro.serve.problems`); ``b``
    defaults to the problem's right-hand side.  The answer comes in the
    request's encoding — a ``"result"`` frame (f64 ``solution``,
    ``final_relative_residual``, ``residual_history`` for ``k == 1``;
    convergence lists and serving metadata in the header) or a JSON object
    — and its solutions are bitwise equal either way.  Errors always answer
    as JSON (below), which a client that cannot parse a frame can still read.
``GET /healthz``
    Liveness + failure-domain view: worker threads/processes, queue depths,
    circuit breaker states.  ``status`` is ``"ok"``, ``"degraded"`` (a
    breaker is open, fallback rungs serving, a worker was restarted) or
    ``"unhealthy"`` (a worker died for good).
``GET /stats``
    The service's full :meth:`~repro.serve.service.SolveService.stats` payload.
``GET /metrics``
    Prometheus text exposition (version 0.0.4) of the service's metrics
    registry.  For the sharded service this aggregates the parent registry
    with a snapshot pulled from every live worker process, merged
    element-wise (fixed log-spaced histogram buckets make that exact).

Every response carries an ``X-Trace-Id`` header: the id of the server-side
trace for that request (adopted from the client's ``X-Trace-Id`` header when
well-formed, minted otherwise).  Success bodies never change with tracing on
or off; error bodies carry the id inside the error object so a 503/504 log
line correlates with server spans.

Error handling contract: every error response is
``{"error": {"code", "message", "status", "trace_id"[, "retry_of"]}}`` with a
stable machine-readable ``code``: :func:`repro.serve.errors.as_serve_error`
maps the exception (its docstring holds the exception → code → status
table).  Overload (503) responses carry a ``Retry-After`` header.  An
``internal`` error answers ``"internal server error"``: tracebacks and
internal exception details are never leaked unless the server was
constructed with ``debug=True``.

Connections are persistent HTTP/1.1: one handler thread per open connection
(which is what lets concurrent HTTP clients coalesce in the service's
micro-batching queue), serving request after request until the client
closes it, it sits idle for :attr:`_Handler.timeout` seconds, or the server
stops.  A response sent before its request body was read drains the body
first (or, when the body's end is unknown or it is large, closes the
connection), so the next request on the connection parses from its first
byte.  ``TCP_NODELAY`` is set on every connection: a response goes out as
two sends (headers, body), and with Nagle's algorithm the second waits for
the client's delayed ACK — about 40 ms per request on a kept-alive
connection.  This front end is deliberately dependency free; production
deployments would put a real ASGI server in front of the same
:class:`SolveService`.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple

import numpy as np

from ..obs import trace as obs_trace
from ..obs.metrics import render_prometheus
from . import proto
from .errors import InvalidRequest, ServeError, as_serve_error
from .service import SolveService

__all__ = ["ServeHTTPServer"]

#: content type of the Prometheus text exposition format
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: an unread request body up to this size is drained before an early
#: response; a larger one closes the connection instead
_DRAIN_MAX_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    # the service is attached to the server object by ServeHTTPServer
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: seconds a connection may wait for its next request (or stall inside
    #: one) before the server closes it
    timeout = 30.0

    @property
    def service(self) -> SolveService:
        return self.server.service  # type: ignore[attr-defined]

    # -- trace correlation ------------------------------------------------ #
    def _begin_request(self) -> None:
        """Assign this request its trace identity (cheap; always done).

        A client-supplied ``X-Trace-Id`` is adopted when well-formed so a
        caller can correlate its own logs; otherwise a fresh id is minted.
        ``X-Retry-Of`` lets a retrying client link the new trace to the
        failed attempt's id (the ``retry_of`` span attribute).
        """
        incoming = proto._clean_trace_id(self.headers.get("X-Trace-Id"))
        self._trace_id = incoming or obs_trace.new_trace_id()
        self._retry_of = proto._clean_trace_id(self.headers.get("X-Retry-Of"))
        # the request body still on the wire; ``_body_error`` when its
        # length is unknowable or over the bound, and then the connection
        # cannot be reused
        raw_length = self.headers.get("Content-Length")
        self._body_error = None
        try:
            self._unread = int(raw_length) if raw_length is not None else 0
            if self._unread < 0:
                raise ValueError
        except ValueError:
            self._unread = 0
            self._body_error = f"malformed Content-Length {raw_length!r}"
        if self._unread > proto.MAX_FRAME_BYTES:
            # refused before a byte of it is read or buffered
            self._unread = 0
            self._body_error = (f"Content-Length {raw_length} exceeds the "
                                f"{proto.MAX_FRAME_BYTES}-byte request bound")
        if self._body_error is not None or "Transfer-Encoding" in self.headers:
            self.close_connection = True

    def _read_body(self) -> bytes:
        """The request body (empty when it has none)."""
        if self._body_error is not None:
            raise InvalidRequest(self._body_error)
        length, self._unread = self._unread, 0
        return self.rfile.read(length) if length else b""

    def _drain(self) -> None:
        """Consume what is left of the body before an early response, so
        the next request on this connection starts at its first byte."""
        if self._unread > _DRAIN_MAX_BYTES:
            self.close_connection = True
        while self._unread and not self.close_connection:
            chunk = self.rfile.read(min(self._unread, 1 << 16))
            if not chunk:
                self.close_connection = True
            self._unread -= len(chunk)

    # -- helpers --------------------------------------------------------- #
    def _send_body(self, body: bytes, content_type: str, status: int = 200,
                   retry_after_s: Optional[float] = None) -> None:
        """Every response goes out through here, so every one carries the
        ``X-Trace-Id`` header and leaves the connection at a request
        boundary (or announces that it closes)."""
        self._drain()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None:
            self.send_header("X-Trace-Id", trace_id)
        if retry_after_s is not None:
            self.send_header("Retry-After", str(max(0, math.ceil(retry_after_s))))
        # end_headers() and the body in one write: the client wakes once, on
        # the whole response, not on the headers and again on the body
        head = b""
        if self.request_version != "HTTP/0.9":
            head = b"".join(self._headers_buffer) + b"\r\n"
            self._headers_buffer = []
        self.wfile.write(head + body)

    def _send_json(self, payload: dict, status: int = 200,
                   retry_after_s: Optional[float] = None) -> None:
        self._send_body(json.dumps(payload).encode("utf-8"), "application/json",
                        status, retry_after_s)

    def _send_error_json(self, code: str, message: str, status: int,
                         retry_after_s: Optional[float] = None) -> None:
        """The one error shape: ``{"error": {"code", "message", "status",
        "trace_id"[, "retry_of"]}}`` — the id correlates a 503/504 with
        server-side spans."""
        error = {"code": code, "message": message, "status": status,
                 "trace_id": getattr(self, "_trace_id", None)}
        retry_of = getattr(self, "_retry_of", None)
        if retry_of is not None:
            error["retry_of"] = retry_of
        self._send_json({"error": error}, status=status,
                        retry_after_s=retry_after_s)

    def _send_exception(self, error: BaseException) -> None:
        """Answer ``error`` with its typed code (:func:`as_serve_error`)."""
        typed = as_serve_error(error)
        span = obs_trace.current_span()
        if span is not None and not span.terminal_events():
            span.add_event("error", error_type=type(error).__name__, code=typed.code)
        typed.trace_id = getattr(self, "_trace_id", None)
        message = str(typed)
        if typed.code == ServeError.code:
            # internal: never leak exception details unless debugging
            if not getattr(self.server, "debug", False):
                message = "internal server error"
            elif typed.__cause__ is not None:
                cause = typed.__cause__
                message += "\n" + "".join(
                    traceback.format_exception(type(cause), cause, cause.__traceback__))
        self._send_error_json(typed.code, message, typed.http_status,
                              retry_after_s=typed.retry_after_s)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover - debug aid
            super().log_message(format, *args)

    # -- endpoints ------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._begin_request()
        if self.path == "/healthz":
            health = self.service.health()
            stats = self.service.metrics.snapshot()
            health["uptime_s"] = stats["uptime_s"]
            health["requests"] = stats["requests"]
            status = 200 if health["status"] in ("ok", "degraded") else 503
            self._send_json(health, status=status)
        elif self.path == "/stats":
            self._send_json(self.service.stats())
        elif self.path == "/metrics":
            try:
                self._send_metrics()
            except BaseException as error:  # noqa: BLE001 - mapped to JSON
                self._send_exception(error)
        else:
            self._send_error_json("not_found", f"unknown path {self.path!r}", 404)

    def _send_metrics(self) -> None:
        """Render the service's metrics registry as Prometheus text."""
        body = render_prometheus(self.service.metrics_snapshot()).encode("utf-8")
        self._send_body(body, METRICS_CONTENT_TYPE)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._begin_request()
        if self.path != "/solve":
            self._send_error_json("not_found", f"unknown path {self.path!r}", 404)
            return
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
        self._solve(binary=content_type == proto.CONTENT_TYPE)

    @staticmethod
    def _serve_info(result) -> dict:
        return {
            "queue_s": result.info.get("queue_s"),
            "batch_size": result.info.get("batch_size"),
            "worker": result.info.get("worker"),
            "shard": result.info.get("shard"),
            "setup_s": result.info.get("setup_s"),
            "preconditioner": result.info.get("preconditioner_kind"),
            "krylov": result.info.get("krylov"),
            "degraded": bool(result.info.get("degraded", False)),
            "rung": result.info.get("rung"),
            "failure_reason": result.info.get("failure_reason"),
            "primary_failure": result.info.get("primary_failure"),
            "breaker_rerouted": bool(result.info.get("breaker_rerouted", False)),
        }

    def _read_solve_frame(self, binary: bool) -> "proto.Frame":
        """The request body as a ``solve`` frame: a binary body is one, a
        JSON body's fields fill one in (its lists become float64 blocks)."""
        raw = self._read_body()
        if binary:
            if not raw:
                raise InvalidRequest("binary request needs a non-empty body")
            frame = proto.decode_frame(raw)
            if frame.kind != "solve":
                raise InvalidRequest(f"expected a 'solve' frame, got {frame.kind!r}")
            return frame
        payload = json.loads(raw.decode("utf-8")) if raw else {}
        if not isinstance(payload, dict):
            raise InvalidRequest("request body must be a JSON object")
        return proto.Frame(
            "solve", {name: payload.get(name) for name in ("problem", "config", "deadline_ms")},
            {name: np.asarray(payload[name], dtype=np.float64)
             for name in ("b", "x0") if payload.get(name) is not None})

    def _solve(self, binary: bool) -> None:
        """Decode the body into a ``solve`` frame, dispatch it, and encode
        the results like the request; every error answers as JSON."""
        decode = obs_trace.detached("ingress.decode")  # the root cannot exist yet: its trace id may be in the frame
        try:
            frame = self._read_solve_frame(binary)
        except BaseException as error:  # noqa: BLE001 - mapped to JSON errors
            self._send_exception(error)
            return
        decode.finish()
        # A frame may carry its own trace correlation in the header meta (a
        # relaying parent, or a client threading its own ids).  Malformed
        # meta is dropped silently — it must never fail the solve.
        trace_meta = proto.extract_trace_meta(frame.meta)
        parent_id = None
        if trace_meta is not None:
            self._trace_id = trace_meta["trace_id"]
            parent_id = trace_meta["parent_span_id"]
        with obs_trace.trace_root("http.request", trace_id=self._trace_id,
                                  parent_id=parent_id, path="/solve",
                                  proto="binary" if binary else "json") as root:
            # The body was decoded before the root could exist — back-date
            # the root so decode/dispatch/encode tile the request wall time.
            root.start = decode.start
            if self._retry_of is not None:
                root.set_attribute("retry_of", self._retry_of)
            root.child("ingress.decode", start=decode.start, end=decode.end)
            try:
                meta = frame.meta
                deadline_ms = meta.get("deadline_ms")
                if deadline_ms is not None:
                    deadline_ms = float(deadline_ms)
                b = frame.arrays.get("b")
                block = frame.arrays.get("B")
                x0 = frame.arrays.get("x0")
                if block is not None and b is not None:
                    raise InvalidRequest("send either 'b' or 'B', not both")
                if block is not None and x0 is not None:
                    raise InvalidRequest("'x0' applies to single-column requests only")
                k = 1 if block is None or block.ndim != 2 else block.shape[1]
                for _ in range(k):
                    self.service.metrics.observe_proto("binary" if binary else "json")
                # a block is admitted, validated and routed once and reaches
                # its worker in one hand-over: one lockstep batch
                with obs_trace.span("serve.dispatch"):
                    if block is None:
                        results = [self.service.solve(
                            meta.get("problem"), b=b, x0=x0,
                            solver_config=meta.get("config"), deadline_ms=deadline_ms)]
                    else:
                        results = [future.result() for future in self.service.submit_columns(
                            meta.get("problem"), block,
                            solver_config=meta.get("config"), deadline_ms=deadline_ms)]
            except BaseException as error:  # noqa: BLE001 - mapped to JSON errors
                self._send_exception(error)
                return
            with obs_trace.span("response.encode"):
                if binary:
                    self._send_body(self._result_frame(results, block is not None),
                                    proto.CONTENT_TYPE)
                else:
                    (result,) = results
                    self._send_json({
                        "solution": result.solution.tolist(),
                        "converged": bool(result.converged),
                        "iterations": int(result.iterations),
                        "final_relative_residual": float(result.final_relative_residual),
                        "elapsed_s": float(result.elapsed_time),
                        "serve": self._serve_info(result),
                    })
            root.add_event("result", k=len(results),
                           converged=[bool(r.converged) for r in results])

    def _result_frame(self, results, block: bool) -> bytes:
        """The ``result`` frame of a binary request's results."""
        arrays = {"final_relative_residual": np.asarray(
            [r.final_relative_residual for r in results], dtype=np.float64)}
        if block:
            arrays["solution"] = np.stack([r.solution for r in results], axis=1)
        else:
            arrays["solution"] = results[0].solution
            arrays["residual_history"] = np.asarray(results[0].residual_history, dtype=np.float64)
        return proto.encode_frame("result", {
            "k": len(results),
            "converged": [bool(r.converged) for r in results],
            "iterations": [int(r.iterations) for r in results],
            "elapsed_s": [float(r.elapsed_time) for r in results],
            "serve": [self._serve_info(r) for r in results],
        }, arrays)


class _ThreadingServer(ThreadingHTTPServer):
    """One handler thread per connection, each tracked until it ends, so
    :meth:`ServeHTTPServer.stop` can let go of every connection."""

    block_on_close = False  # stop() joins the handlers itself, with a bound

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        self._connections_lock = threading.Lock()
        self.connections = {}  # open socket -> its handler thread
        #: connections accepted since start
        self.accepted = 0

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address),
            name=f"repro-serve-http-{self.server_address[1]}-conn-{self.accepted}",
            daemon=True)
        with self._connections_lock:
            self.accepted += 1
            self.connections[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self.connections.pop(request, None)
        super().shutdown_request(request)

    def release_connections(self) -> List[threading.Thread]:
        """Shut the read side of every open connection; their handlers.

        A handler waiting for its connection's next request reads EOF and
        ends; one answering a request still writes its response first.
        """
        with self._connections_lock:
            open_connections = list(self.connections.items())
        for connection, _ in open_connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the client closed it already
        return [thread for _, thread in open_connections]


class ServeHTTPServer:
    """A :class:`SolveService` behind a threading HTTP server.

    ``service`` is a :class:`~repro.serve.service.SolveService` over either
    executor — in-process, or the multi-process
    :class:`~repro.serve.shard.ShardedSolveService`.

    ``port=0`` binds an ephemeral port (the bound address is available as
    :attr:`address` after construction) — used by the tests.  ``debug=True``
    includes tracebacks in internal-error responses; leave it off anywhere
    untrusted clients can reach the port.
    """

    def __init__(self, service: SolveService, host: str = "127.0.0.1",
                 port: int = 8780, debug: bool = False) -> None:
        self.service = service
        self._httpd = _ThreadingServer((host, port), _Handler)
        self._httpd.service = service  # type: ignore[attr-defined]
        self._httpd.debug = bool(debug)  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServeHTTPServer":
        """Serve in a background thread (returns immediately)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entry point)."""
        self._httpd.serve_forever()

    @property
    def connections_accepted(self) -> int:
        """TCP connections accepted so far (a kept-alive client opens one)."""
        return self._httpd.accepted

    def stop(self) -> None:
        """Stop accepting, let go of every open connection, join handlers.

        Nothing the server started outlives it: an idle kept-alive
        connection would otherwise hold its handler thread — and through
        it this server and its service — until the client disconnects.
        """
        self._httpd.shutdown()
        handlers = self._httpd.release_connections()
        self._httpd.server_close()
        for thread in handlers:
            thread.join(5.0)
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None

    def __enter__(self) -> "ServeHTTPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
