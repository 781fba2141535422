"""Typed serve-layer errors with stable codes and HTTP status mappings.

Every failure the service surfaces to a caller is one of these exception
types.  Each carries a machine-readable ``code`` (stable across releases —
clients and dashboards match on it) and the HTTP status the front end maps
it to, so :mod:`repro.serve.http` never has to guess a status from an
exception message.

:func:`as_serve_error` is the one mapping from any exception to its typed
error; the HTTP front end and a worker process's error frame both call it:

==========================================  =====================  ======
exception                                   ``code``               status
==========================================  =====================  ======
``InvalidRequest``, ``ValueError``,         ``invalid_request``    400
  ``KeyError`` (``json.JSONDecodeError``
  is a ``ValueError``)
``ServiceOverloaded``                       ``overloaded``         503
``WorkerCrashed``                           ``worker_crashed``     503
``DeadlineExceeded``, ``TimeoutError``      ``deadline_exceeded``  504
anything else                               ``internal``           500
==========================================  =====================  ======

An ``internal`` error's message is ``"<exception type>: <message>"``; the
HTTP front end alone replaces it with ``"internal server error"`` unless the
server runs with ``debug=True``.

>>> InvalidRequest("bad shape").code, InvalidRequest("bad shape").http_status
('invalid_request', 400)
>>> issubclass(InvalidRequest, ValueError)   # legacy callers catch ValueError
True
>>> ServiceOverloaded("queue full", retry_after_s=0.25).retry_after_s
0.25
>>> issubclass(DeadlineExceeded, TimeoutError)
True
>>> type(as_serve_error(KeyError("family"))).__name__
'InvalidRequest'
>>> error = as_serve_error(RuntimeError("boom"))
>>> error.code, error.http_status, str(error)
('internal', 500, 'RuntimeError: boom')

Errors also cross the process boundary of the sharded service: a worker
serialises ``(code, message, retry_after_s)`` of the mapped error into an
error frame and the parent rehydrates the matching type with
:func:`error_from_code`, so a caller sees the same code and message whether
the solve ran in-process or in a worker process.

>>> type(error_from_code("deadline_exceeded", "too slow")).__name__
'DeadlineExceeded'
>>> error_from_code("unknown-code", "boom").code
'internal'
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ServeError",
    "InvalidRequest",
    "ServiceOverloaded",
    "DeadlineExceeded",
    "WorkerCrashed",
    "as_serve_error",
    "error_from_code",
]


class ServeError(Exception):
    """Base class of all typed serve-layer failures."""

    #: stable machine-readable error code (the HTTP layer returns it verbatim)
    code: str = "internal"
    #: HTTP status the front end maps this error to
    http_status: int = 500

    def __init__(self, message: str, retry_after_s: Optional[float] = None,
                 trace_id: Optional[str] = None) -> None:
        super().__init__(message)
        #: optional client back-off hint (serialised as a ``Retry-After`` header)
        self.retry_after_s = retry_after_s
        #: id of the trace this failure belongs to, when known — the HTTP
        #: layer stamps it so a 503/504 correlates with server-side spans
        self.trace_id = trace_id


class InvalidRequest(ServeError, ValueError):
    """Malformed request: bad shape/dtype/finiteness, unknown fields (HTTP 400).

    Subclasses :class:`ValueError` so pre-existing callers that caught
    ``ValueError`` from ``submit`` keep working unchanged.
    """

    code = "invalid_request"
    http_status = 400


class ServiceOverloaded(ServeError, RuntimeError):
    """Load shed: the target worker queue is at capacity (HTTP 503).

    Carries ``retry_after_s`` so clients can back off for the suggested
    interval instead of hammering a saturated service.
    """

    code = "overloaded"
    http_status = 503


class DeadlineExceeded(ServeError, TimeoutError):
    """The request's ``deadline_ms`` elapsed before a result was ready (HTTP 504).

    Raised *through the future* by the deadline reaper: a timed-out request
    fails fast even when its worker is stalled mid-solve.
    """

    code = "deadline_exceeded"
    http_status = 504


class WorkerCrashed(ServeError, RuntimeError):
    """A worker process died with the request in flight (HTTP 503).

    Raised through the future by the sharded-service supervisor when a
    worker's pipe breaks or its process exits: in-flight work on a dead
    shard fails fast and typed while the supervisor restarts the worker.
    The request is safe to retry (solves are idempotent), so the HTTP layer
    maps it to a retryable 503.
    """

    code = "worker_crashed"
    http_status = 503


#: serialisable error codes → exception types (the cross-process registry)
_ERRORS_BY_CODE = {
    cls.code: cls
    for cls in (InvalidRequest, ServiceOverloaded, DeadlineExceeded, WorkerCrashed)
}


def error_from_code(code: str, message: str,
                    retry_after_s: Optional[float] = None,
                    trace_id: Optional[str] = None) -> ServeError:
    """Rehydrate the typed error a serialised ``code`` names.

    Unknown codes (a newer worker talking to an older parent) degrade to the
    base :class:`ServeError` — still typed, still mapped to HTTP 500 —
    rather than raising a second error during error handling.
    """
    cls = _ERRORS_BY_CODE.get(code, ServeError)
    error = cls(message, retry_after_s=retry_after_s, trace_id=trace_id)
    if cls is ServeError and code:
        error.code = "internal"
    return error


def as_serve_error(error: BaseException) -> ServeError:
    """The typed error ``error`` maps to (the table in this module's docstring).

    A :class:`ServeError` is returned as it is; any other exception is
    wrapped, with the original as ``__cause__``.
    """
    if isinstance(error, ServeError):
        return error
    if isinstance(error, (ValueError, KeyError)):
        mapped: ServeError = InvalidRequest(str(error))
    elif isinstance(error, TimeoutError):
        mapped = DeadlineExceeded("request timed out")
    else:
        mapped = ServeError(f"{type(error).__name__}: {error}")
    mapped.__cause__ = error
    return mapped
