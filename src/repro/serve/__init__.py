"""``repro.serve`` — a concurrent solve service over prepared sessions.

The serving layer above :mod:`repro.solvers`: accept a stream of solve
requests, reuse prepared :class:`~repro.solvers.session.SolverSession`
objects across them (LRU keyed by problem/config/model content), coalesce
concurrent single-RHS requests into lockstep multi-RHS solves (bit-identical
per RHS), and measure the tail latency the ROADMAP's serving story is about.

Components:

* :class:`~repro.serve.service.SolveService` /
  :class:`~repro.serve.service.ServeConfig` — the serving core: **one**
  request lifecycle (admit → key → route → execute → settle) with the
  breakers, the deadline reaper and the outcome accounting defined once.
  Routing and execution are delegated to an executor; the default
  :class:`~repro.serve.service.ThreadExecutor` (session cache,
  micro-batching queues, pinned worker threads) makes it the in-process
  service.
* :class:`~repro.serve.shard.ShardedSolveService` /
  :class:`~repro.serve.shard.ShardConfig` — the same service with the
  :class:`~repro.serve.shard.ProcessExecutor` plugged in: a pre-fork
  *process* pool whose workers each host a thread executor directly.
  Sessions shard by fingerprint via consistent hashing, a spec's problem is
  built once, in the front process, and installed on its worker over the
  pipe, checkpoint weights and directly passed operators live once in
  shared memory, and a supervisor restarts dead workers
  (:class:`~repro.serve.errors.WorkerCrashed` types their in-flight
  failures).
* :mod:`repro.serve.proto` — the length-prefixed binary frame format (JSON
  header + raw aligned array blocks) used by the binary ``/solve`` path and
  the parent↔worker pipes; zero-copy on decode, bitwise-exact.
* :class:`~repro.serve.cache.SessionCache` — fingerprint-keyed LRU of
  prepared sessions.
* :class:`~repro.serve.metrics.ServeMetrics` /
  :class:`~repro.serve.metrics.LatencyHistogram` — p50/p95/p99 latency,
  throughput, cache hit-rate; counters live in a
  :class:`repro.obs.MetricsRegistry` rendered by ``GET /metrics``.
* :class:`~repro.serve.http.ServeHTTPServer` — stdlib HTTP front end
  (``python -m repro.serve``): one ``/solve`` path that decodes a JSON or
  a binary-frame body into one ``solve`` frame;
  :class:`~repro.serve.client.ServeClient` is the matching client
  (``solve`` / ``solve_binary``; one kept-alive connection per thread).
* :mod:`repro.serve.problems` — deterministic problem-spec resolution for
  HTTP requests.
* :mod:`repro.serve.errors` — typed failures with stable codes
  (:class:`~repro.serve.errors.InvalidRequest`,
  :class:`~repro.serve.errors.ServiceOverloaded`,
  :class:`~repro.serve.errors.DeadlineExceeded`,
  :class:`~repro.serve.errors.WorkerCrashed`) and the one mapping of any
  exception onto them, :func:`~repro.serve.errors.as_serve_error`;
  :class:`~repro.serve.breaker.CircuitBreaker` guards each primary session
  key and reroutes onto fallback rungs while the primary is down.

Quickstart::

    from repro.serve import ServeConfig, SolveService

    with SolveService(ServeConfig(max_batch=8)) as service:
        result = service.solve(problem, b)
        print(service.stats()["latency_ms"]["total"]["p99_ms"])
"""

from .breaker import CircuitBreaker
from .cache import SessionCache
from .client import ServeClient, ServeClientError
from .errors import (
    DeadlineExceeded,
    InvalidRequest,
    ServeError,
    ServiceOverloaded,
    WorkerCrashed,
    error_from_code,
)
from .http import ServeHTTPServer
from .metrics import LatencyHistogram, ServeMetrics
from .problems import ProblemCache, build_problem_from_spec
from .proto import CONTENT_TYPE, Frame, decode_frame, encode_frame
from .service import ServeConfig, SolveService
from .shard import ShardConfig, ShardedSolveService

__all__ = [
    "SolveService",
    "ServeConfig",
    "ShardedSolveService",
    "ShardConfig",
    "SessionCache",
    "ProblemCache",
    "build_problem_from_spec",
    "ServeMetrics",
    "LatencyHistogram",
    "ServeHTTPServer",
    "ServeClient",
    "ServeClientError",
    "ServeError",
    "InvalidRequest",
    "ServiceOverloaded",
    "DeadlineExceeded",
    "WorkerCrashed",
    "error_from_code",
    "CircuitBreaker",
    "Frame",
    "encode_frame",
    "decode_frame",
    "CONTENT_TYPE",
]
