"""``repro.obs`` — zero-dependency observability for the whole stack.

Two legs, both stdlib-only:

* :mod:`repro.obs.trace` — spans + a context-local tracer.  One trace follows
  a request from HTTP ingress through the consistent-hash ring, across the
  shard fork (via the ``trace`` field in the binary frame meta), into the
  worker's session solve and back.  Off by default and near-free when off.
  Its :func:`~repro.obs.trace.record` is also the one stopwatch: every
  timing the program reports is a read of a span, kept in a trace or not.
  A solve's telemetry is its :class:`~repro.krylov.result.SolveResult`
  (``residual_history``, ``info``) plus its ``session.solve`` span, which
  carries the outcome — across the shard fork too; ``python -m repro.obs
  tail/summary`` reads a dump of traces.
* :mod:`repro.obs.metrics` — a named Counter/Gauge/Histogram registry with
  JSON snapshots that merge across shard processes and render as the
  Prometheus text exposition format (served at ``GET /metrics``).

Nothing here may perturb numerics, session keys, or response payloads: the
observability plane is strictly read-only with respect to the data plane.
"""

from __future__ import annotations

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    render_prometheus,
)
from .trace import (
    Span,
    current_span,
    detached,
    disable_tracing,
    drain_traces,
    enable_tracing,
    finished_traces,
    new_span_id,
    new_trace_id,
    record,
    span,
    trace_enabled,
    trace_root,
    use_span,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "current_span",
    "detached",
    "disable_tracing",
    "drain_traces",
    "enable_tracing",
    "finished_traces",
    "merge_snapshots",
    "new_span_id",
    "new_trace_id",
    "record",
    "render_prometheus",
    "span",
    "trace_enabled",
    "trace_root",
    "use_span",
]
