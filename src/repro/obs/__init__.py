"""``repro.obs`` — zero-dependency observability for the whole stack.

Three legs, all stdlib-only:

* :mod:`repro.obs.trace` — spans + a context-local tracer.  One trace follows
  a request from HTTP ingress through the consistent-hash ring, across the
  shard fork (via the ``trace`` field in the binary frame meta), into the
  worker's session solve and back.  Off by default and near-free when off.
  Its :func:`~repro.obs.trace.record` is also the one stopwatch: every
  timing the program reports is a read of a span, kept in a trace or not.
* :mod:`repro.obs.metrics` — a named Counter/Gauge/Histogram registry with
  JSON snapshots that merge across shard processes and render as the
  Prometheus text exposition format (served at ``GET /metrics``).
* :mod:`repro.obs.events` — a bounded ring of JSON-lines convergence events
  (per-iteration residuals, ladder rungs, breaker reroutes), opted into per
  request via ``SolverConfig.obs`` and inspectable with
  ``python -m repro.obs tail/summary``.

Nothing here may perturb numerics, session keys, or response payloads: the
observability plane is strictly read-only with respect to the data plane.
"""

from __future__ import annotations

from .events import EventRing, capture_events, get_ring, set_ring, summarize
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
    "EventRing",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "capture_events",
    "current_span",
    "detached",
    "disable_tracing",
    "drain_traces",
    "enable_tracing",
    "finished_traces",
    "get_ring",
    "merge_snapshots",
    "new_span_id",
    "new_trace_id",
    "record",
    "render_prometheus",
    "set_ring",
    "span",
    "summarize",
    "trace_enabled",
    "trace_root",
    "use_span",
]
