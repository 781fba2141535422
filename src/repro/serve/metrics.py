"""Latency and throughput accounting for the solve service.

The serve layer's contract with its operators is an SLO: *p50/p95/p99 latency
under a given load*.  :class:`LatencyHistogram` keeps a bounded ring of raw
samples (milliseconds) and computes nearest-rank percentiles on demand —
exact over the window, no bucketing error, O(window) memory.
:class:`ServeMetrics` aggregates the three per-request phases the service
distinguishes (queue wait, solve, total) plus counters for requests, batches,
errors and per-batch occupancy.

Since the ``repro.obs`` refactor, every counter lives in a
:class:`repro.obs.MetricsRegistry` (one private registry per ``ServeMetrics``
so concurrent services in one process do not mix counts), and each observed
latency is *also* fed into a fixed-log-bucket registry histogram.  The
registry side is what ``GET /metrics`` renders (and what shard workers ship
back for merging); the exact-window :class:`LatencyHistogram` side is what
``stats()`` reports — the public ``snapshot()`` schema is unchanged.

Empty-window normalisation rule (applied in exactly one place,
:func:`window_stat`): **counters are always numbers (0 when nothing
happened); statistics over an empty observation window are always**
``None``.  So ``requests == 0`` coexists with ``p50_ms is None`` — a
deliberate asymmetry between "a count of zero events" and "a percentile of
zero samples", which does not exist.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, List, Optional

from ..obs.metrics import MetricsRegistry

__all__ = ["LatencyHistogram", "ServeMetrics", "window_stat"]


def window_stat(value, count: int):
    """Normalise a window statistic: ``None`` when the window is empty.

    The single choke point for the counters-vs-window-statistics reporting
    rule (see module docstring).

    >>> window_stat(12.5, 3)
    12.5
    >>> window_stat(0.0, 0) is None
    True
    >>> window_stat(7, 0) is None
    True
    """
    return value if count else None


class LatencyHistogram:
    """Bounded reservoir of latency samples with exact window percentiles."""

    def __init__(self, window: int = 8192) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self._samples: List[float] = []
        self._next = 0  # ring-buffer write position once the window is full
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value_ms: float) -> None:
        value_ms = float(value_ms)
        with self._lock:
            if len(self._samples) < self.window:
                self._samples.append(value_ms)
            else:
                self._samples[self._next] = value_ms
                self._next = (self._next + 1) % self.window
            self._count += 1
            self._total += value_ms
            if value_ms > self._max:
                self._max = value_ms

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile over the retained window (None when empty)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def snapshot(self) -> Dict[str, Optional[float]]:
        """count/mean/max plus the SLO percentiles, one consistent view.

        ``count`` is a counter (0 when empty); all statistics follow the
        :func:`window_stat` rule and are ``None`` over an empty window.
        """
        with self._lock:
            samples = list(self._samples)
            count, total, peak = self._count, self._total, self._max
        ordered = sorted(samples)

        def rank(q: float) -> Optional[float]:
            if not ordered:
                return None
            position = max(1, math.ceil(q / 100.0 * len(ordered)))
            return ordered[min(position, len(ordered)) - 1]

        return {
            "count": count,
            "mean_ms": window_stat(total / count if count else None, count),
            "max_ms": window_stat(peak, count),
            "p50_ms": rank(50.0),
            "p95_ms": rank(95.0),
            "p99_ms": rank(99.0),
        }


class ServeMetrics:
    """All service-level counters and histograms in one place.

    Phases per request (all milliseconds):

    ``queue``  — enqueue until the owning worker dequeued the request;
    ``solve``  — the worker's batch execution wall time (shared by every
    request in the batch: that *is* each request's serving time);
    ``total``  — queue + solve, i.e. what the caller experienced.

    Schema of :meth:`snapshot` (the ``/stats`` payload's ``metrics`` half) —
    counters are plain numbers, window statistics are ``None`` when no
    sample landed yet:

    >>> m = ServeMetrics()
    >>> s = m.snapshot()
    >>> (s["requests"], s["errors"], s["shed"], s["proto"]["json"])
    (0, 0, 0, 0)
    >>> print(s["mean_batch_size"], s["max_batch_size"],
    ...       s["latency_ms"]["total"]["p50_ms"])
    None None None
    >>> m.observe_request(queue_ms=1.0, solve_ms=3.0)
    >>> s = m.snapshot()
    >>> (s["requests"], s["latency_ms"]["total"]["p50_ms"])
    (1, 4.0)
    """

    def __init__(self, window: int = 8192, registry: Optional[MetricsRegistry] = None) -> None:
        self.queue = LatencyHistogram(window)
        self.solve = LatencyHistogram(window)
        self.total = LatencyHistogram(window)
        # Private registry by default: two services in one process (tests,
        # shard worker + parent) must not sum each other's counters.
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._requests = r.counter("repro_serve_requests_total", "Requests answered successfully.")
        self._errors = r.counter("repro_serve_errors_total", "Requests that raised.")
        self._batches = r.counter("repro_serve_batches_total", "Micro-batches executed.")
        self._batched_requests = r.counter(
            "repro_serve_batched_requests_total", "Requests carried inside micro-batches.")
        self._degraded = r.counter(
            "repro_serve_degraded_total", "Requests answered by a fallback ladder rung.")
        self._shed = r.counter(
            "repro_serve_shed_total", "Requests rejected because a worker queue was full.")
        self._deadline_timeouts = r.counter(
            "repro_serve_deadline_timeouts_total", "Requests whose deadline elapsed first.")
        self._proto = r.counter(
            "repro_serve_requests_by_proto_total", "Requests by wire encoding.")
        self._worker_restarts = r.counter(
            "repro_serve_worker_restarts_total", "Dead worker processes respawned.")
        self._worker_crashes = r.counter(
            "repro_serve_worker_crashes_total", "Worker processes that died unexpectedly.")
        self._max_batch = r.gauge("repro_serve_max_batch_size", "Largest micro-batch seen.")
        self._latency = r.histogram(
            "repro_serve_latency_ms", "Per-request latency by phase (ms).")
        self._started = time.perf_counter()
        self._started_wall = time.time()

    # ------------------------------------------------------------------ #
    def observe_request(self, queue_ms: float, solve_ms: float) -> None:
        self.queue.observe(queue_ms)
        self.solve.observe(solve_ms)
        self.total.observe(queue_ms + solve_ms)
        self._latency.observe(queue_ms, phase="queue")
        self._latency.observe(solve_ms, phase="solve")
        self._latency.observe(queue_ms + solve_ms, phase="total")
        self._requests.inc()

    def observe_batch(self, size: int) -> None:
        self._batches.inc()
        self._batched_requests.inc(int(size))
        self._max_batch.set_max(int(size))

    def observe_error(self) -> None:
        self._errors.inc()

    def observe_degraded(self) -> None:
        """A request was answered via a fallback rung (degradation ladder)."""
        self._degraded.inc()

    def observe_shed(self) -> None:
        """A request was rejected because the target worker queue was full."""
        self._shed.inc()

    def observe_deadline_timeout(self) -> None:
        """A request's deadline elapsed before its result was ready."""
        self._deadline_timeouts.inc()

    def observe_proto(self, proto: str) -> None:
        """Count one request by wire encoding (``"json"`` or ``"binary"``)."""
        self._proto.inc(proto=proto)

    def observe_worker_crash(self) -> None:
        """A worker process died with requests potentially in flight."""
        self._worker_crashes.inc()

    def observe_worker_restart(self) -> None:
        """The supervisor respawned a dead worker process."""
        self._worker_restarts.inc()

    # ------------------------------------------------------------------ #
    @property
    def requests(self) -> int:
        return int(self._requests.total())

    def snapshot(self) -> Dict[str, object]:
        requests = int(self._requests.total())
        batches = int(self._batches.total())
        batched = int(self._batched_requests.total())
        max_batch = int(self._max_batch.value())
        proto = {"json": int(self._proto.value(proto="json")),
                 "binary": int(self._proto.value(proto="binary"))}
        elapsed = max(time.perf_counter() - self._started, 1e-9)
        return {
            "uptime_s": elapsed,
            "started_unix": self._started_wall,
            "requests": requests,
            "errors": int(self._errors.total()),
            "degraded": int(self._degraded.total()),
            "shed": int(self._shed.total()),
            "deadline_timeouts": int(self._deadline_timeouts.total()),
            "proto": proto,
            "worker_restarts": int(self._worker_restarts.total()),
            "worker_crashes": int(self._worker_crashes.total()),
            "throughput_rps": requests / elapsed,
            "batches": batches,
            "batched_requests": batched,
            "mean_batch_size": window_stat(batched / batches if batches else None, batches),
            "max_batch_size": window_stat(max_batch, batches),
            "latency_ms": {
                "queue": self.queue.snapshot(),
                "solve": self.solve.snapshot(),
                "total": self.total.snapshot(),
            },
        }
