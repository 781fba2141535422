"""Bounded ring of structured convergence-telemetry events.

The opt-in ``obs`` hook on :class:`~repro.solvers.SolverConfig` streams
per-iteration residuals, degradation-rung transitions, breaker reroutes and
terminal outcomes into one process-global bounded ring of JSON-lines-safe
dicts.  The ring observes; it never feeds back into the solve (asserted by
the bit-parity tests), and the hook is excluded from ``config_hash()`` so
flipping telemetry on can never change a session key.

Events are plain dicts with a mandatory ``kind`` plus free-form fields:

``iteration``   per-Krylov-iteration relative residual(s)
``rung``        degradation-ladder transition (primary → fallback)
``breaker``     circuit-breaker reroute decision in the serve layer
``terminal``    end of one solve: converged / iterations / failure_reason

>>> ring = EventRing(capacity=3)
>>> for i in range(5):
...     ring.emit("iteration", iteration=i, residual=10.0 ** -i)
>>> [e["iteration"] for e in ring.tail()]
[2, 3, 4]
>>> ring.summary()["kinds"]
{'iteration': 3}
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional

__all__ = ["EventRing", "capture_events", "get_ring", "set_ring"]

DEFAULT_CAPACITY = 65536


class EventRing:
    """Thread-safe bounded ring of structured events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._events: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self._emitted = 0

    def emit(self, kind: str, **fields: Any) -> None:
        # One dict literal, one locked append.  An explicit ``ts=`` field
        # overrides the stamp — used by buffered emitters (the session's
        # telemetry buffer) to preserve the original observation time.
        event = {"ts": time.time(), "kind": str(kind), **fields}
        with self._lock:
            self._events.append(event)
            self._emitted += 1

    def extend(self, events: List[Dict[str, Any]]) -> None:
        """Append pre-built event dicts under one lock acquisition.

        Bulk path for buffered emitters (the session telemetry buffer flushes
        one solve's iteration rows in a single call).  Each dict must already
        carry ``ts`` and ``kind``; the ring does not re-stamp them.
        """
        with self._lock:
            self._events.extend(events)
            self._emitted += len(events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def emitted(self) -> int:
        """Total events ever emitted (including ones the ring evicted)."""
        with self._lock:
            return self._emitted

    def tail(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        with self._lock:
            events = list(self._events)
        return events if n is None else events[-int(n):]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def dump_jsonl(self, path) -> int:
        """Write the ring as JSON lines; returns the number of events."""
        events = self.tail()
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return len(events)

    def summary(self) -> Dict[str, Any]:
        return summarize(self.tail())


def summarize(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a list of telemetry events (ring- or file-sourced)."""
    kinds: Dict[str, int] = {}
    failures: Dict[str, int] = {}
    iterations: List[int] = []
    last_residual: Optional[float] = None
    for event in events:
        kind = str(event.get("kind", "?"))
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "terminal":
            reason = event.get("failure_reason")
            if reason:
                failures[str(reason)] = failures.get(str(reason), 0) + 1
            if isinstance(event.get("iterations"), int):
                iterations.append(event["iterations"])
        elif kind == "iteration":
            residual = event.get("residual")
            if isinstance(residual, (int, float)):
                last_residual = float(residual)
    out: Dict[str, Any] = {
        "events": len(events),
        "kinds": dict(sorted(kinds.items())),
        "failure_reasons": dict(sorted(failures.items())),
        "last_residual": last_residual,
    }
    if iterations:
        out["solves"] = len(iterations)
        out["iterations_mean"] = sum(iterations) / len(iterations)
        out["iterations_max"] = max(iterations)
    return out


_ring_lock = threading.Lock()
_ring = EventRing()


def get_ring() -> EventRing:
    """The process-global event ring telemetry hooks emit into."""
    return _ring


def set_ring(ring: EventRing) -> EventRing:
    """Install a new global ring; returns the previous one."""
    global _ring
    with _ring_lock:
        previous, _ring = _ring, ring
    return previous


class capture_events:
    """Swap in a fresh global ring for the duration of a block.

    >>> with capture_events(capacity=16) as ring:
    ...     get_ring().emit("terminal", converged=True, iterations=3)
    ...     captured = len(ring)
    >>> captured
    1
    """

    __slots__ = ("_capacity", "_ring", "_previous")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._capacity = capacity
        self._ring: Optional[EventRing] = None
        self._previous: Optional[EventRing] = None

    def __enter__(self) -> EventRing:
        self._ring = EventRing(self._capacity)
        self._previous = set_ring(self._ring)
        return self._ring

    def __exit__(self, *exc: Any) -> bool:
        if self._previous is not None:
            set_ring(self._previous)
        return False


def iter_jsonl(path) -> Iterator[Dict[str, Any]]:
    """Yield events from a JSON-lines file, skipping malformed lines."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict):
                yield event
