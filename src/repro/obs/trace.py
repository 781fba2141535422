"""Zero-dependency request tracing, and the one timing record of the repo.

A :class:`Span` is a named interval on the *monotonic* clock
(``time.perf_counter``) with attributes, typed events, and children.  Spans
form a tree; the root of one tree is a *trace* identified by a ``trace_id``
shared by every span in it.  A context-local *tracer* (one ``ContextVar``)
holds the currently-active span so instrumented code deep in the stack —
``SolverSession.solve``, a Krylov loop — can attach children without
plumbing a span argument through every signature.

A span is also the repo's only stopwatch.  Every timing the program reports
— ``SolveResult.elapsed_time`` / ``preconditioner_time``, a session's
``setup_timings``, ``inference_stats()``, the serve queue and solve samples —
is a read of a *record*: a span opened by :func:`record` (or built directly)
whose timed sub-intervals are *leaves*, one :meth:`Span.record_leaf` call
each.  A view is the record's duration (:attr:`Span.seconds`) or the sum of
its leaves of one name (:meth:`Span.total`); no module outside this one reads
a clock to time an interval.

Design constraints, in priority order:

1. **Off means unkept, not untimed.**  Tracing is opt-in via
   :func:`enable_tracing`.  When disabled (the default), a :func:`span` is a
   shared no-op, while a :func:`record` is *detached*: it times its interval
   and its leaves exactly as an attached one does, but it joins no tree,
   allocates no span or trace id and is never exported.  With tracing on the
   record is the active span's child, so tracing decides only whether the
   timings are kept — both modes run the same code.  This is what keeps the
   ≤2% overhead gate honest (``benchmarks/check_obs_overhead.py``).
2. **Never perturb the payload.**  Spans observe; they do not touch result
   bytes, session keys, or the Krylov guard order.  Mutating methods only
   append to lists (atomic under the GIL), so concurrent writers (worker
   thread adding a child while the reaper stamps a terminal event) are safe.
3. **Fork-portable by duration.**  ``perf_counter`` origins differ across
   processes, so serialized spans (:meth:`Span.to_dict`) carry durations that
   are meaningful anywhere, while absolute ``start``/``end`` are only
   comparable within one process.  A worker re-roots a trace from the
   ``trace`` field of the frame meta and ships its finished subtree back in
   the result frame, where the parent grafts it under the dispatch span.

>>> enable_tracing()
>>> with trace_root("http.request") as root:
...     with span("ingress.decode"):
...         pass
...     with span("serve.dispatch") as dispatch:
...         dispatch.set_attribute("worker", 0)
>>> [child.name for child in root.children]
['ingress.decode', 'serve.dispatch']
>>> root.trace_id == root.children[0].trace_id
True
>>> finished = drain_traces()
>>> finished[-1] is root
True
>>> disable_tracing()
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "current_span",
    "detached",
    "disable_tracing",
    "drain_traces",
    "enable_tracing",
    "finished_traces",
    "new_span_id",
    "new_trace_id",
    "record",
    "span",
    "trace_enabled",
    "trace_root",
    "use_span",
]

# Typed terminal events a request span may carry exactly one of.  Kept here
# (not in serve/) so tests and the CLI can validate span trees without
# importing the serving stack.
TERMINAL_EVENTS = (
    "result",
    "error",
    "deadline_exceeded",
    "worker_crashed",
)

_MAX_CHILDREN = 4096  # hard cap per span: a runaway loop must not OOM the host


def new_trace_id() -> str:
    """128-bit random hex trace id."""
    return os.urandom(16).hex()


# Span ids are allocated on the hot path (one per Krylov preconditioner
# application when tracing is on), so they must not cost a syscall each —
# ``os.urandom`` per span was the single largest item in the overhead gate.
# Uniqueness only needs to hold per process: serialized trees carry structure
# by nesting (``from_dict`` regenerates ids), never by id reference, so a
# random per-import seed + pid + sequence counter is sufficient and ~10x
# cheaper.  ``itertools.count`` increments atomically under the GIL.
_SPAN_SEED = os.urandom(2).hex()
_SPAN_SEQ = itertools.count(1)


def new_span_id() -> str:
    """64-bit hex span id (unique within this process tree)."""
    return "%s%04x%08x" % (_SPAN_SEED, os.getpid() & 0xFFFF, next(_SPAN_SEQ) & 0xFFFFFFFF)


class Span:
    """One named interval in a trace, with attributes, events and children."""

    __slots__ = (
        "name",
        "_trace_id",
        "_span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "events",
        "children",
        "dropped_children",
        "_leaf_buf",
        "_totals",
        "_kept",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        start: Optional[float] = None,
        **attributes: Any,
    ) -> None:
        self.name = str(name)
        self._trace_id = trace_id or None  # allocated lazily (a detached record never needs one)
        self._span_id: Optional[str] = None  # allocated lazily (hot path)
        self.parent_id = parent_id
        self.start = time.perf_counter() if start is None else float(start)
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes)
        self.events: List[Dict[str, Any]] = []
        self.children: List["Span"] = []
        self.dropped_children = 0
        self._leaf_buf: Optional[List[tuple]] = None
        self._totals: Optional[Dict[str, float]] = None
        self._kept = True  # False for a detached record: leaves are summed, not buffered

    @property
    def trace_id(self) -> str:
        """The trace id, allocated on first use."""
        if self._trace_id is None:
            self._trace_id = new_trace_id()
        return self._trace_id

    @property
    def span_id(self) -> str:
        """The span id, allocated on first use (ids are off the hot path)."""
        if self._span_id is None:
            self._span_id = new_span_id()
        return self._span_id

    # -- mutation ----------------------------------------------------------- #
    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add_event(self, kind: str, **fields: Any) -> None:
        """Append a typed event stamped with the offset from span start."""
        event = {"kind": str(kind), "offset_ms": (time.perf_counter() - self.start) * 1e3}
        event.update(fields)
        self.events.append(event)

    def child(
        self,
        name: str,
        *,
        start: Optional[float] = None,
        end: Optional[float] = None,
        **attributes: Any,
    ) -> "Span":
        """Create (and attach) a child span.

        With explicit ``start``/``end`` this records a *retrospective* child —
        an interval measured elsewhere (queue wait, shard round-trip) attached
        after the fact, already finished.  Without them the child is open and
        must be finished by the caller (or via :func:`span`).
        """
        node = Span(
            name,
            trace_id=self.trace_id,
            parent_id=self.span_id,
            start=start,
            **attributes,
        )
        if end is not None:
            node.end = float(end)
        if len(self.children) < _MAX_CHILDREN:
            self.children.append(node)
        else:
            self.dropped_children += 1
        return node

    def record_leaf(self, name: str, start: float, end: float,
                    attributes: Optional[Dict[str, Any]] = None,
                    error_type: Optional[str] = None) -> None:
        """Record a finished leaf interval without materializing a Span.

        One tuple append (atomic under the GIL) instead of a Span allocation,
        id and clock reads; the buffered leaves become real child spans in
        :meth:`_materialize_leaves` the next time the tree is walked or
        serialized.  The interval also adds to :meth:`total` under ``name``.
        Past ``_MAX_CHILDREN`` buffered leaves a leaf is counted in
        ``dropped_children`` instead of kept, but still summed: a record
        stays bounded and its totals stay whole.  A :func:`detached` record
        only sums: nothing will export its leaves, so none are buffered.
        """
        totals = self._totals
        if totals is None:
            totals = self._totals = {}
        totals[name] = totals.get(name, 0.0) + (end - start)
        if not self._kept:
            return
        buf = self._leaf_buf
        if buf is None:
            buf = self._leaf_buf = []
        if len(buf) < _MAX_CHILDREN:
            buf.append((name, start, end, attributes, error_type))
        else:
            self.dropped_children += 1

    def measure(self, name: str, function: Callable[..., Any], *args: Any,
                attributes: Optional[Dict[str, Any]] = None) -> Any:
        """Call ``function(*args)`` and record the call as one leaf ``name``."""
        start = time.perf_counter()
        try:
            return function(*args)
        finally:
            self.record_leaf(name, start, time.perf_counter(), attributes)

    def total(self, name: str) -> float:
        """Seconds summed over every leaf recorded under ``name``, kept or dropped.

        >>> node = Span("solve", start=0.0)
        >>> node.record_leaf("precond.apply", 0.5, 1.5)
        >>> node.record_leaf("precond.apply", 2.0, 2.25)
        >>> node.total("precond.apply"), node.total("other")
        (1.25, 0.0)
        """
        return self._totals.get(name, 0.0) if self._totals is not None else 0.0

    @property
    def seconds(self) -> float:
        """The record's duration in seconds (up to *now* while it is open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def _materialize_leaves(self) -> None:
        """Convert buffered leaf intervals into ordinary child spans."""
        buf = self._leaf_buf
        if not buf:
            return
        self._leaf_buf = None
        for name, start, end, attributes, error_type in buf:
            node = self.child(name, start=start, end=end, **(attributes or {}))
            if error_type is not None:
                node.events.append({"kind": "error", "offset_ms": (end - start) * 1e3,
                                    "error_type": error_type})

    def finish(self, end: Optional[float] = None) -> None:
        # Buffered leaves are NOT materialized here: finish() runs inside the
        # timed request window, so the tuple→Span conversion is deferred to
        # the read paths (walk/to_dict), which run when the trace is consumed.
        if self.end is None:
            self.end = time.perf_counter() if end is None else float(end)

    # -- inspection --------------------------------------------------------- #
    @property
    def duration_ms(self) -> float:
        """Duration in milliseconds (up to *now* while the span is open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return max(0.0, (end - self.start) * 1e3)

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        if self._leaf_buf is not None:
            self._materialize_leaves()
        yield self
        for child in list(self.children):
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """All descendant spans (including self) with the given name."""
        return [node for node in self.walk() if node.name == name]

    def stage_timings(self) -> Dict[str, float]:
        """Aggregate descendant durations by span name, in milliseconds.

        One request's trace collapses to per-stage totals.
        """
        totals: Dict[str, float] = {}
        for node in self.walk():
            if node is self:
                continue
            totals[node.name] = totals.get(node.name, 0.0) + node.duration_ms
        return totals

    def terminal_events(self) -> List[str]:
        """Kinds of typed terminal events recorded on this span."""
        return [e["kind"] for e in self.events if e["kind"] in TERMINAL_EVENTS]

    # -- serialization across the fork boundary ----------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        if self._leaf_buf is not None:
            self._materialize_leaves()
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration_ms": self.duration_ms,
            "attributes": dict(self.attributes),
            "events": list(self.events),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any], *, parent: Optional["Span"] = None) -> "Span":
        """Rebuild a serialized span tree (e.g. shipped back from a worker).

        Absolute clock values are not portable across processes, so rebuilt
        spans are anchored at the attach time and sized by ``duration_ms``.
        Raises ``ValueError``/``TypeError``/``KeyError`` on malformed input —
        callers on untrusted paths must catch and drop.
        """
        name = payload["name"]
        if not isinstance(name, str):
            raise TypeError("span name must be a string")
        duration_ms = float(payload.get("duration_ms", 0.0))
        anchor = parent.start if parent is not None else time.perf_counter()
        node = cls(
            name,
            trace_id=parent.trace_id if parent is not None else str(payload.get("trace_id") or new_trace_id()),
            parent_id=parent.span_id if parent is not None else None,
            start=anchor,
        )
        node.end = anchor + duration_ms / 1e3
        attributes = payload.get("attributes") or {}
        if not isinstance(attributes, dict):
            raise TypeError("span attributes must be a dict")
        node.attributes = dict(attributes)
        node.attributes.setdefault("remote", True)
        events = payload.get("events") or []
        if not isinstance(events, list):
            raise TypeError("span events must be a list")
        node.events = [dict(e) for e in events]
        for child in payload.get("children") or []:
            node.children.append(cls.from_dict(child, parent=node))
        return node

    def graft(self, payload: Dict[str, Any]) -> Optional["Span"]:
        """Attach a serialized subtree as a child; drop it if malformed."""
        try:
            node = Span.from_dict(payload, parent=self)
        except (TypeError, ValueError, KeyError):
            return None
        if len(self.children) < _MAX_CHILDREN:
            self.children.append(node)
            return node
        self.dropped_children += 1
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"{self.duration_ms:.3f}ms"
        return f"Span({self.name!r}, trace={self.trace_id[:8]}, {state}, children={len(self.children)})"


class _NullSpan:
    """Shared no-op stand-in returned by :func:`span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def add_event(self, kind: str, **fields: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()

# Context-local active span.  Threads start with an empty context, so a worker
# thread only sees a span its runner explicitly activated via use_span() —
# exactly the hand-off semantics the serve layer wants.
_ACTIVE: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar("repro_obs_span", default=None)

_enabled = False
_finished_lock = threading.Lock()
_finished: Deque[Span] = deque(maxlen=256)


def enable_tracing(max_traces: int = 256) -> None:
    """Turn tracing on process-wide and size the finished-trace ring."""
    global _enabled, _finished
    with _finished_lock:
        if _finished.maxlen != max_traces:
            _finished = deque(_finished, maxlen=max_traces)
        _enabled = True


def disable_tracing() -> None:
    """Turn tracing off and clear the finished-trace ring."""
    global _enabled
    with _finished_lock:
        _enabled = False
        _finished.clear()


def trace_enabled() -> bool:
    return _enabled


def current_span() -> Optional[Span]:
    """The active span in this context, or ``None`` (always None when off)."""
    if not _enabled:
        return None
    return _ACTIVE.get()


def record_trace(root: Span) -> None:
    """Finish a root span and append it to the finished-trace ring."""
    root.finish()
    if _enabled:
        with _finished_lock:
            _finished.append(root)


def finished_traces() -> List[Span]:
    """Snapshot of recorded root spans, oldest first."""
    with _finished_lock:
        return list(_finished)


def drain_traces() -> List[Span]:
    """Return and clear the recorded root spans."""
    with _finished_lock:
        out = list(_finished)
        _finished.clear()
    return out


class use_span:
    """Context manager activating an existing span in the current context."""

    __slots__ = ("_span", "_token")

    def __init__(self, target: Optional[Span]) -> None:
        self._span = target
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Optional[Span]:
        if self._span is not None:
            self._token = _ACTIVE.set(self._span)
        return self._span

    def __exit__(self, *exc: Any) -> bool:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        return False


class _ActiveSpan:
    """Open a child of the current span, activate it, finish on exit.

    Without a kept trace to join it opens a detached span instead (see
    :func:`record`).
    """

    __slots__ = ("_name", "_attributes", "_span", "_token")

    def __init__(self, name: str, attributes: Dict[str, Any]) -> None:
        self._name = name
        self._attributes = attributes
        self._span: Optional[Span] = None
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Span:
        parent = _ACTIVE.get() if _enabled else None
        if parent is None:  # no trace is kept: a detached record, never activated
            node = detached(self._name, **self._attributes)
        else:
            node = parent.child(self._name, **self._attributes)
            self._token = _ACTIVE.set(node)
        self._span = node
        return node

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        node = self._span
        if node is not None:
            if exc_type is not None and not node.terminal_events():
                node.add_event("error", error_type=exc_type.__name__)
            node.finish()
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        return False


def span(name: str, **attributes: Any):
    """Context manager for a child span of the context-local active span.

    Returns a shared no-op when tracing is disabled or no trace is active, so
    instrumentation points on hot paths cost one attribute read.
    """
    if not _enabled or _ACTIVE.get() is None:
        return _NULL_SPAN
    return _ActiveSpan(name, attributes)


def detached(name: str, **attributes: Any) -> Span:
    """A record no trace will keep: it times, and sums its leaves into
    :meth:`Span.total`, without buffering them (nothing will export them), so
    a long-lived one — a preconditioner's lifetime record — stays a few
    floats however many leaves it sums.
    """
    node = Span(name, **attributes)
    node._kept = False
    return node


def record(name: str, **attributes: Any) -> _ActiveSpan:
    """Context manager opening the timing record of one interval; yields a :class:`Span`.

    With a trace kept it is :func:`span`: the active span's child, activated
    until exit.  Otherwise the record is detached — same clock, same leaves,
    no tree, no ids.  Either way the caller reads its timings off it
    (:attr:`Span.seconds`, :meth:`Span.total`), so tracing never changes
    what is timed or how.

    >>> with record("solve") as rec:
    ...     rec.record_leaf("precond.apply", rec.start, rec.start + 0.25)
    >>> rec.end is not None, rec.total("precond.apply"), finished_traces()
    (True, 0.25, [])
    """
    return _ActiveSpan(name, attributes)


class trace_root:
    """Start a new root span, activate it, and record it on exit.

    Usable when tracing is disabled too: it then yields a throwaway span that
    is never recorded, which keeps call sites branch-free.
    """

    __slots__ = ("_name", "_trace_id", "_parent_id", "_attributes", "_span", "_token")

    def __init__(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> None:
        self._name = name
        self._trace_id = trace_id
        self._parent_id = parent_id
        self._attributes = attributes
        self._span: Optional[Span] = None
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Span:
        node = Span(self._name, trace_id=self._trace_id, parent_id=self._parent_id, **self._attributes)
        self._span = node
        self._token = _ACTIVE.set(node)
        return node

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        node = self._span
        if node is not None:
            if exc_type is not None and not node.terminal_events():
                node.add_event("error", error_type=exc_type.__name__)
            record_trace(node)
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        return False
