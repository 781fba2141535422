"""The serving core: one request lifecycle, two places a solve can run.

Every request — in-process or sharded — goes through the same five stages,
and each stage exists exactly once, in :class:`SolveService`:

1. **admit** — closed check, problem/config resolution, deadline and vector
   validation (:func:`validate_vector`).  Malformed input raises
   :class:`~repro.serve.errors.InvalidRequest` synchronously, before
   anything is enqueued.  A problem spec and config given as plain dicts
   (the HTTP paths) are resolved once per distinct pair — problem, config
   and session key kept in an LRU of ``cache_capacity`` entries; the
   deadline and every right-hand side are checked per request.
2. **key** — :func:`repro.solvers.fingerprint.session_key` (problem bytes ×
   solver config × model/checkpoint content; the config hash covers the
   inference ``precision``, so a request can never be answered at a
   precision it did not ask for; a config naming a checkpoint file re-hashes
   per request, so a retrained file changes the key), then the per-primary-key
   :class:`~repro.serve.breaker.CircuitBreaker`: while it is open, a request
   whose config names a fallback ladder is rerouted onto the first rung (a
   distinct session key).
3. **route** and 4. **execute** — delegated to an *executor*.  The
   :class:`ThreadExecutor` here runs solves in this process: a
   :class:`~repro.serve.cache.SessionCache` pays setup once per key, sessions
   are *pinned* to worker threads by key hash (so the per-session scratch
   buffers are only ever driven from one thread), and each worker coalesces
   queued same-session tickets into one
   :meth:`~repro.solvers.session.SolverSession.solve_many` call bounded by
   ``max_batch`` — **bit-identical per RHS** to sequential
   ``session.solve`` (the lockstep contract), so batching is purely a
   throughput optimisation.  A request's tickets (one, or the ``k`` columns
   of :meth:`SolveService.submit_columns`) are handed over in one step, so
   a block is one batch by construction; a worker waits up to
   ``max_wait_ms`` for company only when its previous batch had some.  The
   process executor in :mod:`repro.serve.shard` ships the tickets over a
   pipe, as one frame, to a worker process that hosts a
   :class:`ThreadExecutor` of its own.
5. **settle** — info flags, :class:`~repro.serve.metrics.ServeMetrics`,
   breaker outcome, the span's terminal event and the future's resolution
   (:meth:`SolveService._settle_result` / :meth:`SolveService._settle_error`).

Failure domain (where each typed failure is raised, and settled — once):

* **Validation** — admit stage, synchronous, never reaches an executor.
* **Bounded queues + load shedding** — each worker thread's queue holds at
  most ``max_queue`` tickets; beyond that the executor raises
  :class:`~repro.serve.errors.ServiceOverloaded` (HTTP 503 with
  ``Retry-After``) instead of buffering unboundedly.
* **Per-request deadlines** — ``submit(deadline_ms=...)`` registers the
  ticket with the one :class:`_Reaper`, which fails the future with
  :class:`~repro.serve.errors.DeadlineExceeded` the moment the deadline
  passes, even if the owning worker is stalled mid-solve.  No injected fault
  leaves a future unresolved past its deadline.
* **Circuit breakers** — ``breaker_failures`` consecutive primary failures
  (failed solves, failed session builds, crashed workers) open the key's
  breaker; half-open probes re-admit the primary once it recovers.
* **Health** — :meth:`SolveService.health` reports worker liveness, queue
  depths and breaker states (the ``/healthz`` payload).

Typical use::

    service = SolveService(model=model)
    result = service.solve(problem, b)                  # blocking
    future = service.submit(problem, b, deadline_ms=500)
    futures = service.submit_columns(problem, B)        # (n, k): one batch
    print(service.stats()["latency_ms"]["total"]["p99_ms"])
    service.close()
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..fem.problem import Problem
from ..krylov.result import SolveResult
from ..obs import trace as obs_trace
from ..obs.metrics import merge_snapshots
from ..solvers.config import SolverConfig
from ..solvers.fingerprint import session_key
from ..solvers.session import SolverSession, check_methods
from .breaker import CircuitBreaker
from .cache import SessionCache
from .errors import DeadlineExceeded, InvalidRequest, ServiceOverloaded, WorkerCrashed
from .metrics import ServeMetrics
from .problems import ProblemCache, _normalise_spec

__all__ = ["ServeConfig", "SolveService", "ThreadExecutor", "validate_vector"]


def validate_vector(
    name: str, vector: Optional[np.ndarray], num_dofs: int
) -> Optional[np.ndarray]:
    """Boundary validation of a right-hand side or initial guess.

    Checks shape, dtype coercibility and finiteness, raising
    :class:`~repro.serve.errors.InvalidRequest` so malformed input never
    reaches a worker (thread or process).
    """
    if vector is None:
        return None
    try:
        vector = np.asarray(vector, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise InvalidRequest(f"{name} must be a numeric vector: {error}") from error
    if vector.shape != (num_dofs,):
        raise InvalidRequest(
            f"{name} must have shape ({num_dofs},), got {vector.shape}"
        )
    if not np.isfinite(vector).all():
        raise InvalidRequest(f"{name} contains non-finite entries")
    return vector


@dataclass
class ServeConfig:
    """Service-level knobs (solver knobs live on each request's SolverConfig).

    Attributes
    ----------
    workers:
        Worker threads; sessions are pinned to workers by key hash.
    max_batch:
        Maximum requests coalesced into one ``solve_many`` call (1 disables
        micro-batching: one solve per request).
    max_wait_ms:
        Bound on the *contended* wait: after a batch that had company
        (tickets of more than one request, or a same-key request queued
        when it finished), the next batch waits up to this long for more
        same-session requests.  A batch without that evidence dispatches at
        once, so a lone client never pays it.
    cache_capacity:
        LRU capacity of the prepared-session cache, and of the memo of
        resolved (problem spec, solver config) pairs.
    max_queue:
        Bound on each worker's queue.  A submit that would exceed it is shed
        with :class:`~repro.serve.errors.ServiceOverloaded` instead of
        buffering unboundedly.
    default_deadline_ms:
        Deadline applied to requests that do not pass their own
        ``deadline_ms`` (None = no deadline).
    breaker_failures:
        Consecutive primary failures on one session key before its circuit
        breaker opens.
    breaker_reset_s:
        Seconds an open breaker waits before admitting a half-open probe.
    shed_retry_after_s:
        ``Retry-After`` hint attached to shed requests.
    """

    workers: int = 2
    max_batch: int = 8
    max_wait_ms: float = 2.0
    cache_capacity: int = 8
    max_queue: int = 64
    default_deadline_ms: Optional[float] = None
    breaker_failures: int = 5
    breaker_reset_s: float = 30.0
    shed_retry_after_s: float = 0.1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive or None")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if self.breaker_reset_s < 0:
            raise ValueError("breaker_reset_s must be >= 0")
        if self.shed_retry_after_s < 0:
            raise ValueError("shed_retry_after_s must be >= 0")

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-serialisable) — ships to worker processes.

        >>> ServeConfig(max_batch=4).to_dict()["max_batch"]
        4
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ServeConfig":
        """Rebuild from :meth:`to_dict` output, rejecting unknown fields.

        >>> ServeConfig.from_dict({"workers": 3}).workers
        3
        >>> try:
        ...     ServeConfig.from_dict({"worker": 3})
        ... except ValueError as error:
        ...     print(str(error).split(" (")[0])
        unknown serve-config fields: ['worker']
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown serve-config fields: {unknown} (known: {sorted(known)})"
            )
        return cls(**data)


class _Resolved:
    """A (problem, solver config) pair resolved for serving.

    ``spec`` is the normalised problem spec (None for a directly passed
    ``Problem``); ``key`` the session key, None when it must be recomputed
    per request (a config that names a checkpoint file, whose content may
    change).  ``route_meta`` is the executor's to fill on first use: what
    it derives from the pair alone.
    """

    __slots__ = ("problem", "spec", "config", "key", "route_meta")

    def __init__(self, problem: Problem, spec: Optional[Dict], config: SolverConfig,
                 key: Optional[str]) -> None:
        self.problem = problem
        self.spec = spec
        self.config = config
        self.key = key
        self.route_meta: Optional[Dict[str, object]] = None


class _Ticket:
    """One admitted request, from the key stage to settle, in either executor.

    The lifecycle fills the identity fields; ``slot`` (the worker thread or
    shard the ticket was routed to), ``session``, ``req_id`` and ``meta`` are
    scratch space of whichever executor carries it.  ``record`` is the
    ticket's timing record, opened when the ticket is handed to its executor
    (:func:`open_ticket_record`); the queue and solve times it settles with
    are reads of its leaves.  The column tickets of
    one ``(n, k)`` request share one ``request`` token, which is how a
    serving thread tells a block's own columns from company.
    """

    __slots__ = ("key", "breaker_key", "rerouted", "b", "x0", "future", "span",
                 "deadline_at", "record", "slot", "session", "req_id", "meta", "request")

    def __init__(self, key: str, breaker_key: str = "", rerouted: bool = False,
                 b: Optional[np.ndarray] = None, x0: Optional[np.ndarray] = None,
                 span: Optional[obs_trace.Span] = None,
                 deadline_ms: Optional[float] = None,
                 request: Optional[object] = None) -> None:
        #: session key the solve runs under (the fallback rung's when rerouted)
        self.key = key
        #: the *primary* session key — the breaker identity even when the
        #: request was rerouted onto a fallback rung's session ("" = none)
        self.breaker_key = breaker_key
        self.rerouted = rerouted
        self.b = b
        self.x0 = x0
        self.future: Future = Future()
        #: the caller's active span at submit time (None when tracing is
        #: off); executors attach retrospective children to it
        self.span = span
        #: time.monotonic() deadline (None = the request has none)
        self.deadline_at = (
            None if deadline_ms is None else time.monotonic() + deadline_ms / 1e3)
        self.record: Optional[obs_trace.Span] = None
        self.slot = None
        self.session: Optional[SolverSession] = None
        self.req_id: Optional[int] = None
        self.meta: Optional[Dict[str, object]] = None
        #: identity of the request this ticket is a column of
        self.request = object() if request is None else request

    def expired(self) -> bool:
        return self.deadline_at is not None and time.monotonic() >= self.deadline_at


def open_ticket_record(ticket: _Ticket, name: str) -> None:
    """Open ``ticket``'s record at its hand-over to the executor.

    A child ``name`` of the caller's span when a trace is kept (so the
    ticket's leaves — ``serve.queue``, ``serve.solve`` — show in it), a
    detached span otherwise; the settle reads the same leaves either way.
    """
    ticket.record = (obs_trace.detached(name) if ticket.span is None
                     else ticket.span.child(name))


def _resolve(future: Future, result=None, error: Optional[BaseException] = None) -> bool:
    """Resolve ``future`` unless someone got there first; True when it took.

    A ticket's future has several would-be resolvers — the executor's
    completion, the deadline reaper, a crashed shard's drain, the caller's
    own ``cancel()`` — and only the first may win.
    """
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        return False
    return True


class _Reaper(threading.Thread):
    """Deadline enforcement: fails futures the moment their deadline passes.

    Workers may stall mid-solve (a hung BLAS call, an injected fault); the
    reaper guarantees the *caller* still gets a
    :class:`~repro.serve.errors.DeadlineExceeded` on time — the future fails
    fast even though the worker thread (or process) is still busy.
    """

    def __init__(self, metrics: ServeMetrics) -> None:
        super().__init__(name="repro-serve-reaper", daemon=True)
        self.metrics = metrics
        self.condition = threading.Condition()
        self._heap: List[Tuple[float, int, _Ticket]] = []
        self._seq = 0
        self.stopping = False

    def watch(self, ticket: _Ticket) -> None:
        if ticket.deadline_at is None:
            return
        with self.condition:
            heapq.heappush(self._heap, (ticket.deadline_at, self._seq, ticket))
            self._seq += 1
            self.condition.notify()

    def stop(self) -> None:
        with self.condition:
            self.stopping = True
            self.condition.notify_all()

    def run(self) -> None:
        while True:
            with self.condition:
                # drop entries whose futures resolved on their own
                while self._heap and self._heap[0][2].future.done():
                    heapq.heappop(self._heap)
                if self.stopping:
                    return
                if not self._heap:
                    self.condition.wait()
                    continue
                deadline, _, ticket = self._heap[0]
                now = time.monotonic()
                if deadline > now:
                    self.condition.wait(deadline - now)
                    continue
                heapq.heappop(self._heap)
            # fail the future outside the lock; a late completion from the
            # executor loses the race in _resolve
            if not _resolve(ticket.future, error=DeadlineExceeded("request deadline exceeded")):
                continue  # resolved in the meantime
            ticket.record.finish()
            if ticket.span is not None:
                ticket.span.add_event("deadline_exceeded")
            self.metrics.observe_deadline_timeout()
            self.metrics.observe_error()


class _Worker(threading.Thread):
    """One serving thread: drains its queue, coalescing same-session runs.

    A popped ticket takes every batchable ticket already queued — so the k
    columns of one request, which arrive in one critical section, run as
    one lockstep batch — and dispatches at once.  It waits up to
    ``max_wait_ms`` for more only when the *previous* batch was contended:
    it held tickets of more than one request, or a same-key ticket of
    another request was queued when its solve ended — judged before any of
    its tickets settles, so a client's next request, sent on its answer,
    is never its own company.  A lone client never pays the window;
    closed-loop clients on one key keep filling batches.
    """

    def __init__(self, executor: "ThreadExecutor", index: int) -> None:
        super().__init__(name=f"repro-serve-worker-{index}", daemon=True)
        self.executor = executor
        self.index = index
        self.queue: Deque[_Ticket] = deque()
        self.condition = threading.Condition()
        self.stopping = False
        #: monotonic timestamp of the last main-loop heartbeat (healthz)
        self.last_beat = time.monotonic()

    # -- producer side -------------------------------------------------- #
    def submit(self, tickets: List[_Ticket]) -> None:
        """Enqueue a request's tickets together, or shed them all."""
        config = self.executor.config
        with self.condition:
            if self.stopping:
                raise RuntimeError("service is closed")
            if len(self.queue) + len(tickets) > config.max_queue:
                raise ServiceOverloaded(
                    f"worker {self.index} queue cannot take {len(tickets)} more "
                    f"({len(self.queue)}/{config.max_queue} requests)",
                    retry_after_s=config.shed_retry_after_s,
                )
            self.queue.extend(tickets)
            self.condition.notify()

    def stop(self) -> None:
        with self.condition:
            self.stopping = True
            self.condition.notify_all()

    # -- consumer side --------------------------------------------------- #
    def _take_batchable(self, first: _Ticket, limit: int) -> List[_Ticket]:
        """Pull queued tickets that can join ``first``'s batch (same session,
        no per-request initial guess), preserving FIFO order of the rest."""
        taken: List[_Ticket] = []
        remaining: Deque[_Ticket] = deque()
        while self.queue and len(taken) < limit:
            candidate = self.queue.popleft()
            if candidate.key == first.key and candidate.x0 is None:
                taken.append(candidate)
            else:
                remaining.append(candidate)
        # put non-matching tickets back in their original order
        remaining.extend(self.queue)
        self.queue.clear()
        self.queue.extend(remaining)
        return taken

    def _contended(self, batch: List[_Ticket]) -> bool:
        """Did ``batch`` have company: another request in it, or one for
        its key queued behind it?  A block's own columns never count."""
        requests = {ticket.request for ticket in batch}
        if len(requests) > 1:
            return True
        key = batch[0].key
        with self.condition:
            return any(ticket.key == key and ticket.request not in requests
                       for ticket in self.queue)

    def run(self) -> None:
        config = self.executor.config
        contended = False
        while True:
            with self.condition:
                self.last_beat = time.monotonic()
                while not self.queue and not self.stopping:
                    self.condition.wait()
                    self.last_beat = time.monotonic()
                if not self.queue:
                    return  # stopping and drained
                first = self.queue.popleft()

            batch = [first]
            if config.max_batch > 1 and first.x0 is None:
                # take what is queued; wait for more only after a contended batch
                window = config.max_wait_ms / 1e3 if contended else 0.0
                deadline = time.monotonic() + window
                while len(batch) < config.max_batch:
                    with self.condition:
                        extracted = self._take_batchable(first, config.max_batch - len(batch))
                        if not extracted:
                            remaining = deadline - time.monotonic()
                            if remaining <= 0 or self.stopping:
                                break
                            self.condition.wait(remaining)
                            continue
                    batch.extend(extracted)

            contended = self._execute(batch)

    def _execute(self, batch: List[_Ticket]) -> bool:
        """Solve ``batch`` and settle its tickets; returns :meth:`_contended`
        of it, judged once the solve ends and before any solved ticket
        settles."""
        executor = self.executor
        # tickets already failed by the deadline reaper (or cancelled), or
        # whose deadline passed while they queued, are dropped before the
        # expensive solve.  The expiry is reported: a worker process has no
        # reaper of its own, and its reply is what releases the front
        # process's in-flight slot.
        live = []
        for ticket in batch:
            if ticket.expired():
                executor.on_error(ticket, DeadlineExceeded("request deadline exceeded"))
            elif not ticket.future.done():
                live.append(ticket)
            else:  # settled elsewhere (the reaper, the caller's cancel)
                ticket.record.finish()
        if not live:
            return self._contended(batch)
        batch, requested = live, batch
        session = batch[0].session
        # the batch's solve interval; every ticket in it records it as its own
        # serve.solve leaf, and its queue wait as the serve.queue leaf up to it
        solve = obs_trace.detached("serve.solve")
        try:
            # in-session spans (session.solve, krylov.solve) attach to the
            # first ticket's trace; batch-mates keep their own two leaves
            with obs_trace.use_span(batch[0].span):
                if len(batch) == 1:
                    results = [session.solve(batch[0].b, x0=batch[0].x0)]
                else:
                    vectors = [
                        ticket.b if ticket.b is not None else session.problem.rhs
                        for ticket in batch
                    ]
                    results = session.solve_many(np.stack(vectors)).results
        except BaseException as error:  # noqa: BLE001 - delivered to the callers
            solve.finish()
            contended = self._contended(requested)
            for ticket in batch:
                self._record_leaves(ticket, solve, len(batch))
                executor.on_error(ticket, error)
            return contended
        solve.finish()
        contended = self._contended(requested)
        executor.metrics.observe_batch(len(batch))
        for ticket, result in zip(batch, results):
            record = self._record_leaves(ticket, solve, len(batch))
            queue_s = record.total("serve.queue")
            result.info["queue_s"] = queue_s
            result.info["batch_size"] = len(batch)
            result.info["worker"] = self.index
            executor.on_result(ticket, result, queue_s * 1e3, record.total("serve.solve") * 1e3)
        return contended

    def _record_leaves(self, ticket: _Ticket, solve: obs_trace.Span, batch_size: int) -> obs_trace.Span:
        """Close the ticket's record on its two leaves: the queue wait up to the batch solve, then the solve."""
        record = ticket.record
        record.record_leaf("serve.queue", record.start, solve.start, {"worker": self.index})
        record.record_leaf("serve.solve", solve.start, solve.end,
                           {"worker": self.index, "batch_size": batch_size})
        record.finish()
        return record


class ThreadExecutor:
    """Runs tickets in this process: session cache + micro-batching threads.

    The zero-shard executor of :class:`SolveService`, and — hosted directly
    by :func:`repro.serve.shard._shard_worker_main` — what every worker
    process of the sharded service runs.  ``on_result(ticket, result,
    queue_ms, solve_ms)`` and ``on_error(ticket, error)`` are called from
    the worker threads, once per ticket: the service's settle methods in the
    front process, reply-frame writers inside a worker process.
    """

    #: name of a front ticket's record (the worker thread's share of a request)
    ticket_record = "serve.ticket"

    def __init__(self, config: ServeConfig, model, metrics: ServeMetrics,
                 on_result: Callable[..., None], on_error: Callable[..., None]) -> None:
        self.config = config
        self.model = model
        self.metrics = metrics
        self.on_result = on_result
        self.on_error = on_error
        self.sessions = SessionCache(config.cache_capacity)
        self._workers = [_Worker(self, i) for i in range(config.workers)]
        for worker in self._workers:
            worker.start()

    def route(self, tickets: List[_Ticket], request: _Resolved) -> Dict[str, int]:
        """Resolve the request's session (setup is paid here, synchronously,
        on the first request for a key — the only time ``request.problem``
        and ``request.config`` are read) and pin its tickets — all of one
        key — to one worker thread."""
        key = tickets[0].key
        session = self.sessions.get_or_create(
            key, lambda: SolverSession(request.problem, request.config, model=self.model)
        )
        worker = self._workers[int(key[:8], 16) % len(self._workers)]
        for ticket in tickets:
            ticket.session, ticket.slot = session, worker
        return {"worker": worker.index}

    def execute(self, tickets: List[_Ticket]) -> None:
        """Enqueue on the pinned worker in one step; a full queue sheds all."""
        tickets[0].slot.submit(tickets)

    def health(self) -> Dict[str, object]:
        now = time.monotonic()
        workers = [
            {
                "name": worker.name,
                "alive": worker.is_alive(),
                "queue_depth": len(worker.queue),
                "last_beat_age_s": max(0.0, now - worker.last_beat),
            }
            for worker in self._workers
        ]
        alive = all(w["alive"] for w in workers)
        return {"status": "ok" if alive else "unhealthy", "workers": workers}

    def stats(self) -> Dict[str, object]:
        cache = self.sessions.stats()
        return {"cache": cache, "cache_hit_rate": cache["hit_rate"],
                "workers": len(self._workers)}

    def observe(self, registry) -> List[Dict[str, object]]:
        """Refresh this executor's gauges on ``registry`` at read time."""
        depth = registry.gauge(
            "repro_serve_queue_depth", "Requests waiting per worker thread.")
        for worker in self._workers:
            depth.set(len(worker.queue), worker=str(worker.index))
        registry.gauge(
            "repro_serve_cached_sessions", "Prepared sessions in the LRU cache."
        ).set(self.sessions.stats()["size"])
        return []

    def close(self, timeout: float) -> None:
        """Stop accepting work and join the workers (queued work is drained)."""
        for worker in self._workers:
            worker.stop()
        for worker in self._workers:
            worker.join(timeout)


class SolveService:
    """Concurrent solve serving over cached sessions with micro-batching."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        model=None,
        default_solver_config: Union[SolverConfig, Dict, None] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.model = model
        if isinstance(default_solver_config, dict):
            default_solver_config = SolverConfig.from_dict(default_solver_config)
        self.default_solver_config = default_solver_config or SolverConfig(
            preconditioner="ddm-lu"
        )
        self.problems = ProblemCache()
        self._resolutions: "OrderedDict[str, _Resolved]" = OrderedDict()
        self._resolutions_lock = threading.Lock()
        self.metrics = ServeMetrics()
        self._closed = False
        self._close_lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        self._executor = self._build_executor()
        self._reaper = _Reaper(self.metrics)
        self._reaper.start()

    def _build_executor(self):
        """The executor this service routes to (the process pool overrides)."""
        return ThreadExecutor(self.config, self.model, self.metrics,
                              self._settle_result, self._settle_error)

    @property
    def sessions(self) -> SessionCache:
        """The prepared-session cache of the in-process executor."""
        return self._executor.sessions

    # -- admit ----------------------------------------------------------- #
    def _resolve_problem(
        self, problem: Union[Problem, Dict, None]
    ) -> Tuple[Problem, Optional[Dict]]:
        """Resolve to (assembled problem, spec-or-None).

        A spec re-resolves deterministically wherever it is sent (same seed
        → same fingerprint), so a process executor ships only the tiny spec
        dict; a directly passed ``Problem`` has no spec and is installed
        through shared memory instead.
        """
        if isinstance(problem, Problem):
            return problem, None
        spec = _normalise_spec(problem)
        return self.problems.resolve(spec), spec

    def _resolve_config(self, solver_config: Union[SolverConfig, Dict, None]) -> SolverConfig:
        if solver_config is None:
            return self.default_solver_config
        if isinstance(solver_config, dict):
            return SolverConfig.from_dict(solver_config)
        return solver_config

    def _resolve_request(self, problem, solver_config) -> _Resolved:
        """Resolve ``(problem, solver_config)``, once per distinct pair.

        A spec dict (or None) with a config dict (or None) — every HTTP
        request — is memoised under the pair's canonical JSON in an LRU of
        ``cache_capacity`` entries.  An assembled ``Problem`` or a
        ``SolverConfig`` object is not JSON, and is resolved per call.
        """
        try:
            memo_key = json.dumps([problem, solver_config], sort_keys=True)
        except (TypeError, ValueError):
            memo_key = None
        if memo_key is not None:
            with self._resolutions_lock:
                resolved = self._resolutions.get(memo_key)
                if resolved is not None:
                    self._resolutions.move_to_end(memo_key)
                    return resolved
        assembled, spec = self._resolve_problem(problem)
        config = self._resolve_config(solver_config)
        # the checks the session would make in whichever executor prepares it
        _, preconditioner_kind = check_methods(assembled, config)
        key = None
        if not (config.checkpoint and self.model is None and preconditioner_kind.needs_model):
            key = session_key(assembled, config, self.model)
        resolved = _Resolved(assembled, spec, config, key)
        if memo_key is not None:
            with self._resolutions_lock:
                self._resolutions[memo_key] = resolved
                while len(self._resolutions) > self.config.cache_capacity:
                    self._resolutions.popitem(last=False)
        return resolved

    # -- circuit breakers ------------------------------------------------ #
    def _breaker_for(self, key: str) -> CircuitBreaker:
        with self._breakers_lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.config.breaker_failures,
                    reset_after_s=self.config.breaker_reset_s,
                )
                self._breakers[key] = breaker
            return breaker

    def _record_outcome(self, ticket: _Ticket, ok: bool) -> None:
        """Feed a request's outcome to its breaker.

        Only requests that actually attempted the *primary* configuration
        count: rerouted (breaker-open) requests ran a fallback rung and say
        nothing about the primary's health.
        """
        if ticket.rerouted:
            return
        with self._breakers_lock:
            breaker = self._breakers.get(ticket.breaker_key)
        if breaker is None:
            return
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    def _breaker_block(self) -> Dict[str, object]:
        with self._breakers_lock:
            by_key = {key: b.snapshot() for key, b in self._breakers.items()}
        states = [b["state"] for b in by_key.values()]
        return {
            "total": len(states),
            "open": states.count("open"),
            "half_open": states.count("half_open"),
            "by_key": by_key,
        }

    # -- the lifecycle ---------------------------------------------------- #
    def submit(
        self,
        problem: Union[Problem, Dict, None],
        b: Optional[np.ndarray] = None,
        x0: Optional[np.ndarray] = None,
        solver_config: Union[SolverConfig, Dict, None] = None,
        deadline_ms: Optional[float] = None,
    ) -> "Future[SolveResult]":
        """Enqueue one solve; returns a future resolving to its SolveResult.

        ``problem`` is an assembled :class:`~repro.fem.problem.Problem`, a
        problem-spec dict (see :mod:`repro.serve.problems`), or None for the
        service's default spec.  With the in-process executor, setup cost is
        paid synchronously on the first request for a new session key
        (subsequent requests are pure cache hits) and a full worker queue
        sheds synchronously with
        :class:`~repro.serve.errors.ServiceOverloaded`; behind the process
        executor both happen inside the worker and surface *through the
        future*, as does :class:`~repro.serve.errors.WorkerCrashed` when the
        worker dies with the request in flight.

        ``deadline_ms`` (or ``config.default_deadline_ms``) bounds how long
        the returned future may stay unresolved: past the deadline it fails
        with :class:`~repro.serve.errors.DeadlineExceeded` even if the worker
        is still busy.
        """
        return self._submit(problem, b, None, x0, solver_config, deadline_ms)[0]

    def submit_columns(
        self,
        problem: Union[Problem, Dict, None],
        B: np.ndarray,
        solver_config: Union[SolverConfig, Dict, None] = None,
        deadline_ms: Optional[float] = None,
    ) -> "List[Future[SolveResult]]":
        """Enqueue the ``k`` columns of an ``(n, k)`` block; one future each.

        The request is admitted, keyed and routed once, every column is
        validated before anything is enqueued, and the ``k`` column tickets
        reach their worker in one hand-over — so for ``k <= max_batch`` the
        block runs as one lockstep batch whatever the timing, and a full
        queue or in-flight cap sheds the whole block.  Each column settles
        (metrics, breaker, future) like a request of its own, and is
        **bit-identical** to ``session.solve`` of that column.
        """
        return self._submit(problem, None, B, None, solver_config, deadline_ms)

    def _submit(self, problem, b, B, x0, solver_config, deadline_ms) -> List[Future]:
        """The lifecycle behind :meth:`submit` (``b``) and
        :meth:`submit_columns` (``B``): one ticket per right-hand side."""
        # admit
        if self._closed:
            raise RuntimeError("service is closed")
        caller_span = obs_trace.current_span()
        # routing covers validation, keying and the executor's pick of (and
        # set-up on) the worker that will run the solve
        with obs_trace.span("serve.route") as route:
            try:
                resolved = self._resolve_request(problem, solver_config)
            except InvalidRequest:
                raise
            except (TypeError, ValueError, KeyError) as error:
                raise InvalidRequest(str(error)) from error
            if deadline_ms is None:
                deadline_ms = self.config.default_deadline_ms
            elif deadline_ms <= 0:
                raise InvalidRequest(f"deadline_ms must be positive, got {deadline_ms!r}")
            num_dofs = resolved.problem.num_dofs
            if B is None:
                columns = [validate_vector("right-hand side", b, num_dofs)]
            else:
                try:
                    B = np.asarray(B, dtype=np.float64)
                except (TypeError, ValueError) as error:
                    raise InvalidRequest(f"'B' must be a numeric block: {error}") from error
                if B.ndim != 2 or B.shape[1] < 1:
                    raise InvalidRequest(f"'B' must be a 2-D (n, k) block, got shape {B.shape}")
                columns = [validate_vector(f"right-hand side column {j}",
                                           np.ascontiguousarray(B[:, j]), num_dofs)
                           for j in range(B.shape[1])]
            x0 = validate_vector("initial guess", x0, num_dofs)

            # key
            config = resolved.config
            key = resolved.key or session_key(resolved.problem, config, self.model)
            use_key, rerouted = key, False
            if config.fallback and not self._breaker_for(key).allow_primary():
                # breaker open: skip the failing primary entirely and serve
                # from the first fallback rung's (cached) session
                use_config = dataclasses.replace(
                    config,
                    preconditioner=config.fallback[0],
                    fallback=list(config.fallback[1:]),
                )
                use_key = session_key(resolved.problem, use_config, self.model)
                resolved = _Resolved(resolved.problem, resolved.spec, use_config, use_key)
                rerouted = True
                if caller_span is not None:
                    caller_span.add_event(
                        "breaker_reroute", rung=use_config.preconditioner
                    )
            request = object()
            tickets = [_Ticket(use_key, key, rerouted, column, x0, caller_span, deadline_ms, request)
                       for column in columns]

            try:
                where = self._executor.route(tickets, resolved)
            except Exception as error:
                # refused at the door (a failed session build, an unreachable
                # worker): settled like any failure that comes back from an
                # executor — a failed build (e.g. a poisoned checkpoint) is a
                # primary failure the breaker must see, so repeated ones
                # eventually reroute to the fallback rung — then raised
                for ticket in tickets:
                    self._settle_error(ticket, error)
                raise
            route.set_attribute("cache_key", use_key[:16])
            route.set_attribute("rerouted", rerouted)
            for name, value in where.items():
                route.set_attribute(name, value)

        # execute: each ticket's record opens at the hand-over
        for ticket in tickets:
            open_ticket_record(ticket, self._executor.ticket_record)
        try:
            self._executor.execute(tickets)
        except Exception as error:  # a full queue or in-flight cap sheds the request
            for ticket in tickets:
                ticket.record.finish()
                self._settle_error(ticket, error)
            raise
        # register with the reaper only after the executor accepted the tickets
        for ticket in tickets:
            self._reaper.watch(ticket)
        return [ticket.future for ticket in tickets]

    def solve(
        self,
        problem: Union[Problem, Dict, None],
        b: Optional[np.ndarray] = None,
        x0: Optional[np.ndarray] = None,
        solver_config: Union[SolverConfig, Dict, None] = None,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
    ) -> SolveResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        future = self.submit(
            problem, b=b, x0=x0, solver_config=solver_config, deadline_ms=deadline_ms
        )
        return future.result(timeout)

    # -- settle ----------------------------------------------------------- #
    def _settle_result(self, ticket: _Ticket, result: SolveResult,
                       queue_ms: float, solve_ms: float, **where) -> None:
        """A ticket's solve came back: account it, then resolve the future."""
        if ticket.rerouted:
            result.info["breaker_rerouted"] = True
        degraded = bool(result.info.get("degraded"))
        if degraded or ticket.rerouted:
            self.metrics.observe_degraded()
        self._record_outcome(ticket, ok=result.converged and not degraded)
        self.metrics.observe_request(queue_ms, solve_ms)
        if ticket.span is not None:
            ticket.span.add_event(
                "result", converged=bool(result.converged),
                iterations=int(result.iterations), **where,
            )
        _resolve(ticket.future, result)

    def _settle_error(self, ticket: _Ticket, error: BaseException, **where) -> None:
        """A ticket failed in (or on the way into) its executor: account it,
        then fail the future."""
        if isinstance(error, DeadlineExceeded):
            # an executor noticed the deadline at dequeue; the reaper fires
            # on the same deadline and is the one that fails and counts it
            return
        code = getattr(error, "code", "internal")
        self.metrics.observe_error()
        if code == ServiceOverloaded.code:
            # load shed is not evidence against the primary configuration,
            # so it never feeds the breaker; everything else does
            self.metrics.observe_shed()
        else:
            self._record_outcome(ticket, ok=False)
        if ticket.span is not None:
            ticket.span.add_event(
                "worker_crashed" if code == WorkerCrashed.code else "error",
                error_type=type(error).__name__, code=code, **where,
            )
        _resolve(ticket.future, error=error)

    # -- views ------------------------------------------------------------ #
    def health(self) -> Dict[str, object]:
        """Liveness view: workers, queue depths / in-flight counts, breakers.

        ``status`` is ``"ok"`` when every worker is alive and no breaker is
        open, ``"degraded"`` when the service still serves but a breaker is
        open (primary path down, fallback serving) or a worker process was
        restarted, and ``"unhealthy"`` when a worker (or the reaper) has
        died for good or does not answer its health probe.
        """
        view = self._executor.health()
        breakers = self._breaker_block()
        reaper_alive = self._reaper.is_alive()
        if not reaper_alive:
            view["status"] = "unhealthy"
        elif view["status"] == "ok" and breakers["open"]:
            view["status"] = "degraded"
        view.update(reaper_alive=reaper_alive, breakers=breakers, closed=self._closed)
        return view

    def stats(self) -> Dict[str, object]:
        """One consistent view of throughput, latency SLOs and cache health."""
        snapshot = self.metrics.snapshot()
        executor = self._executor.stats()
        snapshot["config"] = {
            "max_batch": self.config.max_batch,
            "max_wait_ms": self.config.max_wait_ms,
            "max_queue": self.config.max_queue,
            "default_deadline_ms": self.config.default_deadline_ms,
            **executor.pop("config", {}),
        }
        snapshot.update(executor)
        snapshot["problem_cache_size"] = len(self.problems)
        snapshot["breakers"] = self._breaker_block()
        return snapshot

    def metrics_snapshot(self) -> Dict[str, object]:
        """Registry snapshot for ``/metrics`` (gauges refreshed at read time).

        Behind the process executor this is the front process's registry
        merged with every responsive worker's; counters and histograms sum
        element-wise (fixed buckets make the merge exact).
        """
        registry = self.metrics.registry
        registry.gauge(
            "repro_serve_breakers_open", "Circuit breakers currently open."
        ).set(self._breaker_block()["open"])
        workers = self._executor.observe(registry)
        return merge_snapshots([registry.snapshot(), *workers])

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, let the executor drain, stop the reaper."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._executor.close(timeout)
        self._reaper.stop()
        self._reaper.join(timeout)

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
