"""The process executor: a pre-fork pool of worker processes behind pipes.

PR 5 pinned sessions to worker *threads*; the GIL still serialised every
CPU-bound SpMV/SpMM, so single-process throughput plateaus at one core.
:class:`ProcessExecutor` lifts the same pinning idea over processes, and
:class:`ShardedSolveService` is :class:`~repro.serve.service.SolveService`
with that executor plugged in — admit, key, breakers, the deadline reaper
and settle are the base class's, run once per request in the front process:

* **Consistent-hash sharding** — tickets route by their
  :func:`~repro.solvers.fingerprint.session_key` over a virtual-node hash
  ring (:func:`build_ring`), so one session key always lands on one worker
  (sessions are never rebuilt in two processes) and adding a shard moves
  only ~1/N of the key space instead of reshuffling everything, keeping
  warm caches warm.
* **Shared memory, not N copies** — checkpoint weight arrays and directly
  passed problems' operator arrays live in
  :mod:`multiprocessing.shared_memory` segments (:mod:`repro.serve.shm`);
  workers attach zero-copy read-only views, so N replicas pay one copy of
  the big arrays.  The parent owns every segment and unlinks on close.
* **A spec's problem is built once per service** — in the front process,
  which needs it to key the request.  The owning worker gets the assembled
  arrays in one ``install_problem`` frame on its pipe, before the first
  solve frame that refers to it, and never meshes or assembles.  A worker
  holds at most :data:`~repro.serve.problems.PROBLEM_CAPACITY` installed
  problems (first in, first out); the front mirrors that table per shard,
  so a warm solve frame carries only the problem's fingerprint and an
  evicted problem is installed again.
* **Binary frames on the pipes** — parent↔worker traffic is the same
  length-prefixed frame format as the binary HTTP path
  (:mod:`repro.serve.proto`): raw f64 blocks both ways, so the process
  boundary adds no float-text cost and results stay **bitwise** identical
  to in-process solves.
* **What crosses the pipe is an admitted, keyed request** — one frame per
  request, carrying one ``req_id`` per right-hand side — the worker
  (:func:`_shard_worker_main`) hosts a
  :class:`~repro.serve.service.ThreadExecutor` directly (session cache,
  micro-batching, bounded queues + shedding) and trusts the frame: it does
  not validate, hash, consult a breaker or run a reaper again, it only drops
  tickets whose frame-carried deadline has already passed when it dequeues
  them.  It looks the frame's problem up and parses its config only to
  build a session (:class:`_FrameRequest`), so a session-cache hit reads
  neither.  The
  front process adds a per-shard in-flight cap and a supervisor that
  **restarts a dead worker** and fails its in-flight futures with the typed
  :class:`~repro.serve.errors.WorkerCrashed`.

Supervision model: the per-shard receiver thread blocks on the worker's
pipe; a worker that exits (or is ``kill -9``-ed) closes its end, the
receiver sees EOF and runs the death protocol — fail in-flight futures
typed, feed the breakers, respawn the process (up to
``ShardConfig.max_restarts``) with an empty problem table.  A worker that
*wedges* without dying is covered by deadlines: the reaper fails its
futures on time and the per-shard in-flight cap sheds further traffic.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import multiprocessing as mp
import os
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..fem.problem import Problem
from ..krylov.result import SolveResult
from ..obs import trace as obs_trace
from ..solvers.config import SolverConfig
from ..solvers.registry import preconditioner_spec
from .errors import InvalidRequest, ServiceOverloaded, WorkerCrashed, as_serve_error, error_from_code
from .metrics import ServeMetrics
from .problems import PROBLEM_CAPACITY
from .proto import (
    TRACE_META_KEY,
    decode_frame,
    encode_frame,
    extract_trace_meta,
    make_trace_meta,
)
from .service import (ServeConfig, SolveService, ThreadExecutor, _resolve, _Resolved, _Ticket,
                      open_ticket_record)
from .shm import (SharedArrayBundle, model_from_shm, model_to_shm, problem_frame, problem_from_frame,
                  problem_from_shm, problem_to_shm)

__all__ = ["ShardConfig", "ShardedSolveService", "ProcessExecutor", "build_ring", "route"]

_START_METHOD_PREFERENCE = ("fork", "spawn")

#: how long ``stats``/``health`` wait for a worker's reply before reporting
#: it unresponsive
_ADMIN_TIMEOUT_S = 10.0


def _shard_context(start_method: Optional[str]) -> mp.context.BaseContext:
    if start_method is not None:
        return mp.get_context(start_method)
    supported = mp.get_all_start_methods()
    for method in _START_METHOD_PREFERENCE:
        if method in supported:
            return mp.get_context(method)
    return mp.get_context()  # pragma: no cover - every platform has one


# --------------------------------------------------------------------------- #
# consistent hashing
# --------------------------------------------------------------------------- #
def build_ring(num_shards: int, virtual_nodes: int = 64) -> List[Tuple[int, int]]:
    """The sorted virtual-node ring: ``virtual_nodes`` points per shard.

    Each point is ``(hash, slot)`` with the hash drawn from SHA-256 of the
    point's name, so the ring is deterministic across processes and runs.

    >>> ring = build_ring(4, virtual_nodes=16)
    >>> len(ring), ring == sorted(ring)
    (64, True)
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if virtual_nodes < 1:
        raise ValueError("virtual_nodes must be >= 1")
    points = []
    for slot in range(num_shards):
        for vnode in range(virtual_nodes):
            digest = hashlib.sha256(f"shard:{slot}:vnode:{vnode}".encode()).digest()
            points.append((int.from_bytes(digest[:8], "big"), slot))
    points.sort()
    return points


def route(ring: Sequence[Tuple[int, int]], key: str) -> int:
    """Map a hex session key onto the first ring point at or after its hash.

    >>> ring = build_ring(3, virtual_nodes=32)
    >>> slots = {route(ring, f"{i:016x}") for i in range(0, 2**64, 2**58)}
    >>> slots == {0, 1, 2}
    True
    """
    value = int(key[:16], 16)
    index = bisect.bisect_left(ring, (value, -1))
    if index == len(ring):
        index = 0
    return ring[index][1]


# --------------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------------- #
@dataclass
class ShardConfig:
    """Process-pool knobs of the sharded service.

    Attributes
    ----------
    workers:
        Worker *processes*.  Sessions shard across them by consistent
        hashing of the session key.
    threads_per_worker:
        Serving threads of each worker's
        :class:`~repro.serve.service.ThreadExecutor` (1 keeps a worker
        strictly single-threaded; micro-batching still applies).
    start_method:
        Multiprocessing start method (None = first supported of
        ``fork``/``spawn``).
    max_restarts:
        Restart budget per shard slot (0 = never respawn); beyond it the
        slot is marked dead and its requests fail fast with
        :class:`~repro.serve.errors.WorkerCrashed`.
    faults:
        Cross-process chaos: ``(name, kwargs)`` specs from
        :mod:`repro.faults`, installed inside every worker at bootstrap
        (:func:`repro.faults.install_from_specs`).
    """

    workers: int = 2
    threads_per_worker: int = 1
    start_method: Optional[str] = None
    max_restarts: int = 3
    faults: Sequence[Tuple[str, Dict[str, object]]] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.threads_per_worker < 1:
            raise ValueError("threads_per_worker must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.faults = tuple((str(name), dict(kwargs)) for name, kwargs in self.faults)


# --------------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------------- #
def _result_frame(req_id: int, result: SolveResult, solve_s: float,
                  trace: Optional[Dict[str, object]] = None) -> bytes:
    meta = {
        "req_id": req_id,
        # the worker's serve.solve interval: the front settles the ticket's
        # latency with it (what is left of the round trip is queue)
        "solve_s": float(solve_s),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "elapsed_s": float(result.elapsed_time),
        "preconditioner_s": float(result.preconditioner_time),
        "failure_reason": result.failure_reason,
        "info": result.info,
    }
    if trace is not None:
        meta[TRACE_META_KEY] = trace
    arrays = {
        "solution": np.asarray(result.solution, dtype=np.float64),
        "residual_history": np.asarray(result.residual_history, dtype=np.float64),
    }
    return encode_frame("result", meta, arrays)


def _error_frame(req_id: Optional[int], error: BaseException,
                 trace: Optional[Dict[str, object]] = None) -> bytes:
    error = as_serve_error(error)
    meta = {"req_id": req_id, "code": error.code, "message": str(error),
            "retry_after_s": error.retry_after_s}
    if trace is not None:
        meta[TRACE_META_KEY] = trace
    return encode_frame("error", meta)


def _finished_trace(root: Optional[obs_trace.Span]) -> Optional[Dict[str, object]]:
    """Close a worker-side root span and serialise it for the reply frame."""
    if root is None:
        return None
    root.finish()
    try:
        return root.to_dict()
    except Exception:  # never let telemetry break the reply
        return None


def _hold(table: "OrderedDict[str, object]", fingerprint: str, problem: object = None) -> None:
    """Add an installed problem to ``table``, evicting the oldest beyond
    :data:`~repro.serve.problems.PROBLEM_CAPACITY`.

    A worker's table and the front's mirror of it change only here, on the
    same install frames in the same pipe order, so they hold the same keys.
    """
    table[fingerprint] = problem
    while len(table) > PROBLEM_CAPACITY:
        table.popitem(last=False)


class _FrameRequest:
    """A solve frame's problem and solver config, read when first needed.

    :meth:`~repro.serve.service.ThreadExecutor.route` reads them only to
    build a session, so a session-cache hit neither looks the problem up
    nor parses the config: it goes from decode straight to the queue.
    """

    def __init__(self, meta: Dict[str, object],
                 installed: Dict[str, Union[Problem, Exception]]) -> None:
        self._meta = meta
        self._installed = installed

    @property
    def problem(self) -> Problem:
        # the front wrote this frame after an install no later one evicted
        problem = self._installed[self._meta["problem_ref"]]
        if isinstance(problem, Exception):  # its install failed: the cause
            raise problem.with_traceback(None)
        return problem

    @property
    def config(self) -> SolverConfig:
        return SolverConfig.from_dict(self._meta["config"])


def _shard_worker_main(conn, bootstrap: Dict[str, object]) -> None:
    """Worker entry point: serve binary frames from the parent pipe.

    Bootstraps faults, the (shared-memory) model and a
    :class:`~repro.serve.service.ThreadExecutor`, then loops on the pipe.
    A solve frame is one already admitted and keyed request — a ``b`` or an
    ``(n, k)`` block ``B`` with one ``req_id`` per column: its tickets are
    handed to the executor *asynchronously* and together, so a block is one
    batch and concurrent requests for one session still coalesce in its
    micro-batching queue — and the executor's completion callbacks send
    one result/error frame back per ticket.  The
    loop exits on a ``shutdown`` frame or pipe EOF (parent gone); exit is
    via ``os._exit`` so shared-memory finalisers never race interpreter
    teardown.  SIGINT is ignored: a terminal's Ctrl-C reaches the whole
    process group, and the parent drives shutdown, so the worker drains on
    its ``shutdown`` frame instead of dying mid-request.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    send_lock = threading.Lock()

    def send(frame_bytes: bytes) -> None:
        with send_lock:
            try:
                conn.send_bytes(frame_bytes)
            except (BrokenPipeError, OSError):
                os._exit(0)  # parent is gone; nothing left to serve

    def send_result(ticket: _Ticket, result: SolveResult,
                    queue_ms: float, solve_ms: float) -> None:
        trace = _finished_trace(ticket.span)
        try:
            send(_result_frame(ticket.req_id, result, solve_ms / 1e3, trace=trace))
        except Exception as error:  # unserialisable info — still answer typed
            send(_error_frame(ticket.req_id, error))

    def send_error(ticket: _Ticket, error: BaseException) -> None:
        send(_error_frame(ticket.req_id, error, trace=_finished_trace(ticket.span)))

    installed_faults = []
    try:
        if bootstrap.get("trace_enabled"):
            # mirror the parent's tracing state so session/preconditioner
            # child spans open inside the worker too (robust under spawn,
            # where module globals are not inherited)
            obs_trace.enable_tracing()
        fault_specs = bootstrap.get("fault_specs") or ()
        if fault_specs:
            from .. import faults as faults_module

            installed_faults = faults_module.install_from_specs(fault_specs)
        manifest = bootstrap.get("model_manifest")
        model = model_from_shm(manifest) if manifest is not None else None
        config = ServeConfig.from_dict(bootstrap["serve_config"])
        # worker-local: batch occupancy only — requests are counted where
        # they are settled, in the front process
        metrics = ServeMetrics()
        executor = ThreadExecutor(config, model, metrics, send_result, send_error)
        installs = metrics.registry.counter(
            "repro_serve_problems_installed_total", "Problems installed on a worker.")
    except BaseException as error:  # noqa: BLE001 - reported to the parent
        try:
            conn.send_bytes(encode_frame("fatal", {
                "message": f"worker bootstrap failed: {type(error).__name__}: {error}",
            }))
            conn.close()
        except Exception:
            pass
        os._exit(1)

    # installed problems (or why an install failed), by fingerprint
    problems: "OrderedDict[str, Union[Problem, Exception]]" = OrderedDict()

    running = True
    while running:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            break
        try:
            frame = decode_frame(data)
        except InvalidRequest as error:
            send(_error_frame(None, error))
            continue
        meta = frame.meta
        req_id = meta.get("req_id")
        if frame.kind == "solve":
            req_ids = meta.get("req_ids") or [None]
            try:
                block = frame.arrays.get("B")
                columns = ([frame.arrays.get("b")] if block is None else
                           [np.ascontiguousarray(block[:, j]) for j in range(block.shape[1])])
                if len(columns) != len(req_ids):
                    raise InvalidRequest(
                        f"{len(columns)} right-hand sides for {len(req_ids)} request ids")
                request = object()
                tickets = []
                for ticket_id, b in zip(req_ids, columns):
                    ticket = _Ticket(meta["key"], b=b, x0=frame.arrays.get("x0"),
                                     deadline_ms=meta.get("deadline_ms"), request=request)
                    ticket.req_id = ticket_id
                    tickets.append(ticket)
                executor.route(tickets, _FrameRequest(meta, problems))
                # each ticket's record is its worker.request span, opened at
                # the hand-over: a valid trace meta re-roots the parent's
                # trace in it, and the finished tree ships back in the reply
                # frame; otherwise (no or malformed meta) it stays detached
                trace_meta = extract_trace_meta(meta) if obs_trace.trace_enabled() else None
                for ticket in tickets:
                    if trace_meta is None:
                        ticket.record = obs_trace.detached("worker.request")
                    else:
                        ticket.record = ticket.span = obs_trace.Span(
                            "worker.request", trace_id=trace_meta["trace_id"],
                            parent_id=trace_meta["parent_span_id"], pid=os.getpid())
                executor.execute(tickets)
            except BaseException as error:  # noqa: BLE001 - serialised to the parent
                for ticket_id in req_ids:
                    send(_error_frame(ticket_id, error))
        elif frame.kind == "install_problem":
            # a failed rebuild is held in the problem's place: the table stays
            # the front's mirror, and the solves that need it fail with the cause
            try:
                problem = (problem_from_shm(meta["manifest"]) if "manifest" in meta
                           else problem_from_frame(frame))
                installs.inc()
            except Exception as error:  # noqa: BLE001 - answered by those solves
                problem = error.with_traceback(None)  # not the frame's bytes
            _hold(problems, meta["fingerprint"], problem)
        elif frame.kind == "status":
            # the one admin frame: the front picks what it needs (stats,
            # health, or the registry snapshot it merges into /metrics)
            executor.observe(metrics.registry)
            metrics.registry.gauge(
                "repro_serve_problems_held", "Installed problems a worker holds.").set(len(problems))
            send(encode_frame("status_result", {"req_id": req_id, "payload": {
                "stats": {**metrics.snapshot(), **executor.stats(),
                          "problems": {"installed": int(installs.total()), "held": len(problems)}},
                "health": executor.health(),
                "metrics": metrics.registry.snapshot(),
            }}))
        elif frame.kind == "shutdown":
            running = False
        # unknown kinds are ignored: an older worker keeps serving what it knows

    # chaos ends with the service: a stall fault left active would hold the
    # drain below for its whole stall bound
    for fault in reversed(installed_faults):
        fault.deactivate()
    executor.close(10.0)
    try:
        conn.close()
    except Exception:
        pass
    os._exit(0)


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #
class _Shard:
    """Parent-side state of one worker slot: process, pipe, in-flight table."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process: Optional[mp.process.BaseProcess] = None
        self.conn = None
        self.lock = threading.Lock()  # guards pending/generation/restarts/dead
        #: serialises writers of ``conn`` and guards ``held``: a solve
        #: frame, the install frame it needs and the mirror's update are one
        #: critical section, so no solve frame can overtake its install
        self.send_lock = threading.Lock()
        self.pending: Dict[int, _Ticket] = {}
        #: the mirror of the worker's table of installed problems (their
        #: fingerprints, oldest first), kept by the same :func:`_hold`
        self.held: "OrderedDict[str, None]" = OrderedDict()
        self.generation = 0
        self.restarts = 0
        self.dead = False
        self.dead_reason: Optional[str] = None
        self.stopping = False

    @property
    def pid(self) -> Optional[int]:
        process = self.process
        return process.pid if process is not None else None

    def alive(self) -> bool:
        process = self.process
        return process is not None and process.is_alive()

    def describe(self) -> Dict[str, object]:
        """The supervisor's view of this slot (a stats/health entry)."""
        return {
            "slot": self.slot,
            "pid": self.pid,
            "alive": self.alive(),
            "dead": self.dead,
            "restarts": self.restarts,
            "pending": len(self.pending),
            "problems_held": len(self.held),
        }


def _shard_send(shard: _Shard, frame_bytes: bytes) -> None:
    """Write one frame to the shard's pipe; the caller holds ``send_lock``."""
    try:
        shard.conn.send_bytes(frame_bytes)
    except (BrokenPipeError, OSError) as error:
        raise WorkerCrashed(
            f"worker {shard.slot} is unreachable ({type(error).__name__}); "
            f"the supervisor is restarting it — retry the request"
        ) from error


class ProcessExecutor:
    """Runs tickets in a pre-fork pool of worker processes.

    Owns the hash ring, the shards (process, pipe, in-flight table, receiver
    thread), the shared-memory bundles and the supervisor.  Construction
    forks the workers immediately (pre-fork: all shared-memory segments and
    the model are prepared *before* the first fork, so every worker inherits
    or attaches the same bytes).  ``on_result``/``on_error`` are the
    service's settle methods, called from the receiver threads.
    """

    #: name of a ticket's record: hand-over to reply frame, the worker's
    #: traced subtree grafted under it
    ticket_record = "shard.roundtrip"

    def __init__(self, config: ServeConfig, shard_config: "ShardConfig", model,
                 metrics: ServeMetrics, on_result: Callable[..., None],
                 on_error: Callable[..., None]) -> None:
        self.config = config
        self.shard_config = shard_config
        self.metrics = metrics
        self.on_result = on_result
        self.on_error = on_error
        self._ctx = _shard_context(shard_config.start_method)
        self._ring = build_ring(shard_config.workers)
        self._req_ids = itertools.count(1)
        #: directly passed problems' segments by fingerprint.  Unbounded:
        #: nothing evicts a bundle, because a worker may still be reading it
        #: (see DESIGN.md, "Shared memory ownership")
        self.problem_bundles: Dict[str, SharedArrayBundle] = {}
        self._bundles_lock = threading.Lock()
        # the cap bounds pipe backlog onto a wedged worker; a healthy one
        # sheds from its own (tighter) queues first
        self._max_pending = max(2 * config.max_queue * shard_config.threads_per_worker, 8)

        # the model's weights attach zero-copy in every worker
        self._model_bundle: Optional[SharedArrayBundle] = (
            model_to_shm(model) if model is not None else None)
        worker_config = dataclasses.replace(config, workers=shard_config.threads_per_worker)
        self._bootstrap = {
            "serve_config": worker_config.to_dict(),
            "model_manifest": self._model_bundle.manifest if model is not None else None,
            "fault_specs": tuple(shard_config.faults),
            # snapshotted at construction: enable tracing BEFORE building the
            # pool if worker-side session spans are wanted
            "trace_enabled": obs_trace.trace_enabled(),
        }

        self.shards = [_Shard(slot) for slot in range(shard_config.workers)]
        # pre-fork: spawn every process before any receiver thread runs, so
        # fork never snapshots a parent thread mid-critical-section
        for shard in self.shards:
            self._spawn_locked(shard)
        for shard in self.shards:
            self._start_receiver(shard)

    # -- process lifecycle ---------------------------------------------- #
    def _spawn_locked(self, shard: _Shard) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, self._bootstrap),
            name=f"repro-serve-shard-{shard.slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent's copy; EOF detection needs it closed
        with shard.send_lock:  # a new worker holds no problem: nor does the mirror
            shard.conn = parent_conn
            shard.held = OrderedDict()
        shard.process = process
        shard.generation += 1

    def _start_receiver(self, shard: _Shard) -> None:
        thread = threading.Thread(
            target=self._receive_loop,
            args=(shard, shard.generation, shard.conn),
            name=f"repro-serve-shard-rx-{shard.slot}-g{shard.generation}",
            daemon=True,
        )
        thread.start()

    def _receive_loop(self, shard: _Shard, generation: int, conn) -> None:
        """Per-shard receiver; doubles as the supervisor's death detector."""
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                frame = decode_frame(data)
            except InvalidRequest:
                continue  # a torn frame from a dying worker; EOF follows
            self._handle_frame(shard, frame)
        self._on_shard_exit(shard, generation)

    def _handle_frame(self, shard: _Shard, frame) -> None:
        meta = frame.meta
        req_id = meta.get("req_id")
        if frame.kind == "fatal":
            shard.dead_reason = str(meta.get("message", "worker bootstrap failed"))
            return  # EOF follows; _on_shard_exit handles the fallout
        with shard.lock:
            ticket = shard.pending.pop(req_id, None) if req_id is not None else None
        if ticket is None:
            return  # duplicate, or a protocol-level error frame
        if frame.kind == "status_result":
            _resolve(ticket.future, meta.get("payload"))
            return
        if frame.kind not in ("result", "error"):
            return
        # the ticket's record is the round trip: hand-over to reply frame; a
        # traced reply carries the worker's subtree, grafted under it
        roundtrip = ticket.record
        roundtrip.finish()
        roundtrip.set_attribute("shard", shard.slot)
        worker_trace = meta.get(TRACE_META_KEY)
        if isinstance(worker_trace, dict):
            roundtrip.graft(worker_trace)
        if frame.kind == "error":
            self.on_error(ticket, error_from_code(
                str(meta.get("code") or "internal"),
                str(meta.get("message") or "worker error"),
                retry_after_s=meta.get("retry_after_s"),
            ), shard=shard.slot)
            return
        result = SolveResult(
            solution=frame.arrays["solution"],
            converged=bool(meta["converged"]),
            iterations=int(meta["iterations"]),
            residual_history=[float(v) for v in frame.arrays["residual_history"]],
            elapsed_time=float(meta["elapsed_s"]),
            preconditioner_time=float(meta["preconditioner_s"]),
            info=dict(meta.get("info") or {}),
            failure_reason=meta.get("failure_reason"),
        )
        result.info["shard"] = shard.slot
        # seen from this side of the pipe, everything that is not the
        # worker's batch solve (frame encode, pipe, the worker's queue) is
        # time spent waiting
        solve_ms = float(meta["solve_s"]) * 1e3
        self.on_result(ticket, result, roundtrip.seconds * 1e3 - solve_ms, solve_ms, shard=shard.slot)

    def _on_shard_exit(self, shard: _Shard, generation: int) -> None:
        """Death protocol: fail in-flight work typed, feed breakers, respawn."""
        with shard.lock:
            if shard.generation != generation:
                return  # a stale receiver of an already-replaced process
            drained = list(shard.pending.values())
            shard.pending.clear()
            stopping = shard.stopping
            restart = (not stopping
                       and shard.dead_reason is None
                       and shard.restarts < self.shard_config.max_restarts)
            if restart:
                shard.restarts += 1
                self._spawn_locked(shard)
            elif not stopping:
                shard.dead = True
                if shard.dead_reason is None:
                    shard.dead_reason = (
                        f"worker {shard.slot} died and exhausted its "
                        f"{self.shard_config.max_restarts} restart(s)"
                    )
        if stopping:
            reason = "service closed before the request completed"
        else:
            self.metrics.observe_worker_crash()
            cause = shard.dead_reason or f"worker {shard.slot} died mid-request"
            reason = f"{cause}; the request was in flight and may be retried"
        for ticket in drained:
            ticket.record.finish()
            self.on_error(ticket, WorkerCrashed(reason), shard=shard.slot)
        if restart:
            self.metrics.observe_worker_restart()
            self._start_receiver(shard)

    # -- route + execute -------------------------------------------------- #
    def _install_locked(self, shard: _Shard, request: _Resolved) -> None:
        """Send the request's problem to ``shard`` unless its table holds
        it; the caller holds ``send_lock`` and writes the solve frame next.

        A spec's problem (every HTTP request) crosses inline: the frame
        carries the arrays this process assembled.  A directly passed
        ``Problem`` crosses as the manifest of a shared-memory bundle,
        packed on first sight, one copy for every shard.  Pipe order then
        makes install-then-solve race-free without acks.
        """
        fingerprint = request.problem.fingerprint()
        if fingerprint in shard.held:
            return
        if request.spec is None:
            with self._bundles_lock:
                if fingerprint not in self.problem_bundles:
                    self.problem_bundles[fingerprint] = problem_to_shm(request.problem)
                meta = {"manifest": self.problem_bundles[fingerprint].manifest,
                        "fingerprint": fingerprint}
                arrays = None
        else:
            meta, arrays = problem_frame(request.problem)
        _shard_send(shard, encode_frame("install_problem", meta, arrays))
        _hold(shard.held, fingerprint)

    def route(self, tickets: List[_Ticket], request: _Resolved) -> Dict[str, int]:
        """Pick the owning shard of the request's key and give every ticket
        its own ``req_id``.  The frame meta of the pair — the problem's
        fingerprint and the config dict — is derived once per resolved
        pair."""
        shard = self.shards[route(self._ring, tickets[0].key)]
        if shard.dead:
            raise WorkerCrashed(shard.dead_reason or f"worker {shard.slot} is down")
        if request.route_meta is None:
            request.route_meta = {"problem_ref": request.problem.fingerprint(),
                                  "config": request.config.to_dict()}
        for ticket in tickets:
            ticket.slot, ticket.resolved = shard, request
            ticket.req_id = next(self._req_ids)
        return {"shard": shard.slot}

    def execute(self, tickets: List[_Ticket]) -> None:
        """Write the request's one solve frame — ``b``, or the ``(n, k)``
        block ``B`` with ``k`` req_ids — to its shard's pipe, after the
        install of its problem when the shard does not hold it."""
        first = tickets[0]
        shard = first.slot
        meta = {"key": first.key, **first.resolved.route_meta,
                "req_ids": [ticket.req_id for ticket in tickets]}
        # the worker gets what is left of the deadline, not a clock reading
        meta["deadline_ms"] = (
            None if first.deadline_at is None
            else (first.deadline_at - time.monotonic()) * 1e3
        )
        if first.span is not None:
            # trace context crosses the fork in the frame header meta; the
            # worker re-roots under (trace_id, this span) and ships its
            # finished subtree back in the reply
            meta[TRACE_META_KEY] = make_trace_meta(first.span.trace_id, first.span.span_id)
        if len(tickets) == 1:
            arrays = {name: vector for name, vector in (("b", first.b), ("x0", first.x0))
                      if vector is not None}
        else:
            arrays = {"B": np.stack([ticket.b for ticket in tickets], axis=1)}
        frame_bytes = encode_frame("solve", meta, arrays)
        # cap check and insert are one step, all k or none: no overshoot
        with shard.lock:
            depth = len(shard.pending)
            fits = depth + len(tickets) <= self._max_pending
            if fits:
                shard.pending.update((ticket.req_id, ticket) for ticket in tickets)
        if not fits:
            raise ServiceOverloaded(
                f"shard {shard.slot} has {depth} requests in flight "
                f"(cap {self._max_pending}); {len(tickets)} more do not fit",
                retry_after_s=self.config.shed_retry_after_s,
            )
        try:
            with shard.send_lock:
                self._install_locked(shard, first.resolved)
                _shard_send(shard, frame_bytes)
        except Exception:
            with shard.lock:
                for ticket in tickets:
                    shard.pending.pop(ticket.req_id, None)
            raise

    # -- admin: aggregated stats & health -------------------------------- #
    def _status(self, shard: _Shard) -> Dict[str, Dict[str, object]]:
        """Ask a worker for its stats/health/metrics ({} when unresponsive)."""
        if shard.dead or shard.stopping:
            return {}
        ticket = _Ticket("")
        open_ticket_record(ticket, "shard.status")
        ticket.req_id = next(self._req_ids)
        with shard.lock:
            shard.pending[ticket.req_id] = ticket
        try:
            with shard.send_lock:
                _shard_send(shard, encode_frame("status", {"req_id": ticket.req_id}))
            return ticket.future.result(_ADMIN_TIMEOUT_S)
        except Exception:
            return {}
        finally:
            with shard.lock:
                shard.pending.pop(ticket.req_id, None)

    def stats(self) -> Dict[str, object]:
        """Per-shard worker stats, aggregated.

        ``cache_hit_rate`` and ``mean_batch_size`` aggregate across the
        workers' executors (the quantities the benchmarks track); ``shards``
        carries each worker's full stats payload (or an ``unresponsive``
        marker) for debugging.
        """
        shards = [dict(shard.describe(),
                       stats=self._status(shard).get("stats") or {"error": "unresponsive"})
                  for shard in self.shards]
        answered = [entry["stats"] for entry in shards if "error" not in entry["stats"]]
        problems = {count: sum(stats["problems"][count] for stats in answered)
                    for count in ("installed", "held")}
        hits = sum(stats["cache"]["hits"] for stats in answered)
        misses = sum(stats["cache"]["misses"] for stats in answered)
        batches = sum(stats["batches"] for stats in answered)
        batched = sum(stats["batched_requests"] for stats in answered)
        hit_rate = hits / (hits + misses) if hits + misses else None
        return {
            "workers": len(self.shards),
            "threads_per_worker": self.shard_config.threads_per_worker,
            "shards": shards,
            "cache": {"hits": hits, "misses": misses, "hit_rate": hit_rate},
            "cache_hit_rate": hit_rate,
            "problems": problems,
            "mean_batch_size": batched / batches if batches else None,
            "config": {
                "shard_workers": self.shard_config.workers,
                "threads_per_worker": self.shard_config.threads_per_worker,
                "max_pending_per_shard": self._max_pending,
            },
        }

    def observe(self, registry) -> List[Dict[str, object]]:
        """Refresh the in-flight gauges; returns every responsive worker's
        registry snapshot.  An unresponsive shard contributes nothing — the
        front process's own counters still cover its crashes."""
        depth = registry.gauge(
            "repro_serve_pending_requests", "In-flight requests per shard.")
        for shard in self.shards:
            depth.set(len(shard.pending), shard=str(shard.slot))
        snapshots = (self._status(shard).get("metrics") for shard in self.shards)
        return [snapshot for snapshot in snapshots if snapshot]

    def health(self) -> Dict[str, object]:
        """Shard liveness: ``"unhealthy"`` when any slot is permanently dead
        (restart budget exhausted) or unresponsive to a health probe,
        ``"degraded"`` when a shard has been restarted, else ``"ok"``."""
        workers = [dict(shard.describe(),
                        worker_health=self._status(shard).get("health")
                        or {"status": "unresponsive"})
                   for shard in self.shards]
        if any(w["dead"] or not w["alive"] or w["worker_health"]["status"] == "unresponsive"
               for w in workers):
            status = "unhealthy"
        else:
            status = "degraded" if any(w["restarts"] for w in workers) else "ok"
        return {"status": status, "sharded": True, "workers": workers}

    # -- shutdown -------------------------------------------------------- #
    def close(self, timeout: float) -> None:
        """Stop the pool: drain workers, join processes, release shared memory.

        Workers drain their queues, so already-accepted requests resolve
        before exit; a worker that ignores the deadline is terminated.  The
        parent owns every shared-memory segment and unlinks them last —
        after no worker can still be dereferencing the views.
        """
        for shard in self.shards:
            shard.stopping = True
            try:
                with shard.send_lock:
                    _shard_send(shard, encode_frame("shutdown", {}))
            except WorkerCrashed:
                pass
        deadline = time.monotonic() + timeout
        for shard in self.shards:
            process = shard.process
            if process is None:
                continue
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(1.0)
        for shard in self.shards:
            try:
                shard.conn.close()
            except Exception:
                pass
        with self._bundles_lock:
            for bundle in self.problem_bundles.values():
                bundle.close()
            self.problem_bundles.clear()
        if self._model_bundle is not None:
            self._model_bundle.close()
            self._model_bundle = None


class ShardedSolveService(SolveService):
    """:class:`~repro.serve.service.SolveService` over a pre-fork process pool.

    The same lifecycle and public surface (``submit`` returns a future,
    ``solve`` blocks, ``stats``/``health``/``metrics_snapshot`` aggregate the
    shards) with a :class:`ProcessExecutor` in place of the in-process
    thread pool, so the HTTP front end and the benchmarks drive either
    service unchanged.  ``config.workers`` is ignored here: each worker
    process runs ``shard_config.threads_per_worker`` serving threads.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        model=None,
        default_solver_config: Union[SolverConfig, Dict, None] = None,
        shard_config: Optional[ShardConfig] = None,
    ) -> None:
        self.shard_config = shard_config or ShardConfig()
        super().__init__(config, model, default_solver_config)

    def _build_executor(self) -> ProcessExecutor:
        # the model is prepared ONCE, before any fork, so every worker keys
        # and serves the same weights the front process hashed
        if self.model is None and self.default_solver_config.checkpoint and \
                preconditioner_spec(self.default_solver_config.preconditioner).needs_model:
            from ..gnn.checkpoint import load_model

            self.model = load_model(self.default_solver_config.checkpoint)
        executor = ProcessExecutor(self.config, self.shard_config, self.model, self.metrics,
                                   self._settle_result, self._settle_error)
        # the supervisor's tables, for tests and debuggers (same objects)
        self._shards, self._problem_bundles = executor.shards, executor.problem_bundles
        return executor

    def pids(self) -> List[Optional[int]]:
        """The live worker process IDs by slot (None for a dead slot)."""
        return [shard.pid for shard in self._shards]
