"""Setup/solve-split solver sessions: pay setup once, serve many right-hand sides.

:func:`prepare` is the entry point of the :mod:`repro.solvers` API.  It
performs **all** of the expensive, operator-dependent work exactly once —
mesh partitioning, local factorisations (or compiled DSS inference plans),
the coarse space — and returns a :class:`SolverSession` that serves any
number of right-hand sides against the prepared operator::

    session = prepare(problem, SolverConfig(preconditioner="ddm-lu"))
    result = session.solve()                  # b defaults to problem.rhs
    other = session.solve(b_new)              # amortised: zero re-setup
    many = session.solve_many(B)              # batched multi-RHS serving

This is the ``setup``/``apply`` split of production preconditioner libraries
(PETSc's ``PCSetUp``/``PCApply``): in a serving system the operator changes
rarely and the right-hand sides arrive continuously, so the setup cost must
be amortised over the stream.  The session keeps structured per-stage set-up
timing (``setup_timings``; a result's ``info["setup_s"]`` is its total on the
first solve and 0.0 after) and per-solve diagnostics (``SolveResult.info``),
and counts setups vs solves so tests can assert the amortisation invariant
directly.  Every one of those timings is a read of a :mod:`repro.obs.trace`
record — the ``session.setup`` record and its leaves, a solve's
``krylov.solve`` record, a ``session.solve_many`` record — which a kept trace
also exports; the session reads no clock of its own.

The Krylov method and the preconditioner are resolved by name through the
:mod:`repro.solvers.registry` registries; ``config`` may equivalently be a
plain dict (parsed JSON), which is how the experiment harness and the
benchmarks construct sessions through one code path.
"""

from __future__ import annotations

import dataclasses
import inspect
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..core.ddm_gnn import DDMGNNPreconditioner
from ..ddm.asm import AdditiveSchwarzPreconditioner, Preconditioner
from ..fem.problem import Problem
from ..krylov.result import SolveResult
from ..obs import trace as obs_trace
from ..partition.overlap import OverlappingDecomposition
from .config import SolverConfig
from .fingerprint import session_key
from .preconditioners import build_partition
from .registry import KrylovSpec, PreconditionerSpec, krylov_spec, preconditioner_spec

__all__ = ["SolverSession", "MultiSolveResult", "check_methods", "prepare"]

#: Krylov arguments the session always supplies itself; ``krylov_kwargs``
#: entries with these names would collide at call time, so they are rejected
#: at prepare time (tolerance/max_iterations belong on SolverConfig directly)
_RESERVED_KRYLOV_ARGS = frozenset(
    {"matrix", "rhs", "preconditioner", "initial_guess", "tolerance",
     "max_iterations", "stagnation_window"}
)


def check_methods(problem: Problem, config: SolverConfig) -> Tuple[KrylovSpec, PreconditionerSpec]:
    """Look up ``config``'s Krylov method and preconditioner and check that
    both suit ``problem``; raise ``ValueError`` for an unknown name, or for a
    symmetric-only method or an SPD-only preconditioner on a nonsymmetric
    operator.

    Cheap (no setup runs), so a serving parent calls it before it routes a
    request to a worker that would prepare the session.
    """
    krylov = krylov_spec(config.krylov)
    preconditioner_kind = preconditioner_spec(config.preconditioner)
    if krylov.symmetric_only and not getattr(problem, "symmetric", True):
        raise ValueError(
            f"Krylov method '{config.krylov}' assumes a symmetric operator but the "
            f"problem is nonsymmetric; use krylov='gmres'"
        )
    if preconditioner_kind.spd_only and not getattr(problem, "symmetric", True):
        raise ValueError(
            f"preconditioner '{config.preconditioner}' requires a symmetric (SPD) "
            f"operator but the problem is nonsymmetric"
        )
    return krylov, preconditioner_kind


def _load_model_from_checkpoint(path: str):
    from ..gnn.checkpoint import load_model

    return load_model(path)


@dataclass
class MultiSolveResult:
    """Outcome of a multi-RHS :meth:`SolverSession.solve_many` call.

    ``results[i]`` is the full :class:`~repro.krylov.result.SolveResult` of
    right-hand side ``i`` — bit-identical to what a sequential
    :meth:`SolverSession.solve` on the same vector returns.
    """

    results: List[SolveResult] = field(default_factory=list)
    elapsed_time: float = 0.0
    #: how the batch was executed: "sequential" (per-RHS solves) or "fused"
    #: (lockstep multi-RHS Krylov; bit-identical per RHS either way)
    mode: str = "sequential"

    @property
    def solutions(self) -> np.ndarray:
        """All solutions stacked, shape ``(num_rhs, n)``."""
        return np.stack([r.solution for r in self.results])

    @property
    def iterations(self) -> List[int]:
        return [r.iterations for r in self.results]

    @property
    def converged(self) -> bool:
        """True when every right-hand side converged."""
        return all(r.converged for r in self.results)

    @property
    def num_rhs(self) -> int:
        return len(self.results)

    def summary(self) -> str:
        if not self.results:
            return "0 right-hand sides"
        status = "converged" if self.converged else "NOT converged"
        iters = self.iterations
        text = (
            f"{self.num_rhs} right-hand sides {status} ({self.mode}), "
            f"iterations {min(iters)}..{max(iters)} (median {int(np.median(iters))}), "
            f"time {self.elapsed_time:.4f}s"
        )
        # serving metadata, when the results came through the serve layer's
        # micro-batching queue (repro.serve stamps queue_s/batch_size)
        queue_times = [
            float(r.info["queue_s"]) for r in self.results if "queue_s" in r.info
        ]
        if queue_times:
            text += f", queue p50 {np.median(queue_times) * 1e3:.2f}ms"
        batch_sizes = [
            int(r.info["batch_size"]) for r in self.results if "batch_size" in r.info
        ]
        if batch_sizes:
            text += f", batch size {min(batch_sizes)}..{max(batch_sizes)}"
        # time-marching metadata, when the results belong to a march
        # (repro.timestepping stamps steps/amortized_step_ms)
        steps_values = {int(r.info["steps"]) for r in self.results if "steps" in r.info}
        step_costs = [
            float(r.info["amortized_step_ms"])
            for r in self.results
            if "amortized_step_ms" in r.info
        ]
        if len(steps_values) == 1 and step_costs:
            text += (
                f", {float(np.median(step_costs)):.3f} ms/step amortized "
                f"over {steps_values.pop()} steps"
            )
        return text


class SolverSession:
    """A prepared solver: operator-dependent setup done, ready to serve RHS.

    Construct via :func:`prepare`.  Attributes of interest after
    construction:

    ``preconditioner``
        The built :class:`~repro.ddm.asm.Preconditioner`.
    ``decomposition``
        The :class:`~repro.partition.overlap.OverlappingDecomposition`, or
        None for non-DDM preconditioners.
    ``setup_timings``
        Per-stage wall times of the one-time setup:
        ``{"partition_s", "overlap_s", "preconditioner_s", "total_s"}``;
        ``overlap_s`` (growing the overlap layers) is a part of ``partition_s``.
        A view over the ``session.setup`` record (see the property).
    ``num_setups`` / ``num_solves``
        Amortisation counters: ``num_setups`` is 1 for the session's lifetime
        no matter how many right-hand sides are served.
    """

    def __init__(
        self,
        problem: Problem,
        config: Union[SolverConfig, Dict, None] = None,
        model=None,
    ) -> None:
        if config is None:
            config = SolverConfig()
        elif isinstance(config, dict):
            config = SolverConfig.from_dict(config)
        self.problem = problem
        self.config = config
        self.krylov, self.preconditioner_kind = check_methods(problem, config)

        # resolve the per-solve Krylov kwargs once, and reject unknown ones
        # here — before the expensive setup below, not on the first solve()
        self._krylov_kwargs: Dict[str, object] = dict(self.krylov.default_kwargs)
        self._krylov_kwargs.update(config.krylov_kwargs)
        reserved = sorted(_RESERVED_KRYLOV_ARGS & set(self._krylov_kwargs))
        if reserved:
            raise ValueError(
                f"krylov_kwargs may not override session-managed argument(s) {reserved}; "
                f"set tolerance/max_iterations on the SolverConfig itself"
            )
        parameters = inspect.signature(self.krylov.solve).parameters
        accepts_var_kwargs = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        )
        if not accepts_var_kwargs:
            unknown = sorted(set(self._krylov_kwargs) - set(parameters))
            if unknown:
                raise ValueError(
                    f"Krylov method '{config.krylov}' does not accept "
                    f"keyword argument(s) {unknown}"
                )
        # the stagnation guard is passed only to methods that declare it, so
        # duck-typed registered solvers keep working unchanged
        self._stagnation_kwargs: Dict[str, object] = (
            {"stagnation_window": config.stagnation_window}
            if "stagnation_window" in parameters else {}
        )
        self._lockstep_stagnation_kwargs: Dict[str, object] = {}
        if self.krylov.lockstep is not None:
            lockstep_params = inspect.signature(self.krylov.lockstep).parameters
            if "stagnation_window" in lockstep_params:
                self._lockstep_stagnation_kwargs = {
                    "stagnation_window": config.stagnation_window
                }

        # validate the degradation ladder up front: unknown rung names should
        # fail at prepare time, not on the first primary failure
        for kind in config.fallback:
            preconditioner_spec(kind)

        if self.preconditioner_kind.needs_model and model is None:
            if config.checkpoint:
                model = _load_model_from_checkpoint(config.checkpoint)
            elif config.preconditioner == "ddm-gnn":
                raise ValueError("the DDM-GNN preconditioner requires a DSS model")
            else:
                raise ValueError(
                    f"the '{config.preconditioner}' preconditioner requires a model "
                    f"(pass model=... or set config.checkpoint)"
                )
        self.model = model

        # -- one-time setup: partition, factorise/compile ------------------- #
        self.decomposition: Optional[OverlappingDecomposition] = None
        with obs_trace.record("session.setup", preconditioner=config.preconditioner) as setup:
            if self.preconditioner_kind.needs_decomposition:
                partition = setup.measure("session.partition", build_partition, problem, config)
                self.decomposition = setup.measure(
                    "session.overlap", OverlappingDecomposition, problem.mesh, partition, config.overlap)
            self.preconditioner: Preconditioner = setup.measure(
                "session.preconditioner", lambda: self.preconditioner_kind.build(
                    problem, config, decomposition=self.decomposition, model=model))
        self._setup = setup
        self.setup_time = setup.seconds

        # -- amortisation counters ------------------------------------------ #
        self.num_setups = 1
        self.num_solves = 0

        # -- degradation ladder (lazily prepared fallback rungs) ------------ #
        self._rungs: Dict[int, "SolverSession"] = {}

        # -- concurrency ----------------------------------------------------- #
        #: serialises solves: the preconditioners reuse per-session scratch
        #: buffers (stacked residual/solution arrays, compiled InferencePlan
        #: buffers), so two concurrent ``solve`` calls on one session would
        #: silently corrupt each other's results.  The lock is reentrant so
        #: ``solve_many``'s sequential path can call ``solve`` while holding
        #: it.  Callers that need true intra-problem parallelism should give
        #: each worker its own session via :meth:`clone_for_worker`.
        self._lock = threading.RLock()

    @property
    def setup_timings(self) -> Dict[str, float]:
        """Per-stage seconds of the one-time set-up, read off its record.

        ``partition_s`` sums the ``session.partition`` and ``session.overlap``
        leaves (``overlap_s``, growing the overlap layers, is a part of it),
        ``preconditioner_s`` is the ``session.preconditioner`` leaf and
        ``total_s`` the ``session.setup`` record's duration.
        """
        setup = self._setup
        overlap = setup.total("session.overlap")
        return {
            "partition_s": setup.total("session.partition") + overlap,
            "overlap_s": overlap,
            "preconditioner_s": setup.total("session.preconditioner"),
            "total_s": setup.seconds,
        }

    # ------------------------------------------------------------------ #
    def solve(
        self,
        b: Optional[np.ndarray] = None,
        x0: Optional[np.ndarray] = None,
    ) -> SolveResult:
        """Solve ``A x = b`` with the prepared preconditioner.

        ``b`` defaults to the problem's assembled right-hand side; ``x0`` is
        the initial guess (zero if omitted).  No setup is performed here —
        partitioning, factorisations and inference plans were all built by
        :func:`prepare`.  The result's ``info`` carries the amortised
        accounting: ``info["setup_s"]`` is the session setup time on the
        session's **first** solve and ``0.0`` on every later one.

        Thread safety: solves are serialised on a per-session lock (the
        preconditioner scratch buffers are session state); concurrent callers
        are correct but not parallel — see :meth:`clone_for_worker`.

        Degradation ladder: when ``config.fallback`` names fallback rungs and
        the primary solve fails — raises, or returns a non-converged result
        (breakdown, stagnation, iteration cap) — the session lazily prepares
        the next rung (same problem, same partition seed, same tolerances)
        and re-solves.  The returned result then carries
        ``info["degraded"] = True``, ``info["rung"]`` and the full
        ``info["ladder_attempts"]`` trail.

        Telemetry: with a trace kept, the ``session.solve`` span carries the
        returned result's outcome on every path (:func:`_record_outcome`);
        the per-iteration residuals are ``result.residual_history``.
        """
        b = self.problem.rhs if b is None else np.asarray(b, dtype=np.float64)
        with obs_trace.span("session.solve",
                            preconditioner=self.config.preconditioner,
                            krylov=self.config.krylov) as span:
            try:
                with self._lock:
                    result = self._solve_locked(b, x0)
            except Exception as error:
                if not self.config.fallback:
                    raise
                result = self._degrade(b, x0, primary_result=None, primary_error=error)
            else:
                if not result.converged and self.config.fallback:
                    result = self._degrade(b, x0, primary_result=result, primary_error=None)
            _record_outcome(span, result)
            return result

    def _solve_locked(self, b: np.ndarray, x0: Optional[np.ndarray]) -> SolveResult:
        """One primary solve; caller holds the session lock."""
        config = self.config
        result: SolveResult = self.krylov.solve(
            self.problem.matrix,
            b,
            preconditioner=self.preconditioner,
            initial_guess=x0,
            tolerance=config.tolerance,
            max_iterations=config.max_iterations,
            **self._stagnation_kwargs,
            **self._krylov_kwargs,
        )
        self._stamp_info(result)
        return result

    # -- degradation ladder -------------------------------------------- #
    def _rung_session(self, index: int) -> "SolverSession":
        """The prepared session for fallback rung ``index`` (lazy, cached).

        The rung config is the primary config with only the preconditioner
        kind swapped (and no further fallback): same partition seed, same
        tolerance/iteration budget, so rung results are deterministic and
        reproducible against an independently prepared reference session.
        """
        with self._lock:
            rung = self._rungs.get(index)
            if rung is None:
                kind = self.config.fallback[index]
                rung_config = dataclasses.replace(
                    self.config, preconditioner=kind, fallback=[]
                )
                spec = preconditioner_spec(kind)
                model = self.model if spec.needs_model else None
                rung = SolverSession(self.problem, rung_config, model=model)
                self._rungs[index] = rung
        return rung

    def _degrade(
        self,
        b: np.ndarray,
        x0: Optional[np.ndarray],
        primary_result: Optional[SolveResult],
        primary_error: Optional[Exception],
    ) -> SolveResult:
        """Walk the fallback ladder after a primary failure."""
        primary_failure = (
            f"{type(primary_error).__name__}: {primary_error}"
            if primary_error is not None
            else primary_result.failure_reason
        )
        span = obs_trace.current_span()
        if span is not None:
            span.add_event("rung_descent", primary=self.config.preconditioner,
                           failure=primary_failure)
        attempts: List[Dict[str, object]] = [
            {"rung": self.config.preconditioner, "rung_index": 0,
             "failure": primary_failure}
        ]
        last_result: Optional[SolveResult] = None
        last_error = primary_error
        for index, kind in enumerate(self.config.fallback):
            try:
                rung = self._rung_session(index)
                result = rung.solve(b, x0=x0)
            except Exception as error:  # a rung may fail too; try the next one
                attempts.append({"rung": kind, "rung_index": index + 1,
                                 "failure": f"{type(error).__name__}: {error}"})
                last_error = error
                continue
            attempts.append({"rung": kind, "rung_index": index + 1,
                             "failure": result.failure_reason})
            result.info["degraded"] = True
            result.info["rung"] = kind
            result.info["rung_index"] = index + 1
            result.info["primary_failure"] = primary_failure
            result.info["ladder_attempts"] = list(attempts)
            if result.converged:
                return result
            last_result = result
        if last_result is not None:
            last_result.info["ladder_attempts"] = list(attempts)
            return last_result
        if primary_result is not None:
            primary_result.info["ladder_attempts"] = list(attempts)
            return primary_result
        raise last_error

    def _stamp_info(self, result: SolveResult) -> None:
        """Attach session accounting to a fresh result (first solve pays setup)."""
        first = self.num_solves == 0
        self.num_solves += 1

        config = self.config
        result.info["preconditioner_kind"] = config.preconditioner
        result.info["krylov"] = config.krylov
        result.info["precision"] = config.precision
        result.info.setdefault("degraded", False)
        if result.failure_reason is not None:
            result.info["failure_reason"] = result.failure_reason
        result.info["setup_s"] = self.setup_time if first else 0.0
        if self.decomposition is not None:
            result.info["num_subdomains"] = self.decomposition.num_subdomains
            result.info["subdomain_sizes"] = self.decomposition.sizes().tolist()
            result.info["overlap"] = config.overlap
        if isinstance(self.preconditioner, DDMGNNPreconditioner):
            result.info["gnn_stats"] = self.preconditioner.inference_stats()
        if isinstance(self.preconditioner, AdditiveSchwarzPreconditioner):
            result.info["kernel"] = self.preconditioner.kernel

    def solve_many(
        self,
        B: Union[np.ndarray, Iterable[np.ndarray]],
        x0: Optional[np.ndarray] = None,
        mode: str = "auto",
    ) -> MultiSolveResult:
        """Serve a batch of right-hand sides against the prepared operator.

        ``B`` is a sequence of right-hand-side vectors (or a 2-D array whose
        **rows** are right-hand sides).  Every solve reuses the session's
        preconditioner — the setup cost is paid zero additional times — and
        each per-RHS result is bit-identical to a sequential
        :meth:`solve` call on the same vector.

        ``mode`` selects the execution strategy:

        * ``"fused"`` — the Krylov method's lockstep multi-RHS implementation
          (:func:`repro.krylov.block.lockstep_pcg` for CG): one iteration
          advances every still-active right-hand side, amortising SpMVs into
          SpMMs and preconditioner applications into multi-column blocks.
          Bit-identical per RHS by the lockstep contract.
        * ``"sequential"`` — one :meth:`solve` per right-hand side.
        * ``"auto"`` (default) — fused when the method registers a lockstep
          implementation and no custom ``krylov_kwargs`` are in play, else
          sequential.
        """
        if mode not in ("auto", "fused", "sequential"):
            raise ValueError("mode must be 'auto', 'fused' or 'sequential'")
        if not isinstance(B, np.ndarray):
            B = list(B)  # materialise generators before the array conversion
        vectors = np.atleast_2d(np.asarray(B, dtype=np.float64))
        if vectors.ndim != 2:
            raise ValueError("solve_many expects a sequence of right-hand-side vectors")
        if vectors.shape[1] != self.problem.num_dofs:
            raise ValueError(
                f"right-hand sides must have length {self.problem.num_dofs} "
                f"(got shape {vectors.shape})"
            )
        fused_available = self.krylov.lockstep is not None and not self._krylov_kwargs
        if mode == "fused" and not fused_available:
            raise ValueError(
                f"Krylov method '{self.config.krylov}' has no lockstep implementation "
                f"(or custom krylov_kwargs are set); use mode='sequential'"
            )
        use_fused = fused_available if mode == "auto" else (mode == "fused")

        mode = "fused" if use_fused and len(vectors) > 1 else "sequential"
        with obs_trace.record("session.solve_many", num_rhs=len(vectors), mode=mode) as record:
            if mode == "fused":
                results, mode = self._solve_fused(vectors, x0)
                record.set_attribute("mode", mode)
            else:
                with self._lock:
                    results = [self.solve(row, x0=x0) for row in vectors]
            record.set_attribute("converged", [bool(r.converged) for r in results])
            record.set_attribute("iterations", [int(r.iterations) for r in results])
            record.set_attribute("failure_reasons", [r.failure_reason for r in results])
        return MultiSolveResult(results=results, elapsed_time=record.seconds, mode=mode)

    def _solve_fused(self, vectors: np.ndarray, x0: Optional[np.ndarray]):
        """One lockstep sweep over ``vectors``, with the ladder after it; returns (results, mode)."""
        try:
            with self._lock:
                results = self.krylov.lockstep(
                    self.problem.matrix,
                    vectors,
                    preconditioner=self.preconditioner,
                    initial_guess=x0,
                    tolerance=self.config.tolerance,
                    max_iterations=self.config.max_iterations,
                    **self._lockstep_stagnation_kwargs,
                )
                for result in results:
                    self._stamp_info(result)
        except Exception as error:
            if not self.config.fallback:
                raise
            # the whole lockstep sweep failed (e.g. the preconditioner
            # raised): route every right-hand side through the ladder
            return [self._degrade(row, x0, primary_result=None, primary_error=error)
                    for row in vectors], "sequential"
        if self.config.fallback:
            # columns that individually failed (compacted out of the
            # lockstep batch with a failure_reason) re-solve on the ladder
            for i, result in enumerate(results):
                if not result.converged:
                    results[i] = self._degrade(
                        vectors[i], x0, primary_result=result, primary_error=None
                    )
        return results, "fused"

    # ------------------------------------------------------------------ #
    def march(
        self,
        u0: Optional[np.ndarray] = None,
        dt: Optional[float] = None,
        steps: int = 1,
        warm_start: bool = True,
        record_states: bool = False,
    ):
        """March a time-dependent problem ``steps`` θ-steps through this session.

        Requires the session to have been prepared over a
        :class:`~repro.timestepping.problem.TimeDependentProblem` (e.g.
        ``make_problem("heat")``); the constant step operator
        ``M/dt + θ·A`` is exactly the prepared operator, so setup is paid
        zero additional times and every step is a pure :meth:`solve`.
        Returns a :class:`~repro.timestepping.march.MarchResult` with one
        :class:`SolveResult` per step — bit-identical to issuing the same
        ``solve`` calls by hand.  See :func:`repro.timestepping.march.march`.
        """
        from ..timestepping.march import march as _march

        return _march(
            self, u0=u0, dt=dt, steps=steps,
            warm_start=warm_start, record_states=record_states,
        )

    def march_many(
        self,
        U0,
        dt: Optional[float] = None,
        steps: int = 1,
        mode: str = "auto",
        record_states: bool = False,
    ):
        """March independent trajectories in lockstep through :meth:`solve_many`.

        ``U0`` stacks the initial states as rows; each trajectory's result is
        bit-identical to ``march(u0=U0[j], warm_start=False)`` per the
        lockstep contract.  See :func:`repro.timestepping.march.march_many`.
        """
        from ..timestepping.march import march_many as _march_many

        return _march_many(
            self, U0, dt=dt, steps=steps, mode=mode, record_states=record_states,
        )

    # ------------------------------------------------------------------ #
    def __reduce__(self):
        """Pickle as a deterministic rebuild recipe, not as live state.

        A prepared session holds unpicklable objects (SuperLU
        factorisations, compiled inference plans), so pickling transports
        only the three ingredients that fully determine it — problem, config,
        model — and unpickling re-runs :func:`prepare`.  The partition seed
        lives on the config, so the rebuilt session is **bitwise-equivalent**:
        same fingerprint, same solve results.  The sharded serve tier does
        not use it: its workers prepare their own sessions from the request
        frame's spec and config, or a shared-memory problem.
        """
        return (_rebuild_session, (self.problem, self.config.to_dict(), self.model))

    def fingerprint(self) -> str:
        """Content hash identifying this prepared session.

        Hashes ``(problem fingerprint, config hash, model/checkpoint
        content)`` via :func:`repro.solvers.fingerprint.session_key`: two
        sessions with equal fingerprints were prepared from bit-identical
        ingredients and serve bit-identical results.  This is the key under
        which :mod:`repro.serve` caches prepared sessions.
        """
        return session_key(self.problem, self.config, self.model)

    def clone_for_worker(self) -> "SolverSession":
        """A freshly prepared session over the same problem/config/model.

        The documented escape hatch for true intra-problem parallelism:
        solves on one session are serialised by its lock (shared scratch
        buffers), so a worker pool that wants concurrent solves of the *same*
        problem gives each worker its own clone.  The clone re-runs the setup
        (partition, factorisations, plan compilation) and therefore shares no
        mutable state — only the immutable problem and model objects.
        """
        return SolverSession(self.problem, self.config, model=self.model)


def _record_outcome(span, result: SolveResult) -> None:
    """Stamp the outcome of the result a ``session.solve`` returns on its span.

    A no-op on the shared null span (tracing off).  A result the degradation
    ladder returned also names its rung.
    """
    info = result.info
    span.set_attribute("converged", bool(result.converged))
    span.set_attribute("iterations", int(result.iterations))
    span.set_attribute("failure_reason", result.failure_reason)
    span.set_attribute("final_relative_residual", float(result.final_relative_residual))
    span.set_attribute("recurrence", info.get("recurrence"))
    span.set_attribute("kernel", info.get("kernel"))
    if info.get("degraded"):
        span.set_attribute("rung", info["rung"])
        span.set_attribute("rung_index", info["rung_index"])


def _rebuild_session(problem: Problem, config_dict: Dict, model) -> "SolverSession":
    """Unpickling target of :meth:`SolverSession.__reduce__` (module-level
    so pickles resolve it by qualified name)."""
    return SolverSession(problem, SolverConfig.from_dict(config_dict), model=model)


def prepare(
    problem: Problem,
    config: Union[SolverConfig, Dict, None] = None,
    model=None,
) -> SolverSession:
    """Build a :class:`SolverSession`: all operator-dependent setup, once.

    Parameters
    ----------
    problem:
        Any :class:`~repro.fem.problem.Problem` (including every family from
        :func:`repro.problems.make_problem`).
    config:
        A :class:`~repro.solvers.config.SolverConfig`, a plain dict of its
        fields (parsed JSON), or None for the defaults.
    model:
        A trained :class:`~repro.gnn.dss.DSS` (required by ``ddm-gnn`` unless
        ``config.checkpoint`` points at a versioned checkpoint to load).
    """
    return SolverSession(problem, config, model=model)
