"""Time-marching engine: many steps against one prepared session.

:func:`march` advances a :class:`~repro.timestepping.problem.TimeDependentProblem`
``steps`` θ-steps through an already-prepared
:class:`~repro.solvers.session.SolverSession`.  The session's setup
(partition, factorisations, compiled inference plans) is paid **once** —
every step is a pure ``session.solve`` against the next right-hand side, so
the trajectory is bit-identical by construction to issuing the same
``solve`` calls by hand.

:func:`march_many` marches ``k`` independent trajectories in lockstep: each
step assembles one right-hand side per trajectory and pushes the whole block
through :meth:`~repro.solvers.session.SolverSession.solve_many`, landing on
the fused multi-RHS Krylov path (one SpMM + one multi-column preconditioner
apply per iteration for the whole fleet).  The lockstep contract makes every
trajectory bit-identical to marching it alone with ``warm_start=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..krylov.result import SolveResult
from ..obs import trace as obs_trace
from .problem import TimeDependentProblem, TimeSteppingError, validate_steps

__all__ = ["MarchResult", "march", "march_many"]


@dataclass
class MarchResult:
    """Outcome of marching one trajectory: one :class:`SolveResult` per step.

    ``results[k]`` is the solve that produced ``u^{k+1}``; all the per-step
    diagnostics (iterations, residual histories, stage timings) are preserved
    verbatim.  ``states`` holds the full trajectory ``(steps+1, n)`` including
    ``u^0`` when the march recorded states.
    """

    results: List[SolveResult] = field(default_factory=list)
    dt: float = 0.0
    theta: float = 1.0
    elapsed_time: float = 0.0
    #: how the steps were executed: "sequential" (one solve per step) or
    #: "fused" (this trajectory marched inside a lockstep batch)
    mode: str = "sequential"
    states: Optional[np.ndarray] = None

    @property
    def solution(self) -> np.ndarray:
        """The final state ``u^N``."""
        return self.results[-1].solution

    @property
    def num_steps(self) -> int:
        return len(self.results)

    @property
    def iterations(self) -> List[int]:
        return [r.iterations for r in self.results]

    @property
    def total_iterations(self) -> int:
        return int(sum(self.iterations))

    @property
    def converged(self) -> bool:
        """True when every step converged."""
        return all(r.converged for r in self.results)

    @property
    def per_step_ms(self) -> float:
        """Amortised wall time per step in milliseconds (setup excluded —
        the session paid it before the march)."""
        if not self.results:
            return 0.0
        return 1e3 * self.elapsed_time / len(self.results)

    def summary(self) -> str:
        """One-line amortised summary of the march."""
        if not self.results:
            return "0 steps"
        status = "converged" if self.converged else "NOT converged"
        iters = self.iterations
        text = (
            f"{self.num_steps} steps {status} ({self.mode}, dt={self.dt:g}, "
            f"theta={self.theta:g}), iterations {min(iters)}..{max(iters)} "
            f"(median {int(np.median(iters))}), {self.per_step_ms:.3f} ms/step "
            f"amortized, total {self.elapsed_time:.4f}s"
        )
        setup_s = float(self.results[0].info.get("setup_s", 0.0))
        if setup_s > 0.0:
            text += f" (+ setup {setup_s:.3f}s paid once)"
        return text


def _initial_state(problem: TimeDependentProblem, u0) -> np.ndarray:
    """Resolve and validate a starting state, enforcing the Dirichlet data."""
    if u0 is None:
        return problem.initial_state.copy()
    u = np.asarray(u0, dtype=np.float64).copy()
    n = problem.num_dofs
    if u.shape != (n,):
        raise TimeSteppingError(f"u0 must have shape ({n},), got {u.shape}")
    dn = problem._dirichlet_index
    if dn.size:
        u[dn] = problem.boundary_values
    return u


def _check_session(session, dt) -> TimeDependentProblem:
    problem = session.problem
    if not isinstance(problem, TimeDependentProblem):
        raise TimeSteppingError(
            "march requires a session prepared over a TimeDependentProblem "
            f"(got {type(problem).__name__}); build one via "
            "make_problem('heat'/'heat3d'/'convection-diffusion-transient') "
            "or TimeDependentProblem.from_theta_scheme"
        )
    if dt is not None and float(dt) != problem.dt:
        raise TimeSteppingError(
            f"dt={dt} does not match the problem's assembled step operator "
            f"(dt={problem.dt}); the step operator is baked at assembly time — "
            f"rebuild the problem to change dt"
        )
    return problem


def march(
    session,
    u0: Optional[np.ndarray] = None,
    dt: Optional[float] = None,
    steps: int = 1,
    warm_start: bool = True,
    record_states: bool = False,
) -> MarchResult:
    """March ``steps`` θ-steps from ``u0`` through a prepared session.

    ``u0`` defaults to the problem's ``initial_state``; ``dt`` is accepted
    only as a cross-check (the step operator is baked at assembly time).
    With ``warm_start`` each step's Krylov solve starts from the previous
    state — the natural initial guess for a smooth trajectory — while
    ``warm_start=False`` reproduces the zero-guess behaviour of
    :func:`march_many` exactly.  ``record_states`` keeps the full
    ``(steps+1, n)`` trajectory on the result.
    """
    problem = _check_session(session, dt)
    steps = validate_steps(steps)
    u = _initial_state(problem, u0)

    states = [u.copy()] if record_states else None
    results: List[SolveResult] = []
    with obs_trace.record("session.march", steps=steps) as record:
        for k in range(steps):
            b = problem.step_rhs(u)
            result = session.solve(b, x0=u.copy() if warm_start else None)
            result.info["step_index"] = k
            result.info["steps"] = steps
            result.info["dt"] = problem.dt
            result.info["theta"] = problem.theta
            u = result.solution
            results.append(result)
            if record_states:
                states.append(u.copy())
    elapsed = record.seconds

    for result in results:
        result.info["march_total_s"] = elapsed
        result.info["amortized_step_ms"] = 1e3 * elapsed / steps
    return MarchResult(
        results=results,
        dt=problem.dt,
        theta=problem.theta,
        elapsed_time=elapsed,
        mode="sequential",
        states=np.stack(states) if record_states else None,
    )


def march_many(
    session,
    U0,
    dt: Optional[float] = None,
    steps: int = 1,
    mode: str = "auto",
    record_states: bool = False,
) -> List[MarchResult]:
    """March independent trajectories in lockstep through the fused path.

    ``U0`` is a stack of initial states (rows).  Each step assembles every
    trajectory's right-hand side and solves the whole block via
    :meth:`SolverSession.solve_many` (``mode`` is forwarded: "auto" uses the
    fused lockstep Krylov when available).  Initial guesses are zero — the
    lockstep contract shares one guess across columns — so trajectory ``j``
    is bit-identical to ``march(session, U0[j], warm_start=False)``.

    Returns one :class:`MarchResult` per trajectory; ``elapsed_time`` is the
    batch wall time divided evenly across trajectories, so ``per_step_ms``
    reflects the amortised per-trajectory throughput.
    """
    problem = _check_session(session, dt)
    steps = validate_steps(steps)
    U = np.atleast_2d(np.asarray(U0, dtype=np.float64)).copy()
    if U.ndim != 2 or U.shape[1] != problem.num_dofs:
        raise TimeSteppingError(
            f"U0 must stack initial states of length {problem.num_dofs} "
            f"as rows, got shape {U.shape}"
        )
    dn = problem._dirichlet_index
    if dn.size:
        U[:, dn] = problem.boundary_values[None, :]
    num_trajectories = U.shape[0]

    states = [U.copy()] if record_states else None
    per_step: List[List[SolveResult]] = [[] for _ in range(num_trajectories)]
    modes = set()
    with obs_trace.record("session.march_many", steps=steps, trajectories=num_trajectories) as record:
        for k in range(steps):
            B = problem.step_rhs_columns(U)
            batch = session.solve_many(B, mode=mode)
            modes.add(batch.mode)
            for j, result in enumerate(batch.results):
                result.info["step_index"] = k
                result.info["steps"] = steps
                result.info["dt"] = problem.dt
                result.info["theta"] = problem.theta
                result.info["trajectory"] = j
                per_step[j].append(result)
            U = batch.solutions
            if record_states:
                states.append(U.copy())
    elapsed = record.seconds

    batch_mode = "fused" if modes == {"fused"} else "sequential"
    share = elapsed / num_trajectories
    stacked = np.stack(states, axis=1) if record_states else None  # (k, steps+1, n)
    out: List[MarchResult] = []
    for j in range(num_trajectories):
        for result in per_step[j]:
            result.info["march_total_s"] = elapsed
            result.info["amortized_step_ms"] = 1e3 * share / steps
        out.append(
            MarchResult(
                results=per_step[j],
                dt=problem.dt,
                theta=problem.theta,
                elapsed_time=share,
                mode=batch_mode,
                states=stacked[j] if record_states else None,
            )
        )
    return out
