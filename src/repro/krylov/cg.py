"""Conjugate Gradient and Preconditioned Conjugate Gradient solvers.

:func:`preconditioned_conjugate_gradient` is Algorithm 1 of the paper (the
stopping test is on the *relative* residual norm ``‖r‖/‖b‖``, which is the
criterion used in all the paper's experiments) — line for line when the
preconditioner is ``linear``.  Algorithm 1's direction update
``p = z + (ρ₊/ρ) p`` assumes a fixed linear SPD ``M``; for a preconditioner
that declares ``linear = False`` (DDM-GNN) the direction is instead
A-orthogonalised against the last few stored ones (flexible CG, see
:mod:`repro.krylov.flexible`), and ``info["recurrence"]`` says which ran.
With ``preconditioner=None`` it is the unpreconditioned "CG" baseline column
of Table I / Fig. 5.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp

from ..ddm.asm import IdentityPreconditioner, Preconditioner
from ..obs import trace as obs_trace
from ..utils.sparse import csr_operator
from . import failures
from .flexible import DirectionWindow, recurrence_of
from .result import PRECOND_APPLY, SolveResult, apply_preconditioner

__all__ = ["preconditioned_conjugate_gradient"]

MatrixLike = Union[np.ndarray, sp.spmatrix]


def preconditioned_conjugate_gradient(
    matrix: MatrixLike,
    rhs: np.ndarray,
    preconditioner: Optional[Preconditioner] = None,
    initial_guess: Optional[np.ndarray] = None,
    tolerance: float = 1e-6,
    max_iterations: Optional[int] = None,
    callback: Optional[Callable[[int, float], None]] = None,
    stagnation_window: Optional[int] = None,
) -> SolveResult:
    """Preconditioned Conjugate Gradient (paper Algorithm 1).

    Parameters
    ----------
    matrix:
        SPD system matrix A.
    rhs:
        Right-hand side b.
    preconditioner:
        Object with ``apply(r) -> z``; identity (plain CG) if omitted.
    initial_guess:
        Starting iterate u_0 (zero if omitted).
    tolerance:
        Stopping threshold on the relative residual ‖r_k‖ / ‖b‖.
    max_iterations:
        Hard iteration cap (defaults to 10·N).
    callback:
        Optional ``callback(iteration, relative_residual)`` invoked per iteration.
    stagnation_window:
        If set, stop with ``failure_reason="stagnation"`` after this many
        consecutive iterations without a new best relative residual
        (disabled by default, so direct callers see the classic behaviour).

    Non-finite matvec or preconditioner output, an indefinite ``pᵀAp`` and a
    vanishing ``ρ`` all terminate the iteration immediately and stamp a
    machine-readable :attr:`SolveResult.failure_reason`
    (see :mod:`repro.krylov.failures`) instead of looping to the cap on NaNs.

    >>> import numpy as np
    >>> A = np.array([[4.0, 1.0], [1.0, 3.0]])
    >>> b = np.array([1.0, 2.0])
    >>> result = preconditioned_conjugate_gradient(A, b, tolerance=1e-12)
    >>> result.converged, bool(np.allclose(A @ result.solution, b))
    (True, True)
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    n = rhs.shape[0]
    matvec = csr_operator(matrix).matvec
    precond = preconditioner if preconditioner is not None else IdentityPreconditioner(n)
    max_iterations = max_iterations if max_iterations is not None else 10 * n
    recurrence = recurrence_of(precond)
    info = {"solver": "pcg", "tolerance": tolerance, "recurrence": recurrence}

    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return SolveResult(
            solution=np.zeros(n),
            converged=True,
            iterations=0,
            residual_history=[0.0],
            info=info,
        )
    if not np.isfinite(rhs_norm):
        return SolveResult(
            solution=np.zeros(n) if initial_guess is None
            else np.asarray(initial_guess, dtype=np.float64).copy(),
            converged=False,
            iterations=0,
            residual_history=[float("inf")],
            info=info,
            failure_reason=failures.NON_FINITE_RHS,
        )

    with obs_trace.record("krylov.solve", solver="pcg") as record:
        u = np.zeros(n) if initial_guess is None else np.asarray(initial_guess, dtype=np.float64).copy()
        r = rhs - matvec(u)

        z = apply_preconditioner(record, precond.apply, r)
        p = z.copy()

        # ‖r‖ the way numpy's 1-D norm computes it, the square root of the
        # dot, without its dispatch (same bytes; r is contiguous)
        residual_history = [float(math.sqrt(r @ r) / rhs_norm)]
        rho = float(r @ z)
        converged = residual_history[-1] < tolerance
        iteration = 0
        failure: Optional[str] = None

        # pre-loop guards, mirroring the per-iteration ones below (the guard
        # ORDER here is part of the lockstep bit-identity contract — block.py
        # checks the same quantities in the same sequence)
        if not converged:
            if not math.isfinite(residual_history[-1]):
                failure = failures.NON_FINITE_RESIDUAL
            elif not np.isfinite(z).all():
                failure = failures.NON_FINITE_PRECONDITIONER
            elif rho == 0.0 or not math.isfinite(rho):
                failure = failures.RHO_BREAKDOWN

        best_rel = residual_history[-1]
        since_best = 0
        # direction history of the flexible recurrence; never built for a linear M
        window = DirectionWindow() if recurrence == "flexible" else None

        while not converged and failure is None and iteration < max_iterations:
            q = matvec(p)
            if not np.isfinite(q).all():
                failure = failures.NON_FINITE_OPERATOR
                break
            denom = float(p @ q)
            if not math.isfinite(denom):  # the scalars are Python floats
                failure = failures.NON_FINITE_OPERATOR
                break
            if denom <= 0.0:
                # matrix not SPD (or severe round-off): stop with the current iterate
                failure = failures.INDEFINITE_OPERATOR
                break
            alpha = rho / denom
            if window is not None:
                window.push(p[:, None], q[:, None], np.array([denom]))
            u += alpha * p
            r -= alpha * q
            iteration += 1
            rel = float(math.sqrt(r @ r) / rhs_norm)
            residual_history.append(rel)
            if callback is not None:
                callback(iteration, rel)
            if not math.isfinite(rel):
                failure = failures.NON_FINITE_RESIDUAL
                break
            if rel < tolerance:
                converged = True
                break
            if rel < best_rel:
                best_rel = rel
                since_best = 0
            else:
                since_best += 1
                if stagnation_window is not None and since_best >= stagnation_window:
                    failure = failures.STAGNATION
                    break
            z = apply_preconditioner(record, precond.apply, r)
            if not np.isfinite(z).all():
                failure = failures.NON_FINITE_PRECONDITIONER
                break
            rho_next = float(r @ z)
            if rho_next == 0.0 or not math.isfinite(rho_next):
                failure = failures.RHO_BREAKDOWN
                break
            if window is None:
                beta = rho_next / rho
                p = z + beta * p
            else:
                p = window.next_direction(z[:, None])[:, 0]
            rho = rho_next

        if not converged and failure is None:
            failure = failures.MAX_ITERATIONS

    return SolveResult(
        solution=u,
        converged=converged,
        iterations=iteration,
        residual_history=residual_history,
        elapsed_time=record.seconds,
        preconditioner_time=record.total(PRECOND_APPLY),
        info={**info, "preconditioner": type(precond).__name__},
        failure_reason=failure,
    )
