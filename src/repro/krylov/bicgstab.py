"""BiCGStab solver (van der Vorst, 1992).

The paper mentions BiCGStab (together with CG and GMRES) among the Krylov
methods whose efficiency preconditioning improves.  It is included here for
completeness, for non-symmetric variants of the preconditioned operator
(e.g. RAS), and as an extra baseline in ablation benches.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp

from ..ddm.asm import IdentityPreconditioner, Preconditioner
from ..obs import trace as obs_trace
from . import failures
from .result import PRECOND_APPLY, SolveResult, apply_preconditioner

__all__ = ["bicgstab"]

MatrixLike = Union[np.ndarray, sp.spmatrix]


def bicgstab(
    matrix: MatrixLike,
    rhs: np.ndarray,
    preconditioner: Optional[Preconditioner] = None,
    initial_guess: Optional[np.ndarray] = None,
    tolerance: float = 1e-6,
    max_iterations: Optional[int] = None,
    stagnation_window: Optional[int] = None,
) -> SolveResult:
    """Right-preconditioned BiCGStab with relative-residual stopping test.

    Breakdowns (``ρ = 0``, ``r̂ᵀv = 0``, ``ω = 0``), non-finite
    matvec/preconditioner output and (when ``stagnation_window`` is set)
    stagnation terminate the iteration with a machine-readable
    ``failure_reason`` (see :mod:`repro.krylov.failures`).

    >>> import numpy as np
    >>> A = np.array([[3.0, 1.0], [-1.0, 2.0]])   # non-symmetric is fine
    >>> result = bicgstab(A, np.array([1.0, 1.0]), tolerance=1e-12)
    >>> result.converged, bool(np.allclose(A @ result.solution, [1.0, 1.0]))
    (True, True)
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    n = rhs.shape[0]
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        matvec: Callable[[np.ndarray], np.ndarray] = lambda v: csr @ v
    else:
        arr = np.asarray(matrix)
        matvec = lambda v: arr @ v
    precond = preconditioner if preconditioner is not None else IdentityPreconditioner(n)
    max_iterations = max_iterations if max_iterations is not None else 10 * n

    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return SolveResult(np.zeros(n), True, 0, [0.0], info={"solver": "bicgstab"})
    if not np.isfinite(rhs_norm):
        return SolveResult(
            np.zeros(n) if initial_guess is None
            else np.asarray(initial_guess, dtype=np.float64).copy(),
            False, 0, [float("inf")],
            info={"solver": "bicgstab"},
            failure_reason=failures.NON_FINITE_RHS,
        )

    with obs_trace.record("krylov.solve", solver="bicgstab") as record:
        x = np.zeros(n) if initial_guess is None else np.asarray(initial_guess, dtype=np.float64).copy()
        r = rhs - matvec(x)
        r_hat = r.copy()
        rho_prev = alpha = omega = 1.0
        v = np.zeros(n)
        p = np.zeros(n)
        residual_history = [float(np.linalg.norm(r) / rhs_norm)]
        converged = residual_history[-1] < tolerance
        iteration = 0
        failure: Optional[str] = None
        if not converged and not np.isfinite(residual_history[-1]):
            failure = failures.NON_FINITE_RESIDUAL
        best_rel = residual_history[-1]
        since_best = 0

        while not converged and failure is None and iteration < max_iterations:
            rho = float(r_hat @ r)
            if rho == 0.0 or not np.isfinite(rho):
                failure = failures.RHO_BREAKDOWN
                break
            beta = (rho / rho_prev) * (alpha / omega) if iteration > 0 else 0.0
            p = r + beta * (p - omega * v)
            p_hat = apply_preconditioner(record, precond.apply, p)
            if not np.isfinite(p_hat).all():
                failure = failures.NON_FINITE_PRECONDITIONER
                break
            v = matvec(p_hat)
            if not np.isfinite(v).all():
                failure = failures.NON_FINITE_OPERATOR
                break
            denom = float(r_hat @ v)
            if denom == 0.0 or not np.isfinite(denom):
                failure = failures.RHO_BREAKDOWN
                break
            alpha = rho / denom
            s = r - alpha * v
            if np.linalg.norm(s) / rhs_norm < tolerance:
                x += alpha * p_hat
                iteration += 1
                residual_history.append(float(np.linalg.norm(s) / rhs_norm))
                converged = True
                break
            s_hat = apply_preconditioner(record, precond.apply, s)
            if not np.isfinite(s_hat).all():
                failure = failures.NON_FINITE_PRECONDITIONER
                break
            t = matvec(s_hat)
            if not np.isfinite(t).all():
                failure = failures.NON_FINITE_OPERATOR
                break
            tt = float(t @ t)
            omega = float(t @ s) / tt if tt > 0.0 else 0.0
            x += alpha * p_hat + omega * s_hat
            r = s - omega * t
            rho_prev = rho
            iteration += 1
            rel = float(np.linalg.norm(r) / rhs_norm)
            residual_history.append(rel)
            if not np.isfinite(rel):
                failure = failures.NON_FINITE_RESIDUAL
                break
            if rel < tolerance:
                converged = True
                break
            if omega == 0.0:
                # omega breakdown: the stabilisation step degenerated
                failure = failures.BREAKDOWN
                break
            if rel < best_rel:
                best_rel = rel
                since_best = 0
            else:
                since_best += 1
                if stagnation_window is not None and since_best >= stagnation_window:
                    failure = failures.STAGNATION
                    break

        if not converged and failure is None:
            failure = failures.MAX_ITERATIONS

    return SolveResult(
        solution=x,
        converged=converged,
        iterations=iteration,
        residual_history=residual_history,
        elapsed_time=record.seconds,
        preconditioner_time=record.total(PRECOND_APPLY),
        info={"solver": "bicgstab", "tolerance": tolerance},
        failure_reason=failure,
    )
