"""Restarted GMRES solver (Saad & Schultz, 1986).

Included for completeness (the paper cites GMRES among the Krylov methods a
preconditioner accelerates) and used with non-symmetric preconditioners such
as Restricted Additive Schwarz in the ablation benches.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from ..ddm.asm import IdentityPreconditioner, Preconditioner
from ..obs import trace as obs_trace
from ..utils.sparse import csr_operator
from . import failures
from .flexible import recurrence_of
from .result import PRECOND_APPLY, SolveResult, apply_preconditioner

__all__ = ["gmres"]

MatrixLike = Union[np.ndarray, sp.spmatrix]


def gmres(
    matrix: MatrixLike,
    rhs: np.ndarray,
    preconditioner: Optional[Preconditioner] = None,
    initial_guess: Optional[np.ndarray] = None,
    tolerance: float = 1e-6,
    restart: int = 50,
    max_iterations: Optional[int] = None,
    stagnation_window: Optional[int] = None,
) -> SolveResult:
    """Right-preconditioned restarted GMRES(m) with Givens rotations.

    The cycle's update ``x += M(V y)`` equals ``Σ y_j M(v_j)`` only for a
    linear ``M``.  For a preconditioner with ``linear = False`` the vectors
    ``z_j = M(v_j)`` are kept and the update is ``x += Zᵀ y`` (flexible GMRES,
    Saad 1993), so the Givens residual estimate stays the true residual — and
    the extra apply per cycle is saved; ``info["recurrence"]`` says which ran.

    Non-finite preconditioner/matvec output, a singular projected system and
    (when ``stagnation_window`` is set) stagnation all terminate the iteration
    with a machine-readable ``failure_reason`` (:mod:`repro.krylov.failures`);
    the update from the valid Arnoldi columns built so far is still applied,
    so the returned iterate is the best one available.

    >>> import numpy as np
    >>> A = np.array([[2.0, 1.0], [0.0, 1.5]])    # non-symmetric is fine
    >>> result = gmres(A, np.array([3.0, 3.0]), tolerance=1e-12)
    >>> result.converged, bool(np.allclose(A @ result.solution, [3.0, 3.0]))
    (True, True)
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    n = rhs.shape[0]
    matvec = csr_operator(matrix).matvec
    precond = preconditioner if preconditioner is not None else IdentityPreconditioner(n)
    max_iterations = max_iterations if max_iterations is not None else 10 * n
    restart = max(1, min(restart, n))
    recurrence = recurrence_of(precond)
    flexible = recurrence == "flexible"

    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return SolveResult(np.zeros(n), True, 0, [0.0],
                           info={"solver": "gmres", "recurrence": recurrence})
    if not np.isfinite(rhs_norm):
        return SolveResult(
            np.zeros(n) if initial_guess is None
            else np.asarray(initial_guess, dtype=np.float64).copy(),
            False, 0, [float("inf")],
            info={"solver": "gmres", "recurrence": recurrence},
            failure_reason=failures.NON_FINITE_RHS,
        )

    with obs_trace.record("krylov.solve", solver="gmres") as record:
        x = np.zeros(n) if initial_guess is None else np.asarray(initial_guess, dtype=np.float64).copy()
        residual_history = []
        total_iterations = 0
        converged = False
        failure: Optional[str] = None
        best_rel = float("inf")
        since_best = 0

        while total_iterations < max_iterations and not converged and failure is None:
            r = rhs - matvec(x)
            beta = math.sqrt(r @ r)  # numpy's 1-D norm, without its dispatch
            rel0 = float(beta / rhs_norm)
            if not residual_history:
                residual_history.append(rel0)
                best_rel = rel0
            if rel0 < tolerance:
                converged = True
                break
            if not np.isfinite(rel0):
                failure = failures.NON_FINITE_RESIDUAL
                break

            # Arnoldi with modified Gram-Schmidt on the preconditioned operator A M^{-1}
            basis = np.zeros((restart + 1, n))
            # z_j = M(v_j), kept only when M is not linear (flexible GMRES)
            preconditioned = np.empty((restart, n)) if flexible else None
            hessenberg = np.zeros((restart + 1, restart))
            givens_c = np.zeros(restart)
            givens_s = np.zeros(restart)
            g = np.zeros(restart + 1)
            g[0] = beta
            basis[0] = r / beta
            completed = 0

            for j in range(restart):
                if total_iterations >= max_iterations:
                    break
                z = apply_preconditioner(record, precond.apply, basis[j])
                if not np.isfinite(z).all():
                    # column j is poisoned; the update below still uses the
                    # `completed` valid columns built before it
                    failure = failures.NON_FINITE_PRECONDITIONER
                    break
                if flexible:
                    preconditioned[j] = z
                w = matvec(z)
                if not np.isfinite(w).all():
                    failure = failures.NON_FINITE_OPERATOR
                    break
                for i in range(j + 1):
                    hessenberg[i, j] = float(w @ basis[i])
                    w -= hessenberg[i, j] * basis[i]
                hessenberg[j + 1, j] = math.sqrt(w @ w)
                if hessenberg[j + 1, j] > 1e-14:
                    basis[j + 1] = w / hessenberg[j + 1, j]
                # apply previous Givens rotations to the new column
                for i in range(j):
                    temp = givens_c[i] * hessenberg[i, j] + givens_s[i] * hessenberg[i + 1, j]
                    hessenberg[i + 1, j] = -givens_s[i] * hessenberg[i, j] + givens_c[i] * hessenberg[i + 1, j]
                    hessenberg[i, j] = temp
                # new Givens rotation annihilating the sub-diagonal
                denom = np.hypot(hessenberg[j, j], hessenberg[j + 1, j])
                if denom == 0.0:
                    givens_c[j], givens_s[j] = 1.0, 0.0
                else:
                    givens_c[j] = hessenberg[j, j] / denom
                    givens_s[j] = hessenberg[j + 1, j] / denom
                hessenberg[j, j] = denom
                hessenberg[j + 1, j] = 0.0
                g[j + 1] = -givens_s[j] * g[j]
                g[j] = givens_c[j] * g[j]

                completed = j + 1
                total_iterations += 1
                rel = float(abs(g[j + 1]) / rhs_norm)
                residual_history.append(rel)
                if not np.isfinite(rel):
                    failure = failures.NON_FINITE_RESIDUAL
                    break
                if rel < tolerance:
                    # the Givens estimate says converged — end the sweep and let
                    # the outer loop's *true* residual confirm it (the estimate
                    # lies when the projected system degenerates, e.g. singular
                    # operators, so it never declares convergence on its own)
                    break
                if rel < best_rel:
                    best_rel = rel
                    since_best = 0
                else:
                    since_best += 1
                    if stagnation_window is not None and since_best >= stagnation_window:
                        failure = failures.STAGNATION
                        break

            # solve the small triangular system and update x with the valid
            # Arnoldi columns completed before convergence/failure/restart
            if completed > 0:
                try:
                    y = np.linalg.solve(hessenberg[:completed, :completed], g[:completed])
                except np.linalg.LinAlgError:
                    # singular projected system (happy breakdown gone wrong)
                    if failure is None:
                        failure = failures.BREAKDOWN
                    break
                if flexible:
                    correction = preconditioned[:completed].T @ y
                else:
                    update = basis[:completed].T @ y
                    correction = apply_preconditioner(record, precond.apply, update)
                if not np.isfinite(correction).all():
                    if failure is None:
                        failure = failures.NON_FINITE_PRECONDITIONER
                    break
                x = x + correction

        # final residual check
        r = rhs - matvec(x)
        final_rel = float(math.sqrt(r @ r) / rhs_norm)
        residual_history.append(final_rel)
        converged = converged or final_rel < tolerance
        if converged:
            failure = None
        elif failure is None:
            failure = (failures.NON_FINITE_RESIDUAL if not np.isfinite(final_rel)
                       else failures.MAX_ITERATIONS)

    return SolveResult(
        solution=x,
        converged=converged,
        iterations=total_iterations,
        residual_history=residual_history,
        elapsed_time=record.seconds,
        preconditioner_time=record.total(PRECOND_APPLY),
        info={"solver": "gmres", "tolerance": tolerance, "restart": restart,
              "recurrence": recurrence},
        failure_reason=failure,
    )
