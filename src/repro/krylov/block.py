"""Lockstep multi-RHS Preconditioned Conjugate Gradient.

:func:`lockstep_pcg` solves ``A x_j = b_j`` for a batch of right-hand sides
**in lockstep**: every Krylov iteration advances all still-active columns at
once, so the per-iteration work runs on ``(n, k)`` blocks — one SpMM instead
of ``k`` SpMVs, one multi-column preconditioner application instead of ``k``
single ones, broadcast AXPYs instead of ``k`` vector updates.  At the serving
scale of this repository the per-solve cost is dominated by fixed Python/BLAS
call overhead, so batching ``k`` solves into one lockstep sweep is the
mechanism that makes request micro-batching (:mod:`repro.serve`) beat
one-solve-per-request throughput.

**Bit-identity contract.**  Column ``j`` of the lockstep solve is bit-identical
to :func:`~repro.krylov.cg.preconditioned_conjugate_gradient` run alone on
``b_j`` — same solution bytes, same iteration count, same residual history.
This holds because every numerical operation is column-independent and is
evaluated by the same kernels in the same order as the single-RHS path:

* the work arrays are **Fortran-ordered**, so each column is a contiguous
  vector and per-column dot products/norms hit the exact BLAS code path of the
  single-RHS solver (a strided dot is *not* bit-identical to a contiguous
  one — that is why the layout matters);
* CSR SpMM (``A @ P``) accumulates each column exactly like the corresponding
  SpMV (scipy's ``csr_matvecs`` iterates the same nonzeros in the same order);
* the ``alpha``/``beta`` scalar recurrences are computed per column and applied
  with elementwise broadcasts, which perform the identical multiply-add per
  element;
* the direction update is chosen exactly as in the single-RHS solver — the
  Fletcher–Reeves ``beta`` update for a ``linear`` preconditioner, otherwise
  the flexible recurrence — and the flexible one is *the same code*:
  :class:`repro.krylov.flexible.DirectionWindow` works on column blocks and
  the single-RHS solver calls it with one column, so there is no second
  ladder to keep in sync (its stored blocks are compacted with X/R/P);
* a column leaves the active set the moment it converges (or breaks down or
  hits the iteration cap); the survivors are compacted into fresh F-ordered
  arrays (exact copies), so later iterations never touch finished columns.

Preconditioners participate through ``apply_columns(R) -> Z`` (see
:class:`repro.ddm.asm.Preconditioner`), and the single-RHS solver's
``apply(r)`` is that same method at ``k = 1`` — or, for a preconditioner that
only implements ``apply``, ``apply_columns`` is the interface's per-column
loop over it — so per-column bit-identity holds by construction rather than
by a mirrored second pipeline.  The whole DDM family batches genuinely: it
is one Schwarz apply
(:meth:`repro.ddm.asm.AdditiveSchwarzPreconditioner.apply_columns`) whose
local solver takes the stacked block — DDM-LU/Jacobi solve all stacked locals
at once, and DDM-GNN's :class:`~repro.core.ddm_gnn.DSSLocalSolver` runs
**one** multi-column DSS forward per inference batch, so a lockstep iteration
costs one network sweep instead of k.

Per-column timing is reported amortised: the sweep is one ``krylov.solve``
record, each :class:`SolveResult` carries its duration and its
``precond.apply`` total divided by ``num_rhs`` (the honest per-RHS share of
the lockstep sweep), and ``info["lockstep"]`` the undivided batch totals.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Union

import numpy as np
import scipy.sparse as sp

from ..ddm.asm import IdentityPreconditioner, Preconditioner
from ..obs import trace as obs_trace
from . import failures
from .flexible import DirectionWindow, recurrence_of
from .result import PRECOND_APPLY, SolveResult, apply_preconditioner

__all__ = ["lockstep_pcg"]

MatrixLike = Union[np.ndarray, sp.spmatrix]


def lockstep_pcg(
    matrix: MatrixLike,
    rhs_batch: np.ndarray,
    preconditioner: Optional[Preconditioner] = None,
    initial_guess: Optional[np.ndarray] = None,
    tolerance: float = 1e-6,
    max_iterations: Optional[int] = None,
    callback: Optional[Callable[[int, Dict[int, float]], None]] = None,
    stagnation_window: Optional[int] = None,
) -> List[SolveResult]:
    """Solve ``A x_j = b_j`` for every row of ``rhs_batch`` in lockstep.

    Parameters mirror
    :func:`~repro.krylov.cg.preconditioned_conjugate_gradient`; ``rhs_batch``
    is ``(num_rhs, n)`` (rows are right-hand sides, matching
    ``SolverSession.solve_many``) and ``initial_guess`` is a single ``(n,)``
    vector shared by every column (as sequential solves with the same ``x0``
    would use).  ``callback(iteration, residuals)`` — the lockstep analogue of
    the single-RHS per-iteration hook — receives a dict mapping each
    still-active original row index to its relative residual; it only *reads*
    quantities the iteration already computed, so supplying it cannot perturb
    the bit-identity contract.  Returns one :class:`SolveResult` per row, each
    bit-identical to the corresponding single-RHS solve.

    Failure handling mirrors the single-RHS solver guard-for-guard (the guard
    *order* is part of the bit-identity contract): a column whose matvec,
    preconditioner output or residual goes non-finite — or that breaks down
    or stagnates — is finalized with the same
    :attr:`~repro.krylov.result.SolveResult.failure_reason` the single-RHS
    solve would stamp, and is compacted out so the surviving columns continue
    bit-identically.

    >>> import numpy as np
    >>> A = np.array([[4.0, 1.0], [1.0, 3.0]])
    >>> B = np.array([[1.0, 2.0], [0.5, -1.0]])
    >>> results = lockstep_pcg(A, B, tolerance=1e-12)
    >>> [bool(np.allclose(A @ r.solution, b)) for r, b in zip(results, B)]
    [True, True]
    """
    rhs_batch = np.atleast_2d(np.asarray(rhs_batch, dtype=np.float64))
    num_rhs, n = rhs_batch.shape
    csr = matrix.tocsr() if sp.issparse(matrix) else np.asarray(matrix)
    precond = preconditioner if preconditioner is not None else IdentityPreconditioner(n)
    apply_columns = getattr(precond, "apply_columns", None)
    if apply_columns is None:  # duck-typed, `apply` only: the interface's per-column default
        apply_columns = functools.partial(Preconditioner.apply_columns, precond)
    max_iterations = max_iterations if max_iterations is not None else 10 * n

    recurrence = recurrence_of(precond)

    def base_info() -> dict:
        return {"solver": "pcg", "tolerance": tolerance, "recurrence": recurrence}

    results: List[Optional[SolveResult]] = [None] * num_rhs

    rhs_norms_all = np.array([float(np.linalg.norm(rhs_batch[j])) for j in range(num_rhs)])
    for j in np.flatnonzero(rhs_norms_all == 0.0):
        results[j] = SolveResult(
            solution=np.zeros(n),
            converged=True,
            iterations=0,
            residual_history=[0.0],
            info=base_info(),
        )
    # non-finite right-hand sides never enter the batch (the single-RHS
    # solver refuses them up front, before any preconditioner work)
    for j in np.flatnonzero(~np.isfinite(rhs_norms_all)):
        results[j] = SolveResult(
            solution=np.zeros(n) if initial_guess is None
            else np.asarray(initial_guess, dtype=np.float64).copy(),
            converged=False,
            iterations=0,
            residual_history=[float("inf")],
            info=base_info(),
            failure_reason=failures.NON_FINITE_RHS,
        )
    cols = [
        int(j)
        for j in np.flatnonzero((rhs_norms_all != 0.0) & np.isfinite(rhs_norms_all))
    ]

    def finalize(col: int, solution: np.ndarray, converged: bool, iterations: int,
                 history: List[float], failure_reason: Optional[str] = None) -> None:
        info = base_info()
        info["preconditioner"] = type(precond).__name__
        results[col] = SolveResult(
            solution=np.ascontiguousarray(solution),
            converged=converged,
            iterations=iterations,
            residual_history=history,
            info=info,
            failure_reason=failure_reason,
        )

    with obs_trace.record("krylov.solve", solver="lockstep", num_rhs=num_rhs) as record:
        if cols:
            k = len(cols)
            X = np.zeros((n, k), order="F")
            if initial_guess is not None:
                x0 = np.asarray(initial_guess, dtype=np.float64)
                for i in range(k):
                    X[:, i] = x0
            R = np.asfortranarray(rhs_batch[cols].T - (csr @ X))
            rhs_norms = rhs_norms_all[cols]

            Z = np.asfortranarray(apply_preconditioner(record, apply_columns, R))
            P = Z.copy(order="F")

            histories: List[List[float]] = [
                [float(np.linalg.norm(R[:, i]) / rhs_norms[i])] for i in range(k)
            ]
            rho = np.array([float(R[:, i] @ Z[:, i]) for i in range(k)])

            # per-column stagnation trackers (mirroring the single-RHS solver's
            # best-so-far counters)
            best_rel = np.array([histories[i][0] for i in range(k)])
            since_best = np.zeros(k, dtype=np.int64)

            # pre-loop checks, in the single-RHS guard order: convergence at
            # iteration 0, then non-finite residual / preconditioner output /
            # vanishing rho
            keep = []
            for i in range(k):
                if histories[i][0] < tolerance:
                    finalize(cols[i], X[:, i], True, 0, histories[i])
                elif not np.isfinite(histories[i][0]):
                    finalize(cols[i], X[:, i], False, 0, histories[i],
                             failures.NON_FINITE_RESIDUAL)
                elif not np.isfinite(Z[:, i]).all():
                    finalize(cols[i], X[:, i], False, 0, histories[i],
                             failures.NON_FINITE_PRECONDITIONER)
                elif rho[i] == 0.0 or not np.isfinite(rho[i]):
                    finalize(cols[i], X[:, i], False, 0, histories[i],
                             failures.RHO_BREAKDOWN)
                else:
                    keep.append(i)

            # direction history of the flexible recurrence; never built for a linear M
            window = DirectionWindow() if recurrence == "flexible" else None

            def compact(keep_idx: List[int]) -> None:
                nonlocal X, R, P, rho, rhs_norms, cols, histories, best_rel, since_best
                X = np.asfortranarray(X[:, keep_idx])
                R = np.asfortranarray(R[:, keep_idx])
                P = np.asfortranarray(P[:, keep_idx])
                rho = rho[keep_idx]
                rhs_norms = rhs_norms[keep_idx]
                cols = [cols[i] for i in keep_idx]
                histories = [histories[i] for i in keep_idx]
                best_rel = best_rel[keep_idx]
                since_best = since_best[keep_idx]
                if window is not None:
                    window.compact(keep_idx)

            if len(keep) != k:
                compact(keep)

            iteration = 0
            while cols and iteration < max_iterations:
                a = len(cols)
                Q = np.asfortranarray(csr @ P)
                denom = np.array([float(P[:, i] @ Q[:, i]) for i in range(a)])

                # pre-update breakdowns (mirroring cg.py's guard order: non-finite
                # matvec output, non-finite denom, then p'Ap <= 0): the single-RHS
                # solver breaks *before* the update, keeping the current iterate
                pre_reason: List[Optional[str]] = [None] * a
                for i in range(a):
                    if not np.isfinite(Q[:, i]).all():
                        pre_reason[i] = failures.NON_FINITE_OPERATOR
                    elif not np.isfinite(denom[i]):
                        pre_reason[i] = failures.NON_FINITE_OPERATOR
                    elif denom[i] <= 0.0:
                        pre_reason[i] = failures.INDEFINITE_OPERATOR
                if any(reason is not None for reason in pre_reason):
                    survivors = [i for i in range(a) if pre_reason[i] is None]
                    for i in range(a):
                        if pre_reason[i] is not None:
                            finalize(cols[i], X[:, i], False, iteration, histories[i],
                                     pre_reason[i])
                    if not survivors:
                        break
                    Q = np.asfortranarray(Q[:, survivors])
                    denom = denom[survivors]
                    compact(survivors)
                    a = len(cols)

                alpha = rho / denom
                if window is not None:
                    window.push(P, Q, denom)
                X += alpha[None, :] * P
                R -= alpha[None, :] * Q
                iteration += 1

                rels = np.array([float(np.linalg.norm(R[:, i]) / rhs_norms[i]) for i in range(a)])
                for i in range(a):
                    histories[i].append(float(rels[i]))
                if callback is not None:
                    callback(iteration, {cols[i]: float(rels[i]) for i in range(a)})

                # post-update checks in the single-RHS order: non-finite residual,
                # convergence, stagnation
                post_reason: List[Optional[str]] = [None] * a
                done = [False] * a
                for i in range(a):
                    rel = float(rels[i])
                    if not np.isfinite(rel):
                        post_reason[i] = failures.NON_FINITE_RESIDUAL
                    elif rel < tolerance:
                        done[i] = True
                    elif rel < best_rel[i]:
                        best_rel[i] = rel
                        since_best[i] = 0
                    else:
                        since_best[i] += 1
                        if stagnation_window is not None and since_best[i] >= stagnation_window:
                            post_reason[i] = failures.STAGNATION
                survivors = [i for i in range(a) if not done[i] and post_reason[i] is None]
                for i in range(a):
                    if done[i]:
                        finalize(cols[i], X[:, i], True, iteration, histories[i])
                    elif post_reason[i] is not None:
                        finalize(cols[i], X[:, i], False, iteration, histories[i],
                                 post_reason[i])
                if not survivors:
                    break
                if iteration >= max_iterations:
                    for i in survivors:
                        finalize(cols[i], X[:, i], False, iteration, histories[i],
                                 failures.MAX_ITERATIONS)
                    break
                if len(survivors) != a:
                    compact(survivors)
                    a = len(cols)

                Z = np.asfortranarray(apply_preconditioner(record, apply_columns, R))
                rho_next = np.array([float(R[:, i] @ Z[:, i]) for i in range(a)])

                # post-apply guards (cg.py order): a poisoned preconditioner
                # column or a vanishing rho leaves the batch with the current
                # iterate; survivors continue bit-identically
                apply_reason: List[Optional[str]] = [None] * a
                for i in range(a):
                    if not np.isfinite(Z[:, i]).all():
                        apply_reason[i] = failures.NON_FINITE_PRECONDITIONER
                    elif rho_next[i] == 0.0 or not np.isfinite(rho_next[i]):
                        apply_reason[i] = failures.RHO_BREAKDOWN
                if any(reason is not None for reason in apply_reason):
                    survivors = [i for i in range(a) if apply_reason[i] is None]
                    for i in range(a):
                        if apply_reason[i] is not None:
                            finalize(cols[i], X[:, i], False, iteration, histories[i],
                                     apply_reason[i])
                    if not survivors:
                        break
                    Z = np.asfortranarray(Z[:, survivors])
                    rho_next = rho_next[survivors]
                    compact(survivors)
                    a = len(cols)

                if window is None:
                    beta = rho_next / rho
                    P = np.asfortranarray(Z + beta[None, :] * P)
                else:
                    P = window.next_direction(Z)
                rho = rho_next

            # columns never entered the loop (e.g. max_iterations == 0)
            for i, col in enumerate(cols):
                if results[col] is None:
                    finalize(col, X[:, i], False, iteration, histories[i],
                             failures.MAX_ITERATIONS)

    # the lockstep sweep is one record; each column reports its per-RHS share
    elapsed, precond_time = record.seconds, record.total(PRECOND_APPLY)
    for result in results:
        result.elapsed_time = elapsed / num_rhs
        result.preconditioner_time = precond_time / num_rhs
        result.info["lockstep"] = {
            "num_rhs": num_rhs,
            "batch_elapsed_s": elapsed,
            "batch_preconditioner_s": precond_time,
        }
    return results
