"""Krylov solvers and algebraic preconditioners.

Public surface:

* :func:`~repro.krylov.cg.preconditioned_conjugate_gradient` — CG / PCG
  (paper Algorithm 1; ``preconditioner=None`` is plain CG).
* :func:`~repro.krylov.gmres.gmres` — restarted GMRES for nonsymmetric
  operators.
* :func:`~repro.krylov.block.lockstep_pcg` — fused multi-RHS PCG, bit-identical
  per column to the single-RHS solver (the micro-batching fast path).
* :mod:`~repro.krylov.flexible` — the direction update PCG and lockstep PCG
  share when the preconditioner declares ``linear = False`` (flexible CG).
* :class:`~repro.krylov.ic.IncompleteCholeskyPreconditioner`,
  :func:`~repro.krylov.ic.incomplete_cholesky` — IC(0) baseline of Table III.
* :class:`~repro.krylov.result.SolveResult` — common result object.
* :mod:`~repro.krylov.failures` — the machine-readable breakdown taxonomy
  stamped on ``SolveResult.failure_reason`` when a solve terminates without
  converging.
"""

from . import failures
from .block import lockstep_pcg
from .cg import preconditioned_conjugate_gradient
from .gmres import gmres
from .ic import IncompleteCholeskyPreconditioner, incomplete_cholesky
from .result import SolveResult

__all__ = [
    "preconditioned_conjugate_gradient",
    "lockstep_pcg",
    "gmres",
    "IncompleteCholeskyPreconditioner",
    "incomplete_cholesky",
    "SolveResult",
    "failures",
]
