"""Built-in Krylov method registrations (``cg``, ``gmres``).

The implementations live in :mod:`repro.krylov`; this module only adapts them
to the registry contract.  Both already share the signature
``solve(matrix, rhs, preconditioner=None, initial_guess=None, tolerance=...,
max_iterations=None, **kwargs) -> SolveResult``, so the registrations are
direct.
"""

from __future__ import annotations

from ..krylov.block import lockstep_pcg
from ..krylov.cg import preconditioned_conjugate_gradient
from ..krylov.gmres import gmres
from .registry import register_krylov

__all__ = []  # methods are consumed through the registry, not imported

register_krylov(
    "cg",
    description="Preconditioned Conjugate Gradient (paper Algorithm 1; flexible for a "
                "nonlinear preconditioner; SPD operators)",
    symmetric_only=True,
    lockstep=lockstep_pcg,
)(preconditioned_conjugate_gradient)

register_krylov(
    "gmres",
    description="Restarted GMRES(m) with Givens rotations (nonsymmetric operators)",
)(gmres)
