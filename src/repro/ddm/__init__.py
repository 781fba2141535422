"""Domain-decomposition substrate: restriction operators, coarse space, ASM.

Public surface:

* :class:`~repro.ddm.asm.AdditiveSchwarzPreconditioner` — one/two-level ASM
  (the DDM-LU baseline of the paper).
* :class:`~repro.ddm.asm.Preconditioner`,
  :class:`~repro.ddm.asm.IdentityPreconditioner` — preconditioner interface.
* :class:`~repro.ddm.coarse.NicolaidesCoarseSpace` — coarse (second) level.
* :class:`~repro.ddm.local_solvers.LULocalSolver`,
  :class:`~repro.ddm.local_solvers.JacobiLocalSolver`,
  :class:`~repro.ddm.local_solvers.LocalSolver` — local sub-domain solvers.
* :func:`~repro.ddm.restriction.restriction_matrix`,
  :func:`~repro.ddm.restriction.build_restrictions` — R_i operators.
* :class:`~repro.ddm.restriction.StackedRestriction` — all R_i stacked into
  one block operator (the loop-free preconditioner hot path), gluing
  additively (``Σ R_iᵀ``) or by core ownership (``Σ R̃_iᵀ``, restricted).
"""

from .asm import AdditiveSchwarzPreconditioner, IdentityPreconditioner, Preconditioner
from .coarse import NicolaidesCoarseSpace
from .local_solvers import JacobiLocalSolver, LocalSolver, LULocalSolver, extract_local_matrices
from .restriction import StackedRestriction, build_restrictions, restriction_matrix

__all__ = [
    "AdditiveSchwarzPreconditioner",
    "IdentityPreconditioner",
    "Preconditioner",
    "NicolaidesCoarseSpace",
    "LocalSolver",
    "LULocalSolver",
    "JacobiLocalSolver",
    "extract_local_matrices",
    "restriction_matrix",
    "build_restrictions",
    "StackedRestriction",
]
