"""Built-in preconditioner factory registrations.

Each factory builds a :class:`~repro.ddm.asm.Preconditioner` from a problem
and a :class:`~repro.solvers.config.SolverConfig`.  Factories that need an
overlapping decomposition or a trained model declare it in their registry
spec, and :class:`~repro.solvers.session.SolverSession` provides (and times)
exactly those setup stages.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.ddm_gnn import DDMGNNPreconditioner
from ..ddm.asm import AdditiveSchwarzPreconditioner, IdentityPreconditioner
from ..ddm.local_solvers import JacobiLocalSolver
from ..fem.problem import Problem
from ..krylov.ic import IncompleteCholeskyPreconditioner
from ..partition.overlap import OverlappingDecomposition
from ..partition.partitioner import Partition, partition_mesh, partition_mesh_target_size
from .config import SolverConfig
from .registry import register_preconditioner

__all__ = []  # factories are consumed through the registry, not imported


@register_preconditioner(
    "ddm-gnn",
    description="Two-level DDM with batched DSS local solves (the paper's method)",
    needs_decomposition=True,
    needs_model=True,
)
def _build_ddm_gnn(
    problem: Problem,
    config: SolverConfig,
    decomposition: Optional[OverlappingDecomposition] = None,
    model=None,
) -> DDMGNNPreconditioner:
    return DDMGNNPreconditioner(
        problem.matrix,
        problem.mesh,
        decomposition,
        model,
        levels=config.levels,
        global_dirichlet_mask=getattr(problem, "dirichlet_mask", None),
        node_diffusion=getattr(problem, "node_diffusion", None),
        equilibrate=config.gnn_equilibrate,
        precision=config.precision,
    )


@register_preconditioner(
    "ddm-lu",
    description="Two-level Additive Schwarz with exact local LU solves (DDM-LU baseline)",
    needs_decomposition=True,
)
def _build_ddm_lu(
    problem: Problem,
    config: SolverConfig,
    decomposition: Optional[OverlappingDecomposition] = None,
    model=None,
) -> AdditiveSchwarzPreconditioner:
    return AdditiveSchwarzPreconditioner(problem.matrix, decomposition, levels=config.levels)


@register_preconditioner(
    "ddm-jacobi",
    description="Additive Schwarz with inexact Jacobi local sweeps",
    needs_decomposition=True,
)
def _build_ddm_jacobi(
    problem: Problem,
    config: SolverConfig,
    decomposition: Optional[OverlappingDecomposition] = None,
    model=None,
) -> AdditiveSchwarzPreconditioner:
    return AdditiveSchwarzPreconditioner(
        problem.matrix,
        decomposition,
        levels=config.levels,
        local_solver=JacobiLocalSolver(sweeps=config.jacobi_sweeps),
    )


@register_preconditioner(
    "ic0",
    description="Incomplete Cholesky IC(0) (paper Table III baseline)",
    spd_only=True,
)
def _build_ic0(
    problem: Problem,
    config: SolverConfig,
    decomposition: Optional[OverlappingDecomposition] = None,
    model=None,
) -> IncompleteCholeskyPreconditioner:
    return IncompleteCholeskyPreconditioner(problem.matrix)


@register_preconditioner(
    "none",
    description="No preconditioning (plain Krylov baseline)",
)
def _build_identity(
    problem: Problem,
    config: SolverConfig,
    decomposition: Optional[OverlappingDecomposition] = None,
    model=None,
) -> IdentityPreconditioner:
    return IdentityPreconditioner(problem.num_dofs)


def build_partition(problem: Problem, config: SolverConfig) -> Partition:
    """Partition the problem's mesh per the config (non-overlapping cores)."""
    rng = np.random.default_rng(config.seed)
    if config.num_subdomains is not None:
        return partition_mesh(problem.mesh, config.num_subdomains, rng=rng)
    return partition_mesh_target_size(problem.mesh, config.subdomain_size, rng=rng)


def build_decomposition(problem: Problem, config: SolverConfig) -> OverlappingDecomposition:
    """Partition the mesh and grow the overlap (the DDM setup stage)."""
    return OverlappingDecomposition(problem.mesh, build_partition(problem, config), overlap=config.overlap)
