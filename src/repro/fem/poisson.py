"""Discretised Poisson problems (paper Eq. 1 → Eq. 2).

:class:`PoissonProblem` is the homogeneous-coefficient member of the
:class:`~repro.fem.problem.Problem` hierarchy: ``-Δu = f`` with Dirichlet
conditions on the whole boundary, which is the setting of all the paper's
experiments.  The residual/solve/error helpers live on the shared base class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np

from ..mesh.mesh import SimplexMesh
from .assembly import apply_dirichlet, assemble_load, assemble_stiffness
from .functions import random_boundary, random_forcing
from .problem import Problem

__all__ = ["PoissonProblem", "random_poisson_problem"]

ScalarField = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class PoissonProblem(Problem):
    """A discretised Poisson problem with Dirichlet boundary conditions.

    See :class:`~repro.fem.problem.Problem` for the attribute documentation;
    here ``dirichlet_nodes`` is always the full ``mesh.boundary_nodes`` set
    and ``node_diffusion`` stays None (κ ≡ 1).
    """

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_fields(
        cls,
        mesh: SimplexMesh,
        forcing: ScalarField,
        boundary: ScalarField,
        dirichlet_mode: Literal["symmetric", "row"] = "symmetric",
    ) -> "PoissonProblem":
        """Assemble the P1 discretisation of ``-Δu = f`` with ``u = g`` on ∂Ω."""
        stiffness = assemble_stiffness(mesh)
        load = assemble_load(mesh, forcing)
        bnodes = mesh.boundary_nodes
        bx, by = mesh.nodes[bnodes, 0], mesh.nodes[bnodes, 1]
        bvalues = np.asarray(boundary(bx, by), dtype=np.float64)
        matrix, rhs = apply_dirichlet(stiffness, load, bnodes, bvalues, mode=dirichlet_mode)
        return cls(
            mesh=mesh,
            matrix=matrix,
            rhs=rhs,
            stiffness=stiffness,
            boundary_values=bvalues,
            dirichlet_mode=dirichlet_mode,
            dirichlet_nodes=bnodes,
        )


def random_poisson_problem(
    mesh: SimplexMesh,
    rng: Optional[np.random.Generator] = None,
    scale: float = 1.0,
    dirichlet_mode: Literal["symmetric", "row"] = "symmetric",
) -> PoissonProblem:
    """Sample a random Poisson problem on ``mesh`` following the paper's recipe.

    ``scale`` rescales the random polynomial fields for meshes grown beyond the
    unit radius (Sec. IV-A, last paragraph).
    """
    rng = rng if rng is not None else np.random.default_rng()
    f = random_forcing(rng, scale=scale)
    g = random_boundary(rng, scale=scale)
    return PoissonProblem.from_fields(mesh, f, g, dirichlet_mode=dirichlet_mode)
