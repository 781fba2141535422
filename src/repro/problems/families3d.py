"""Built-in 3D problem families on tetrahedral meshes.

The first non-2D entries in the registry: P1 discretisations on a
tetrahedral :class:`~repro.mesh.mesh.SimplexMesh` (a structured unit box when no mesh
is passed — see ``dim=3`` routing in
:func:`~repro.problems.registry.make_problem`).  Everything downstream —
Dirichlet elimination, partitioning, the κ-aware GNN features and
``Problem.fingerprint()`` — is dimension-agnostic, so these problems flow
through sessions and serve exactly like the 2D families.

Families
--------
``poisson3d``
    ``-Δu = f`` on the unit box with a random quadratic forcing and random
    quadratic Dirichlet data (the 3D analogue of the paper's setting).
``diffusion3d-ball``
    Variable κ: a high-contrast spherical inclusion in the box centre —
    exercises the κ-aware node features in 3D.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..fem.assembly import apply_dirichlet, assemble_load, assemble_stiffness, evaluate_on_cells
from ..fem.problem import DiffusionProblem, Problem, boundary_dirichlet_data, node_averaged_diffusion
from ..mesh.mesh import SimplexMesh
from .registry import register_problem

__all__ = []  # families are consumed through the registry, not imported


def random_forcing_3d(rng: Optional[np.random.Generator] = None, scale: float = 1.0):
    """Random quadratic forcing ``f(x,y,z)`` — the 3D analogue of Eq. 24."""
    rng = rng if rng is not None else np.random.default_rng()
    r = rng.uniform(-10.0, 10.0, size=4)

    def f(x, y, z):
        return scale * (r[0] * (x - 1.0) ** 2 + r[1] * y ** 2 + r[2] * z ** 2 + r[3])

    return f


def random_boundary_3d(rng: Optional[np.random.Generator] = None, scale: float = 1.0):
    """Random Dirichlet data ``g(x,y,z)`` as a full quadratic polynomial."""
    rng = rng if rng is not None else np.random.default_rng()
    r = rng.uniform(-10.0, 10.0, size=7)

    def g(x, y, z):
        return scale * (
            r[0] * x ** 2 + r[1] * y ** 2 + r[2] * z ** 2
            + r[3] * x + r[4] * y + r[5] * z + r[6]
        )

    return g


@register_problem(
    "poisson3d",
    description="3D Poisson on a tetrahedral mesh (structured box by default)",
    dim=3,
)
def _poisson3d(
    mesh: SimplexMesh, rng: np.random.Generator, scale: float = 1.0
) -> Problem:
    stiffness = assemble_stiffness(mesh)
    load = assemble_load(mesh, random_forcing_3d(rng, scale=scale))
    dnodes, dvalues = boundary_dirichlet_data(mesh, random_boundary_3d(rng, scale=scale))
    matrix, rhs = apply_dirichlet(stiffness, load, dnodes, dvalues)
    return Problem(
        mesh=mesh,
        matrix=matrix,
        rhs=rhs,
        stiffness=stiffness,
        boundary_values=dvalues,
        dirichlet_nodes=dnodes,
    )


@register_problem(
    "diffusion3d-ball",
    description="High-contrast spherical κ inclusion in the box centre",
    dim=3,
    contrast=100.0,
)
def _diffusion3d_ball(
    mesh: SimplexMesh,
    rng: np.random.Generator,
    contrast: float = 100.0,
    radius_fraction: float = 0.3,
) -> DiffusionProblem:
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    centre = 0.5 * (lo + hi)
    ball_radius = float(radius_fraction) * float(max(hi - lo))

    def kappa(x, y, z):
        inside = (x - centre[0]) ** 2 + (y - centre[1]) ** 2 + (z - centre[2]) ** 2 \
            <= ball_radius ** 2
        return np.where(inside, float(contrast), 1.0)

    cell_diffusion = evaluate_on_cells(mesh, kappa)
    stiffness = assemble_stiffness(mesh, diffusion=cell_diffusion)
    load = assemble_load(mesh, random_forcing_3d(rng))
    dnodes, dvalues = boundary_dirichlet_data(mesh, random_boundary_3d(rng))
    matrix, rhs = apply_dirichlet(stiffness, load, dnodes, dvalues)
    return DiffusionProblem(
        mesh=mesh,
        matrix=matrix,
        rhs=rhs,
        stiffness=stiffness,
        boundary_values=dvalues,
        dirichlet_nodes=dnodes,
        node_diffusion=node_averaged_diffusion(mesh, cell_diffusion),
        diffusion=kappa,
        cell_diffusion=cell_diffusion,
    )
