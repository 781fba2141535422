"""Built-in time-dependent problem families (θ-scheme step operators).

Each factory assembles the semi-discrete operators ``M du/dt + A u = f`` and
bakes them into a :class:`~repro.timestepping.problem.TimeDependentProblem`
via :meth:`~repro.timestepping.problem.TimeDependentProblem.from_theta_scheme`.
The step operator ``M/dt + θ·A`` is what one
:func:`repro.solvers.prepare` session factorises once and then re-solves for
every step of :meth:`~repro.solvers.session.SolverSession.march`.

Families
--------
``heat`` / ``heat3d``
    The heat equation ``∂u/∂t − ∇·(κ∇u) = f`` with Dirichlet boundary data
    and a configurable θ (backward Euler by default): one factory, registered
    for 2D meshes and (as ``heat3d``, whose ``dim=3`` routing builds a
    tetrahedral box mesh when none is given) for 3D ones.
``convection-diffusion-transient``
    **Nonsymmetric** ``∂u/∂t − κΔu + b·∇u = f`` with row-mode Dirichlet
    elimination, marched with ``gmres`` sessions.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from ..fem.assembly import assemble_convection, assemble_load, assemble_mass, assemble_stiffness
from ..fem.functions import random_boundary, random_forcing
from ..fem.problem import boundary_dirichlet_data, diffusion_stiffness
from ..mesh.mesh import SimplexMesh
from ..timestepping.problem import TimeDependentProblem
from .families import peclet_velocity
from .registry import register_problem

__all__ = []  # families are consumed through the registry, not imported


@register_problem(
    "heat",
    description="2D heat equation θ-scheme (constant step operator M/dt + θK)",
    dt=0.01,
    theta=1.0,
)
@register_problem(
    "heat3d",
    description="3D heat equation θ-scheme on a tetrahedral box mesh",
    dim=3,
    dt=0.01,
    theta=1.0,
)
def _heat(
    mesh: SimplexMesh,
    rng: np.random.Generator,
    dt: float = 0.01,
    theta: float = 1.0,
    diffusion: Union[None, float, Callable] = None,
    forcing: Optional[Callable] = None,
    boundary: Optional[Callable] = None,
    initial: Union[None, np.ndarray, Callable] = None,
    lumped: bool = False,
) -> TimeDependentProblem:
    if forcing is None:
        forcing = random_forcing(rng, dim=mesh.dim)
    if boundary is None:
        boundary = random_boundary(rng, dim=mesh.dim)
    spatial, node_diffusion = diffusion_stiffness(mesh, diffusion)
    dnodes, dvalues = boundary_dirichlet_data(mesh, boundary)
    return TimeDependentProblem.from_theta_scheme(
        mesh,
        spatial=spatial,
        mass=assemble_mass(mesh, lumped=lumped),
        load=assemble_load(mesh, forcing),
        dt=dt,
        theta=theta,
        dirichlet_nodes=dnodes,
        dirichlet_values=dvalues,
        initial_state=initial,
        node_diffusion=node_diffusion,
        lumped_mass=lumped,
    )


@register_problem(
    "convection-diffusion-transient",
    description="Nonsymmetric transient ∂u/∂t − κΔu + b·∇u = f (row-mode BCs)",
    dt=0.01,
    theta=1.0,
    peclet=20.0,
)
def _convection_diffusion_transient(
    mesh: SimplexMesh,
    rng: np.random.Generator,
    dt: float = 0.01,
    theta: float = 1.0,
    diffusion: float = 1.0,
    peclet: float = 20.0,
    angle: Optional[float] = None,
    lumped: bool = False,
) -> TimeDependentProblem:
    """Transient convection-diffusion at a given domain Péclet number.

    The advection speed is scaled exactly as in the steady
    ``convection-diffusion`` family; the spatial operator (stiffness +
    convection) is nonsymmetric, so the step operator is eliminated in
    ``"row"`` mode and marched through ``gmres`` sessions.
    """
    velocity = peclet_velocity(mesh, rng, diffusion, peclet, angle)
    spatial = assemble_stiffness(mesh, diffusion=float(diffusion)) \
        + assemble_convection(mesh, velocity)
    mass = assemble_mass(mesh, lumped=lumped)
    load = assemble_load(mesh, random_forcing(rng))
    dnodes, dvalues = boundary_dirichlet_data(mesh, random_boundary(rng))
    return TimeDependentProblem.from_theta_scheme(
        mesh,
        spatial=spatial,
        mass=mass,
        load=load,
        dt=dt,
        theta=theta,
        dirichlet_nodes=dnodes,
        dirichlet_values=dvalues,
        dirichlet_mode="row",
        lumped_mass=lumped,
    )
