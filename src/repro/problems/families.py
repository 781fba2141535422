"""Built-in problem families.

Each factory is registered with :func:`~repro.problems.registry.register_problem`
and builds a :class:`~repro.fem.problem.Problem` from ``(mesh, rng, **kwargs)``.
Geometric parameters (checkerboard cells, channel extents, mixed-BC regions)
are derived from the mesh bounding box so every family works on any domain —
the random Bezier training meshes, the structured rectangles of the tests and
the Formula-1 silhouette alike.

Families
--------
``poisson``
    The paper's baseline: ``-Δu = f`` with random quadratic f and Dirichlet g.
``diffusion-checkerboard``
    Piecewise-constant checkerboard κ (default contrast 100; pass
    ``contrast=1e4`` for the extreme case), Dirichlet BCs.
``diffusion-channel``
    High-κ stripes crossing the domain, Dirichlet BCs.
``diffusion-lognormal``
    Smooth log-normal random κ (random-Fourier-feature GMRF), Dirichlet BCs.
``diffusion-smooth``
    Deterministic smooth radial κ bump — the mild heterogeneity used by the
    convergence tests.
``diffusion-mixed-bc``
    Checkerboard κ with Dirichlet data on the left half of the boundary, a
    Neumann flux on the upper-right part and a Robin condition elsewhere.
``poisson-robin``
    κ ≡ 1 with a Robin condition on the whole boundary (no Dirichlet nodes —
    exercises the boundary-mass path end to end).
``convection-diffusion``
    **Nonsymmetric** ``-κΔu + b·∇u = f`` with a random constant advection
    direction (mesh-Péclet-scaled speed) — the smoke workload of the
    ``gmres`` Krylov method, which CG cannot solve.
"""

from __future__ import annotations


from typing import Optional

import numpy as np

from ..fem.assembly import (
    apply_dirichlet,
    assemble_convection,
    assemble_load,
    assemble_stiffness,
)
from ..fem.coefficients import ChannelField, CheckerboardField, LognormalField, RadialField
from ..fem.functions import random_boundary, random_forcing
from ..fem.poisson import PoissonProblem, random_poisson_problem
from ..fem.problem import DiffusionProblem, Problem, dirichlet_bc, neumann_bc, robin_bc
from ..mesh.mesh import SimplexMesh
from .registry import register_problem

__all__ = []  # families are consumed through the registry, not imported


def _bbox(mesh: SimplexMesh):
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    return lo, hi


@register_problem("poisson", description="Homogeneous Poisson with random quadratic f/g (paper Sec. IV-A)")
def _poisson(mesh: SimplexMesh, rng: np.random.Generator, scale: float = 1.0) -> PoissonProblem:
    return random_poisson_problem(mesh, rng=rng, scale=scale)


@register_problem(
    "diffusion-checkerboard",
    description="Checkerboard κ (cells² per bbox side), Dirichlet BCs",
    contrast=100.0,
    cells=4,
)
def _checkerboard(
    mesh: SimplexMesh,
    rng: np.random.Generator,
    contrast: float = 100.0,
    cells: int = 4,
) -> DiffusionProblem:
    lo, hi = _bbox(mesh)
    cell_size = float(max(hi - lo)) / max(int(cells), 1)
    kappa = CheckerboardField(contrast=contrast, cell_size=cell_size, origin=(float(lo[0]), float(lo[1])))
    return DiffusionProblem.from_fields(
        mesh, kappa, random_forcing(rng), [dirichlet_bc(random_boundary(rng))]
    )


@register_problem(
    "diffusion-channel",
    description="High-κ channels crossing the domain, Dirichlet BCs",
    contrast=100.0,
    num_channels=3,
)
def _channel(
    mesh: SimplexMesh,
    rng: np.random.Generator,
    contrast: float = 100.0,
    num_channels: int = 3,
) -> DiffusionProblem:
    lo, hi = _bbox(mesh)
    width = 0.08 * float(hi[1] - lo[1])
    kappa = ChannelField(
        contrast=contrast,
        num_channels=num_channels,
        width=width,
        axis="x",
        extent=(float(lo[1]), float(hi[1])),
    )
    return DiffusionProblem.from_fields(
        mesh, kappa, random_forcing(rng), [dirichlet_bc(random_boundary(rng))]
    )


@register_problem(
    "diffusion-lognormal",
    description="Smooth log-normal random κ (random Fourier features), Dirichlet BCs",
    sigma=1.0,
    correlation_length=0.4,
)
def _lognormal(
    mesh: SimplexMesh,
    rng: np.random.Generator,
    sigma: float = 1.0,
    correlation_length: float = 0.4,
) -> DiffusionProblem:
    kappa = LognormalField(
        sigma=sigma,
        correlation_length=correlation_length,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    return DiffusionProblem.from_fields(
        mesh, kappa, random_forcing(rng), [dirichlet_bc(random_boundary(rng))]
    )


@register_problem(
    "diffusion-smooth",
    description="Deterministic smooth radial κ bump (convergence-test workload)",
)
def _smooth(
    mesh: SimplexMesh,
    rng: np.random.Generator,
    amplitude: float = 4.0,
) -> DiffusionProblem:
    lo, hi = _bbox(mesh)
    center = tuple(0.5 * (lo + hi))
    radius = 0.35 * float(max(hi - lo))
    kappa = RadialField(base=1.0, amplitude=amplitude, center=center, radius=radius)
    return DiffusionProblem.from_fields(
        mesh, kappa, random_forcing(rng), [dirichlet_bc(random_boundary(rng))]
    )


@register_problem(
    "diffusion-mixed-bc",
    description="Checkerboard κ with mixed Dirichlet/Neumann/Robin boundary regions",
    contrast=100.0,
    cells=4,
)
def _mixed_bc(
    mesh: SimplexMesh,
    rng: np.random.Generator,
    contrast: float = 100.0,
    cells: int = 4,
) -> DiffusionProblem:
    lo, hi = _bbox(mesh)
    mid = 0.5 * (lo + hi)
    cell_size = float(max(hi - lo)) / max(int(cells), 1)
    kappa = CheckerboardField(contrast=contrast, cell_size=cell_size, origin=(float(lo[0]), float(lo[1])))
    flux = float(rng.uniform(-2.0, 2.0))
    alpha = float(rng.uniform(0.5, 2.0))
    conditions = [
        dirichlet_bc(random_boundary(rng), where=lambda x, y: x <= mid[0]),
        neumann_bc(flux, where=lambda x, y: (x > mid[0]) & (y > mid[1])),
        robin_bc(alpha, 0.0),
    ]
    return DiffusionProblem.from_fields(mesh, kappa, random_forcing(rng), conditions)


@register_problem(
    "convection-diffusion",
    description="Nonsymmetric -κΔu + b·∇u = f (GMRES/BiCGStab smoke workload)",
    peclet=20.0,
)
def _convection_diffusion(
    mesh: SimplexMesh,
    rng: np.random.Generator,
    diffusion: float = 1.0,
    peclet: float = 20.0,
    angle: Optional[float] = None,
) -> Problem:
    """Convection-diffusion with constant advection at a given domain Péclet.

    ``peclet`` sets ``|b| · L / κ`` with L the domain diameter; the default
    of 20 is advective enough that the assembled matrix is visibly
    nonsymmetric and CG breaks down, yet mild enough that the unstabilised
    P1 discretisation stays oscillation-free on the meshes used here.
    ``angle`` fixes the advection direction (random by default).
    """
    lo, hi = _bbox(mesh)
    length = float(max(hi - lo))
    theta = float(rng.uniform(0.0, 2.0 * np.pi)) if angle is None else float(angle)
    speed = float(peclet) * float(diffusion) / max(length, 1e-12)
    velocity = (speed * np.cos(theta), speed * np.sin(theta))

    stiffness = assemble_stiffness(mesh, diffusion=float(diffusion))
    system = stiffness + assemble_convection(mesh, velocity)
    load = assemble_load(mesh, random_forcing(rng))

    boundary = random_boundary(rng)
    dnodes = np.asarray(mesh.boundary_nodes, dtype=np.int64)
    dvalues = np.broadcast_to(
        np.asarray(boundary(mesh.nodes[dnodes, 0], mesh.nodes[dnodes, 1]), dtype=np.float64),
        dnodes.shape,
    ).copy()
    # "row" elimination: zeroing columns would re-symmetrise the boundary rows
    matrix, rhs = apply_dirichlet(system, load, dnodes, dvalues, mode="row")
    return Problem(
        mesh=mesh,
        matrix=matrix,
        rhs=rhs,
        stiffness=stiffness,
        boundary_values=dvalues,
        dirichlet_mode="row",
        dirichlet_nodes=dnodes,
        symmetric=False,
    )


@register_problem(
    "poisson-robin",
    description="κ ≡ 1 with an all-Robin boundary (no Dirichlet nodes)",
    alpha=1.0,
)
def _poisson_robin(
    mesh: SimplexMesh,
    rng: np.random.Generator,
    alpha: float = 1.0,
) -> DiffusionProblem:
    return DiffusionProblem.from_fields(
        mesh,
        1.0,
        random_forcing(rng),
        [robin_bc(alpha, random_boundary(rng))],
    )
