"""Built-in problem families.

Each factory is registered with :func:`~repro.problems.registry.register_problem`
and builds a :class:`~repro.fem.problem.Problem` from ``(mesh, rng, **kwargs)``,
through :meth:`~repro.fem.problem.Problem.from_fields` except for the
convection-diffusion operator.  Geometric parameters (checkerboard cells,
channel extents, mixed-BC regions, the 3D ball) are derived from the mesh
bounding box so every family works on any domain — the random Bezier training
meshes, the structured rectangles of the tests and the Formula-1 silhouette
alike.

Families
--------
``poisson`` / ``poisson3d``
    The paper's baseline: ``-Δu = f`` with random quadratic f and Dirichlet g;
    one factory, registered for 2D meshes and (as ``poisson3d``, whose
    ``dim=3`` routing builds a tetrahedral box mesh when none is given) for
    3D ones.
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
``diffusion3d-ball``
    3D: a high-contrast spherical κ inclusion in the centre of the box —
    exercises the κ-aware node features in 3D.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..fem.assembly import apply_dirichlet, assemble_convection, assemble_load, assemble_stiffness
from ..fem.coefficients import ChannelField, CheckerboardField, LognormalField, RadialField
from ..fem.functions import random_boundary, random_forcing
from ..fem.problem import Problem, boundary_dirichlet_data, dirichlet_bc, neumann_bc, robin_bc
from ..mesh.mesh import SimplexMesh
from .registry import register_problem

__all__ = []  # families are consumed through the registry, not imported


def _bbox(mesh: SimplexMesh):
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    return lo, hi


def peclet_velocity(
    mesh: SimplexMesh,
    rng: np.random.Generator,
    diffusion: float,
    peclet: float,
    angle: Optional[float],
) -> Tuple[float, float]:
    """Constant advection ``b`` with ``|b| · L / κ = peclet``, L the domain diameter.

    ``angle`` fixes the direction; ``None`` draws it uniformly from the RNG.
    Shared by the steady and transient convection-diffusion families.
    """
    lo, hi = _bbox(mesh)
    length = float(max(hi - lo))
    theta = float(rng.uniform(0.0, 2.0 * np.pi)) if angle is None else float(angle)
    speed = float(peclet) * float(diffusion) / max(length, 1e-12)
    return speed * np.cos(theta), speed * np.sin(theta)


@register_problem("poisson", description="Homogeneous Poisson with random quadratic f/g (paper Sec. IV-A)")
@register_problem(
    "poisson3d",
    description="3D Poisson on a tetrahedral mesh (structured box by default)",
    dim=3,
)
def _poisson(mesh: SimplexMesh, rng: np.random.Generator, scale: float = 1.0) -> Problem:
    """``scale`` evaluates f and g at ``x / scale``: the paper's rescaling for meshes grown
    beyond the unit radius (Sec. IV-A, last paragraph)."""
    forcing = random_forcing(rng, scale=scale, dim=mesh.dim)
    boundary = random_boundary(rng, scale=scale, dim=mesh.dim)
    return Problem.from_fields(mesh, forcing, [dirichlet_bc(boundary)])


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
) -> Problem:
    lo, hi = _bbox(mesh)
    cell_size = float(max(hi - lo)) / max(int(cells), 1)
    kappa = CheckerboardField(contrast=contrast, cell_size=cell_size, origin=(float(lo[0]), float(lo[1])))
    return Problem.from_fields(mesh, random_forcing(rng), [dirichlet_bc(random_boundary(rng))], diffusion=kappa)


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
) -> Problem:
    lo, hi = _bbox(mesh)
    width = 0.08 * float(hi[1] - lo[1])
    kappa = ChannelField(
        contrast=contrast,
        num_channels=num_channels,
        width=width,
        axis="x",
        extent=(float(lo[1]), float(hi[1])),
    )
    return Problem.from_fields(mesh, random_forcing(rng), [dirichlet_bc(random_boundary(rng))], diffusion=kappa)


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
) -> Problem:
    kappa = LognormalField(
        sigma=sigma,
        correlation_length=correlation_length,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    return Problem.from_fields(mesh, random_forcing(rng), [dirichlet_bc(random_boundary(rng))], diffusion=kappa)


@register_problem(
    "diffusion-smooth",
    description="Deterministic smooth radial κ bump (convergence-test workload)",
)
def _smooth(
    mesh: SimplexMesh,
    rng: np.random.Generator,
    amplitude: float = 4.0,
) -> Problem:
    lo, hi = _bbox(mesh)
    center = tuple(0.5 * (lo + hi))
    radius = 0.35 * float(max(hi - lo))
    kappa = RadialField(base=1.0, amplitude=amplitude, center=center, radius=radius)
    return Problem.from_fields(mesh, random_forcing(rng), [dirichlet_bc(random_boundary(rng))], diffusion=kappa)


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
) -> Problem:
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
    return Problem.from_fields(mesh, random_forcing(rng), conditions, diffusion=kappa)


@register_problem(
    "convection-diffusion",
    description="Nonsymmetric -κΔu + b·∇u = f (GMRES smoke workload)",
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
    velocity = peclet_velocity(mesh, rng, diffusion, peclet, angle)
    stiffness = assemble_stiffness(mesh, diffusion=float(diffusion))
    system = stiffness + assemble_convection(mesh, velocity)
    load = assemble_load(mesh, random_forcing(rng))
    dnodes, dvalues = boundary_dirichlet_data(mesh, random_boundary(rng))
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
) -> Problem:
    return Problem.from_fields(mesh, random_forcing(rng), [robin_bc(alpha, random_boundary(rng))], diffusion=1.0)


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
) -> Problem:
    lo, hi = _bbox(mesh)
    centre = 0.5 * (lo + hi)
    ball_radius = float(radius_fraction) * float(max(hi - lo))

    def kappa(x, y, z):
        inside = (x - centre[0]) ** 2 + (y - centre[1]) ** 2 + (z - centre[2]) ** 2 \
            <= ball_radius ** 2
        return np.where(inside, float(contrast), 1.0)

    forcing = random_forcing(rng, dim=3)
    return Problem.from_fields(mesh, forcing, [dirichlet_bc(random_boundary(rng, dim=3))], diffusion=kappa)
