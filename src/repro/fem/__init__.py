"""P1 finite-element substrate for second-order elliptic PDEs.

Public surface:

* :func:`~repro.fem.assembly.assemble_stiffness` (κ-weighted),
  :func:`~repro.fem.assembly.assemble_convection` (nonsymmetric b·∇u term),
  :func:`~repro.fem.assembly.assemble_mass`,
  :func:`~repro.fem.assembly.assemble_load`,
  :func:`~repro.fem.assembly.assemble_boundary_mass`,
  :func:`~repro.fem.assembly.assemble_boundary_load`,
  :func:`~repro.fem.assembly.apply_dirichlet` — matrix/vector assembly.
* :mod:`repro.fem.assembly3d` — the tetrahedral P1 counterparts
  (:func:`~repro.fem.assembly3d.assemble_stiffness_3d`,
  :func:`~repro.fem.assembly3d.assemble_mass_3d`,
  :func:`~repro.fem.assembly3d.assemble_load_3d`).
* :class:`~repro.fem.problem.Problem`,
  :class:`~repro.fem.poisson.PoissonProblem`,
  :class:`~repro.fem.problem.DiffusionProblem`,
  :func:`~repro.fem.poisson.random_poisson_problem` — problem objects.
* :class:`~repro.fem.problem.BoundaryCondition` with the
  :func:`~repro.fem.problem.dirichlet_bc` / :func:`~repro.fem.problem.neumann_bc`
  / :func:`~repro.fem.problem.robin_bc` helpers — mixed boundary conditions.
* :mod:`repro.fem.coefficients` — named diffusion-coefficient families
  (checkerboard, channel, lognormal, radial bump).
* :class:`~repro.fem.functions.PolynomialField`,
  :func:`~repro.fem.functions.random_forcing`,
  :func:`~repro.fem.functions.random_boundary`,
  :func:`~repro.fem.functions.manufactured_solution` — field definitions.
* :mod:`repro.fem.quadrature` — quadrature rules on triangles.
"""

from .assembly3d import (
    assemble_load_3d,
    assemble_mass_3d,
    assemble_stiffness_3d,
    evaluate_on_tets,
    tet_centroids,
    tet_gradient_operators,
)
from .assembly import (
    apply_dirichlet,
    assemble_boundary_load,
    assemble_boundary_mass,
    assemble_convection,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    evaluate_on_triangles,
    gradient_operators,
    triangle_centroids,
)
from .coefficients import (
    CheckerboardField,
    ChannelField,
    DiffusionField,
    LognormalField,
    RadialField,
    field_contrast,
)
from .functions import (
    PolynomialField,
    constant_field,
    manufactured_solution,
    random_boundary,
    random_forcing,
)
from .poisson import PoissonProblem, random_poisson_problem
from .problem import (
    BoundaryCondition,
    DiffusionProblem,
    Problem,
    dirichlet_bc,
    neumann_bc,
    node_averaged_diffusion,
    robin_bc,
    split_boundary_edges,
)
from .quadrature import TriangleQuadrature, three_point_rule

__all__ = [
    "assemble_stiffness",
    "assemble_convection",
    "assemble_mass",
    "assemble_load",
    "assemble_boundary_mass",
    "assemble_boundary_load",
    "apply_dirichlet",
    "gradient_operators",
    "triangle_centroids",
    "evaluate_on_triangles",
    "assemble_stiffness_3d",
    "assemble_mass_3d",
    "assemble_load_3d",
    "tet_gradient_operators",
    "tet_centroids",
    "evaluate_on_tets",
    "Problem",
    "PoissonProblem",
    "DiffusionProblem",
    "random_poisson_problem",
    "BoundaryCondition",
    "dirichlet_bc",
    "neumann_bc",
    "robin_bc",
    "split_boundary_edges",
    "node_averaged_diffusion",
    "DiffusionField",
    "CheckerboardField",
    "ChannelField",
    "LognormalField",
    "RadialField",
    "field_contrast",
    "PolynomialField",
    "random_forcing",
    "random_boundary",
    "constant_field",
    "manufactured_solution",
    "TriangleQuadrature",
    "three_point_rule",
]
