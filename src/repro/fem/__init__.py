"""P1 finite-element substrate for second-order elliptic PDEs.

Public surface:

* :func:`~repro.fem.assembly.assemble_stiffness` (κ-weighted),
  :func:`~repro.fem.assembly.assemble_convection` (nonsymmetric b·∇u term),
  :func:`~repro.fem.assembly.assemble_mass`,
  :func:`~repro.fem.assembly.assemble_load`,
  :func:`~repro.fem.assembly.apply_dirichlet` — matrix/vector assembly on
  triangles and tetrahedra alike; only the gradient kernel
  (:func:`~repro.fem.assembly.gradient_operators`) is per dimension.
* :func:`~repro.fem.assembly.assemble_boundary_mass`,
  :func:`~repro.fem.assembly.assemble_boundary_load` — Neumann/Robin
  boundary terms on 2D meshes.
* :class:`~repro.fem.problem.Problem` with its one constructor
  :meth:`~repro.fem.problem.Problem.from_fields` — a steady problem from a
  forcing, an optional κ and boundary conditions, on 2D and 3D meshes.
* :class:`~repro.fem.problem.BoundaryCondition` with the
  :func:`~repro.fem.problem.dirichlet_bc` / :func:`~repro.fem.problem.neumann_bc`
  / :func:`~repro.fem.problem.robin_bc` helpers — mixed boundary conditions.
* :mod:`repro.fem.coefficients` — named diffusion-coefficient families
  (checkerboard, channel, lognormal, radial bump).
* :class:`~repro.fem.functions.PolynomialField`,
  :func:`~repro.fem.functions.random_forcing`,
  :func:`~repro.fem.functions.random_boundary` (the paper's random fields,
  drawn for 2D or 3D by ``dim``),
  :func:`~repro.fem.functions.manufactured_solution` — field definitions.
"""

from .assembly import (
    apply_dirichlet,
    assemble_boundary_load,
    assemble_boundary_mass,
    assemble_convection,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    cell_centroids,
    evaluate_on_cells,
    gradient_operators,
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
from .problem import (
    BoundaryCondition,
    Problem,
    dirichlet_bc,
    neumann_bc,
    node_averaged_diffusion,
    robin_bc,
    split_boundary_edges,
)

__all__ = [
    "assemble_stiffness",
    "assemble_convection",
    "assemble_mass",
    "assemble_load",
    "assemble_boundary_mass",
    "assemble_boundary_load",
    "apply_dirichlet",
    "gradient_operators",
    "cell_centroids",
    "evaluate_on_cells",
    "Problem",
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
]
