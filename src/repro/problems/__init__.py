"""Problem registry: named PDE families for the whole solver stack.

``make_problem("diffusion-checkerboard", mesh=..., contrast=1e4)`` builds a
ready-to-solve :class:`~repro.fem.problem.Problem`; the registered families
cover the paper's homogeneous Poisson setting plus the heterogeneous
variable-coefficient diffusion workloads (checkerboard / channel / lognormal
κ, mixed Dirichlet/Neumann/Robin boundaries) that stress the preconditioners.

Public surface:

* :func:`~repro.problems.registry.make_problem` — build a family by name;
* :func:`~repro.problems.registry.available_problems` — list the names;
* :func:`~repro.problems.registry.register_problem` — add a new family;
* :func:`~repro.problems.registry.problem_spec`,
  :class:`~repro.problems.registry.ProblemSpec` — registry introspection;
* :class:`~repro.problems.registry.MeshDimensionError` — a family handed a
  mesh of the wrong dimension.

See :mod:`repro.problems.families` for the steady families (2D, and the 3D
``poisson3d`` / ``diffusion3d-ball``) and :mod:`repro.problems.transient`
for the θ-scheme ones.
"""

from . import families  # noqa: F401  — importing populates the registry
from . import transient  # noqa: F401  — time-dependent θ-scheme families
from .registry import (
    MeshDimensionError,
    ProblemFactory,
    ProblemSpec,
    available_problems,
    make_problem,
    problem_spec,
    register_problem,
)

__all__ = [
    "make_problem",
    "available_problems",
    "register_problem",
    "problem_spec",
    "ProblemSpec",
    "ProblemFactory",
    "MeshDimensionError",
]
