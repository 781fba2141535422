"""Named problem registry: ``make_problem("diffusion-checkerboard", ...)``.

The registry decouples the solver stack from the PDE zoo: training-set
generation (:func:`repro.core.dataset.generate_dataset`), the benchmark
harnesses and the examples all request problems by name, and new families
plug in with a decorator — no call site changes.

A factory receives ``(mesh, rng, **kwargs)`` and returns a
:class:`~repro.fem.problem.Problem`.  Registering and building:

>>> import numpy as np
>>> from repro.mesh import structured_rectangle_mesh
>>> from repro.problems import available_problems, make_problem
>>> "diffusion-checkerboard" in available_problems()
True
>>> mesh = structured_rectangle_mesh(8, 8)
>>> problem = make_problem("diffusion-checkerboard", mesh=mesh,
...                        rng=np.random.default_rng(0), contrast=100.0)
>>> problem.num_dofs
81
>>> u = problem.solve_direct()
>>> bool(problem.relative_residual_norm(u) < 1e-10)
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..fem.problem import Problem
from ..mesh.mesh import SimplexMesh
from ..mesh.shapes import random_domain_mesh

__all__ = ["MeshDimensionError", "ProblemFactory", "ProblemSpec", "register_problem", "make_problem",
           "available_problems", "problem_spec"]

#: a factory builds a Problem from a mesh, an RNG and family-specific kwargs
ProblemFactory = Callable[..., Problem]


@dataclass(frozen=True)
class ProblemSpec:
    """Registry entry: the factory plus its human-readable description."""

    name: str
    factory: ProblemFactory
    description: str = ""
    default_kwargs: Dict[str, object] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        """The dimension of the meshes the family is built on (its registered ``dim``, 2 by default).

        >>> problem_spec("poisson").dim, problem_spec("poisson3d").dim
        (2, 3)
        """
        return int(self.default_kwargs.get("dim", 2))


_REGISTRY: Dict[str, ProblemSpec] = {}


class MeshDimensionError(ValueError):
    """A problem family was handed a mesh of another dimension than the one it is registered for."""


def register_problem(
    name: str,
    description: str = "",
    **default_kwargs,
) -> Callable[[ProblemFactory], ProblemFactory]:
    """Decorator registering a problem factory under ``name``.

    ``default_kwargs`` are merged under the caller's kwargs at build time, so
    a family can be registered several times with different presets (e.g.
    ``diffusion-checkerboard`` at contrast 100 and ``-extreme`` at 10⁴).

    >>> from repro.problems import registry
    >>> @registry.register_problem("doctest-demo", description="demo entry")
    ... def _demo(mesh, rng):
    ...     from repro.fem import Problem, dirichlet_bc, random_boundary, random_forcing
    ...     return Problem.from_fields(mesh, random_forcing(rng), [dirichlet_bc(random_boundary(rng))])
    >>> "doctest-demo" in registry.available_problems()
    True
    >>> del registry._REGISTRY["doctest-demo"]   # keep the registry clean
    """

    def decorator(factory: ProblemFactory) -> ProblemFactory:
        if name in _REGISTRY:
            raise ValueError(f"problem family '{name}' is already registered")
        if description:
            summary = description
        else:
            doc = (factory.__doc__ or "").strip()
            summary = doc.splitlines()[0] if doc else ""
        _REGISTRY[name] = ProblemSpec(
            name=name,
            factory=factory,
            description=summary,
            default_kwargs=dict(default_kwargs),
        )
        return factory

    return decorator


def available_problems() -> List[str]:
    """Sorted names of every registered problem family.

    >>> "poisson" in available_problems()
    True
    """
    return sorted(_REGISTRY)


def problem_spec(name: str) -> ProblemSpec:
    """The :class:`ProblemSpec` registered under ``name``.

    >>> problem_spec("diffusion-checkerboard").default_kwargs["contrast"]
    100.0
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown problem family '{name}'; available: {', '.join(available_problems())}"
        ) from None


def make_problem(
    name: str,
    mesh: Optional[SimplexMesh] = None,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> Problem:
    """Build a registered problem family on ``mesh``.

    When ``mesh`` is None a random Bezier domain is generated (the paper's
    training distribution); ``element_size`` / ``radius`` kwargs are routed to
    the mesh generator in that case.  Families registered with ``dim=3``
    (``poisson3d``, ``heat3d``, …) instead get a deterministic structured
    tetrahedral box mesh sized by ``target_nodes``.  A given mesh must have
    the family's dimension (:class:`MeshDimensionError` otherwise).  Remaining
    kwargs override the family's registered defaults and are passed to its
    factory.

    >>> import numpy as np
    >>> from repro.mesh import structured_rectangle_mesh
    >>> problem = make_problem("poisson-robin", mesh=structured_rectangle_mesh(6, 6),
    ...                        rng=np.random.default_rng(0))
    >>> bool(problem.relative_residual_norm(problem.solve_direct()) < 1e-10)
    True
    >>> problem3d = make_problem("poisson3d", rng=np.random.default_rng(0),
    ...                          target_nodes=216)
    >>> problem3d.mesh.dim, problem3d.num_dofs
    (3, 216)
    >>> make_problem("poisson3d", mesh=structured_rectangle_mesh(6, 6))
    Traceback (most recent call last):
        ...
    repro.problems.registry.MeshDimensionError: problem family 'poisson3d' takes a 3D mesh, got a 2D one
    """
    spec = problem_spec(name)
    rng = rng if rng is not None else np.random.default_rng()
    merged = dict(spec.default_kwargs)
    merged.update(kwargs)
    dim = int(merged.pop("dim", 2))
    if mesh is None:
        if dim == 3:
            from ..mesh.tet import box_mesh_for_target_size

            mesh = box_mesh_for_target_size(int(merged.pop("target_nodes", 512)))
            merged.pop("radius", None)
            merged.pop("element_size", None)
        else:
            mesh = random_domain_mesh(
                radius=float(merged.pop("radius", 1.0)),
                element_size=float(merged.pop("element_size", 0.1)),
                rng=rng,
            )
    else:
        if mesh.dim != dim:
            raise MeshDimensionError(f"problem family '{name}' takes a {dim}D mesh, got a {mesh.dim}D one")
        merged.pop("radius", None)
        merged.pop("element_size", None)
        merged.pop("target_nodes", None)
    return spec.factory(mesh, rng=rng, **merged)
