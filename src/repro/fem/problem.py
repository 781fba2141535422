"""Discretised elliptic problems: the steady :class:`Problem`.

:class:`Problem` bundles a mesh, the assembled system ``A u = b`` and helpers
to evaluate residuals, solve directly and compute error norms.  It is the
object the whole solver stack (:class:`~repro.solvers.session.SolverSession`,
the DDM preconditioners, the dataset harvester) operates on; none of those
layers assume more than the attributes defined here.

Every steady family is a plain :class:`Problem`.  :meth:`Problem.from_fields`
assembles ``-∇·(κ ∇u) = f`` from a forcing, an optional κ (``None`` is the
paper's Poisson setting, κ ≡ 1) and an ordered list of
:class:`BoundaryCondition` regions; Dirichlet data on the whole boundary
works on 2D and 3D meshes, region selectors and Neumann/Robin conditions on
2D meshes only.  The time-dependent families subclass it
(:class:`~repro.timestepping.problem.TimeDependentProblem`).  A new family
registers a factory in :mod:`repro.problems` so ``make_problem("family-name")``
can build it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Literal, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..mesh.mesh import SimplexMesh
from .assembly import (
    CoefficientLike,
    apply_dirichlet,
    assemble_boundary_load,
    assemble_boundary_mass,
    assemble_load,
    assemble_stiffness,
    evaluate_on_cells,
    require_boundary_edges,
)

__all__ = [
    "Problem",
    "BoundaryCondition",
    "dirichlet_bc",
    "neumann_bc",
    "robin_bc",
    "split_boundary_edges",
    "node_averaged_diffusion",
    "boundary_dirichlet_data",
    "diffusion_stiffness",
]

#: a field g(x, y) on a 2D mesh, g(x, y, z) on a 3D one
ScalarField = Callable[..., np.ndarray]
#: predicate over boundary-edge midpoints selecting where a BC applies
RegionSelector = Callable[[np.ndarray, np.ndarray], np.ndarray]
BCKind = Literal["dirichlet", "neumann", "robin"]


def _as_field(value: Union[float, ScalarField]) -> ScalarField:
    """Promote a scalar to a constant field; pass callables through."""
    if callable(value):
        return value
    const = float(value)
    return lambda x, *rest: np.full_like(np.asarray(x, dtype=np.float64), const)


@dataclass(frozen=True)
class BoundaryCondition:
    """One boundary condition applied on a region of ∂Ω.

    Attributes
    ----------
    kind:
        ``"dirichlet"`` (``u = value``), ``"neumann"``
        (``κ ∂u/∂n = value``) or ``"robin"``
        (``κ ∂u/∂n + coefficient · u = value``).
    value:
        Boundary data ``g`` — a scalar or a callable ``g(x, y)``
        (``g(x, y, z)`` for Dirichlet data on a 3D mesh).
    coefficient:
        Robin weight α (scalar or callable); ignored for the other kinds.
    where:
        Optional region selector: a boolean-valued callable evaluated at
        boundary-edge midpoints.  ``None`` matches every edge not claimed by
        an earlier condition in the list.
    """

    kind: BCKind
    value: Union[float, ScalarField] = 0.0
    coefficient: Union[float, ScalarField] = 1.0
    where: Optional[RegionSelector] = None

    def __post_init__(self) -> None:
        if self.kind not in ("dirichlet", "neumann", "robin"):
            raise ValueError(f"unknown boundary-condition kind '{self.kind}'")


def dirichlet_bc(value: Union[float, ScalarField] = 0.0, where: Optional[RegionSelector] = None) -> BoundaryCondition:
    """Dirichlet condition ``u = value`` on the selected region."""
    return BoundaryCondition(kind="dirichlet", value=value, where=where)


def neumann_bc(flux: Union[float, ScalarField] = 0.0, where: Optional[RegionSelector] = None) -> BoundaryCondition:
    """Neumann condition ``κ ∂u/∂n = flux`` on the selected region."""
    return BoundaryCondition(kind="neumann", value=flux, where=where)


def robin_bc(
    coefficient: Union[float, ScalarField],
    value: Union[float, ScalarField] = 0.0,
    where: Optional[RegionSelector] = None,
) -> BoundaryCondition:
    """Robin condition ``κ ∂u/∂n + coefficient · u = value`` on the region."""
    return BoundaryCondition(kind="robin", value=value, coefficient=coefficient, where=where)


def split_boundary_edges(
    mesh: SimplexMesh, conditions: Sequence[BoundaryCondition]
) -> List[np.ndarray]:
    """Partition the boundary edges of a 2D mesh among the boundary conditions.

    Each edge is assigned to the first condition whose ``where`` selector is
    True at the edge midpoint (``where=None`` matches everything still
    unassigned).  Returns one (E_i, 2) edge array per condition; edges claimed
    by no condition are left out (they get the natural zero-Neumann treatment).
    """
    require_boundary_edges(mesh, "boundary-condition regions")
    edges = mesh.boundary_facets
    midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    unassigned = np.ones(edges.shape[0], dtype=bool)
    pieces: List[np.ndarray] = []
    for bc in conditions:
        if bc.where is None:
            selected = unassigned.copy()
        else:
            selected = unassigned & np.asarray(
                bc.where(midpoints[:, 0], midpoints[:, 1]), dtype=bool
            )
        pieces.append(edges[selected])
        unassigned &= ~selected
    return pieces


def boundary_dirichlet_data(mesh: SimplexMesh, boundary: Callable[..., np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Dirichlet data on the whole boundary: ``mesh.boundary_nodes`` and ``boundary(x, y[, z])`` there."""
    nodes = np.asarray(mesh.boundary_nodes, dtype=np.int64)
    values = np.asarray(boundary(*mesh.nodes[nodes].T), dtype=np.float64)
    return nodes, np.broadcast_to(values, nodes.shape).copy()


def _boundary_regions(
    mesh: SimplexMesh,
    system: sp.spmatrix,
    load: np.ndarray,
    conditions: Sequence[BoundaryCondition],
) -> Tuple[sp.spmatrix, np.ndarray, np.ndarray, np.ndarray]:
    """Apply region-wise boundary conditions on a 2D mesh.

    Neumann and Robin regions add their boundary terms to ``(system, load)``;
    Dirichlet regions contribute ``(dirichlet_nodes, values)``, returned for
    elimination.  Raises when neither a Dirichlet node nor a Robin edge with
    α > 0 keeps the system non-singular.
    """
    pieces = split_boundary_edges(mesh, conditions)
    dirichlet_value_of: dict = {}
    has_robin = False
    for bc, edges in zip(conditions, pieces):
        if edges.shape[0] == 0:
            continue
        if bc.kind == "dirichlet":
            nodes = np.unique(edges)
            values = _as_field(bc.value)(mesh.nodes[nodes, 0], mesh.nodes[nodes, 1])
            values = np.broadcast_to(np.asarray(values, dtype=np.float64), nodes.shape)
            for node, value in zip(nodes, values):
                dirichlet_value_of[int(node)] = float(value)
        elif bc.kind == "neumann":
            load = load + assemble_boundary_load(mesh, bc.value, edges=edges)
        else:  # robin
            midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
            alpha = np.broadcast_to(
                np.asarray(
                    _as_field(bc.coefficient)(midpoints[:, 0], midpoints[:, 1]),
                    dtype=np.float64,
                ),
                (edges.shape[0],),
            )
            if np.any(alpha < 0.0):
                raise ValueError("Robin coefficient must be non-negative (SPD system)")
            system = system + assemble_boundary_mass(mesh, alpha, edges=edges)
            load = load + assemble_boundary_load(mesh, bc.value, edges=edges)
            # a Robin region only regularises the system if α > 0 somewhere
            has_robin = has_robin or bool(np.any(alpha > 0.0))

    if not dirichlet_value_of and not has_robin:
        raise ValueError(
            "pure-Neumann problem is singular: add a Dirichlet or Robin region"
        )
    dnodes = np.array(sorted(dirichlet_value_of), dtype=np.int64)
    dvalues = np.array([dirichlet_value_of[int(i)] for i in dnodes], dtype=np.float64)
    return system, load, dnodes, dvalues


def node_averaged_diffusion(mesh: SimplexMesh, cell_values: np.ndarray) -> np.ndarray:
    """Measure-weighted average of per-cell κ onto the nodes.

    This is the per-node κ feature the GNN consumes: each node receives the
    measure-weighted mean of the κ values of its incident cells (triangle
    areas in 2D, tetrahedron volumes in 3D), so piecewise-constant fields
    stay exact away from material interfaces and get a single-layer
    transition across them.
    """
    cells = mesh.cells
    cell_values = np.broadcast_to(np.asarray(cell_values, dtype=np.float64), (cells.shape[0],))
    measures = np.abs(mesh.cell_measures)
    verts_per_cell = cells.shape[1]
    weighted = np.zeros(mesh.num_nodes)
    weight = np.zeros(mesh.num_nodes)
    np.add.at(weighted, cells.ravel(), np.repeat(cell_values * measures, verts_per_cell))
    np.add.at(weight, cells.ravel(), np.repeat(measures, verts_per_cell))
    return weighted / np.maximum(weight, 1e-300)


def diffusion_stiffness(
    mesh: SimplexMesh, diffusion: Optional[CoefficientLike]
) -> Tuple[sp.csr_matrix, Optional[np.ndarray]]:
    """The stiffness of ``-∇·(κ ∇u)`` and the per-node κ the GNN reads.

    ``None`` is κ ≡ 1: the Poisson stiffness, and no per-node κ.
    """
    if diffusion is None:
        return assemble_stiffness(mesh), None
    cell_diffusion = evaluate_on_cells(mesh, diffusion)
    return assemble_stiffness(mesh, diffusion=cell_diffusion), node_averaged_diffusion(mesh, cell_diffusion)


@dataclass
class Problem:
    """A discretised linear elliptic problem ``A u = b``.

    Attributes
    ----------
    mesh:
        The underlying triangular or tetrahedral mesh.
    matrix:
        Sparse system matrix A (after boundary-condition elimination).
    rhs:
        Right-hand side b.
    stiffness:
        The raw (pre-elimination) stiffness matrix, kept for error norms.
    boundary_values:
        Dirichlet values at ``dirichlet_nodes``.
    dirichlet_mode:
        Elimination strategy used ("symmetric" or "row").
    dirichlet_nodes:
        Node indices carrying a Dirichlet condition; defaults to all of
        ``mesh.boundary_nodes`` (the pure-Dirichlet case).
    node_diffusion:
        Per-node κ values (None for constant-coefficient problems); consumed
        by the κ-aware GNN features.
    symmetric:
        Whether the assembled matrix is symmetric (SPD).  Nonsymmetric
        problems (e.g. convection-diffusion) must be solved with ``gmres``;
        :func:`repro.solvers.prepare` enforces this.
    """

    mesh: SimplexMesh
    matrix: sp.csr_matrix
    rhs: np.ndarray
    stiffness: sp.csr_matrix
    boundary_values: np.ndarray
    dirichlet_mode: str = "symmetric"
    dirichlet_nodes: Optional[np.ndarray] = None
    node_diffusion: Optional[np.ndarray] = None
    symmetric: bool = True

    # ------------------------------------------------------------------ #
    # the constructor
    # ------------------------------------------------------------------ #
    @classmethod
    def from_fields(
        cls,
        mesh: SimplexMesh,
        forcing: ScalarField,
        boundary_conditions: Optional[Sequence[BoundaryCondition]] = None,
        diffusion: Optional[CoefficientLike] = None,
        dirichlet_mode: Literal["symmetric", "row"] = "symmetric",
    ) -> "Problem":
        """Assemble the P1 discretisation of ``-∇·(κ ∇u) = f``.

        ``diffusion`` is κ (a scalar, a per-cell array or a callable, see
        :func:`~repro.fem.assembly.evaluate_on_cells`); ``None`` assembles
        the Poisson stiffness (κ ≡ 1) and leaves ``node_diffusion`` at None.

        ``boundary_conditions`` is an ordered list of
        :class:`BoundaryCondition` regions; boundary edges are assigned
        first-match-wins (see :func:`split_boundary_edges`), edges claimed by
        no condition receive the natural zero-Neumann treatment, and nodes
        shared between a Dirichlet and a non-Dirichlet region are Dirichlet
        (the standard convention).  The default is homogeneous Dirichlet on
        the whole boundary.  A Dirichlet condition first in the list with no
        ``where`` claims the whole boundary, and its data is evaluated as
        ``g(*x)`` on ``mesh.boundary_nodes``: that works on any mesh; every
        other list needs a 2D one.

        The assembled system must be non-singular: at least one Dirichlet
        node or one Robin edge with positive coefficient is required.

        >>> from repro.mesh import structured_box_mesh
        >>> box = structured_box_mesh(2)
        >>> problem = Problem.from_fields(box, lambda x, y, z: np.ones_like(x),
        ...                               [dirichlet_bc(lambda x, y, z: z)])
        >>> bool(np.array_equal(problem.boundary_values, box.nodes[problem.dirichlet_nodes, 2]))
        True
        """
        if boundary_conditions is None:
            boundary_conditions = [dirichlet_bc(0.0)]
        stiffness, node_diffusion = diffusion_stiffness(mesh, diffusion)
        load = assemble_load(mesh, forcing)

        first = boundary_conditions[0] if boundary_conditions else None
        if first is not None and first.kind == "dirichlet" and first.where is None:
            system = stiffness
            dnodes, dvalues = boundary_dirichlet_data(mesh, _as_field(first.value))
        else:
            system, load, dnodes, dvalues = _boundary_regions(mesh, stiffness, load, boundary_conditions)

        if dnodes.size:
            matrix, rhs = apply_dirichlet(system, load, dnodes, dvalues, mode=dirichlet_mode)
        else:
            matrix, rhs = system.tocsr(), load
        return cls(
            mesh=mesh,
            matrix=matrix,
            rhs=rhs,
            stiffness=stiffness,
            boundary_values=dvalues,
            dirichlet_mode=dirichlet_mode,
            dirichlet_nodes=dnodes,
            node_diffusion=node_diffusion,
        )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_dofs(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def dirichlet_mask(self) -> np.ndarray:
        """Boolean mask of nodes carrying a Dirichlet condition."""
        if self.dirichlet_nodes is None:
            return self.mesh.boundary_mask
        mask = np.zeros(self.mesh.num_nodes, dtype=bool)
        mask[np.asarray(self.dirichlet_nodes, dtype=np.int64)] = True
        return mask

    def fingerprint(self) -> str:
        """Stable SHA-256 content hash of the discretised problem.

        Covers everything the solver stack consumes: the assembled operator
        (CSR structure + values), the right-hand side, the mesh geometry and
        connectivity, the Dirichlet mask, the per-node κ field and the
        symmetry flag.  Two problems with the same fingerprint produce
        bit-identical solver setups, which is what makes the hash a safe
        session-cache key for :mod:`repro.serve`.  The digest is computed
        once and cached on the instance (problems are immutable by
        convention after assembly).
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        import hashlib

        digest = hashlib.sha256()
        matrix = self.matrix.tocsr()
        for part in (
            np.asarray(matrix.indptr, dtype=np.int64),
            np.asarray(matrix.indices, dtype=np.int64),
            np.ascontiguousarray(matrix.data, dtype=np.float64),
            np.ascontiguousarray(self.rhs, dtype=np.float64),
            np.ascontiguousarray(self.mesh.nodes, dtype=np.float64),
            np.asarray(self.mesh.cells, dtype=np.int64),
            self.dirichlet_mask,
        ):
            digest.update(part.tobytes())
            digest.update(b"|")
        if self.node_diffusion is not None:
            digest.update(np.ascontiguousarray(self.node_diffusion, dtype=np.float64).tobytes())
        digest.update(b"|symmetric=1" if self.symmetric else b"|symmetric=0")
        digest.update(self._fingerprint_extra())
        value = digest.hexdigest()
        object.__setattr__(self, "_fingerprint", value)
        return value

    def _fingerprint_extra(self) -> bytes:
        """Subclass hook: extra bytes folded into :meth:`fingerprint`.

        The base problem contributes nothing (so existing steady-state hashes
        are unchanged); time-dependent problems append their scheme
        parameters and step operators here so serve session caches never mix
        different θ/dt discretisations of the same spatial operator.
        """
        return b""

    def residual(self, u: np.ndarray) -> np.ndarray:
        """Return the algebraic residual ``b - A u``."""
        return self.rhs - self.matrix @ u

    def relative_residual_norm(self, u: np.ndarray) -> float:
        """‖b - A u‖ / ‖b‖ (the convergence metric used throughout the paper)."""
        denom = np.linalg.norm(self.rhs)
        if denom == 0.0:
            return float(np.linalg.norm(self.residual(u)))
        return float(np.linalg.norm(self.residual(u)) / denom)

    # ------------------------------------------------------------------ #
    # direct solution and error norms
    # ------------------------------------------------------------------ #
    def solve_direct(self) -> np.ndarray:
        """Solve the system with a sparse LU factorisation (reference solution)."""
        return spla.spsolve(self.matrix.tocsc(), self.rhs)

    def l2_error(self, u: np.ndarray, exact: ScalarField) -> float:
        """Discrete relative L2 error against an exact solution evaluated at the nodes."""
        u_exact = np.asarray(exact(*self.mesh.nodes.T), dtype=np.float64)
        denom = np.linalg.norm(u_exact)
        if denom == 0.0:
            return float(np.linalg.norm(u - u_exact))
        return float(np.linalg.norm(u - u_exact) / denom)
