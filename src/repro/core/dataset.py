"""Dataset generation for DSS training (paper Sec. IV-A).

The paper's training set is harvested from real solver runs: global Poisson
problems are solved with PCG preconditioned by the classical two-level ASM
(DDM-LU), and at *every* PCG iteration the local sub-problems seen by the
preconditioner — sub-domain matrix ``R_i A R_iᵀ`` and normalised local
residual ``R_i r / ‖R_i r‖`` — become training samples.  This gives the DSS
model exactly the input distribution it will face inside DDM-GNN.

This module provides:

* :func:`harvest_local_problems` — run one ASM-PCG solve and collect the local
  problems of every iteration;
* :func:`generate_dataset` — repeat over many random global problems and
  split into train/validation/test sets;
* :class:`LocalProblemDataset` — a thin train/validation/test container.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..ddm.asm import AdditiveSchwarzPreconditioner
from ..fem.problem import Problem
from ..gnn.graph import GraphProblem, graph_from_mesh
from ..krylov.cg import preconditioned_conjugate_gradient
from ..mesh.mesh import SimplexMesh
from ..mesh.shapes import random_domain_mesh
from ..partition.overlap import OverlappingDecomposition
from ..partition.partitioner import partition_mesh_target_size
from ..problems import make_problem

__all__ = ["SubdomainGeometry", "build_subdomain_geometries", "harvest_local_problems", "generate_dataset", "LocalProblemDataset"]


@dataclass
class SubdomainGeometry:
    """Static (residual-independent) data of one sub-domain.

    Built once per decomposition and reused for every residual vector: the
    sub-mesh geometry and edge structure, the local operator, and the local
    Dirichlet mask (global physical boundary nodes that fall inside the
    sub-domain).

    For heterogeneous problems the local operator is symmetrically
    **equilibrated**: with ``S = diag(A_i)^(-1/2)`` the GNN sees
    ``Ã_i = S A_i S`` and sources ``S R_i r`` (then normalised), and its
    output is mapped back through ``S``.  Since
    ``R_iᵀ S Ã_i⁻¹ S R_i = R_iᵀ A_i⁻¹ R_i``, an exact local solver yields
    exactly the classical ASM correction — the transformation only changes
    what the *learned* solver sees, pulling κ-contrast out of the matrix
    entries and back into the κ features, so local problems stay inside the
    training distribution regardless of the contrast ratio.
    """

    nodes: np.ndarray                 # global indices of the sub-domain nodes
    positions: np.ndarray             # (k_i, 2) coordinates
    edge_index: np.ndarray            # (2, E_i) directed edges (local indexing)
    edge_attr: np.ndarray             # (E_i, 3) geometric, (E_i, 4) κ-aware
    dirichlet_mask: np.ndarray        # (k_i,) bool
    matrix: sp.csr_matrix             # R_i A R_iᵀ (raw, un-equilibrated)
    node_attr: Optional[np.ndarray] = None  # (k_i, 1) log κ for heterogeneous problems
    equilibration: Optional[np.ndarray] = None  # s = diag(A_i)^(-1/2), None = identity
    graph_matrix: sp.csr_matrix = None         # matrix attached to graphs (Ã_i or A_i)

    def __post_init__(self) -> None:
        if self.graph_matrix is None:
            if self.equilibration is not None:
                s = sp.diags(self.equilibration)
                self.graph_matrix = (s @ self.matrix @ s).tocsr()
            else:
                self.graph_matrix = self.matrix

    def make_graph(self, source: np.ndarray, scaling: float = 1.0) -> GraphProblem:
        """Instantiate a :class:`GraphProblem` for a given (normalised) source."""
        return GraphProblem(
            positions=self.positions,
            edge_index=self.edge_index,
            edge_attr=self.edge_attr,
            source=source,
            dirichlet_mask=self.dirichlet_mask,
            matrix=self.graph_matrix,
            scaling=scaling,
            node_attr=self.node_attr,
        )

    # ------------------------------------------------------------------ #
    # residual ↔ GNN-variable transformations
    # ------------------------------------------------------------------ #
    def source_from_residual(self, local_residual: np.ndarray) -> Tuple[np.ndarray, float]:
        """Map a raw local residual ``R_i r`` to ``(normalised source, norm)``."""
        z = local_residual if self.equilibration is None else self.equilibration * local_residual
        norm = float(np.linalg.norm(z))
        if norm > 0.0:
            return z / norm, norm
        return z, norm


def build_subdomain_geometries(
    mesh: SimplexMesh,
    matrix: sp.spmatrix,
    decomposition: OverlappingDecomposition,
    global_dirichlet_mask: Optional[np.ndarray] = None,
    node_diffusion: Optional[np.ndarray] = None,
    equilibrate: Optional[bool] = None,
) -> List[SubdomainGeometry]:
    """Precompute the static per-sub-domain data used by dataset generation and DDM-GNN.

    ``global_dirichlet_mask`` marks the physical Dirichlet nodes (defaults to
    the whole mesh boundary — correct for pure-Dirichlet problems; mixed-BC
    problems pass their own mask).  ``node_diffusion`` carries per-node κ for
    heterogeneous problems; it is sliced per sub-domain and turned into the
    κ-aware graph features by :func:`~repro.gnn.graph.graph_from_mesh`.

    ``equilibrate`` enables the symmetric diagonal scaling of the local
    operators (see :class:`SubdomainGeometry`); the default (None) turns it
    on exactly when a κ field is present, so the homogeneous pipeline
    reproduces the paper bit-for-bit while heterogeneous problems get local
    systems the DSS can handle at any contrast ratio.
    """
    csr = matrix.tocsr()
    if global_dirichlet_mask is None:
        global_dirichlet_mask = mesh.boundary_mask
    if equilibrate is None:
        equilibrate = node_diffusion is not None
    geometries: List[SubdomainGeometry] = []
    for nodes in decomposition.subdomain_nodes:
        nodes = np.asarray(nodes, dtype=np.int64)
        submesh, global_ids = mesh.submesh(nodes)
        # `submesh` node order follows sorted(global_ids); keep the matrix consistent
        local_matrix = csr[global_ids][:, global_ids].tocsr()
        local_dirichlet = global_dirichlet_mask[global_ids]
        template = graph_from_mesh(
            submesh,
            source=np.zeros(submesh.num_nodes),
            dirichlet_mask=local_dirichlet,
            matrix=local_matrix,
            diffusion=None if node_diffusion is None else node_diffusion[global_ids],
        )
        equilibration = None
        if equilibrate:
            diagonal = local_matrix.diagonal()
            if np.any(diagonal <= 0.0):
                raise ValueError("cannot equilibrate a local matrix with non-positive diagonal")
            equilibration = 1.0 / np.sqrt(diagonal)
        geometries.append(
            SubdomainGeometry(
                nodes=global_ids,
                positions=template.positions,
                edge_index=template.edge_index,
                edge_attr=template.edge_attr,
                dirichlet_mask=template.dirichlet_mask,
                matrix=local_matrix,
                node_attr=template.node_attr,
                equilibration=equilibration,
            )
        )
    return geometries


class _HarvestingPreconditioner(AdditiveSchwarzPreconditioner):
    """Two-level ASM that records the normalised local problems of every application."""

    def __init__(self, *args, geometries: Sequence[SubdomainGeometry], **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._geometries = list(geometries)
        self.harvested: List[GraphProblem] = []

    def apply_columns(self, residuals: np.ndarray) -> np.ndarray:
        stacked = self.stacked_restriction.extract(np.asarray(residuals, dtype=np.float64))
        for column in stacked.T:  # column by column, the order sequential applies would harvest in
            for geometry, local in zip(self._geometries, self.stacked_restriction.split(column)):
                source, norm = geometry.source_from_residual(local)
                if norm <= 0.0:
                    continue
                self.harvested.append(geometry.make_graph(source, scaling=norm))
        return super().apply_columns(residuals)


def harvest_local_problems(
    problem: Problem,
    subdomain_size: int = 1000,
    overlap: int = 2,
    tolerance: float = 1e-6,
    rng: Optional[np.random.Generator] = None,
    max_iterations: Optional[int] = None,
) -> List[GraphProblem]:
    """Solve one global problem with ASM-PCG and return all harvested local problems.

    Works for any registered :class:`~repro.fem.problem.Problem`: the actual
    Dirichlet node set and the per-node κ field (when present) are threaded
    into the harvested graphs, so heterogeneous training samples carry the
    κ-aware features the DDM-GNN preconditioner will see at solve time.
    """
    rng = rng if rng is not None else np.random.default_rng()
    partition = partition_mesh_target_size(problem.mesh, subdomain_size, rng=rng)
    decomposition = OverlappingDecomposition(problem.mesh, partition, overlap=overlap)
    geometries = build_subdomain_geometries(
        problem.mesh,
        problem.matrix,
        decomposition,
        global_dirichlet_mask=getattr(problem, "dirichlet_mask", None),
        node_diffusion=getattr(problem, "node_diffusion", None),
    )
    preconditioner = _HarvestingPreconditioner(
        problem.matrix, decomposition, levels=2, geometries=geometries
    )
    preconditioned_conjugate_gradient(
        problem.matrix,
        problem.rhs,
        preconditioner=preconditioner,
        tolerance=tolerance,
        max_iterations=max_iterations,
    )
    return preconditioner.harvested


@dataclass
class LocalProblemDataset:
    """Train/validation/test split of harvested local problems."""

    train: List[GraphProblem] = field(default_factory=list)
    validation: List[GraphProblem] = field(default_factory=list)
    test: List[GraphProblem] = field(default_factory=list)

    @property
    def sizes(self) -> Tuple[int, int, int]:
        return (len(self.train), len(self.validation), len(self.test))


def generate_dataset(
    num_global_problems: int = 500,
    mesh_element_size: float = 0.05,
    mesh_radius: float = 1.0,
    subdomain_size: int = 1000,
    overlap: int = 2,
    tolerance: float = 1e-6,
    split: Tuple[float, float, float] = (0.6, 0.2, 0.2),
    rng: Optional[np.random.Generator] = None,
    max_pcg_iterations: Optional[int] = None,
    problem_family: str = "poisson",
    problem_kwargs: Optional[dict] = None,
) -> LocalProblemDataset:
    """Generate a full training dataset following the paper's recipe.

    The paper solves 500 global problems on meshes of 6k–8k nodes with 1000-node
    sub-domains, which yields ~117k samples split 60/20/20.  The defaults here
    keep the same structure; tests and offline runs pass smaller numbers.

    ``problem_family`` selects any registered problem family (see
    :func:`repro.problems.make_problem`) — e.g.
    ``problem_family="diffusion-checkerboard", problem_kwargs={"contrast": 1e4}``
    harvests heterogeneous local problems whose graphs carry κ-aware features.
    """
    rng = rng if rng is not None else np.random.default_rng()
    if abs(sum(split) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    problem_kwargs = dict(problem_kwargs or {})
    samples: List[GraphProblem] = []
    for _ in range(num_global_problems):
        mesh = random_domain_mesh(radius=mesh_radius, element_size=mesh_element_size, rng=rng)
        problem = make_problem(problem_family, mesh=mesh, rng=rng, **problem_kwargs)
        samples.extend(
            harvest_local_problems(
                problem,
                subdomain_size=subdomain_size,
                overlap=overlap,
                tolerance=tolerance,
                rng=rng,
                max_iterations=max_pcg_iterations,
            )
        )
    order = rng.permutation(len(samples))
    n_train = int(split[0] * len(samples))
    n_val = int(split[1] * len(samples))
    train_idx = order[:n_train]
    val_idx = order[n_train:n_train + n_val]
    test_idx = order[n_train + n_val:]
    return LocalProblemDataset(
        train=[samples[i] for i in train_idx],
        validation=[samples[i] for i in val_idx],
        test=[samples[i] for i in test_idx],
    )
