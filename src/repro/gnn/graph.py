"""Graph representation of discretised (local) elliptic problems.

A :class:`GraphProblem` is the object fed to the DSS model (paper Eq. 15/17):
it carries the node coordinates, the directed edge list with geometric edge
attributes (relative position + distance, Sec. III-B), the normalised source
term per node, the Dirichlet mask, and — for training only — the local sparse
matrix ``A_i`` and right-hand side used by the physics-informed residual loss.

For heterogeneous problems (variable-coefficient diffusion) the graph also
carries κ-aware features: ``node_attr`` holds ``log10 κ`` per node and the edge
attributes gain a fourth column with the log10 harmonic mean of κ across the
edge (the conductance a two-point flux approximation would assign to it).
Models configured with the default feature dimensions simply ignore the extra
columns, so κ-aware graphs remain usable with κ-unaware models and vice
versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..mesh.mesh import SimplexMesh

__all__ = ["GraphProblem", "graph_from_mesh"]


@dataclass
class GraphProblem:
    """A graph-structured local Poisson problem.

    Attributes
    ----------
    positions:
        (n, 2) node coordinates.
    edge_index:
        (2, E) directed edges ``src -> dst``.  Both directions of every mesh
        edge are present, except that edges *into* Dirichlet nodes are removed
        (the paper: "boundary nodes' edges point toward the interior").
    edge_attr:
        (E, 3+) attributes per directed edge: ``(dx, dy, ‖d‖)`` of the vector
        from destination to source node (the relative position the MLPs
        consume), optionally followed by κ-aware columns.
    source:
        (n,) node input ``c`` — for DDM-GNN this is the *normalised* local
        residual ``R_i r / ‖R_i r‖``.
    dirichlet_mask:
        (n,) boolean, True where the homogeneous Dirichlet condition applies
        (sub-domain interface and, where relevant, the physical boundary).
    matrix:
        Sparse local operator ``A_i`` (needed to evaluate the residual loss).
    rhs:
        Right-hand side of the *unnormalised* local problem (training target
        context; equals ``source * scaling``).
    scaling:
        The norm ``‖R_i r‖`` divided out of the source (1.0 when not used).
    node_attr:
        Optional (n, k) extra node features — ``log10 κ`` for heterogeneous
        problems; None for the homogeneous Poisson case.
    """

    positions: np.ndarray
    edge_index: np.ndarray
    edge_attr: np.ndarray
    source: np.ndarray
    dirichlet_mask: np.ndarray
    matrix: Optional[sp.csr_matrix] = None
    rhs: Optional[np.ndarray] = None
    scaling: float = 1.0
    node_attr: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.edge_index = np.asarray(self.edge_index, dtype=np.int64)
        self.edge_attr = np.asarray(self.edge_attr, dtype=np.float64)
        self.source = np.asarray(self.source, dtype=np.float64).ravel()
        self.dirichlet_mask = np.asarray(self.dirichlet_mask, dtype=bool).ravel()
        if self.edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, E)")
        if self.edge_attr.shape[0] != self.edge_index.shape[1]:
            raise ValueError("edge_attr must have one row per directed edge")
        if len(self.source) != len(self.positions) or len(self.dirichlet_mask) != len(self.positions):
            raise ValueError("source and dirichlet_mask must have one entry per node")
        if self.node_attr is not None:
            self.node_attr = np.asarray(self.node_attr, dtype=np.float64)
            if self.node_attr.ndim == 1:
                self.node_attr = self.node_attr.reshape(-1, 1)
            if self.node_attr.shape[0] != len(self.positions):
                raise ValueError("node_attr must have one row per node")

    @property
    def num_nodes(self) -> int:
        return int(self.positions.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])

    def residual_norm(self, state: np.ndarray) -> float:
        """Root-mean-square residual of the *normalised* problem (paper Eq. 11).

        ``L_res = 1/n Σ_i (A u − c)_i²`` evaluated with the stored matrix and
        the normalised source; returns ``sqrt(L_res)`` for readability.
        """
        if self.matrix is None:
            raise ValueError("graph has no matrix attached; build it with a matrix for training")
        r = self.matrix @ np.asarray(state, dtype=np.float64) - self.source
        return float(np.sqrt(np.mean(r * r)))


def graph_from_mesh(
    mesh: SimplexMesh,
    source: np.ndarray,
    dirichlet_mask: Optional[np.ndarray] = None,
    matrix: Optional[sp.spmatrix] = None,
    rhs: Optional[np.ndarray] = None,
    scaling: float = 1.0,
    drop_edges_into_dirichlet: bool = True,
    diffusion: Optional[np.ndarray] = None,
) -> GraphProblem:
    """Build a :class:`GraphProblem` from a (sub-)mesh and a per-node source.

    Edge attributes are geometric (Sec. III-B): for an edge ``l → j`` the
    attribute is ``(d_jl, ‖d_jl‖)`` with ``d_jl = x_j − x_l``.

    Parameters
    ----------
    drop_edges_into_dirichlet:
        If True (paper behaviour) edges whose destination is a Dirichlet node
        are removed, so boundary values are never overwritten by messages and
        boundary information only flows inward.
    diffusion:
        Optional per-node κ values.  When given, ``node_attr`` is set to
        ``log10 κ`` and the edge attributes gain a fourth column with the
        log10 harmonic mean of the endpoint κ values (the two-point-flux edge
        conductance), making the graph κ-aware.  The decimal log keeps the
        feature range moderate (≤ 4 even at contrast 10⁴) so the κ channel
        does not drown the O(h) geometric attributes.
    """
    positions = mesh.nodes
    edge_index = mesh.directed_edge_index.copy()
    if dirichlet_mask is None:
        dirichlet_mask = mesh.boundary_mask.copy()
    dirichlet_mask = np.asarray(dirichlet_mask, dtype=bool)

    if drop_edges_into_dirichlet and dirichlet_mask.any():
        keep = ~dirichlet_mask[edge_index[1]]
        edge_index = edge_index[:, keep]

    src, dst = edge_index[0], edge_index[1]
    rel = positions[dst] - positions[src]
    dist = np.linalg.norm(rel, axis=1, keepdims=True)
    edge_attr = np.hstack([rel, dist])

    node_attr = None
    if diffusion is not None:
        kappa = np.asarray(diffusion, dtype=np.float64).ravel()
        if kappa.shape[0] != positions.shape[0]:
            raise ValueError("diffusion must have one κ value per node")
        if kappa.size and float(kappa.min()) <= 0.0:
            raise ValueError("diffusion values must be strictly positive")
        node_attr = np.log10(kappa).reshape(-1, 1)
        k_src, k_dst = kappa[src], kappa[dst]
        harmonic = 2.0 * k_src * k_dst / (k_src + k_dst)
        edge_attr = np.hstack([edge_attr, np.log10(harmonic).reshape(-1, 1)])

    return GraphProblem(
        positions=positions,
        edge_index=edge_index,
        edge_attr=edge_attr,
        source=source,
        dirichlet_mask=dirichlet_mask,
        matrix=matrix.tocsr() if matrix is not None else None,
        rhs=rhs,
        scaling=float(scaling),
        node_attr=node_attr,
    )
