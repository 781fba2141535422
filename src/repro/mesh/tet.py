"""Structured tetrahedral meshes — the first 3D substrate of the stack.

A :class:`TetrahedralMesh` mirrors the duck-typed surface of
:class:`~repro.mesh.mesh.TriangularMesh` that the rest of the repository
actually consumes — ``nodes`` / ``cells`` connectivity, the unique edge list
and CSR node adjacency (partitioning, overlap expansion), the directed edge
index with geometric attributes (GNN graphs), boundary topology (Dirichlet
masks) and ``submesh`` extraction (per-sub-domain geometry) — so the
partitioner, the DDM preconditioners and the DSS feature pipeline run on
tetrahedral problems unchanged.  Only the FEM assembly is dimension-specific
(:mod:`repro.fem.assembly3d`).

Mesh generation is deliberately structured: :func:`structured_box_mesh`
splits every cell of a regular grid into six tetrahedra along a consistent
main diagonal (the Kuhn/Freudenthal triangulation), which makes problem
resolution from serve specs deterministic without a 3D mesh generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .mesh import induced_cells, node_cell_incidence, unique_edges

__all__ = ["TetrahedralMesh", "structured_box_mesh", "box_mesh_for_target_size"]

#: the six Kuhn tetrahedra of the unit cube: vertex paths from (0,0,0) to
#: (1,1,1) adding one unit step per axis permutation — face-to-face matching
#: across neighbouring cubes falls out of the shared main diagonal
_KUHN_PERMUTATIONS = (
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
)


@dataclass
class TetrahedralMesh:
    """An unstructured 3-D tetrahedral mesh.

    Attributes
    ----------
    nodes:
        (N, 3) float array of node coordinates.
    cells:
        (T, 4) int array of tetrahedron node indices.
    """

    nodes: np.ndarray
    cells: np.ndarray

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.float64)
        self.cells = np.asarray(self.cells, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise ValueError("nodes must have shape (N, 3)")
        if self.cells.ndim != 2 or self.cells.shape[1] != 4:
            raise ValueError("cells must have shape (T, 4)")
        if self.cells.size and self.cells.max() >= len(self.nodes):
            raise ValueError("cell index out of range")

    # ------------------------------------------------------------------ #
    # basic sizes
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def num_cells(self) -> int:
        return int(self.cells.shape[0])

    @property
    def dim(self) -> int:
        return 3

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #
    @cached_property
    def edges(self) -> np.ndarray:
        """Unique undirected edges (6 per tet), shape (E, 2), rows sorted."""
        pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        return unique_edges(self.cells, pairs, self.num_nodes)[0]

    @cached_property
    def _face_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        t = self.cells
        faces = np.vstack([t[:, [1, 2, 3]], t[:, [0, 2, 3]],
                           t[:, [0, 1, 3]], t[:, [0, 1, 2]]])
        faces.sort(axis=1)
        return np.unique(faces, axis=0, return_counts=True)

    @cached_property
    def boundary_faces(self) -> np.ndarray:
        """Triangular faces belonging to exactly one tetrahedron, shape (F, 3)."""
        uniq, counts = self._face_counts
        return uniq[counts == 1]

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        """Sorted indices of nodes incident to a boundary face."""
        return np.unique(self.boundary_faces)

    @cached_property
    def interior_nodes(self) -> np.ndarray:
        """Sorted indices of nodes not on the boundary."""
        mask = np.ones(self.num_nodes, dtype=bool)
        mask[self.boundary_nodes] = False
        return np.flatnonzero(mask)

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        """Boolean mask of length N, True on boundary nodes."""
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[self.boundary_nodes] = True
        return mask

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Sparse symmetric node-adjacency matrix (1 where an edge exists)."""
        e = self.edges
        n = self.num_nodes
        data = np.ones(len(e) * 2)
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        return sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    @cached_property
    def directed_edge_index(self) -> np.ndarray:
        """Directed edge list (2, 2E): every undirected edge in both directions."""
        e = self.edges
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
        return np.vstack([src, dst])

    # ------------------------------------------------------------------ #
    # geometric quantities
    # ------------------------------------------------------------------ #
    @cached_property
    def cell_measures(self) -> np.ndarray:
        """Signed volumes of all tetrahedra."""
        p = self.nodes[self.cells]
        v1 = p[:, 1] - p[:, 0]
        v2 = p[:, 2] - p[:, 0]
        v3 = p[:, 3] - p[:, 0]
        return np.einsum("ti,ti->t", np.cross(v1, v2), v3) / 6.0

    @cached_property
    def total_volume(self) -> float:
        return float(np.abs(self.cell_measures).sum())

    @cached_property
    def element_size(self) -> float:
        """Mean edge length — the characteristic mesh size h."""
        e = self.edges
        lengths = np.linalg.norm(self.nodes[e[:, 0]] - self.nodes[e[:, 1]], axis=1)
        return float(lengths.mean())

    def quality(self) -> Dict[str, float]:
        """Basic quality metrics (volume stats; structured meshes are uniform)."""
        volumes = np.abs(self.cell_measures)
        return {
            "min_volume": float(volumes.min()) if len(volumes) else 0.0,
            "total_volume": float(volumes.sum()),
            "num_cells": float(self.num_cells),
        }

    # ------------------------------------------------------------------ #
    # sub-mesh extraction
    # ------------------------------------------------------------------ #
    @cached_property
    def _node_cells(self) -> sp.csr_matrix:
        return node_cell_incidence(self.cells, self.num_nodes)

    def submesh(self, node_indices: Sequence[int]) -> Tuple["TetrahedralMesh", np.ndarray]:
        """Extract the sub-mesh induced by ``node_indices``.

        Mirrors :meth:`TriangularMesh.submesh`: only cells whose four
        vertices are all selected are retained, and the local → global node
        index map is returned alongside the sub-mesh.
        """
        node_indices, local_cells = induced_cells(self, node_indices)
        return TetrahedralMesh(self.nodes[node_indices], local_cells), node_indices


def structured_box_mesh(
    nx: int,
    ny: int = 0,
    nz: int = 0,
    lengths: Sequence[float] = (1.0, 1.0, 1.0),
) -> TetrahedralMesh:
    """Tetrahedral mesh of a box: a regular grid, six Kuhn tets per cube.

    ``nx``/``ny``/``nz`` count grid **cells** per axis (``ny``/``nz`` default
    to ``nx``), producing ``(nx+1)(ny+1)(nz+1)`` nodes and ``6·nx·ny·nz``
    tetrahedra on the box ``[0, Lx] × [0, Ly] × [0, Lz]``.  Every cube is
    split along the same main diagonal, so neighbouring cubes share faces
    exactly and the mesh is conforming.
    """
    nx = int(nx)
    ny = int(ny) or nx
    nz = int(nz) or nx
    if min(nx, ny, nz) < 1:
        raise ValueError("structured_box_mesh needs at least one cell per axis")
    lx, ly, lz = (float(v) for v in lengths)

    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    zs = np.linspace(0.0, lz, nz + 1)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    nodes = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    def node_id(i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        return (i * (ny + 1) + j) * (nz + 1) + k

    ci, cj, ck = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    ci, cj, ck = ci.ravel(), cj.ravel(), ck.ravel()

    cells = []
    for order in _KUHN_PERMUTATIONS:
        # vertex path: cube origin, then one unit step per axis in `order`
        offsets = np.zeros((4, 3), dtype=np.int64)
        for step, axis in enumerate(order):
            offsets[step + 1] = offsets[step]
            offsets[step + 1, axis] += 1
        tet = np.stack(
            [node_id(ci + di, cj + dj, ck + dk) for di, dj, dk in offsets], axis=1
        )
        cells.append(tet)
    return TetrahedralMesh(nodes, np.vstack(cells))


def box_mesh_for_target_size(
    target_nodes: int,
    lengths: Sequence[float] = (1.0, 1.0, 1.0),
) -> TetrahedralMesh:
    """A structured unit-box tet mesh with approximately ``target_nodes`` nodes.

    Deterministic (no RNG): the per-axis cell count is the cube root of the
    target, which is what lets 3D serve specs resolve to bit-identical
    problems on every worker.
    """
    target_nodes = int(target_nodes)
    if target_nodes < 8:
        raise ValueError("target_nodes must be >= 8 (one cell needs 8 grid nodes)")
    divisions = max(1, int(round(target_nodes ** (1.0 / 3.0))) - 1)
    return structured_box_mesh(divisions, lengths=lengths)
