"""Unstructured triangular mesh data structure.

A :class:`TriangularMesh` stores node coordinates, triangle connectivity and
derived topology (edges, node adjacency, boundary nodes).  It is the common
currency between the geometry, FEM, partitioning and GNN sub-systems:

* the FEM assembly consumes ``nodes`` / ``triangles``;
* the partitioner consumes the node adjacency graph;
* the DSS model consumes node coordinates and the (directed) edge list with
  geometric edge attributes (Sec. III-B of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["TriangularMesh"]


@dataclass
class TriangularMesh:
    """An unstructured 2-D triangular mesh.

    Attributes
    ----------
    nodes:
        (N, 2) float array of node coordinates.
    triangles:
        (T, 3) int array of node indices, counter-clockwise orientation.
    """

    nodes: np.ndarray
    triangles: np.ndarray

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.float64)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise ValueError("nodes must have shape (N, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (T, 3)")
        if self.triangles.size and self.triangles.max() >= len(self.nodes):
            raise ValueError("triangle index out of range")

    # ------------------------------------------------------------------ #
    # basic sizes
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def num_triangles(self) -> int:
        return int(self.triangles.shape[0])

    @property
    def dim(self) -> int:
        return 2

    @property
    def cells(self) -> np.ndarray:
        """Dimension-neutral connectivity alias (``triangles`` here, tets in 3D).

        Code that must work on both :class:`TriangularMesh` and
        :class:`~repro.mesh.tet.TetrahedralMesh` (fingerprints, shared-memory
        packing, node averaging) consumes ``cells`` / ``cell_measures``
        instead of the 2D-specific names.
        """
        return self.triangles

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #
    @cached_property
    def _edge_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        return unique_edges(self.triangles, ((0, 1), (1, 2), (2, 0)), self.num_nodes)

    @property
    def edges(self) -> np.ndarray:
        """Unique undirected edges, shape (E, 2), each row sorted (i < j)."""
        return self._edge_counts[0]

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        """Edges that belong to exactly one triangle, shape (Eb, 2)."""
        uniq, counts = self._edge_counts
        return uniq[counts == 1]

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        """Sorted indices of nodes lying on the boundary (incident to a boundary edge)."""
        return np.unique(self.boundary_edges)

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

    def node_neighbours(self, node: int) -> np.ndarray:
        """Indices of nodes adjacent to ``node``."""
        row = self.adjacency.getrow(node)
        return row.indices.copy()

    @cached_property
    def directed_edge_index(self) -> np.ndarray:
        """Directed edge list of shape (2, 2E): every undirected edge in both
        directions.  This is the GNN message-passing connectivity."""
        e = self.edges
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
        return np.vstack([src, dst])

    # ------------------------------------------------------------------ #
    # geometric quantities
    # ------------------------------------------------------------------ #
    @cached_property
    def triangle_areas(self) -> np.ndarray:
        """Signed areas of all triangles (positive for CCW orientation)."""
        p = self.nodes[self.triangles]
        v1 = p[:, 1] - p[:, 0]
        v2 = p[:, 2] - p[:, 0]
        return 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])

    @property
    def cell_measures(self) -> np.ndarray:
        """Dimension-neutral measure alias (areas here, volumes in 3D)."""
        return self.triangle_areas

    @cached_property
    def total_area(self) -> float:
        return float(np.abs(self.triangle_areas).sum())

    @cached_property
    def element_size(self) -> float:
        """Mean edge length — the characteristic mesh size h."""
        e = self.edges
        lengths = np.linalg.norm(self.nodes[e[:, 0]] - self.nodes[e[:, 1]], axis=1)
        return float(lengths.mean())

    def quality(self) -> Dict[str, float]:
        """Return basic quality metrics: min/mean aspect quality and area stats.

        Triangle quality is measured by ``4*sqrt(3)*area / sum(l_i^2)`` which
        equals 1 for equilateral triangles and tends to 0 for slivers.
        """
        p = self.nodes[self.triangles]
        l2 = (
            np.sum((p[:, 0] - p[:, 1]) ** 2, axis=1)
            + np.sum((p[:, 1] - p[:, 2]) ** 2, axis=1)
            + np.sum((p[:, 2] - p[:, 0]) ** 2, axis=1)
        )
        areas = np.abs(self.triangle_areas)
        q = 4.0 * np.sqrt(3.0) * areas / np.maximum(l2, 1e-300)
        return {
            "min_quality": float(q.min()) if len(q) else 0.0,
            "mean_quality": float(q.mean()) if len(q) else 0.0,
            "min_area": float(areas.min()) if len(areas) else 0.0,
            "total_area": float(areas.sum()),
        }

    # ------------------------------------------------------------------ #
    # sub-mesh extraction
    # ------------------------------------------------------------------ #
    @cached_property
    def _node_cells(self) -> sp.csr_matrix:
        return node_cell_incidence(self.triangles, self.num_nodes)

    def submesh(self, node_indices: Sequence[int]) -> Tuple["TriangularMesh", np.ndarray]:
        """Extract the sub-mesh induced by ``node_indices``.

        Returns the sub-mesh and the array of *global* node indices for each
        local node (the local → global map).  Only triangles whose three
        vertices are all selected are retained.
        """
        node_indices, local_triangles = induced_cells(self, node_indices)
        return TriangularMesh(self.nodes[node_indices], local_triangles), node_indices

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def scaled(self, factor: float) -> "TriangularMesh":
        """Return a copy with node coordinates scaled by ``factor``."""
        return TriangularMesh(self.nodes * float(factor), self.triangles.copy())

    def translated(self, offset: Sequence[float]) -> "TriangularMesh":
        """Return a copy translated by ``offset``."""
        return TriangularMesh(self.nodes + np.asarray(offset, dtype=np.float64), self.triangles.copy())


def unique_edges(cells: np.ndarray, pairs, num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Unique undirected edges of ``cells`` — one per vertex-slot pair in ``pairs`` — and how many
    cells share each: rows sorted (i < j) in lexicographic order, found by sorting one integer
    key ``i * n + j`` per edge rather than the rows themselves."""
    first = np.concatenate([cells[:, a] for a, _ in pairs])
    second = np.concatenate([cells[:, b] for _, b in pairs])
    base = max(int(num_nodes), 1)
    keys, counts = np.unique(np.minimum(first, second) * base + np.maximum(first, second), return_counts=True)
    return np.column_stack(np.divmod(keys, base)), counts


#: hop distance of a node no BFS has reached yet
UNREACHED = np.iinfo(np.int64).max


def csr_neighbours(adjacency: sp.csr_matrix, nodes: np.ndarray) -> np.ndarray:
    """The CSR rows of ``nodes`` concatenated: every neighbour, duplicates kept.

    One vectorised gather — the frontier expansion shared by the hop-distance
    BFS below, the partitioner's seeding and growing waves and the overlap
    layers, each of which filters the result by its own "not yet taken" test.
    """
    nodes = np.asarray(nodes)
    starts = adjacency.indptr[nodes]
    counts = adjacency.indptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return adjacency.indices[np.arange(total) + np.repeat(starts - (ends - counts), counts)]


def node_cell_incidence(cells: np.ndarray, num_nodes: int) -> sp.csr_matrix:
    """Node → cell incidence in CSR form: row ``i`` lists the cells that have node ``i`` as a vertex."""
    cell_ids = np.repeat(np.arange(len(cells)), cells.shape[1])
    ones = np.ones(cells.size, dtype=np.int8)  # only the pattern is read
    return sp.csr_matrix((ones, (cells.ravel(), cell_ids)), shape=(num_nodes, len(cells)))


def induced_cells(mesh, node_indices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted unique ``node_indices`` and the cells they induce, renumbered locally.

    Only the cells touching the selection are looked at (through the mesh's
    cached ``_node_cells`` incidence) and kept in cell order, so extracting K
    sub-meshes costs their total size, not K sweeps of the whole mesh.
    """
    node_indices = np.unique(np.asarray(node_indices, dtype=np.int64))
    cells = mesh.cells[np.unique(csr_neighbours(mesh._node_cells, node_indices))]
    local = np.minimum(np.searchsorted(node_indices, cells), len(node_indices) - 1)
    return node_indices, local[np.all(node_indices[local] == cells, axis=1)]


def relax_hop_distances(adjacency: sp.csr_matrix, source: int, dist: np.ndarray) -> None:
    """Lower ``dist`` in place to ``min(dist, hops from source)`` by a pruned BFS.

    A level keeps only the neighbours whose distance improves.  When ``dist``
    changes by at most one along every edge (true of ``UNREACHED`` everywhere
    and of any minimum of hop distances) the predecessor of an improved node on
    a shortest path improves too, so the result equals the full BFS minimum
    while touching only the nodes nearer to ``source`` than to anything before.
    """
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        neigh = csr_neighbours(adjacency, frontier)
        frontier = np.unique(neigh[dist[neigh] > level])
        dist[frontier] = level

