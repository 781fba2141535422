"""Unstructured simplex mesh data structure.

A :class:`SimplexMesh` stores node coordinates, cell connectivity (triangles
in 2D, tetrahedra in 3D) and derived topology (edges, node adjacency,
boundary facets and nodes).  It is the common currency between the geometry,
FEM, partitioning and GNN sub-systems:

* the FEM assembly consumes ``nodes`` / ``cells``;
* the partitioner consumes the node adjacency graph;
* the DSS model consumes node coordinates and the (directed) edge list with
  geometric edge attributes (Sec. III-B of the paper).

The dimension enters only through the facet width (d vertices), the
``cell_measures`` formula and ``quality`` (triangles only).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Dict, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["SimplexMesh"]


@dataclass
class SimplexMesh:
    """An unstructured triangular (d = 2) or tetrahedral (d = 3) mesh.

    Attributes
    ----------
    nodes:
        (N, d) float array of node coordinates, d in {2, 3}.
    cells:
        (T, d + 1) int array of node indices in ``[0, N)``; triangles are
        counter-clockwise when built by :mod:`repro.mesh.triangulation`.
    """

    nodes: np.ndarray
    cells: np.ndarray

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.float64)
        self.cells = np.asarray(self.cells, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] not in (2, 3):
            raise ValueError(f"nodes must have shape (N, 2) or (N, 3), got {self.nodes.shape}")
        d = self.nodes.shape[1]
        if self.cells.ndim != 2 or self.cells.shape[1] != d + 1:
            raise ValueError(f"cells of a {d}D mesh must have shape (T, {d + 1}), got {self.cells.shape}")
        if self.cells.size and (self.cells.min() < 0 or self.cells.max() >= len(self.nodes)):
            raise ValueError(f"cell index out of range [0, {len(self.nodes)})")

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
        return int(self.nodes.shape[1])

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #
    @cached_property
    def _edge_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        return unique_faces(self.cells, 2, self.num_nodes)

    @property
    def edges(self) -> np.ndarray:
        """Unique undirected edges, shape (E, 2), each row sorted (i < j)."""
        return self._edge_counts[0]

    @cached_property
    def boundary_facets(self) -> np.ndarray:
        """Facets (edges in 2D, triangles in 3D) of exactly one cell, shape (F, d), rows sorted."""
        uniq, counts = self._edge_counts if self.dim == 2 else unique_faces(self.cells, self.dim, self.num_nodes)
        return uniq[counts == 1]

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        """Sorted indices of nodes lying on the boundary (incident to a boundary facet)."""
        return np.unique(self.boundary_facets)

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
    def cell_measures(self) -> np.ndarray:
        """Signed cell measures: areas in 2D (positive for CCW), volumes in 3D."""
        p = self.nodes[self.cells]
        v1 = p[:, 1] - p[:, 0]
        v2 = p[:, 2] - p[:, 0]
        if self.dim == 2:
            return 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
        v3 = p[:, 3] - p[:, 0]
        return np.einsum("ti,ti->t", np.cross(v1, v2), v3) / 6.0

    @cached_property
    def element_size(self) -> float:
        """Mean edge length — the characteristic mesh size h."""
        e = self.edges
        lengths = np.linalg.norm(self.nodes[e[:, 0]] - self.nodes[e[:, 1]], axis=1)
        return float(lengths.mean())

    def quality(self) -> Dict[str, float]:
        """Return basic quality metrics of a 2D mesh: min/mean aspect quality and area stats.

        Triangle quality is measured by ``4*sqrt(3)*area / sum(l_i^2)`` which
        equals 1 for equilateral triangles and tends to 0 for slivers.
        """
        if self.dim != 2:
            raise ValueError(f"quality() measures triangles; this mesh is {self.dim}D")
        p = self.nodes[self.cells]
        l2 = (
            np.sum((p[:, 0] - p[:, 1]) ** 2, axis=1)
            + np.sum((p[:, 1] - p[:, 2]) ** 2, axis=1)
            + np.sum((p[:, 2] - p[:, 0]) ** 2, axis=1)
        )
        areas = np.abs(self.cell_measures)
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
        return node_cell_incidence(self.cells, self.num_nodes)

    def submesh(self, node_indices: Sequence[int]) -> Tuple["SimplexMesh", np.ndarray]:
        """Extract the sub-mesh induced by ``node_indices``.

        Returns the sub-mesh and the array of *global* node indices for each
        local node (the local → global map).  Only cells whose vertices are
        all selected are retained.
        """
        node_indices, local_cells = induced_cells(self, node_indices)
        return SimplexMesh(self.nodes[node_indices], local_cells), node_indices


def unique_faces(cells: np.ndarray, size: int, num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Unique ``size``-vertex faces of ``cells`` (edges for 2, triangles for 3) and how many cells
    share each: rows sorted in lexicographic order, found by sorting one integer key per face
    (its sorted vertices as digits in base ``num_nodes``) rather than the rows themselves."""
    columns = [np.concatenate([cells[:, face[k]] for face in combinations(range(cells.shape[1]), size)])
               for k in range(size)]
    for end in range(size - 1, 0, -1):  # a compare-exchange network sorts each face's vertices
        for k in range(end):
            columns[k], columns[k + 1] = (np.minimum(columns[k], columns[k + 1]),
                                          np.maximum(columns[k], columns[k + 1]))
    base = max(int(num_nodes), 1)
    if base ** size >= 2 ** 63:  # the key would overflow int64
        return np.unique(np.column_stack(columns), axis=0, return_counts=True)
    keys = columns[0]
    for column in columns[1:]:
        keys = keys * base + column
    keys, counts = np.unique(keys, return_counts=True)
    rows = np.empty((len(keys), size), dtype=np.int64)
    for k in range(size - 1, 0, -1):
        keys, rows[:, k] = np.divmod(keys, base)
    rows[:, 0] = keys
    return rows, counts


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

