"""Graph partitioning for domain decomposition (METIS substitute).

The paper partitions each mesh into sub-meshes of ~1000 nodes with METIS.
This module implements a k-way node partitioner adequate for Additive Schwarz
methods:

1. **Seeding** — k seeds are chosen far apart (farthest-point BFS sampling).
2. **Greedy graph growing** — partitions grow in breadth-first waves from
   their seeds, always expanding the currently smallest partition, which keeps
   part sizes balanced and parts connected.
3. **Boundary refinement** — a few Kernighan–Lin-style sweeps move boundary
   nodes to a neighbouring partition when this reduces the edge cut without
   unbalancing the parts.

Partition quality only needs to be "good enough" here: ASM convergence depends
mildly on the edge cut, and the DDM operators are built from the node sets,
whatever their shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from ..mesh.mesh import UNREACHED, SimplexMesh, csr_neighbours, relax_hop_distances

__all__ = ["Partition", "partition_graph", "partition_mesh", "partition_mesh_target_size"]


@dataclass
class Partition:
    """Result of a k-way partition of a graph/mesh with ``n`` nodes.

    Attributes
    ----------
    assignment:
        (n,) int array mapping each node to its partition id in [0, k).
    num_parts:
        Number of partitions k.
    """

    assignment: np.ndarray
    num_parts: int

    def __post_init__(self) -> None:
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.assignment.size and (self.assignment.min() < 0 or self.assignment.max() >= self.num_parts):
            raise ValueError("partition assignment out of range")

    def all_part_nodes(self) -> List[np.ndarray]:
        """Node indices of every part (no overlap), from one stable sort of the assignment."""
        order = np.argsort(self.assignment, kind="stable")
        return np.split(order, np.cumsum(self.sizes())[:-1])

    def sizes(self) -> np.ndarray:
        """Size of every partition."""
        return np.bincount(self.assignment, minlength=self.num_parts)

    def imbalance(self) -> float:
        """max(size) / mean(size) — 1.0 is perfectly balanced."""
        sizes = self.sizes()
        return float(sizes.max() / max(sizes.mean(), 1e-300))

    def edge_cut(self, adjacency: sp.csr_matrix) -> int:
        """Number of graph edges whose endpoints lie in different partitions."""
        coo = sp.triu(adjacency, k=1).tocoo()
        return int(np.sum(self.assignment[coo.row] != self.assignment[coo.col]))


def _farthest_point_seeds(adjacency: sp.csr_matrix, k: int, rng: np.random.Generator) -> np.ndarray:
    """Pick k seeds spread out over the graph: each new seed is the node farthest from all others.

    One distance-to-nearest-seed array is relaxed incrementally: the pruned
    BFS of :func:`~repro.mesh.mesh.relax_hop_distances` visits roughly the new
    seed's own Voronoi cell, so seeding costs about one sweep of the graph
    plus an ``argmax`` per seed, not k full sweeps.  On a connected graph the
    seeds are those of k full BFS sweeps exactly.  On a disconnected one they
    are valid but not those of earlier versions (which capped unreached nodes
    at eccentricity + 2): unreached nodes stay infinitely far, so every
    component receives a seed before any component receives its second.
    """
    dist = np.full(adjacency.shape[0], UNREACHED, dtype=np.int64)
    seeds = np.empty(k, dtype=np.int64)
    for i in range(k):
        seeds[i] = np.argmax(dist) if i else rng.integers(len(dist))
        relax_hop_distances(adjacency, int(seeds[i]), dist)
    return seeds


def partition_graph(
    adjacency: sp.csr_matrix,
    num_parts: int,
    rng: Optional[np.random.Generator] = None,
    refinement_sweeps: int = 3,
    balance_tolerance: float = 1.10,
) -> Partition:
    """K-way partition of a graph given by a symmetric adjacency matrix."""
    n = adjacency.shape[0]
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if num_parts == 1:
        return Partition(np.zeros(n, dtype=np.int64), 1)
    if num_parts > n:
        raise ValueError("cannot split a graph into more parts than nodes")
    rng = rng if rng is not None else np.random.default_rng(0)
    adjacency = adjacency.tocsr()

    assignment = np.full(n, -1, dtype=np.int64)
    seeds = _farthest_point_seeds(adjacency, num_parts, rng)
    frontiers = [np.empty(0, dtype=np.int64)] * num_parts
    # a part's size while it can still grow, +inf once a wave grabbed nothing
    growable = np.zeros(num_parts)
    for p, s in enumerate(seeds):
        if assignment[s] < 0:
            assignment[s] = p
            growable[p] = 1
            frontiers[p] = seeds[p:p + 1]

    # greedy growing: the smallest part that can still grow (lowest id on ties)
    # takes every unassigned neighbour of its frontier in one wave
    while True:
        p = int(np.argmin(growable))
        if growable[p] == np.inf:
            break
        neigh = csr_neighbours(adjacency, frontiers[p])
        frontiers[p] = grabbed = np.unique(neigh[assignment[neigh] < 0])
        assignment[grabbed] = p
        growable[p] = (growable[p] + len(grabbed)) if len(grabbed) else np.inf

    # nodes no seed reaches (more components than parts): majority part of the
    # neighbours already assigned, else the smallest part
    sizes = np.bincount(assignment[assignment >= 0], minlength=num_parts)
    for u in np.flatnonzero(assignment < 0):
        neigh_parts = assignment[adjacency.indices[adjacency.indptr[u]:adjacency.indptr[u + 1]]]
        neigh_parts = neigh_parts[neigh_parts >= 0]
        p = int(np.bincount(neigh_parts).argmax()) if len(neigh_parts) else int(np.argmin(sizes))
        assignment[u] = p
        sizes[p] += 1

    partition = Partition(assignment, num_parts)
    for _ in range(refinement_sweeps):
        moved = _refine_boundary(adjacency, partition, balance_tolerance)
        if moved == 0:
            break
    return partition


def _refine_boundary(adjacency: sp.csr_matrix, partition: Partition, balance_tolerance: float) -> int:
    """One KL-style sweep: move boundary nodes to reduce the cut while staying balanced.

    Boundary nodes are visited in index order and a move changes what its
    neighbours see, so the sweep is sequential — but a node can only move when
    another part holds more of its neighbours than its own, which needs more
    than half of them outside its part or a neighbour that moved earlier in
    the sweep.  Only those nodes are evaluated; the rest are a flag test.
    """
    assignment = partition.assignment
    indptr, indices = adjacency.indptr, adjacency.indices
    n = adjacency.shape[0]
    sizes = partition.sizes()
    max_size = int(np.ceil(balance_tolerance * n / partition.num_parts))
    degree = np.diff(indptr)
    rows = np.repeat(np.arange(n), degree)
    outside = np.bincount(rows[assignment[rows] != assignment[indices]], minlength=n)
    pending = bytearray((2 * outside > degree).tobytes())
    moved = 0
    for u in np.flatnonzero(outside).tolist():
        if not pending[u]:
            continue
        current = assignment[u]
        if sizes[current] <= 1:
            continue
        neigh = indices[indptr[u]:indptr[u + 1]]
        parts, counts = np.unique(assignment[neigh], return_counts=True)
        top = np.argmax(counts)  # lowest part id on ties
        best = parts[top]
        # gain = edges to best part - edges kept in current part
        if best != current and counts[top] > counts[parts == current].sum() and sizes[best] < max_size:
            assignment[u] = best
            sizes[current] -= 1
            sizes[best] += 1
            moved += 1
            for v in neigh.tolist():
                pending[v] = 1
    return moved


def partition_mesh(
    mesh: SimplexMesh,
    num_parts: int,
    rng: Optional[np.random.Generator] = None,
) -> Partition:
    """K-way partition of a mesh's node graph."""
    return partition_graph(mesh.adjacency, num_parts, rng=rng)


def partition_mesh_target_size(
    mesh: SimplexMesh,
    target_size: int,
    rng: Optional[np.random.Generator] = None,
) -> Partition:
    """Partition a mesh into sub-meshes of approximately ``target_size`` nodes.

    This matches how the paper chooses the number of sub-domains:
    ``K = round(N / Ns)`` with Ns the sub-mesh size the DSS model was sized for.
    """
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    num_parts = max(int(np.round(mesh.num_nodes / target_size)), 1)
    return partition_mesh(mesh, num_parts, rng=rng)
