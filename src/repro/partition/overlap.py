"""Overlap expansion for overlapping Schwarz methods.

Given a non-overlapping partition, each sub-domain is expanded by ``overlap``
layers of adjacent nodes (breadth-first over the node graph).  The paper uses
an overlap of 2 (and 4 in one ablation of Table I).
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp

from ..mesh.mesh import SimplexMesh, csr_neighbours
from .partitioner import Partition

__all__ = ["expand_overlap", "OverlappingDecomposition"]


def expand_overlap(
    adjacency: sp.csr_matrix,
    nodes: np.ndarray,
    overlap: int,
) -> np.ndarray:
    """Expand a node set by ``overlap`` layers of graph neighbours.

    Returns the sorted union of the original nodes and the added layers.
    """
    if overlap < 0:
        raise ValueError("overlap must be >= 0")
    adjacency = adjacency.tocsr()
    selected = frontier = np.unique(np.asarray(nodes, dtype=np.int64))
    for _ in range(overlap):
        # one frontier step over the set's own rows: nothing here is as long as the graph
        reached = np.unique(csr_neighbours(adjacency, frontier))
        frontier = np.setdiff1d(reached, selected, assume_unique=True)
        if not len(frontier):
            break
        selected = np.union1d(selected, frontier)
    return selected


class OverlappingDecomposition:
    """An overlapping decomposition of a mesh into K sub-domains.

    Stores, for every sub-domain ``i``:

    * ``subdomain_nodes[i]`` — the sorted global node indices of the
      *overlapping* sub-domain (the ``R_i`` index set);
    * ``core_nodes[i]`` — the nodes of the original non-overlapping part; the cores
      partition the mesh and own its nodes under restricted gluing (DDM-GNN, ASM "ras").
    """

    def __init__(
        self,
        mesh: SimplexMesh,
        partition: Partition,
        overlap: int = 2,
    ) -> None:
        self.mesh = mesh
        self.partition = partition
        self.overlap = int(overlap)
        adjacency = mesh.adjacency
        self.core_nodes: List[np.ndarray] = partition.all_part_nodes()
        self.subdomain_nodes: List[np.ndarray] = [
            expand_overlap(adjacency, core, overlap) for core in self.core_nodes
        ]

    @property
    def num_subdomains(self) -> int:
        return self.partition.num_parts

    def sizes(self) -> np.ndarray:
        """Number of nodes of every overlapping sub-domain."""
        return np.asarray([len(s) for s in self.subdomain_nodes], dtype=np.int64)

    def covers_all_nodes(self) -> bool:
        """True if every mesh node belongs to at least one sub-domain."""
        covered = np.zeros(self.mesh.num_nodes, dtype=bool)
        for nodes in self.subdomain_nodes:
            covered[nodes] = True
        return bool(covered.all())

    def multiplicity(self) -> np.ndarray:
        """For each node, the number of sub-domains containing it (≥1)."""
        count = np.zeros(self.mesh.num_nodes, dtype=np.int64)
        for nodes in self.subdomain_nodes:
            count[nodes] += 1
        return count
