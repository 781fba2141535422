"""Partition-quality diagnostics.

These metrics are not needed by the solver itself but are reported by the
benchmark harnesses (sub-domain counts and sizes appear in every table of the
paper) and exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
import scipy.sparse as sp

from ..mesh.mesh import SimplexMesh
from .partitioner import Partition

__all__ = ["PartitionReport", "analyse_partition"]


@dataclass(frozen=True)
class PartitionReport:
    """Summary statistics of a (possibly overlapping) decomposition."""

    num_parts: int
    min_size: int
    max_size: int
    mean_size: float
    imbalance: float
    edge_cut: int
    edge_cut_fraction: float
    connected_parts: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_parts": self.num_parts,
            "min_size": self.min_size,
            "max_size": self.max_size,
            "mean_size": self.mean_size,
            "imbalance": self.imbalance,
            "edge_cut": self.edge_cut,
            "edge_cut_fraction": self.edge_cut_fraction,
            "connected_parts": self.connected_parts,
        }


def _num_connected_parts(adjacency: sp.csr_matrix, partition: Partition) -> int:
    """Count how many partitions induce a connected subgraph."""
    connected = 0
    for nodes in partition.all_part_nodes():
        if len(nodes) == 0:
            continue
        sub = adjacency[np.ix_(nodes, nodes)].tocsr()
        n_components = sp.csgraph.connected_components(sub, directed=False, return_labels=False)
        if n_components == 1:
            connected += 1
    return connected


def analyse_partition(mesh: SimplexMesh, partition: Partition) -> PartitionReport:
    """Compute a :class:`PartitionReport` for a partition of ``mesh``."""
    adjacency = mesh.adjacency
    sizes = partition.sizes()
    total_edges = int(sp.triu(adjacency, k=1).nnz)
    cut = partition.edge_cut(adjacency)
    return PartitionReport(
        num_parts=partition.num_parts,
        min_size=int(sizes.min()),
        max_size=int(sizes.max()),
        mean_size=float(sizes.mean()),
        imbalance=partition.imbalance(),
        edge_cut=cut,
        edge_cut_fraction=cut / max(total_edges, 1),
        connected_parts=_num_connected_parts(adjacency, partition),
    )
