"""Graph/mesh partitioning substrate (METIS substitute).

Public surface:

* :func:`~repro.partition.partitioner.partition_mesh`,
  :func:`~repro.partition.partitioner.partition_mesh_target_size`,
  :func:`~repro.partition.partitioner.partition_graph`,
  :class:`~repro.partition.partitioner.Partition` — k-way partitioning.
* :class:`~repro.partition.overlap.OverlappingDecomposition`,
  :func:`~repro.partition.overlap.expand_overlap` — overlap expansion.
* :func:`~repro.partition.quality.analyse_partition` — diagnostics.
"""

from .overlap import OverlappingDecomposition, expand_overlap
from .partitioner import Partition, partition_graph, partition_mesh, partition_mesh_target_size
from .quality import PartitionReport, analyse_partition

__all__ = [
    "Partition",
    "partition_graph",
    "partition_mesh",
    "partition_mesh_target_size",
    "OverlappingDecomposition",
    "expand_overlap",
    "PartitionReport",
    "analyse_partition",
]
