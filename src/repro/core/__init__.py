"""Core package: the paper's contribution (DDM-GNN) and its training data.

Public surface:

* :class:`~repro.core.ddm_gnn.DDMGNNPreconditioner` — the multi-level GNN
  preconditioner (paper Sec. III-A): the ``"ras"`` Schwarz apply with
  :class:`~repro.core.ddm_gnn.DSSLocalSolver` local solves.
* :func:`~repro.core.dataset.generate_dataset`,
  :func:`~repro.core.dataset.harvest_local_problems`,
  :class:`~repro.core.dataset.LocalProblemDataset`,
  :func:`~repro.core.dataset.build_subdomain_geometries` — training data.

The end-to-end hybrid solve is :func:`repro.solvers.prepare` with
``preconditioner="ddm-gnn"``.
"""

from .dataset import (
    LocalProblemDataset,
    SubdomainGeometry,
    build_subdomain_geometries,
    generate_dataset,
    harvest_local_problems,
)
from .ddm_gnn import DDMGNNPreconditioner, DSSLocalSolver

__all__ = [
    "DDMGNNPreconditioner",
    "DSSLocalSolver",
    "LocalProblemDataset",
    "SubdomainGeometry",
    "build_subdomain_geometries",
    "generate_dataset",
    "harvest_local_problems",
]
