"""Structured tetrahedral meshes: the 3D counterpart of :mod:`repro.mesh.triangulation`.

Both build a :class:`~repro.mesh.mesh.SimplexMesh`, so the partitioner, the
FEM assembly, the DDM preconditioners and the DSS feature pipeline run on
tetrahedral problems unchanged.

Mesh generation is deliberately structured: :func:`structured_box_mesh`
splits every cell of a regular grid into six tetrahedra along a consistent
main diagonal (the Kuhn/Freudenthal triangulation), which makes problem
resolution from serve specs deterministic without a 3D mesh generator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .mesh import SimplexMesh

__all__ = ["structured_box_mesh", "box_mesh_for_target_size"]

#: the six Kuhn tetrahedra of the unit cube: vertex paths from (0,0,0) to
#: (1,1,1) adding one unit step per axis permutation — face-to-face matching
#: across neighbouring cubes falls out of the shared main diagonal
_KUHN_PERMUTATIONS = (
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
)


def structured_box_mesh(
    nx: int,
    ny: int = 0,
    nz: int = 0,
    lengths: Sequence[float] = (1.0, 1.0, 1.0),
) -> SimplexMesh:
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
    return SimplexMesh(nodes, np.vstack(cells))


def box_mesh_for_target_size(
    target_nodes: int,
    lengths: Sequence[float] = (1.0, 1.0, 1.0),
) -> SimplexMesh:
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
