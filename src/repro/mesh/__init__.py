"""Geometry and meshing substrate (GMSH substitute).

Public surface:

* :class:`~repro.mesh.mesh.SimplexMesh` — the one mesh data structure (triangles
  in 2D, tetrahedra in 3D) shared by FEM, partitioning and the GNN.
* :func:`~repro.mesh.triangulation.triangulate`,
  :func:`~repro.mesh.triangulation.structured_rectangle_mesh` — 2D mesh generation.
* :func:`~repro.mesh.tet.structured_box_mesh`,
  :func:`~repro.mesh.tet.box_mesh_for_target_size` — structured 3D tet meshes.
* :func:`~repro.mesh.shapes.random_domain_mesh`,
  :func:`~repro.mesh.shapes.formula1_mesh`,
  :func:`~repro.mesh.shapes.disk_mesh`,
  :func:`~repro.mesh.shapes.lshape_mesh`,
  :func:`~repro.mesh.shapes.mesh_for_target_size` — domain factories.
* :class:`~repro.mesh.curves.ClosedCurve`,
  :func:`~repro.mesh.curves.random_boundary_curve` — random Bezier boundaries.
"""

from .curves import ClosedCurve, circle_curve, polygon_contains, random_boundary_curve
from .mesh import SimplexMesh
from .tet import box_mesh_for_target_size, structured_box_mesh
from .shapes import (
    DEFAULT_ELEMENT_SIZE,
    disk_mesh,
    formula1_mesh,
    lshape_mesh,
    mesh_for_target_size,
    random_domain_mesh,
)
from .triangulation import resample_polygon, structured_rectangle_mesh, triangulate

__all__ = [
    "SimplexMesh",
    "structured_box_mesh",
    "box_mesh_for_target_size",
    "ClosedCurve",
    "random_boundary_curve",
    "circle_curve",
    "polygon_contains",
    "triangulate",
    "resample_polygon",
    "structured_rectangle_mesh",
    "random_domain_mesh",
    "disk_mesh",
    "lshape_mesh",
    "formula1_mesh",
    "mesh_for_target_size",
    "DEFAULT_ELEMENT_SIZE",
]
