"""Unstructured triangulation of 2-D domains (GMSH substitute).

The generator follows a classical point-seeding + Delaunay approach:

1. resample the domain boundary (and hole boundaries) at the target element
   size ``h``;
2. seed interior points on a staggered (hexagonal) lattice of pitch ``h``,
   keeping only points safely inside the domain and outside the holes;
3. run a Delaunay triangulation (``scipy.spatial.Delaunay``) over the union of
   boundary and interior points;
4. discard triangles whose centroid falls outside the domain or inside a hole;
5. optionally apply a few Laplacian smoothing sweeps to interior nodes, and
   drop nodes left unused.

The output quality is adequate for P1 finite elements and matches the mesh
size distribution of the paper's GMSH meshes (6k–8k nodes for a unit-radius
random domain with the default ``h``).

Every step is near-linear in the number of lattice points P: the inside
tests of steps 2 and 4 visit a point once per boundary segment that spans its
row (:func:`repro.mesh.curves.polygon_contains`), the boundary clearance of
step 2 is one k-d tree query per point (:func:`_clear_of_polygon`), and what
is left is Qhull's O(P log P).  Both replaced an all-pairs pass — every
segment against every point, every point against every boundary vertex,
O(P^1.5) at fixed ``h`` — and both return the all-pairs masks exactly, so the
generator places the same nodes and triangles it always did.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .curves import ClosedCurve, polygon_contains
from .mesh import SimplexMesh

__all__ = ["triangulate", "resample_polygon", "structured_rectangle_mesh"]


def resample_polygon(polygon: np.ndarray, spacing: float) -> np.ndarray:
    """Resample a closed polygon at approximately uniform arc-length spacing."""
    polygon = np.asarray(polygon, dtype=np.float64)
    closed = np.vstack([polygon, polygon[:1]])
    seg = np.diff(closed, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = arc[-1]
    n_samples = max(int(np.round(total / spacing)), 8)
    targets = np.linspace(0.0, total, n_samples, endpoint=False)
    resampled = np.empty((n_samples, 2))
    for dim in range(2):
        resampled[:, dim] = np.interp(targets, arc, closed[:, dim])
    return resampled


def _hex_lattice(min_xy: np.ndarray, max_xy: np.ndarray, spacing: float) -> np.ndarray:
    """Staggered lattice covering the bounding box with pitch ``spacing``."""
    dy = spacing * np.sqrt(3.0) / 2.0
    xs = np.arange(min_xy[0], max_xy[0] + spacing, spacing)
    ys = np.arange(min_xy[1], max_xy[1] + dy, dy)
    points: List[np.ndarray] = []
    for row, y in enumerate(ys):
        offset = 0.5 * spacing if row % 2 else 0.0
        points.append(np.column_stack([xs + offset, np.full_like(xs, y)]))
    return np.vstack(points)


def _min_distance_to_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Distance from each point to the closest vertex of the polygon, all pairs.

    O(P * B) time and a ``(chunk, B, 2)`` temporary: :func:`_clear_of_polygon`
    calls it on the few points (normally none) a nearest-vertex query cannot
    decide.
    """
    out = np.empty(len(points))
    chunk = 4096
    for start in range(0, len(points), chunk):
        block = points[start:start + chunk]
        d = np.linalg.norm(block[:, None, :] - polygon[None, :, :], axis=2)
        out[start:start + chunk] = d.min(axis=1)
    return out


def _clear_of_polygon(points: np.ndarray, polygon: np.ndarray, clearance: float) -> np.ndarray:
    """Mask of the points farther than ``clearance`` from every polygon vertex.

    A vertex-based distance is a cheap, adequate proxy here because the
    polygon is resampled at the element size before the call.

    A k-d tree names a nearest vertex per point in O(log B); the distance to
    that vertex is then recomputed with the expression of
    :func:`_min_distance_to_polygon`, so it is one of the values the all-pairs
    minimum ranges over, bit for bit.  The tree rounds its own distances
    differently and may, on a near-tie, name a vertex that is a few ulps from
    nearest: the recomputed distance is then above the true minimum by a
    relative 1e-15 or so, and the mask can differ from the all-pairs one only
    when ``clearance`` falls in that gap.  Every point whose recomputed
    distance is within a relative 1e-9 of ``clearance`` is therefore decided
    by the all-pairs minimum instead; for all others the two masks agree by
    construction, not by luck of tie-breaking.
    """
    _, nearest = cKDTree(polygon).query(points)
    dist = np.linalg.norm(points - polygon[nearest], axis=1)
    undecided = np.abs(dist - clearance) <= 1e-9 * clearance
    dist[undecided] = _min_distance_to_polygon(points[undecided], polygon)
    return dist > clearance


def triangulate(
    boundary: ClosedCurve | np.ndarray,
    element_size: float = 0.05,
    holes: Optional[Sequence[ClosedCurve | np.ndarray]] = None,
    smoothing_iterations: int = 4,
    interior_margin: float = 0.6,
    rng: Optional[np.random.Generator] = None,
) -> SimplexMesh:
    """Triangulate the interior of a closed boundary curve.

    Parameters
    ----------
    boundary:
        The outer boundary, as a :class:`ClosedCurve` or a closed polygon array.
    element_size:
        Target edge length ``h``.
    holes:
        Optional interior holes (curves or polygons); triangles falling inside
        a hole are removed and the hole boundary is resampled and included in
        the node set so that it is meshed conformingly.
    smoothing_iterations:
        Number of Laplacian smoothing sweeps applied to interior nodes.
    interior_margin:
        Interior seed points closer than ``interior_margin * h`` to any
        boundary are discarded to avoid sliver triangles.
    """
    if element_size <= 0.0:
        raise ValueError("element_size must be positive")
    if isinstance(boundary, ClosedCurve):
        boundary_poly = boundary.sample(points_per_segment=24)
    else:
        boundary_poly = np.asarray(boundary, dtype=np.float64)
    boundary_pts = resample_polygon(boundary_poly, element_size)

    hole_polys: List[np.ndarray] = []
    hole_pts_list: List[np.ndarray] = []
    for hole in holes or []:
        poly = hole.sample(points_per_segment=24) if isinstance(hole, ClosedCurve) else np.asarray(hole, dtype=np.float64)
        hole_polys.append(poly)
        hole_pts_list.append(resample_polygon(poly, element_size))

    # interior seeds
    min_xy = boundary_pts.min(axis=0)
    max_xy = boundary_pts.max(axis=0)
    lattice = _hex_lattice(min_xy, max_xy, element_size)
    inside = polygon_contains(boundary_poly, lattice)
    for poly in hole_polys:
        inside &= ~polygon_contains(poly, lattice)
    candidates = lattice[inside]
    # keep interior points away from all boundary polylines
    all_boundary_pts = np.vstack([boundary_pts] + hole_pts_list) if hole_pts_list else boundary_pts
    if len(candidates):
        clear = _clear_of_polygon(candidates, all_boundary_pts, interior_margin * element_size)
        candidates = candidates[clear]

    points = np.vstack([boundary_pts] + hole_pts_list + ([candidates] if len(candidates) else []))
    n_boundary = len(boundary_pts) + sum(len(p) for p in hole_pts_list)

    if len(points) < 4:
        raise ValueError("domain too small for the requested element size")

    tri = Delaunay(points)
    simplices = tri.simplices
    centroids = points[simplices].mean(axis=1)
    keep = polygon_contains(boundary_poly, centroids)
    for poly in hole_polys:
        keep &= ~polygon_contains(poly, centroids)
    # drop degenerate (near-zero area) triangles
    p = points[simplices]
    areas = 0.5 * np.abs(
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )
    keep &= areas > 1e-12 * element_size ** 2
    simplices = simplices[keep]

    # remove nodes not referenced by any kept triangle
    used = np.unique(simplices)
    remap = -np.ones(len(points), dtype=np.int64)
    remap[used] = np.arange(len(used))
    points = points[used]
    simplices = remap[simplices]
    fixed_mask = used < n_boundary  # original boundary/hole points stay put

    mesh = SimplexMesh(points, simplices)
    if smoothing_iterations > 0:
        mesh = _laplacian_smooth(mesh, fixed_mask, smoothing_iterations)
    return _ensure_ccw(mesh)


def _laplacian_smooth(mesh: SimplexMesh, fixed_mask: np.ndarray, iterations: int) -> SimplexMesh:
    """Move each free node towards the mean of its neighbours (in place sweeps)."""
    nodes = mesh.nodes.copy()
    adj = mesh.adjacency
    deg = np.asarray(adj.sum(axis=1)).ravel()
    deg[deg == 0] = 1.0
    free = ~fixed_mask
    # never move nodes on the (topological) mesh boundary either
    free[mesh.boundary_nodes] = False
    for _ in range(iterations):
        mean_neigh = adj @ nodes / deg[:, None]
        nodes[free] = 0.5 * nodes[free] + 0.5 * mean_neigh[free]
    return SimplexMesh(nodes, mesh.cells)


def _ensure_ccw(mesh: SimplexMesh) -> SimplexMesh:
    """Flip triangles with negative signed area so all are counter-clockwise."""
    areas = mesh.cell_measures
    tris = mesh.cells.copy()
    flip = areas < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return SimplexMesh(mesh.nodes, tris)


def structured_rectangle_mesh(nx: int, ny: int, width: float = 1.0, height: float = 1.0) -> SimplexMesh:
    """Structured triangulation of a rectangle (mainly used by tests).

    Produces ``(nx+1) * (ny+1)`` nodes and ``2 * nx * ny`` triangles.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be >= 1")
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    def nid(i: int, j: int) -> int:
        return j * (nx + 1) + i

    tris: List[Tuple[int, int, int]] = []
    for j in range(ny):
        for i in range(nx):
            a, b, c, d = nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return SimplexMesh(nodes, np.asarray(tris, dtype=np.int64))
