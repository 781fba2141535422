"""High-level domain/mesh factories used by the experiments.

* :func:`random_domain_mesh` — the training distribution of the paper
  (Sec. IV-A): random Bezier-bounded domain, unstructured triangulation at a
  fixed element size, optionally scaled to reach a target node count.
* :func:`formula1_mesh` — the "caricatural Formula 1" out-of-distribution
  test case of Fig. 5: an elongated car-like silhouette with holes (cockpit
  and wing stripes), much larger than the training meshes.
* :func:`disk_mesh`, :func:`lshape_mesh` — auxiliary test geometries.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .curves import ClosedCurve, circle_curve, random_boundary_curve
from .mesh import SimplexMesh
from .triangulation import triangulate

__all__ = [
    "random_domain_mesh",
    "disk_mesh",
    "lshape_mesh",
    "formula1_mesh",
    "mesh_for_target_size",
]

# Element size giving ~6000-8000 nodes on a unit-radius random domain,
# mirroring the paper's GMSH setting.  Experiments scale the *radius* to grow
# the mesh while keeping the element size fixed (Sec. IV-A).
DEFAULT_ELEMENT_SIZE = 0.024


def random_domain_mesh(
    radius: float = 1.0,
    element_size: float = DEFAULT_ELEMENT_SIZE,
    n_control_points: int = 20,
    radial_jitter: float = 0.3,
    rng: Optional[np.random.Generator] = None,
    smoothing_iterations: int = 4,
) -> SimplexMesh:
    """Generate one random domain mesh from the paper's training distribution."""
    rng = rng if rng is not None else np.random.default_rng()
    curve = random_boundary_curve(
        n_points=n_control_points, radius=radius, radial_jitter=radial_jitter, rng=rng
    )
    return triangulate(curve, element_size=element_size, smoothing_iterations=smoothing_iterations)


def disk_mesh(radius: float = 1.0, element_size: float = 0.1) -> SimplexMesh:
    """Mesh of a disk of given radius (deterministic, used by tests)."""
    return triangulate(circle_curve(radius=radius), element_size=element_size)


def lshape_mesh(size: float = 1.0, element_size: float = 0.08) -> SimplexMesh:
    """Mesh of the classic L-shaped domain ``[0,1]^2 \\ [0.5,1]x[0.5,1]`` scaled by ``size``."""
    s = float(size)
    polygon = np.array(
        [
            [0.0, 0.0],
            [s, 0.0],
            [s, 0.5 * s],
            [0.5 * s, 0.5 * s],
            [0.5 * s, s],
            [0.0, s],
        ]
    )
    return triangulate(polygon, element_size=element_size, smoothing_iterations=2)


def _ellipse(center: Tuple[float, float], rx: float, ry: float, n: int = 24) -> np.ndarray:
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack([center[0] + rx * np.cos(angles), center[1] + ry * np.sin(angles)])


def formula1_mesh(
    length: float = 10.0,
    element_size: float = 0.08,
    with_holes: bool = True,
) -> SimplexMesh:
    """Caricatural Formula-1 silhouette with holes (paper Fig. 5 test case).

    The outline is a long, low car-like profile: a nose cone, a raised cockpit
    hump, an engine cover and a rear wing.  Holes model the cockpit opening
    and front/rear wing stripes.  ``length`` controls the overall size (and
    hence, at fixed ``element_size``, the node count).
    """
    L = float(length)
    H = 0.22 * L  # overall height
    # car silhouette control points (x grows from nose to tail), expressed as
    # fractions of the length/height and traversed counter-clockwise.
    top = np.array(
        [
            [0.00, 0.06], [0.06, 0.10], [0.15, 0.12], [0.25, 0.14],
            [0.35, 0.30], [0.45, 0.55], [0.52, 0.60], [0.60, 0.55],
            [0.70, 0.45], [0.80, 0.50], [0.88, 0.72], [0.95, 0.95],
            [1.00, 1.00],
        ]
    )
    bottom = np.array(
        [
            [1.00, 0.55], [0.92, 0.30], [0.80, 0.10], [0.60, 0.04],
            [0.40, 0.02], [0.20, 0.02], [0.08, 0.02], [0.00, 0.00],
        ]
    )
    outline = np.vstack([top, bottom])
    polygon = np.column_stack([outline[:, 0] * L, outline[:, 1] * H])
    curve = ClosedCurve(polygon, tension=0.25)

    holes: list[np.ndarray] = []
    if with_holes:
        holes = [
            _ellipse((0.52 * L, 0.38 * H), 0.045 * L, 0.10 * H),   # cockpit
            _ellipse((0.12 * L, 0.055 * H), 0.05 * L, 0.022 * H),  # front wing stripe
            _ellipse((0.90 * L, 0.45 * H), 0.035 * L, 0.10 * H),   # rear wing stripe
        ]
    return triangulate(curve, element_size=element_size, holes=holes, smoothing_iterations=3)


def mesh_for_target_size(
    target_nodes: int,
    element_size: float = DEFAULT_ELEMENT_SIZE,
    rng: Optional[np.random.Generator] = None,
    tolerance: float = 0.35,
    max_attempts: int = 6,
) -> SimplexMesh:
    """Generate a random-domain mesh with approximately ``target_nodes`` nodes.

    The paper grows problems by increasing the domain radius at fixed element
    size; node count scales with radius², so the radius is set accordingly and
    adjusted over a few attempts if the produced mesh misses the target by
    more than ``tolerance`` (relative).
    """
    rng = rng if rng is not None else np.random.default_rng()
    # ~7000 nodes at radius 1 with the default element size; scale with area
    base_nodes_at_unit_radius = 2.75 / (element_size ** 2)
    radius = float(np.sqrt(target_nodes / base_nodes_at_unit_radius))
    for _ in range(max_attempts):
        mesh = random_domain_mesh(radius=radius, element_size=element_size, rng=rng)
        ratio = mesh.num_nodes / target_nodes
        if abs(ratio - 1.0) <= tolerance:
            return mesh
        radius /= np.sqrt(ratio)
    return mesh
