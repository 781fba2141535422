"""Closed-curve generation for random 2-D domains.

The paper (Sec. IV-A) builds random domains by sampling 20 points on the unit
circle and connecting them with Bezier curves to form a smooth closed
boundary.  This module implements exactly that: random control points, cubic
Bezier segments through them (Catmull–Rom style tangent construction so the
composite curve is C1), and utilities to sample the boundary polygon and test
point membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["ClosedCurve", "random_boundary_curve", "circle_curve", "polygon_contains"]


def _cubic_bezier(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray, p3: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Evaluate a cubic Bezier segment at parameters ``t`` in [0, 1]."""
    t = t[:, None]
    return (
        (1 - t) ** 3 * p0
        + 3 * (1 - t) ** 2 * t * p1
        + 3 * (1 - t) * t ** 2 * p2
        + t ** 3 * p3
    )


@dataclass
class ClosedCurve:
    """A smooth closed curve defined by Bezier segments through control points.

    Attributes
    ----------
    control_points:
        (n, 2) array of points the curve interpolates, ordered by angle.
    tension:
        Catmull-Rom style tension used to place the inner Bezier handles.
    """

    control_points: np.ndarray
    tension: float = 0.35

    def sample(self, points_per_segment: int = 20) -> np.ndarray:
        """Return a dense closed polygon (M, 2) approximating the curve.

        The last point is *not* duplicated; the polygon is implicitly closed.
        """
        pts = np.asarray(self.control_points, dtype=np.float64)
        n = len(pts)
        if n < 3:
            raise ValueError("a closed curve needs at least 3 control points")
        t = np.linspace(0.0, 1.0, points_per_segment, endpoint=False)
        segments: List[np.ndarray] = []
        for i in range(n):
            p_prev = pts[(i - 1) % n]
            p0 = pts[i]
            p3 = pts[(i + 1) % n]
            p_next = pts[(i + 2) % n]
            # Catmull-Rom tangents converted to Bezier handles
            handle1 = p0 + self.tension * (p3 - p_prev) / 2.0
            handle2 = p3 - self.tension * (p_next - p0) / 2.0
            segments.append(_cubic_bezier(p0, handle1, handle2, p3, t))
        return np.vstack(segments)

    def bounding_box(self, points_per_segment: int = 20) -> Tuple[np.ndarray, np.ndarray]:
        """Return (min_xy, max_xy) of the sampled boundary."""
        poly = self.sample(points_per_segment)
        return poly.min(axis=0), poly.max(axis=0)


def random_boundary_curve(
    n_points: int = 20,
    radius: float = 1.0,
    radial_jitter: float = 0.3,
    rng: Optional[np.random.Generator] = None,
    tension: float = 0.35,
) -> ClosedCurve:
    """Generate a random smooth closed boundary in the spirit of the paper.

    ``n_points`` control points are placed at sorted random angles on a circle
    of radius ``radius`` with multiplicative radial jitter, then joined with
    C1 cubic Bezier segments.

    Parameters
    ----------
    n_points:
        Number of control points (the paper uses 20).
    radius:
        Base radius of the domain.  The paper scales this radius to grow the
        mesh while keeping the element size fixed.
    radial_jitter:
        Relative amplitude of the radial perturbation (0 gives a circle).
    """
    rng = rng if rng is not None else np.random.default_rng()
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_points))
    # enforce a minimal angular gap to avoid self-intersection of the curve
    min_gap = 2.0 * np.pi / (4.0 * n_points)
    for _ in range(10):
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        if np.all(gaps > min_gap):
            break
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_points))
    radii = radius * (1.0 + radial_jitter * rng.uniform(-1.0, 1.0, size=n_points))
    points = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return ClosedCurve(points, tension=tension)


def circle_curve(radius: float = 1.0, n_points: int = 24, center: Tuple[float, float] = (0.0, 0.0)) -> ClosedCurve:
    """A circle of given radius represented as a closed Bezier curve."""
    angles = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    pts = np.column_stack(
        [center[0] + radius * np.cos(angles), center[1] + radius * np.sin(angles)]
    )
    return ClosedCurve(pts)


def polygon_contains(polygon: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Vectorised even-odd rule point-in-polygon test.

    A point is inside when its ray towards +x crosses an odd number of polygon
    segments.  Segment ``(xa, ya) -> (xb, yb)`` can cross the ray of a point
    only when ``(ya > y) != (yb > y)``, i.e. ``min(ya, yb) <= y < max(ya, yb)``
    — a contiguous slice of the queries once they are sorted by ``y``.  Two
    ``searchsorted`` calls give every segment its slice, and the crossing test
    ``x < xa + (y - ya) * (xb - xa) / (yb - ya)`` runs on that slice only: a
    query meets the two to four segments that span its row instead of all M,
    O((P + M) log P + crossings tested) where testing every pair is O(M * P).

    The (point, segment) pairs tested, and the float expression evaluated on
    each, are exactly those of the loop that tests every pair (kept as the
    reference in ``tests/test_mesh.py``), and XOR commutes, so the booleans
    are identical — by construction, not to a tolerance.  A horizontal
    segment has an empty slice; a NaN ``y`` sorts last, falls in no slice and
    is outside; a NaN ``x`` compares False and is outside.

    Parameters
    ----------
    polygon:
        (M, 2) closed polygon vertices (implicitly closed).
    points:
        (P, 2) query points.

    Returns
    -------
    (P,) boolean array, True for points strictly inside the polygon.
    """
    polygon = np.asarray(polygon, dtype=np.float64)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    order = np.argsort(points[:, 1], kind="stable")
    x, y = points[order, 0], points[order, 1]
    x1, y1 = polygon[:, 0], polygon[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    lower = np.searchsorted(y, np.minimum(y1, y2))
    upper = np.searchsorted(y, np.maximum(y1, y2))
    crossed = np.zeros(len(points), dtype=bool)  # in sorted order
    for xa, ya, xb, yb, a, b in zip(x1, y1, x2, y2, lower, upper):
        if a < b:
            x_intersect = xa + (y[a:b] - ya) * (xb - xa) / (yb - ya)
            crossed[a:b] ^= x[a:b] < x_intersect
    inside = np.empty(len(points), dtype=bool)
    inside[order] = crossed
    return inside
