"""Quadrature rules on the reference triangle.

Rules are given in barycentric coordinates with weights summing to 1 (they are
scaled by the physical triangle area during assembly).  The degree-2 rule is
exact for the P1 load-vector integrals used in this project.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TriangleQuadrature", "three_point_rule"]


@dataclass(frozen=True)
class TriangleQuadrature:
    """A quadrature rule over the unit reference triangle.

    Attributes
    ----------
    barycentric:
        (Q, 3) barycentric coordinates of the quadrature points.
    weights:
        (Q,) weights, summing to 1.
    degree:
        Maximal polynomial degree integrated exactly.
    """

    barycentric: np.ndarray
    weights: np.ndarray
    degree: int

    def points(self, vertices: np.ndarray) -> np.ndarray:
        """Map quadrature points onto a physical triangle.

        ``vertices`` is (3, 2); the result is (Q, 2).
        """
        return self.barycentric @ vertices


def three_point_rule() -> TriangleQuadrature:
    """Three-point rule at edge midpoints (degree 2)."""
    b = np.array(
        [
            [0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.5],
        ]
    )
    w = np.full(3, 1.0 / 3.0)
    return TriangleQuadrature(b, w, degree=2)
