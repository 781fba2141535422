"""Source and boundary functions used by the paper's experiments.

Section IV-A of the paper samples the forcing term ``f`` and the boundary
function ``g`` as random quadratic polynomials with coefficients drawn
uniformly in [-10, 10]:

    f(x, y) = r1 (x - 1)^2 + r2 y^2 + r3
    g(x, y) = r4 x^2 + r5 y^2 + r6 x y + r7 x + r8 y + r9

On a 3D mesh the same recipe gains the z terms (``dim=3``):

    f(x, y, z) = r1 (x - 1)^2 + r2 y^2 + r3 z^2 + r4
    g(x, y, z) = r5 x^2 + r6 y^2 + r7 z^2 + r8 x + r9 y + r10 z + r11

When a mesh is scaled up (growing radius at fixed element size) the functions
are rescaled accordingly: in either dimension a field's ``scale`` evaluates
the polynomial in normalised coordinates ``x/s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["PolynomialField", "random_forcing", "random_boundary", "constant_field", "manufactured_solution"]


@dataclass(frozen=True)
class PolynomialField:
    """A bivariate quadratic polynomial ``a x² + b y² + c xy + d x + e y + f``.

    A scale factor allows evaluating the polynomial in coordinates normalised
    by the domain radius, which is how the paper rescales f and g for larger
    meshes.
    """

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    e: float = 0.0
    f: float = 0.0
    scale: float = 1.0

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        xs = np.asarray(x, dtype=np.float64) / self.scale
        ys = np.asarray(y, dtype=np.float64) / self.scale
        return (
            self.a * xs ** 2
            + self.b * ys ** 2
            + self.c * xs * ys
            + self.d * xs
            + self.e * ys
            + self.f
        )


def _scaled(coordinates: Tuple[np.ndarray, ...], scale: float) -> Tuple[np.ndarray, ...]:
    return tuple(np.asarray(c, dtype=np.float64) / scale for c in coordinates)


def _check_dim(dim: int) -> None:
    if dim not in (2, 3):
        raise ValueError(f"random fields are drawn in 2 or 3 dimensions, not {dim}")


def random_forcing(
    rng: Optional[np.random.Generator] = None, scale: float = 1.0, dim: int = 2
) -> Callable[..., np.ndarray]:
    """Random forcing ``f(x,y) = r1 (x-1)^2 + r2 y^2 + r3`` (paper Eq. 24).

    In 2D, expanding the square gives coefficients for the generic quadratic
    form (a :class:`PolynomialField`); ``dim=3`` draws the 3D analogue
    ``r1 (x-1)^2 + r2 y^2 + r3 z^2 + r4``.
    """
    _check_dim(dim)
    rng = rng if rng is not None else np.random.default_rng()
    if dim == 3:
        r = rng.uniform(-10.0, 10.0, size=4)

        def f(x, y, z):
            x, y, z = _scaled((x, y, z), scale)
            return r[0] * (x - 1.0) ** 2 + r[1] * y ** 2 + r[2] * z ** 2 + r[3]

        return f
    r1, r2, r3 = rng.uniform(-10.0, 10.0, size=3)
    # r1 (x-1)^2 + r2 y^2 + r3 = r1 x^2 + r2 y^2 - 2 r1 x + (r1 + r3)
    return PolynomialField(a=r1, b=r2, c=0.0, d=-2.0 * r1, e=0.0, f=r1 + r3, scale=scale)


def random_boundary(
    rng: Optional[np.random.Generator] = None, scale: float = 1.0, dim: int = 2
) -> Callable[..., np.ndarray]:
    """Random boundary values ``g`` as a full quadratic polynomial (paper Eq. 25).

    ``dim=3`` draws ``g(x, y, z)`` with the squares and linear terms of all
    three coordinates (no cross terms).
    """
    _check_dim(dim)
    rng = rng if rng is not None else np.random.default_rng()
    if dim == 3:
        r = rng.uniform(-10.0, 10.0, size=7)

        def g(x, y, z):
            x, y, z = _scaled((x, y, z), scale)
            return (
                r[0] * x ** 2 + r[1] * y ** 2 + r[2] * z ** 2
                + r[3] * x + r[4] * y + r[5] * z + r[6]
            )

        return g
    r4, r5, r6, r7, r8, r9 = rng.uniform(-10.0, 10.0, size=6)
    return PolynomialField(a=r4, b=r5, c=r6, d=r7, e=r8, f=r9, scale=scale)


def constant_field(value: float) -> PolynomialField:
    """A constant field (useful for tests)."""
    return PolynomialField(f=float(value))


def manufactured_solution() -> Tuple[Callable, Callable, Callable]:
    """A smooth manufactured solution for convergence tests.

    Returns ``(u_exact, f, g)`` with ``u(x,y) = sin(pi x) sin(pi y) + x`` so
    that ``-Δu = 2 pi² sin(pi x) sin(pi y)`` and ``g = u`` on the boundary.
    """

    def u_exact(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.sin(np.pi * x) * np.sin(np.pi * y) + x

    def f(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)

    return u_exact, f, u_exact
