"""Diffusion-coefficient fields κ(x, y) for heterogeneous problems.

The variable-coefficient diffusion equation ``-∇·(κ ∇u) = f`` is the
canonical "harder" workload for the DDM-GNN preconditioner: the conditioning
of the assembled system grows with the contrast ratio ``κ_max / κ_min``, and
classical one-level methods degrade accordingly.  This module provides the
named κ families used by the problem registry (:mod:`repro.problems`):

* :class:`CheckerboardField` — piecewise-constant κ alternating between 1 and
  ``contrast`` on a regular grid of cells (the classic worst case for
  algebraic preconditioners);
* :class:`ChannelField` — piecewise-constant horizontal/vertical stripes,
  modelling layered media with high-permeability channels;
* :class:`LognormalField` — a smooth log-normal random field built from
  random Fourier features (a GMRF/Karhunen–Loève substitute), the standard
  model for subsurface-flow permeability;
* :class:`RadialField` — a smooth deterministic bump, useful for
  manufactured-solution convergence tests.

Every field is a callable ``kappa(x, y) -> array`` (vectorised, strictly
positive) and therefore plugs directly into
:func:`repro.fem.assembly.assemble_stiffness`'s ``diffusion`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = [
    "DiffusionField",
    "CheckerboardField",
    "ChannelField",
    "LognormalField",
    "RadialField",
    "field_contrast",
]


class DiffusionField:
    """Base class for κ fields: positive, vectorised callables.

    Subclasses implement :meth:`evaluate`; ``__call__`` asserts positivity so
    an invalid field fails loudly at assembly time instead of producing an
    indefinite stiffness matrix.
    """

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        values = np.asarray(self.evaluate(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)))
        if values.size and float(values.min()) <= 0.0:
            raise ValueError(f"{type(self).__name__} produced non-positive κ values")
        return values


@dataclass
class CheckerboardField(DiffusionField):
    """Piecewise-constant checkerboard: κ = ``contrast`` on black cells, 1 on white.

    The plane is tiled with square cells of side ``cell_size`` anchored at
    ``origin``; cells whose integer coordinates have even parity take the
    high value.  With ``contrast`` = 10⁴ this is the classic high-contrast
    benchmark for domain-decomposition methods.
    """

    contrast: float = 100.0
    cell_size: float = 0.5
    origin: Tuple[float, float] = (-1.0, -1.0)

    def __post_init__(self) -> None:
        if self.contrast <= 0.0 or self.cell_size <= 0.0:
            raise ValueError("contrast and cell_size must be positive")

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        ix = np.floor((x - self.origin[0]) / self.cell_size).astype(np.int64)
        iy = np.floor((y - self.origin[1]) / self.cell_size).astype(np.int64)
        black = (ix + iy) % 2 == 0
        return np.where(black, float(self.contrast), 1.0)


@dataclass
class ChannelField(DiffusionField):
    """Piecewise-constant stripes: high-κ channels in a unit background.

    ``axis`` selects the stripe direction: ``"x"`` gives horizontal channels
    (κ varies with y), ``"y"`` vertical ones.  ``num_channels`` high-κ bands
    of width ``width`` are evenly spaced across ``extent`` (the coordinate
    interval the mesh occupies along the varying direction).
    """

    contrast: float = 100.0
    num_channels: int = 3
    width: float = 0.15
    axis: str = "x"
    extent: Tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self) -> None:
        if self.contrast <= 0.0 or self.width <= 0.0:
            raise ValueError("contrast and width must be positive")
        if self.num_channels < 1:
            raise ValueError("num_channels must be >= 1")
        if self.axis not in ("x", "y"):
            raise ValueError("axis must be 'x' or 'y'")

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        coord = np.asarray(y if self.axis == "x" else x, dtype=np.float64)
        lo, hi = self.extent
        centres = np.linspace(lo, hi, self.num_channels + 2)[1:-1]
        inside = np.zeros(coord.shape, dtype=bool)
        for c in centres:
            inside |= np.abs(coord - c) <= 0.5 * self.width
        return np.where(inside, float(self.contrast), 1.0)


@dataclass
class LognormalField(DiffusionField):
    """Smooth log-normal random field via random Fourier features.

    ``log κ`` is a zero-mean stationary Gaussian field approximated by
    ``σ √(2/K) Σ_k cos(ω_k·x + b_k)`` with frequencies ``ω_k`` drawn from a
    normal distribution of scale ``1 / correlation_length`` — the classic
    random-Fourier-feature approximation of a squared-exponential covariance.
    The resulting κ is smooth, strictly positive, and has a contrast ratio
    controlled by ``sigma`` (roughly ``exp(4σ)`` over a unit domain).
    """

    sigma: float = 1.0
    correlation_length: float = 0.4
    num_modes: int = 64
    seed: int = 0
    mean_log: float = 0.0
    _frequencies: np.ndarray = field(init=False, repr=False)
    _phases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.correlation_length <= 0.0 or self.num_modes < 1:
            raise ValueError("correlation_length must be positive and num_modes >= 1")
        rng = np.random.default_rng(self.seed)
        self._frequencies = rng.normal(scale=1.0 / self.correlation_length, size=(self.num_modes, 2))
        self._phases = rng.uniform(0.0, 2.0 * np.pi, size=self.num_modes)

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        pts = np.stack([np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)], axis=-1)
        phase = pts @ self._frequencies.T + self._phases  # (..., K)
        log_kappa = self.mean_log + self.sigma * np.sqrt(2.0 / self.num_modes) * np.cos(phase).sum(axis=-1)
        return np.exp(log_kappa)


@dataclass
class RadialField(DiffusionField):
    """Smooth deterministic bump ``κ = base + amplitude · exp(-‖x-c‖²/ρ²)``.

    Infinitely differentiable, so manufactured-solution convergence tests
    retain the optimal P1 rate; ``amplitude`` sets the (mild) heterogeneity.
    """

    base: float = 1.0
    amplitude: float = 4.0
    center: Tuple[float, float] = (0.0, 0.0)
    radius: float = 0.5

    def __post_init__(self) -> None:
        if self.base <= 0.0 or self.radius <= 0.0:
            raise ValueError("base and radius must be positive")
        if self.base + min(self.amplitude, 0.0) <= 0.0:
            raise ValueError("base + amplitude must stay positive")

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        dx = np.asarray(x, dtype=np.float64) - self.center[0]
        dy = np.asarray(y, dtype=np.float64) - self.center[1]
        return self.base + self.amplitude * np.exp(-(dx * dx + dy * dy) / (self.radius ** 2))

    def gradient(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Analytic ∇κ — needed to manufacture forcing terms ``-∇·(κ∇u)``."""
        dx = np.asarray(x, dtype=np.float64) - self.center[0]
        dy = np.asarray(y, dtype=np.float64) - self.center[1]
        bump = self.amplitude * np.exp(-(dx * dx + dy * dy) / (self.radius ** 2))
        factor = -2.0 / (self.radius ** 2)
        return factor * dx * bump, factor * dy * bump


def field_contrast(kappa, mesh) -> float:
    """Empirical contrast ratio κ_max/κ_min of a field sampled at cell centroids."""
    from .assembly import evaluate_on_cells

    values = evaluate_on_cells(mesh, kappa)
    return float(values.max() / values.min())
