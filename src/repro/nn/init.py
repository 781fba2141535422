"""Parameter initialisation schemes.

The paper initialises all DSS weights with Xavier (Glorot) uniform
initialisation; biases start at zero.
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "zeros"]


def xavier_uniform(shape: tuple[int, ...], gain: float = 1.0, rng: np.random.Generator | None = None) -> np.ndarray:
    """Glorot/Xavier uniform initialisation ``U(-a, a)`` with ``a = gain * sqrt(6/(fan_in+fan_out))``."""
    rng = rng if rng is not None else np.random.default_rng()
    fan_out, fan_in = shape[0], shape[-1]
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (used for biases)."""
    return np.zeros(shape)
