"""Physics-informed residual loss of the Deep Statistical Solver (paper Eq. 11).

``L_res(u, G) = 1/n Σ_i ( −c_i + Σ_j a_ij u_j )²``

The loss is evaluated with the *local* sparse operator of each graph (or the
block-diagonal operator of a batch); its gradient is ``∂L/∂u = Aᵀ (2/n · r)``,
one transposed SpMV.  No ground-truth solutions are needed, which is what lets
the dataset be harvested directly from PCG iterations.  :class:`TrainingLoss`
sums it over every decoded state of one forward (Eq. 23) and runs the
backward of that forward.
"""

from __future__ import annotations

from typing import Callable, List, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .batch import GraphBatch
from .graph import GraphProblem

__all__ = ["residual_loss", "relative_error", "TrainingLoss"]


def _operator(problem) -> Tuple[sp.csr_matrix, np.ndarray]:
    """``(A, c)`` of Eq. 11: a graph's matrix or a batch's block-diagonal one."""
    if isinstance(problem, GraphBatch):
        matrix = problem.block_diagonal_matrix()
    else:
        matrix = getattr(problem, "matrix", None)
        if matrix is None:
            raise ValueError("graph problem carries no matrix; cannot evaluate the residual loss")
    if not (sp.issparse(matrix) and matrix.format == "csr"):
        matrix = matrix.tocsr()
    return matrix, problem.source


def _mean_square(residual: np.ndarray) -> float:
    return (residual * residual).sum() * (1.0 / residual.size)


def residual_loss(prediction: np.ndarray, problem: Union[GraphProblem, GraphBatch]) -> float:
    """Mean-squared residual of a predicted state (shape (n, 1) or (n,)) on a graph problem or a batch."""
    matrix, target = _operator(problem)
    return float(_mean_square(matrix @ np.reshape(prediction, -1) - target))


class TrainingLoss:
    """Eq. 23 over one forward: the sum of every decoded state's Eq. 11 loss.

    :meth:`add` takes each block's decoded state with the backward of its
    decoder and of its block, in forward order; :meth:`backward` then walks
    them in reverse — decoder, Eq. 11 gradient, and the sum of the decoder's
    and the next block's latent cotangent into this block's backward —
    adding every parameter's gradient to its ``.grad``, and releases them.
    """

    def __init__(self, problem) -> None:
        self._matrix, self._target = _operator(problem)
        self._value = 0.0
        self._steps: List[Tuple[np.ndarray, Callable, Callable]] = []

    def add(self, decoded: np.ndarray, decoder_backward: Callable, block_backward: Callable) -> None:
        residual = self._matrix @ decoded.reshape(-1) - self._target
        self._value += _mean_square(residual)
        self._steps.append((residual, decoder_backward, block_backward))

    def item(self) -> float:
        return float(self._value)

    def backward(self) -> None:
        if self._steps is None:
            raise RuntimeError("backward() already ran on this loss; its forward was released")
        steps, self._steps = self._steps, None
        g_latent = None
        while steps:
            residual, decoder_backward, block_backward = steps.pop()
            g_decoded = self._matrix.T @ (residual * (2.0 / residual.size))
            g = decoder_backward(g_decoded.reshape(-1, 1))
            if g_latent is not None:
                g += g_latent
            g_latent = block_backward(g)


def relative_error(prediction: np.ndarray, exact: np.ndarray) -> float:
    """Relative L2 error ‖u − u*‖ / ‖u*‖ (paper's 'Relative Error' metric)."""
    prediction = np.asarray(prediction, dtype=np.float64).ravel()
    exact = np.asarray(exact, dtype=np.float64).ravel()
    denom = np.linalg.norm(exact)
    if denom == 0.0:
        return float(np.linalg.norm(prediction))
    return float(np.linalg.norm(prediction - exact) / denom)
