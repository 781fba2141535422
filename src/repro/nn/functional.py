"""Functional helpers built on top of the autodiff :class:`~repro.nn.tensor.Tensor`.

These are thin, composable wrappers used by the neural-network modules and by
the physics-informed loss of the Deep Statistical Solver.

The trailing-underscore variant at the bottom is a raw-NumPy kernel: it
works in place on a plain ``ndarray`` and builds no autodiff graph.  The
inference engine and the DSS block primitive (``repro.gnn.infer`` /
``repro.gnn.mpnn``) run their ReLUs through it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .tensor import Tensor

__all__ = [
    "relu",
    "tanh",
    "linear",
    "mse",
    "concatenate",
    "segment_sum",
    "gather",
    "sparse_matvec",
    "relu_",
]


def relu(x: Tensor) -> Tensor:
    """Elementwise rectified linear unit."""
    return x.relu()


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    return x.tanh()


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch convention)."""
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


def mse(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between two tensors."""
    diff = prediction - target
    return (diff * diff).mean()


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    return Tensor.concatenate(list(tensors), axis=axis)


def gather(x: Tensor, index: np.ndarray) -> Tensor:
    """Gather rows of ``x`` along the leading axis (differentiable)."""
    return x.index_select(index)


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` bins (differentiable scatter-add).

    This is the aggregation primitive of message passing: messages computed on
    edges are summed onto their destination nodes.
    """
    return x.index_add(segment_ids, num_segments)


def sparse_matvec(matrix: sp.spmatrix, u: Tensor) -> Tensor:
    """Differentiable product of a constant sparse matrix with a tensor.

    The matrix is constant (not a learnable parameter), so only the gradient
    with respect to ``u`` is propagated: ``d(Au)/duᵀ g = Aᵀ g``.  The transpose
    product is evaluated lazily in the backward closure (``matrix.T @ g`` on a
    CSR matrix is a cheap CSC matvec; no transposed copy is materialised).
    """
    csr = matrix if sp.issparse(matrix) and matrix.format == "csr" else matrix.tocsr()
    data = csr @ u.data
    return Tensor._make(data, (u,), (lambda g, m=csr: m.T @ g,))


# --------------------------------------------------------------------------- #
# raw-NumPy kernel (no Tensor, no tape, in place)
# --------------------------------------------------------------------------- #
def relu_(x: np.ndarray) -> np.ndarray:
    """In-place rectified linear unit on a raw array."""
    np.maximum(x, 0.0, out=x)
    return x
