"""Incomplete Cholesky preconditioner with zero fill-in — IC(0).

This is the "state-of-the-art optimised preconditioner" baseline of the
paper's Table III (column ``IC(0)``).  The factorisation keeps the sparsity
pattern of the lower triangle of A: ``A ≈ L Lᵀ`` with ``L`` lower triangular
and ``L[i, j] ≠ 0`` only where ``A[i, j] ≠ 0``.

The implementation works directly on CSC column structures and falls back to a
diagonal shift if a pivot becomes non-positive (standard practice for matrices
that are not M-matrices).

The apply is two sparse triangular solves.  ``spsolve_triangular`` rebuilds
its operands on every call — the transpose, the inverse-diagonal scaling,
``sum_duplicates``, an identity factor, the index casts — which costs ~20× the
solve itself on a 1k-DOF factor.  :func:`triangular_solver` does that
preparation once, exactly as ``spsolve_triangular`` does it, and per call runs
only the kernel the public function ends in, scipy's private
``_superlu.gstrs``, and the final scaling: each solve is bitwise
``spsolve_triangular``.  The kernel is checked once, at import, against the
public function on a tiny fixed matrix; ``None`` — the public function — stands
in for one that disappeared or changed.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..ddm.asm import Preconditioner

__all__ = ["incomplete_cholesky", "IncompleteCholeskyPreconditioner"]


def incomplete_cholesky(matrix: sp.spmatrix, shift: float = 0.0, max_shift_attempts: int = 6) -> sp.csc_matrix:
    """Compute the IC(0) factor L of an SPD sparse matrix.

    Parameters
    ----------
    matrix:
        Sparse SPD matrix.
    shift:
        Initial diagonal shift α in ``A + α diag(A)``; increased geometrically
        if a breakdown (non-positive pivot) occurs.
    max_shift_attempts:
        How many times to retry with a larger shift before giving up.

    Returns
    -------
    L such that ``A ≈ L @ L.T`` with the sparsity of ``tril(A)``.

    >>> import numpy as np, scipy.sparse as sp
    >>> A = sp.diags([[-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0]], [-1, 0, 1])
    >>> L = incomplete_cholesky(A.tocsr())
    >>> bool(np.allclose((L @ L.T).toarray(), A.toarray()))  # tridiag: IC(0) is exact
    True
    """
    base = matrix.tocsr()
    diag = base.diagonal()
    if np.any(diag <= 0):
        raise ValueError("matrix has non-positive diagonal entries; not SPD")

    attempt_shift = shift
    for _ in range(max_shift_attempts + 1):
        shifted = base + attempt_shift * sp.diags(diag)
        lower = sp.tril(shifted, format="csc")
        factor = _ic0_factor(lower)
        if factor is not None:
            return factor
        attempt_shift = max(attempt_shift * 10.0, 1e-3)
    raise RuntimeError("IC(0) factorisation failed even with diagonal shifting")


def _ic0_factor(lower: sp.csc_matrix) -> Optional[sp.csc_matrix]:
    """Attempt an in-pattern incomplete Cholesky; return None on breakdown."""
    lower = lower.copy().tocsc()
    n = lower.shape[0]
    indptr, indices, data = lower.indptr, lower.indices, lower.data

    # For the in-pattern update we need, for each column, quick access to the
    # (row -> position) map of its stored entries.
    col_maps = []
    for j in range(n):
        start, end = indptr[j], indptr[j + 1]
        col_maps.append({int(indices[p]): p for p in range(start, end)})

    for j in range(n):
        start, end = indptr[j], indptr[j + 1]
        # diagonal entry is the first stored entry of the column in tril CSC
        diag_pos = None
        for p in range(start, end):
            if indices[p] == j:
                diag_pos = p
                break
        if diag_pos is None:
            return None
        pivot = data[diag_pos]
        if pivot <= 0.0:
            return None
        pivot_sqrt = np.sqrt(pivot)
        data[diag_pos] = pivot_sqrt
        # scale the sub-diagonal part of column j
        for p in range(start, end):
            if indices[p] > j:
                data[p] /= pivot_sqrt
        # update the remaining columns k > j that are in the pattern of column j
        for p in range(start, end):
            k = int(indices[p])
            if k <= j:
                continue
            ljk = data[p]
            col_k = col_maps[k]
            for q in range(start, end):
                i = int(indices[q])
                if i < k:
                    continue
                pos = col_k.get(i)
                if pos is not None:
                    data[pos] -= data[q] * ljk
    return sp.csc_matrix((data, indices, indptr), shape=lower.shape)


def _prepared_solve(matrix: sp.csr_matrix, lower: bool, gstrs: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """``spsolve_triangular(matrix, ·, lower=lower)`` with its preparation done once.

    The steps are those of ``spsolve_triangular`` on a CSR operand: solve the
    transposed CSC system (``trans="T"``, so the triangle flips), scale by the
    inverse diagonal, and hand SuperLU's ``gstrs`` an (L, U) pair of which one
    is the scaled matrix and the other trivial.
    """
    factor = matrix.T.copy()
    n = factor.shape[0]
    diag = factor.diagonal()
    if np.any(diag == 0):
        raise np.linalg.LinAlgError("A is singular: zero entry on diagonal.")
    invdiag = 1 / diag
    factor = (factor.T @ sp.diags_array(invdiag)).T
    factor.sum_duplicates()
    if lower:  # the transpose is upper triangular: U = scaled, L = I
        unit = sp.eye_array(n, dtype=np.float64, format="csc")
        factor.setdiag(0)
        low, up = unit, factor
    else:
        low, up = factor, sp.csc_array((n, n), dtype=np.float64)
    operands = ("T", n, low.nnz, low.data, low.indices.astype(np.intc), low.indptr.astype(np.intc),
                n, up.nnz, up.data, up.indices.astype(np.intc), up.indptr.astype(np.intc))

    def solve(b: np.ndarray) -> np.ndarray:
        x, info = gstrs(*operands, np.array(b, dtype=np.float64))
        if info:
            raise np.linalg.LinAlgError("A is singular.")
        return x * invdiag

    return solve


def _validated_gstrs() -> Optional[Callable]:
    """scipy's private ``_superlu.gstrs`` if a prepared solve reproduces the public one, else None."""
    try:
        from scipy.sparse.linalg._dsolve import _superlu

        lower = sp.csr_matrix(np.array([[2.0, 0.0, 0.0], [1.0, 3.0, 0.0], [0.5, -1.0, 4.0]]))
        b = np.array([1.0, -2.0, 0.5])
        for matrix, is_lower in ((lower, True), (lower.T.tocsr(), False)):
            solve = _prepared_solve(matrix, is_lower, _superlu.gstrs)
            if not np.array_equal(solve(b), spla.spsolve_triangular(matrix, b, lower=is_lower)):
                return None
        return _superlu.gstrs
    except Exception:  # pragma: no cover - old/exotic scipy
        return None


_gstrs = _validated_gstrs()


def triangular_solver(matrix: sp.spmatrix, lower: bool) -> Callable[[np.ndarray], np.ndarray]:
    """``b ↦ spsolve_triangular(matrix, b, lower=lower)`` on a vector ``b``, bitwise, prepared once.

    >>> L = sp.csr_matrix(np.array([[2.0, 0.0], [1.0, 4.0]]))
    >>> triangular_solver(L, lower=True)(np.array([2.0, 9.0])).tolist()
    [1.0, 2.0]
    """
    matrix = sp.csr_matrix(matrix)
    if _gstrs is None:
        return lambda b: spla.spsolve_triangular(matrix, b, lower=lower)
    return _prepared_solve(matrix, lower, _gstrs)


class IncompleteCholeskyPreconditioner(Preconditioner):
    """Apply ``M⁻¹ r`` with ``M = L Lᵀ`` through two sparse triangular solves.

    >>> import numpy as np, scipy.sparse as sp
    >>> A = sp.diags([[-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0]], [-1, 0, 1]).tocsr()
    >>> M = IncompleteCholeskyPreconditioner(A)
    >>> bool(np.allclose(A @ M.apply(np.array([1.0, 0.0, 1.0])), [1.0, 0.0, 1.0]))
    True
    """

    def __init__(self, matrix: sp.spmatrix, shift: float = 0.0) -> None:
        self.factor = incomplete_cholesky(matrix, shift=shift)
        self._forward = triangular_solver(self.factor.tocsr(), lower=True)
        self._backward = triangular_solver(self.factor.T.tocsr(), lower=False)
        self._n = matrix.shape[0]

    @property
    def shape(self) -> tuple:
        return (self._n, self._n)

    def apply(self, residual: np.ndarray) -> np.ndarray:
        return self._backward(self._forward(np.asarray(residual, dtype=np.float64)))
