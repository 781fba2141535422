"""One CSR SpMV for every layer: scipy's C kernels, bound once per operator.

``csr @ v`` reaches scipy's ``csr_matvec`` through about 10 µs of Python
dispatch (the ``_matmul_dispatch`` ladder, the format lookup, the dtype
upcast), twice the kernel's own time on a 1k-DOF operator, and a Krylov loop
pays it on every iteration.  :func:`csr_operator` pays it once: it binds a
float64 CSR's ``indptr`` / ``indices`` / ``data`` and returns ``matvec`` /
``matmat`` closures that do what ``@`` does after its dispatch — allocate
zeros, call the same kernel on the same arrays — so each product is bitwise
``csr @ v`` / ``csr @ V``.

The kernels are scipy's private ``_sparsetools.csr_matvec`` /
``csr_matvecs``.  They have been stable for many years, but they are private:
each is checked once, at import, against the public operator on a tiny fixed
matrix, and ``None`` — the public ``@`` — stands in for one that disappeared
or changed its signature or semantics.  This is the only module that imports
``_sparsetools``.

>>> import numpy as np, scipy.sparse as sp
>>> A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]))
>>> op = csr_operator(A)
>>> op.matvec(np.ones(2)).tolist(), op.matmat(np.eye(2)).tolist()
([3.0, 3.0], [[2.0, 1.0], [0.0, 3.0]])
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

__all__ = ["CSROperator", "csr_matvec", "csr_matvecs", "csr_operator", "validated_kernel"]


def validated_kernel(name: str) -> Optional[Callable]:
    """The private scipy kernel ``name`` (``Y += A @ X`` on raw arrays), or None.

    ``csr_matvec(rows, cols, indptr, indices, data, x, y)`` and
    ``csr_matvecs(rows, cols, n_vecs, indptr, indices, data, x, y)`` must both
    *accumulate* into ``y``: the check starts from ones and compares with
    ``1 + A @ X`` through the public operator.
    """
    try:
        from scipy.sparse import _sparsetools

        kernel = getattr(_sparsetools, name)
        matrix = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
        n_vecs = 1 if name == "csr_matvec" else 2
        x = np.arange(3.0 * n_vecs).reshape(3, n_vecs)
        y = np.ones((2, n_vecs))
        shape = (2, 3) if name == "csr_matvec" else (2, 3, n_vecs)
        kernel(*shape, matrix.indptr, matrix.indices, matrix.data, x.ravel(), y.ravel())
        return kernel if np.array_equal(y, 1.0 + matrix @ x) else None
    except Exception:  # pragma: no cover - old/exotic scipy
        return None


csr_matvec = validated_kernel("csr_matvec")
csr_matvecs = validated_kernel("csr_matvecs")

_F64 = np.dtype(np.float64)


class CSROperator(NamedTuple):
    """``matvec(v) = A @ v`` and ``matmat(V) = A @ V`` of one matrix.

    ``kernel`` says what runs them: ``"bound"`` (the private kernels on the
    bound arrays), ``"public"`` (scipy's ``@``: not float64, or a kernel
    failed its check) or ``"dense"`` (numpy's ``@`` on a dense matrix).
    """

    matvec: Callable[[np.ndarray], np.ndarray]
    matmat: Callable[[np.ndarray], np.ndarray]
    kernel: str


def csr_operator(matrix) -> CSROperator:
    """Bind ``matrix`` (sparse or dense) once; see the module docstring.

    A bound product takes float64 ndarrays of the operator's width; any
    other argument goes to the public ``@``, which gives the same bytes.
    """
    if not sp.issparse(matrix):
        dense = np.asarray(matrix)
        return CSROperator(lambda v: dense @ v, lambda V: dense @ V, "dense")
    csr = matrix.tocsr()
    if csr.dtype != _F64 or csr.ndim != 2 or csr_matvec is None or csr_matvecs is None:
        return CSROperator(lambda v: csr @ v, lambda V: csr @ V, "public")
    rows, cols = csr.shape
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    matvec_kernel, matvecs_kernel = csr_matvec, csr_matvecs
    width = (cols,)

    def matvec(v: np.ndarray) -> np.ndarray:
        if v.__class__ is not np.ndarray or v.dtype is not _F64 or v.shape != width:
            return csr @ v
        y = np.zeros(rows)
        matvec_kernel(rows, cols, indptr, indices, data, v, y)
        return y

    def matmat(V: np.ndarray) -> np.ndarray:
        if V.__class__ is not np.ndarray or V.dtype is not _F64 or V.ndim != 2 or V.shape[0] != cols:
            return csr @ V
        n_vecs = V.shape[1]
        if n_vecs == 1:  # scipy's dispatch sends an (n, 1) block through the SpMV
            return matvec(V.ravel()).reshape(rows, 1)
        Y = np.zeros((rows, n_vecs))
        matvecs_kernel(rows, cols, n_vecs, indptr, indices, data, V.ravel(), Y.ravel())
        return Y

    return CSROperator(matvec, matmat, "bound")
