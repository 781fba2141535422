"""The DDM-LU apply as one native call (``_schwarz.c``): its plans, self-check and resolution.

:func:`schwarz_kernels` resolves once per process, on the first DDM-LU apply —
never at construction, so no timed set-up contains a compiler run — through
the shared loader :func:`repro.utils.native.resolve`, independently of the
edge pass: a failed build here selects the numpy Schwarz body, silently and for
good, and leaves the native edge pass alone (and the reverse).  The library
passes a self-check whose every intermediate is a small dyadic rational, so its
exact answer is known whatever the summation order, or it does not load.

:class:`TriangularFactor` is a SuperLU factor ``Pr A Pc = L U`` as the arrays
the kernel reads.  :class:`SchwarzApply` binds one to a restriction, and
optionally a coarse space, as the C's ``schwarz_plan`` struct, so an apply is
one call of six arguments.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np
import scipy.sparse as sp

from ..utils import native

__all__ = ["TriangularFactor", "SchwarzApply", "schwarz_kernels"]

SOURCE = Path(__file__).with_name("_schwarz.c")

_UNRESOLVED = object()
_kernels = _UNRESOLVED  # {C name: function} once loaded; None = the numpy body

#: the factor's arrays the C reads, and all pointer fields of ``schwarz_plan`` in the C's order
_FACTOR_ARRAYS = ("l_indptr", "l_indices", "l_data", "u_indptr", "u_indices", "u_data", "u_diag")
_ARRAYS = ("gather", *_FACTOR_ARRAYS, "glue_indptr", "glue_indices", "r0_indptr", "r0_indices", "r0_data",
           "inverse", "r0t_indptr", "r0t_indices", "r0t_data", "work")


class _Plan(ctypes.Structure):
    _fields_ = [("n", ctypes.c_int64), ("rows", ctypes.c_int64), ("coarse", ctypes.c_int64)] + \
               [(name, ctypes.c_void_p) for name in _ARRAYS]


def _index(values) -> np.ndarray:
    """An index array as the C's ``int32``."""
    values = np.asarray(values)
    if values.size and (values.min() < 0 or values.max() >= 2 ** 31):
        raise OverflowError("index outside the kernel's int32 range")
    return np.ascontiguousarray(values, dtype=np.int32)


def _csr(matrix: sp.spmatrix):
    """``(indptr, indices, data)`` of a CSR matrix with ascending columns per row, in the C's dtypes."""
    matrix = sp.csr_matrix(matrix)
    matrix.sort_indices()
    return _index(matrix.indptr), _index(matrix.indices), np.ascontiguousarray(matrix.data, dtype=np.float64)


class TriangularFactor:
    """``Pr A Pc = L U`` as the kernel's arrays — SuperLU's factor, held once.

    ``L`` strictly lower (its unit diagonal implied) and ``U`` strictly upper in
    CSR with ascending columns and no stored zeros, ``u_diag`` apart;
    ``row_source[j]`` is the row of ``A`` that factor row ``j`` holds (``perm_r``
    inverted) and solution row ``s`` is factor column ``perm_c[s]``.
    """

    def __init__(self, lower: sp.spmatrix, upper: sp.spmatrix, perm_r, perm_c) -> None:
        self.rows = int(lower.shape[0])
        strict_lower, strict_upper = lower.tocsr(copy=True), upper.tocsr(copy=True)
        self.u_diag = np.ascontiguousarray(strict_upper.diagonal(), dtype=np.float64)
        for part in (strict_lower, strict_upper):  # in place: one CSR copy of each factor is the whole peak
            part.setdiag(0.0)
            part.eliminate_zeros()
        self.l_indptr, self.l_indices, self.l_data = _csr(strict_lower)
        self.u_indptr, self.u_indices, self.u_data = _csr(strict_upper)
        self.row_source = np.empty(self.rows, dtype=np.int32)
        self.row_source[np.asarray(perm_r)] = np.arange(self.rows, dtype=np.int32)
        self.perm_c = _index(np.array(perm_c))  # a copy: SuperLU's own perm arrays are views that keep it alive


class SchwarzApply:
    """One factor bound to a restriction, and optionally a coarse space, as one native call.

    ``nodes[s]`` is the input row of stacked row ``s`` (``StackedRestriction.node_indices``),
    ``glue`` the ``(n, rows)`` CSR ``Rᵀ`` whose row ``i`` lists node ``i``'s stacked rows;
    with a coarse space, ``r0`` is its ``(K0, n)`` CSR restriction and ``inverse`` the
    dense ``A₀⁻¹``.  The struct points into arrays this object holds, so they live as long
    as it does.
    """

    def __init__(self, function: Callable, factor: TriangularFactor, nodes: np.ndarray, glue: sp.spmatrix,
                 r0: Optional[sp.spmatrix] = None, inverse: Optional[np.ndarray] = None) -> None:
        self.factor = factor
        coarse = 0 if r0 is None else int(r0.shape[0])
        self.n = int(glue.shape[0])
        #: input rows the C may read: every gathered node, and every column of R₀
        self.n_in = max(int(np.max(nodes)) + 1 if len(nodes) else 0, 0 if r0 is None else int(r0.shape[1]))
        glue_indptr, glue_rows, _ = _csr(glue)
        arrays = {name: getattr(factor, name) for name in _FACTOR_ARRAYS}
        arrays.update(gather=_index(np.asarray(nodes)[factor.row_source]), glue_indptr=glue_indptr,
                      glue_indices=factor.perm_c[glue_rows], work=np.empty(factor.rows + 2 * coarse))
        if r0 is not None:
            (arrays["r0_indptr"], arrays["r0_indices"], arrays["r0_data"]), arrays["inverse"] = \
                _csr(r0), np.ascontiguousarray(inverse, dtype=np.float64)
            arrays["r0t_indptr"], arrays["r0t_indices"], arrays["r0t_data"] = _csr(sp.csr_matrix(r0).T)
        self.arrays = arrays
        self._plan = _Plan(self.n, factor.rows, coarse,
                           **{name: array.ctypes.data for name, array in arrays.items()})
        self._address = ctypes.addressof(self._plan)
        self._function = function

    def apply_columns(self, residuals: np.ndarray) -> np.ndarray:
        """The apply of every column of a float64 ``(n_in, k)`` block, as a new Fortran-ordered ``(n, k)``."""
        if residuals.ndim != 2 or residuals.shape[0] < self.n_in or residuals.dtype != np.float64:
            raise ValueError(f"expected a float64 ({self.n_in}, k) block, got {residuals.dtype} {residuals.shape}")
        if not residuals.flags.aligned:
            residuals = np.array(residuals)
        out = np.empty((self.n, residuals.shape[1]), order="F")
        row_stride, col_stride = (stride // 8 for stride in residuals.strides)
        self._function(self._address, residuals.shape[1], residuals.ctypes.data, row_stride, col_stride,
                       out.ctypes.data)
        return out


def _checked_library(library: ctypes.CDLL) -> Dict[str, Callable]:
    """Declare ``schwarz_apply``, then demand the exact answer of a two-level apply on 4 nodes, 6 stacked
    rows and a 5-wide coarse level, two columns of a C-ordered block (so strides and the column loop
    are exercised): dense factors with rows of every length 0–5 around the four partial sums."""
    function = library.schwarz_apply
    function.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                         ctypes.c_void_p]
    function.restype = None
    rng = np.random.default_rng(28)
    rows, n, coarse = 6, 4, 5
    nodes = np.array([0, 1, 2, 1, 2, 3])                  # two sub-domains sharing nodes 1 and 2
    lower = np.tril(rng.integers(1, 3, (rows, rows)), -1) + np.eye(rows)
    upper = np.triu(rng.integers(-2, 0, (rows, rows)), 1) + np.diag(rng.choice([-1.0, 1.0], rows))
    perm_r, perm_c = rng.permutation(rows), rng.permutation(rows)
    glue = sp.csr_matrix((np.ones(rows), (nodes, np.arange(rows))), shape=(n, rows))
    r0 = rng.integers(0, 3, (coarse, n)) / 2.0
    inverse = rng.integers(-2, 3, (coarse, coarse)) / 4.0
    residuals = rng.integers(-3, 4, (n, 2)).astype(np.float64)
    plan = SchwarzApply(function, TriangularFactor(sp.csc_matrix(lower), sp.csc_matrix(upper), perm_r, perm_c),
                        nodes, glue, sp.csr_matrix(r0), inverse)
    y = np.empty((rows, 2))
    y[perm_r] = residuals[nodes]
    for i in range(rows):                                 # every value a small dyadic rational: exact
        y[i] -= lower[i, :i] @ y[:i]
    for i in reversed(range(rows)):
        y[i] = (y[i] - upper[i, i + 1:] @ y[i + 1:]) / upper[i, i]
    expected = glue @ y[perm_c] + r0.T @ (inverse @ (r0 @ residuals))
    if not np.array_equal(plan.apply_columns(residuals), expected):
        raise ValueError("the compiled Schwarz apply failed its self-check")
    return {"schwarz_apply": function}


def schwarz_kernels() -> Optional[Dict[str, Callable]]:
    """``{"schwarz_apply": schwarz_apply(plan, k, r, row_stride, col_stride, out)}``, or None for numpy."""
    global _kernels
    if _kernels is _UNRESOLVED:
        _kernels = native.resolve(SOURCE, _checked_library)
    return _kernels
