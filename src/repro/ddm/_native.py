"""The DDM-LU apply as one native call (``_schwarz.c``): its plans, self-check and resolution.

:func:`schwarz_kernels` resolves once per process, on the first DDM-LU apply —
never at construction, so no timed set-up contains a compiler run — through
the shared loader :func:`repro.utils.native.resolve`, independently of the
edge pass: a failed build here selects the numpy Schwarz body, silently and for
good, and leaves the native edge pass alone (and the reverse).  The library
passes a self-check whose every intermediate is a small dyadic rational, so its
exact answer is known whatever the summation order, or it does not load.

:class:`TriangularFactor` is a SuperLU factor ``Pr A Pc = L U`` as the arrays
the kernel reads, at either level: the local block-diagonal factor and the
coarse ``A₀``'s.  :class:`SchwarzApply` binds a local factor to a restriction,
and optionally a coarse factor to ``R₀``, as the C's ``schwarz_plan`` struct,
so an apply is one call of six arguments.
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

#: one factor's arrays the C reads (``lu_factor``), and the pointer fields of ``schwarz_plan`` after both factors
_FACTOR_ARRAYS = ("l_indptr", "l_indices", "l_data", "u_indptr", "u_indices", "u_data", "u_diag")
_ARRAYS = ("gather", "glue_indptr", "glue_indices", "r0_indptr", "r0_indices", "r0_data",
           "r0t_indptr", "r0t_indices", "r0t_data", "work")


class _Factor(ctypes.Structure):
    _fields_ = [("rows", ctypes.c_int64)] + [(name, ctypes.c_void_p) for name in _FACTOR_ARRAYS]


class _Plan(ctypes.Structure):
    _fields_ = [("n", ctypes.c_int64), ("local", _Factor), ("coarse", _Factor)] + \
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

    def struct(self) -> _Factor:
        """The C's ``lu_factor``, pointing into this object's arrays."""
        return _Factor(self.rows, **{name: getattr(self, name).ctypes.data for name in _FACTOR_ARRAYS})


class SchwarzApply:
    """A local factor bound to a restriction, and optionally a coarse factor to ``R₀``, as one native call.

    ``nodes[s]`` is the input row of stacked row ``s`` (``StackedRestriction.node_indices``),
    ``glue`` the ``(n, rows)`` CSR ``Rᵀ`` whose row ``i`` lists node ``i``'s stacked rows;
    with a coarse level, ``r0`` is its ``(K0, n)`` CSR restriction and ``coarse`` the factor
    of ``A₀``.  Both factors' permutations are folded into the index arrays here: ``perm_r``
    into the gather and ``R₀``'s row order, ``perm_c`` into the glue's and ``R₀ᵀ``'s indices.
    The struct points into arrays this object holds, so they live as long as it does.
    """

    def __init__(self, function: Callable, factor: TriangularFactor, nodes: np.ndarray, glue: sp.spmatrix,
                 r0: Optional[sp.spmatrix] = None, coarse: Optional[TriangularFactor] = None) -> None:
        self.factor, self.coarse = factor, coarse
        self.n = int(glue.shape[0])
        #: input rows the C may read: every gathered node, and every column of R₀
        self.n_in = max(int(np.max(nodes)) + 1 if len(nodes) else 0, 0 if r0 is None else int(r0.shape[1]))
        glue_indptr, glue_rows, _ = _csr(glue)
        arrays = dict(gather=_index(np.asarray(nodes)[factor.row_source]), glue_indptr=glue_indptr,
                      glue_indices=factor.perm_c[glue_rows])
        if coarse is not None:
            r0 = sp.csr_matrix(r0)
            arrays["r0_indptr"], arrays["r0_indices"], arrays["r0_data"] = _csr(r0[coarse.row_source])
            arrays["r0t_indptr"], r0t_rows, arrays["r0t_data"] = _csr(r0.T)
            arrays["r0t_indices"] = coarse.perm_c[r0t_rows]
        arrays["work"] = np.empty(factor.rows + (0 if coarse is None else coarse.rows))
        self.arrays = arrays
        self._plan = _Plan(self.n, factor.struct(), _Factor() if coarse is None else coarse.struct(),
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
    are exercised): dense factors at both levels, rows of every length 0–5 around the four partial sums,
    and no permutation the identity, so a permutation dropped at either level is a wrong answer."""
    function = library.schwarz_apply
    function.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                         ctypes.c_void_p]
    function.restype = None
    rng = np.random.default_rng(28)
    n, nodes = 4, np.array([0, 1, 2, 1, 2, 3])            # two sub-domains sharing nodes 1 and 2

    def dense_factor(rows):
        lower = np.tril(rng.integers(1, 3, (rows, rows)), -1) + np.eye(rows)
        upper = np.triu(rng.integers(-2, 0, (rows, rows)), 1) + np.diag(rng.choice([-1.0, 1.0], rows))
        return lower, upper, rng.permutation(rows), rng.permutation(rows)

    def solve(lower, upper, perm_r, perm_c, b):           # every value a small dyadic rational: exact
        y = np.empty_like(b)
        y[perm_r] = b
        for i in range(len(y)):
            y[i] -= lower[i, :i] @ y[:i]
        for i in reversed(range(len(y))):
            y[i] = (y[i] - upper[i, i + 1:] @ y[i + 1:]) / upper[i, i]
        return y[perm_c]

    local, coarse = dense_factor(len(nodes)), dense_factor(5)
    glue = sp.csr_matrix((np.ones(len(nodes)), (nodes, np.arange(len(nodes)))), shape=(n, len(nodes)))
    r0 = rng.integers(0, 3, (5, n)) / 2.0
    residuals = rng.integers(-3, 4, (n, 2)).astype(np.float64)
    factors = [TriangularFactor(sp.csc_matrix(lower), sp.csc_matrix(upper), perm_r, perm_c)
               for lower, upper, perm_r, perm_c in (local, coarse)]
    plan = SchwarzApply(function, factors[0], nodes, glue, sp.csr_matrix(r0), factors[1])
    expected = glue @ solve(*local, residuals[nodes]) + r0.T @ solve(*coarse, r0 @ residuals)
    if not np.array_equal(plan.apply_columns(residuals), expected):
        raise ValueError("the compiled Schwarz apply failed its self-check")
    return {"schwarz_apply": function}


def schwarz_kernels() -> Optional[Dict[str, Callable]]:
    """``{"schwarz_apply": schwarz_apply(plan, k, r, row_stride, col_stride, out)}``, or None for numpy."""
    global _kernels
    if _kernels is _UNRESOLVED:
        _kernels = native.resolve(SOURCE, _checked_library)
    return _kernels
