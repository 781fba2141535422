"""The fused edge kernels and the DSS block loop (``_edge_pass.c``): their signatures, self-checks and
resolution.

:func:`edge_kernels` resolves once per process, on the first forward or edge
pass — never at plan construction, so no timed set-up contains a compiler run —
through :func:`repro.utils.native.resolve`.  The pass, its VJP and the block
loop — whose GEMM is scipy's Fortran ``dgemm`` / ``sgemm``, its address taken
from the capsules of ``scipy.linalg.cython_blas`` — are one library: all of
them load and pass their self-checks, at a generic hidden width and at the one
the C instantiates, in the clone the CPU picked (AVX2 or baseline on x86-64
glibc), or none runs.  Any failure (no ``cc``, ``CC=false``, no writable cache,
a load error, no capsule, a wrong answer) selects the numpy body, silently and
for good, and leaves every other native library alone.  The functions live in
a module global: forked shard workers inherit them, spawned ones find the
cached file.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from ..utils import native

SOURCE = Path(__file__).with_name("_edge_pass.c")

_UNRESOLVED = object()
_kernels = _UNRESOLVED  # {C name: function} once loaded; None = the numpy body

#: the self-check graph: node 0 isolated, node 1 of in-degree 1, node 2 of in-degree 2
_INDPTR, _SRC, _DST = np.array([0, 0, 1, 3], dtype=np.int64), np.array([2, 0, 1], dtype=np.int64), (1, 2, 2)
#: latent dims d every kernel is checked at (the edge kernels at their width 2d): a generic one, and
#: the paper's d = 10, which the C instantiates
_CHECK_DIMS = (4, 10)


def _check_inputs(dtype, width: int, k: int, units: int):
    """Seeded attributes, weights, bias and projections (``units`` hidden units) for the
    self-check graph, and every edge's pre-activation in the kernels' order."""
    rng = np.random.default_rng(units)
    attr, weights, bias, proj = (rng.normal(size=shape).astype(dtype)
                                 for shape in ((3, width), (width, units), (units,), (6, k, units)))
    static = attr[:, :1] * weights[0]
    for j in range(1, width):
        static += attr[:, j:j + 1] * weights[j]
    static += bias
    pre_activations = [static[edge] + proj[node] + proj[3 + _SRC[edge]] for edge, node in enumerate(_DST)]
    return attr, weights, bias, proj, pre_activations


def _checked_pass(function, dtype, width: int) -> Callable:
    """Declare the pass's C signature, then demand numpy's bytes on the
    self-check graph with two columns, at every width ``2d`` of ``_CHECK_DIMS``."""
    function.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 7
    function.restype = None
    for units in (2 * d for d in _CHECK_DIMS):
        attr, weights, bias, proj, pre_activations = _check_inputs(dtype, width, 2, units)
        expected = np.zeros((3, 2, units), dtype=dtype)
        for node, t in zip(_DST, pre_activations):
            expected[node] += np.maximum(t, 0.0)
        result = np.full_like(expected, np.nan)
        function(3, 2, units, _INDPTR.ctypes.data, _SRC.ctypes.data, attr.ctypes.data, weights.ctypes.data,
                 bias.ctypes.data, proj.ctypes.data, result.ctypes.data)
        if not np.array_equal(result, expected):
            raise ValueError("the compiled edge kernel failed its self-check")
    return function


def _checked_vjp(function, width: int) -> Callable:
    """The same for the float64 VJP: the per-edge chain rule, summed in ascending edge order."""
    function.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 9
    function.restype = None
    for units in (2 * d for d in _CHECK_DIMS):
        attr, weights, bias, proj, pre_activations = _check_inputs(np.float64, width, 1, units)
        g_pre = np.random.default_rng(1).normal(size=(3, units))
        expected_proj, expected_weights = np.zeros((6, units)), np.zeros((width, units))
        for edge, (node, t) in enumerate(zip(_DST, pre_activations)):
            g = np.where(t[0] > 0.0, g_pre[node], 0.0)
            expected_proj[node] += g
            expected_proj[3 + _SRC[edge]] += g
            expected_weights += attr[edge][:, None] * g
        g_proj, g_weights = np.full_like(expected_proj, np.nan), np.full_like(expected_weights, np.nan)
        function(3, units, _INDPTR.ctypes.data, _SRC.ctypes.data, attr.ctypes.data, weights.ctypes.data,
                 bias.ctypes.data, proj.ctypes.data, g_pre.ctypes.data, g_proj.ctypes.data, g_weights.ctypes.data)
        if not (np.array_equal(g_proj, expected_proj) and np.array_equal(g_weights, expected_weights)):
            raise ValueError("the compiled edge VJP failed its self-check")
    return function


def _checked_blocks(function, gemm: int, edge_pass: Callable, dtype, width: int) -> Callable:
    """The same for the block loop, two seeded blocks under a shuffled key with repeats, ``k`` = 1 and 3, against the
    numpy body's steps (scipy's BLAS wrapper, ``edge_pass`` checked above); returns it with ``gemm`` bound first."""
    from .infer import _gemm_acc, relu_

    function.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 5 + [ctypes.c_void_p] * 11
    function.restype = None
    key = np.array([2, 0, 2], dtype=np.int64)
    for d, k in ((d, k) for d in _CHECK_DIMS for k in (1, 3)):
        w, rng = 2 * d, np.random.default_rng(d + k)
        sizes = (d * w, d * w, width * w, w, w * d, d * d, d, d * d, d)        # a slab row, in the C's order
        slab, table, attr, sources, latent = (rng.normal(size=shape).astype(dtype) for shape in (
            (2, sum(sizes)), (2, 3, d), (3, width), (3, k), (3 * k, d)))
        expected, proj, pre = latent.copy(), np.empty((6 * k, w), dtype), np.empty((3 * k, w), dtype)
        for row, bias in zip(slab, table):
            w_dst, w_src, w_attr, b_hidden, w_agg, w_latent, w0, w_update, b_update = np.split(
                row, np.cumsum(sizes)[:-1])
            _gemm_acc(expected, w_dst.reshape(d, w), proj[:3 * k], None, beta=0.0)
            _gemm_acc(expected, w_src.reshape(d, w), proj[3 * k:], None, beta=0.0)
            edge_pass(3, k, w, _INDPTR.ctypes.data, _SRC.ctypes.data, attr.ctypes.data, w_attr.ctypes.data,
                      b_hidden.ctypes.data, proj.ctypes.data, pre.ctypes.data)
            hidden = (sources[..., None] * w0 + bias[key][:, None]).reshape(3 * k, d)
            _gemm_acc(pre, w_agg.reshape(w, d), hidden, None)
            _gemm_acc(expected, w_latent.reshape(d, d), hidden, None)
            _gemm_acc(relu_(hidden), w_update.reshape(d, d), expected, None)
            expected += b_update
        workspace = [np.full(size, np.nan, dtype) for size in (6 * k * w, 3 * k * w, 3 * k * d)]
        function(gemm, k, 3, d, 2, 3, _INDPTR.ctypes.data, _SRC.ctypes.data,
                 *(a.ctypes.data for a in (attr, slab, table, key, sources, latent, *workspace)))
        if not np.array_equal(latent, expected):
            raise ValueError("the compiled block loop failed its self-check")
    return functools.partial(function, gemm)


def _blas_gemm(routine: str) -> int:
    """The address of scipy's Fortran ``routine``, the one ``scipy.linalg.blas`` wraps, from its capsule."""
    from scipy.linalg import cython_blas

    capsule = cython_blas.__pyx_capi__[routine]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return pointer(capsule, name(capsule))


def _checked_library(library: ctypes.CDLL) -> Dict[str, Callable]:
    """Every function of the library, declared and self-checked; raises on the first wrong answer."""
    precisions = (("f64", np.float64, "dgemm"), ("f32", np.float32, "sgemm"))
    kernels = {f"edge_pass_{name}_{width}": _checked_pass(getattr(library, f"edge_pass_{name}_{width}"), dtype, width)
               for name, dtype, _ in precisions for width in (3, 4)}
    for width in (3, 4):
        kernels[f"edge_vjp_f64_{width}"] = _checked_vjp(getattr(library, f"edge_vjp_f64_{width}"), width)
        for name, dtype, routine in precisions:
            loop, edge_pass = getattr(library, f"dss_blocks_{name}_{width}"), kernels[f"edge_pass_{name}_{width}"]
            kernels[f"dss_blocks_{name}_{width}"] = _checked_blocks(loop, _blas_gemm(routine), edge_pass, dtype, width)
    return kernels


def edge_kernels() -> Optional[Dict[str, Callable]]:
    """The kernels by C name, or None for numpy: for the instantiated attribute widths,
    ``edge_pass_{f64,f32}_{3,4}(n, k, w, indptr, src, attr, weights, bias, proj, pre)``,
    ``edge_vjp_f64_{3,4}(n, w, indptr, src, attr, weights, bias, proj, g_pre, g_proj, g_weights)`` and, scipy's GEMM
    bound first, ``dss_blocks_{f64,f32}_{3,4}(k, n, d, blocks, keys, indptr, src, attr, slab, table, key, sources,
    latent, proj, pre, hidden)``."""
    global _kernels
    if _kernels is _UNRESOLVED:
        _kernels = native.resolve(SOURCE, _checked_library)
    return _kernels
