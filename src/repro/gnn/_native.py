"""The fused edge kernels and ψ's prefill and output bias (``_edge_pass.c``): their signatures, self-checks
and resolution.

:func:`edge_kernels` resolves once per process, on the first edge pass — never
at plan construction, so no timed set-up contains a compiler run — through the
shared loader :func:`repro.utils.native.resolve`.  The pass and its VJP, the
prefill and the bias are one library: all of them load and pass their
self-checks — at a generic hidden width and at the one the C instantiates — or
none runs.  On x86-64 glibc each function is an AVX2 clone and a baseline one,
picked by the CPU at load time; the self-checks run on the picked clone.  Any
failure (no ``cc``, ``CC=false``, no writable cache, a load error, a wrong
answer on a self-check) selects the numpy body, silently and for good, and
leaves every other native library alone.  The functions live in a module
global, not on a plan: forked shard workers inherit them, spawned ones find the
cached file.
"""

from __future__ import annotations

import ctypes
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


def _checked_prefill(function, dtype) -> Callable:
    """The same for ψ's prefill ``s[i, c]·w₀ + table[key[i]]``: a shuffled key with repeats, three columns."""
    function.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 5
    function.restype = None
    key = np.array([2, 0, 3, 2, 0], dtype=np.int64)
    for d in _CHECK_DIMS:
        rng = np.random.default_rng(d)
        sources, w0, table = (rng.normal(size=shape).astype(dtype) for shape in ((5, 3), (d,), (4, d)))
        expected = sources[..., None] * w0 + table[key][:, None]
        result = np.full_like(expected, np.nan)
        function(5, 3, d, sources.ctypes.data, w0.ctypes.data, table.ctypes.data, key.ctypes.data,
                 result.ctypes.data)
        if not np.array_equal(result, expected):
            raise ValueError("the compiled prefill failed its self-check")
    return function


def _checked_row_bias(function, dtype) -> Callable:
    """The same for ψ's output bias ``x[r] + b``, row by row: five rows of every ``d`` in ``_CHECK_DIMS``."""
    function.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 2
    function.restype = None
    for d in _CHECK_DIMS:
        rng = np.random.default_rng(d)
        rows, bias = (rng.normal(size=shape).astype(dtype) for shape in ((5, d), (d,)))
        expected = rows + bias
        function(5, d, bias.ctypes.data, rows.ctypes.data)
        if not np.array_equal(rows, expected):
            raise ValueError("the compiled row bias failed its self-check")
    return function


def _checked_library(library: ctypes.CDLL) -> Dict[str, Callable]:
    """Every function of the library, declared and self-checked; raises on the first wrong answer."""
    precisions = (("f64", np.float64), ("f32", np.float32))
    kernels = {f"edge_pass_{name}_{width}": _checked_pass(getattr(library, f"edge_pass_{name}_{width}"), dtype, width)
               for name, dtype in precisions for width in (3, 4)}
    for width in (3, 4):
        kernels[f"edge_vjp_f64_{width}"] = _checked_vjp(getattr(library, f"edge_vjp_f64_{width}"), width)
    for name, dtype in precisions:
        kernels[f"node_prefill_{name}"] = _checked_prefill(getattr(library, f"node_prefill_{name}"), dtype)
        kernels[f"row_bias_{name}"] = _checked_row_bias(getattr(library, f"row_bias_{name}"), dtype)
    return kernels


def edge_kernels() -> Optional[Dict[str, Callable]]:
    """The kernels by C name, or None for numpy: for the instantiated attribute widths,
    ``edge_pass_{f64,f32}_{3,4}(n, k, w, indptr, src, attr, weights, bias, proj, pre)`` and
    ``edge_vjp_f64_{3,4}(n, w, indptr, src, attr, weights, bias, proj, g_pre, g_proj, g_weights)``;
    ``node_prefill_{f64,f32}(n, k, d, sources, w0, table, key, hidden)`` and ``row_bias_{f64,f32}(rows, d, bias, x)``."""
    global _kernels
    if _kernels is _UNRESOLVED:
        _kernels = native.resolve(SOURCE, _checked_library)
    return _kernels
