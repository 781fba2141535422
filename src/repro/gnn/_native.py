"""Compile-on-first-use loader of the fused edge kernel (``_edge_pass.c``).

:func:`edge_kernels` resolves once per process, on the first inference sweep
— never at plan construction, so no timed set-up contains a compiler run.
Any failure (no ``cc``, ``CC=false``, no writable cache, a load error, a wrong
answer on the self-check) selects the numpy body, silently and for good.  The
functions live in a module global, not on a plan: forked shard workers
inherit them, spawned ones find the cached file.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

SOURCE = Path(__file__).with_name("_edge_pass.c")
#: fixed here, not tuned to the machine: the cache directory may be shared
FLAGS = ["-O3", "-ffp-contract=off", "-shared", "-fPIC"]

_UNRESOLVED = object()
_kernels = _UNRESOLVED  # {dtype: function} once loaded; None = the numpy body


def _library() -> ctypes.CDLL:
    """The shared object from the first usable cache root, compiled if absent."""
    cc = shlex.split(os.environ.get("CC") or "cc")
    version = subprocess.run(cc + ["--version"], capture_output=True, check=True, timeout=60).stdout
    digest = hashlib.sha256(SOURCE.read_bytes() + version + " ".join(FLAGS).encode()).hexdigest()[:20]
    roots = (os.environ.get("XDG_CACHE_HOME"), os.path.expanduser("~/.cache"), tempfile.gettempdir())
    for root in filter(None, roots):
        target = Path(root, "repro-ddm-gnn", f"edge_pass-{digest}.so")
        try:
            target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
            status = target.parent.stat()
            if status.st_uid != os.getuid() or status.st_mode & 0o022:
                continue  # a directory others can write is no place to load code from
            if target.exists():
                return ctypes.CDLL(str(target))
            handle, scratch = tempfile.mkstemp(dir=target.parent, suffix=".so")
            os.close(handle)
        except OSError:
            continue  # read-only root or unloadable file: try the next one
        try:
            subprocess.run(cc + FLAGS + [str(SOURCE), "-o", scratch], capture_output=True, check=True, timeout=300)
            os.replace(scratch, target)  # atomic: a racing worker never loads a half-written file
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)
        return ctypes.CDLL(str(target))
    raise OSError("no writable cache directory")


def _checked(function, dtype, width: int) -> Callable:
    """Declare the C signature, then demand numpy's bytes on a 3-node graph
    (isolated, in-degree 1, in-degree 2; two columns, three units)."""
    function.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 7
    function.restype = None
    rng = np.random.default_rng(0)
    indptr, src = np.array([0, 0, 1, 3], dtype=np.int64), np.array([2, 0, 1], dtype=np.int64)
    attr, weights, bias, proj = (rng.normal(size=shape).astype(dtype)
                                 for shape in ((3, width), (width, 3), (3,), (6, 2, 3)))
    static = attr[:, :1] * weights[0]
    for j in range(1, width):
        static += attr[:, j:j + 1] * weights[j]
    static += bias
    expected = np.zeros((3, 2, 3), dtype=dtype)
    for edge, node in enumerate((1, 2, 2)):
        expected[node] += np.maximum(static[edge] + proj[node] + proj[3 + src[edge]], 0.0)
    result = np.full_like(expected, np.nan)
    function(3, 2, 3, indptr.ctypes.data, src.ctypes.data, attr.ctypes.data, weights.ctypes.data,
             bias.ctypes.data, proj.ctypes.data, result.ctypes.data)
    if not np.array_equal(result, expected):
        raise ValueError("the compiled edge kernel failed its self-check")
    return function


def edge_kernels() -> Optional[Dict[Tuple[str, int], Callable]]:
    """``{(precision, |e|): edge_pass(n, k, w, indptr, src, attr, weights, bias, proj, pre)}``
    for the instantiated attribute widths, or None for numpy."""
    global _kernels
    if _kernels is _UNRESOLVED:
        try:
            library = _library()
            _kernels = {(name, width): _checked(getattr(library, f"edge_pass_{name}_{width}"), dtype, width)
                        for name, dtype in (("f64", np.float64), ("f32", np.float32)) for width in (3, 4)}
        except Exception:  # the contract above: whatever went wrong, numpy runs
            _kernels = None
    return _kernels
