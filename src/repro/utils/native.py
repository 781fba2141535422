"""Compile-on-first-use loading of the repo's C kernels, for any layer.

A kernel module keeps its own resolution state — a module global that starts
unresolved and becomes a ``{C name: function}`` dict or ``None`` (its numpy
body) on first use, never at construction — and calls :func:`resolve` once:
compile ``source`` with :data:`FLAGS` into a per-user cache (or reuse the cached
file), load it, then let the module's ``checked`` callable declare every
signature and demand the right answer on a self-check.  Any failure (no ``cc``,
``CC=false``, no writable cache, a load error, a wrong answer) yields ``None``:
a library loads whole or not at all, and one library's failure never disables
another (``repro.gnn._native``'s edge pass, ``repro.ddm._native``'s Schwarz
apply).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional

__all__ = ["FLAGS", "load_library", "resolve"]

#: fixed here, not tuned to the machine: the cache directory may be shared.  No -march: a source that
#: gains from a wider vector unit carries its own target_clones and the CPU picks at load time
#: (_edge_pass.c: AVX2 on x86-64 glibc, the f64 edge sweep -40% on a Sapphire Rapids, same bytes)
FLAGS = ["-O3", "-ffp-contract=off", "-falign-functions=64", "-shared", "-fPIC"]


def load_library(source: Path) -> ctypes.CDLL:
    """The shared object of ``source`` from the first usable cache root, compiled if absent.

    The file name hashes the source, ``cc --version`` and :data:`FLAGS`, so a
    stale build is never reused; a fresh one is compiled to a temporary name and
    published with ``os.replace``, so racing workers never load half a file.
    """
    cc = shlex.split(os.environ.get("CC") or "cc")
    version = subprocess.run(cc + ["--version"], capture_output=True, check=True, timeout=60).stdout
    digest = hashlib.sha256(source.read_bytes() + version + " ".join(FLAGS).encode()).hexdigest()[:20]
    roots = (os.environ.get("XDG_CACHE_HOME"), os.path.expanduser("~/.cache"), tempfile.gettempdir())
    for root in filter(None, roots):
        target = Path(root, "repro-ddm-gnn", f"{source.stem.lstrip('_')}-{digest}.so")
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
            subprocess.run(cc + FLAGS + [str(source), "-o", scratch], capture_output=True, check=True, timeout=300)
            os.replace(scratch, target)
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)
        return ctypes.CDLL(str(target))
    raise OSError("no writable cache directory")


def resolve(source: Path, checked: Callable[[ctypes.CDLL], Dict[str, Callable]]) -> Optional[Dict[str, Callable]]:
    """``checked(library)`` — the declared, self-checked functions — or None if anything failed."""
    try:
        return checked(load_library(source))
    except Exception:  # the contract above: whatever went wrong, the numpy body runs
        return None
