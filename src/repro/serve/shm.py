"""Shared-memory bundles: one copy of the big operators for N workers.

The sharded serving layer (:mod:`repro.serve.shard`) pre-forks worker
processes; without sharing, every worker would hold its own copy of the
problem's CSR arrays and the checkpoint weights.  A bundle is one
:mod:`repro.serve.proto` frame written into one
:class:`multiprocessing.shared_memory.SharedMemory` segment, and its
*manifest* is the segment's name plus the frame's length.  An attach
decodes the frame in place: zero-copy, read-only views, so no worker can
corrupt another's operator.

A problem crosses as its dataclass fields, the mesh's too: an array is a
block, a sparse matrix its CSR ``data`` / ``indices`` / ``indptr`` blocks
plus its shape, and a scalar or None goes in the meta.  The rebuild
constructs the class the bundle names and must reproduce the recorded
fingerprint bitwise (same session keys on both sides of the fork).  The
same problem frame (:func:`problem_frame`, :func:`problem_from_frame`) also
crosses a worker's pipe inline, with no segment: that is how a spec's
problem, built in the front process, reaches its one owning worker.  A DSS
crosses as its config and its weights, which the rebuilt model binds
directly, so N workers share one weight copy.

Ownership rules (documented in DESIGN.md): the process that called ``pack``
owns the segment and is the only one allowed to ``unlink`` it; attachers
``close`` their mapping when done.  On Python < 3.13 an attach would
register the segment with the resource tracker, which unlinks it when the
*attaching* process exits — :func:`_attach_untracked` suppresses that
registration so a worker restart can never tear the parent's segment down
(and, since forked workers share the parent's tracker, so a worker attach
can never clobber the parent's own registration).
"""

from __future__ import annotations

import dataclasses
import importlib
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .errors import InvalidRequest
from .proto import Frame, decode_frame, write_frame

__all__ = [
    "SharedArrayBundle",
    "problem_frame",
    "problem_from_frame",
    "problem_to_shm",
    "problem_from_shm",
    "model_to_shm",
    "model_from_shm",
]

#: names of segments created (and therefore tracker-registered) by this
#: process — same-process attaches must not unregister the owner's claim
_OWNED_NAMES: set = set()

#: serialises the register-suppression window in :func:`_attach_untracked`
_ATTACH_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership."""
    if name in _OWNED_NAMES:
        # same-process attach: the owner's tracker registration must stand
        return shared_memory.SharedMemory(name=name)
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # Python >= 3.13
    except TypeError:
        pass
    # Python < 3.13: suppress the tracker *registration* instead of
    # unregistering afterwards.  Forked workers share the parent's tracker
    # process, so a worker-side unregister would delete the parent's claim
    # and the parent's own unlink() would then double-unregister (KeyError
    # noise in the tracker).  Attaches are serialised; packs never run
    # concurrently with attaches in the same process.
    with _ATTACH_LOCK:
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


class SharedArrayBundle:
    """One frame in one shared-memory segment, with a portable manifest.

    Build with :meth:`pack` (owner) or :meth:`attach` (reader) and read the
    decoded :attr:`frame`.  Its views are valid until :meth:`close`: hold a
    reference to the bundle alongside anything built from its arrays.
    """

    def __init__(self, shm: shared_memory.SharedMemory, nbytes: int, owner: bool) -> None:
        self.shm = shm
        self.manifest = {"shm": shm.name, "nbytes": nbytes}
        self.owner = owner
        self.frame: Optional[Frame] = None
        self._closed = False
        if nbytes > shm.size:
            message = f"the manifest claims {nbytes} bytes of a {shm.size}-byte segment"
        else:
            try:
                self.frame = decode_frame(shm.buf[:nbytes])
                return
            except InvalidRequest as error:
                message = str(error)
        # out of the except clause: its traceback no longer holds a view, so
        # the mapping can close
        self.close()
        raise InvalidRequest(f"shared-memory bundle {shm.name!r}: {message}")

    @classmethod
    def pack(cls, kind: str, meta: Dict[str, object],
             arrays: Dict[str, np.ndarray]) -> "SharedArrayBundle":
        """Write one frame into a fresh segment (the calling process owns it)."""
        created = []

        def segment(nbytes: int) -> memoryview:
            created.append(shared_memory.SharedMemory(create=True, size=nbytes))
            _OWNED_NAMES.add(created[0].name)
            return created[0].buf[:nbytes]

        nbytes = len(write_frame(segment, kind, meta, arrays))
        return cls(created[0], nbytes, owner=True)

    @classmethod
    def attach(cls, manifest: Dict[str, object]) -> "SharedArrayBundle":
        """Map an existing segment by manifest; views are zero-copy, read-only."""
        return cls(_attach_untracked(str(manifest["shm"])), int(manifest["nbytes"]), owner=False)

    def close(self) -> None:
        """Drop the views and the mapping; owners also unlink the segment.

        A view still alive (an array of a rebuilt problem or model) keeps
        the mapping until it dies, and stays valid until then.
        """
        if self._closed:
            return
        self._closed = True
        self.frame = None
        self._unmap()
        if self.owner:
            _OWNED_NAMES.discard(self.shm.name)
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    def _unmap(self) -> None:
        """Close the mapping, or, while a view is still exported, let go of
        it so it unmaps with the last view — ``SharedMemory.close`` would
        raise ``BufferError`` now and again when it is collected."""
        try:
            self.shm.close()
        except BufferError:
            self.shm._buf = self.shm._mmap = None
            self.shm.close()  # the file descriptor

    def __del__(self) -> None:
        # collected before its views (a problem whose ``_shm_bundle`` goes
        # first): unmap quietly; an owner's segment stays linked, for
        # close() or, at exit, the resource tracker
        self._unmap()


def _flatten(value, name: str, arrays: Dict[str, np.ndarray]) -> Dict[str, object]:
    """The meta entry of ``value``; its arrays go into ``arrays`` under ``name``."""
    if dataclasses.is_dataclass(value):
        cls = type(value)
        return {"class": f"{cls.__module__}:{cls.__qualname__}",
                "fields": {f.name: _flatten(getattr(value, f.name), f"{name}.{f.name}", arrays)
                           for f in dataclasses.fields(value) if f.init}}
    if sp.issparse(value):
        csr = value.tocsr()
        for part in ("data", "indices", "indptr"):
            arrays[f"{name}.{part}"] = getattr(csr, part)
        return {"csr": name, "shape": list(csr.shape)}
    if isinstance(value, np.ndarray):
        arrays[name] = value
        return {"array": name}
    return {"value": value}


def _rebuild(entry: Dict[str, object], arrays: Dict[str, np.ndarray]):
    """Inverse of :func:`_flatten` over the bundle's views (the parent wrote
    the bundle, so the class it names is trusted)."""
    if "class" in entry:
        module, _, qualname = str(entry["class"]).partition(":")
        cls = importlib.import_module(module)
        for part in qualname.split("."):
            cls = getattr(cls, part)
        return cls(**{name: _rebuild(sub, arrays) for name, sub in entry["fields"].items()})
    if "csr" in entry:
        name = entry["csr"]
        parts = tuple(arrays[f"{name}.{part}"] for part in ("data", "indices", "indptr"))
        return sp.csr_matrix(parts, shape=tuple(entry["shape"]), copy=False)
    if "array" in entry:
        return arrays[entry["array"]]
    return entry["value"]


def _attach_kind(manifest: Dict[str, object], kind: str) -> SharedArrayBundle:
    bundle = SharedArrayBundle.attach(manifest)
    if bundle.frame.kind != kind:
        bundle.close()
        raise ValueError(f"manifest is not a {kind} bundle (kind={bundle.frame.kind!r})")
    return bundle


def problem_frame(problem) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """A problem's frame meta and arrays: its dataclass fields and its fingerprint."""
    arrays: Dict[str, np.ndarray] = {}
    meta = {"problem": _flatten(problem, "problem", arrays), "fingerprint": problem.fingerprint()}
    return meta, arrays


def problem_from_frame(frame: Frame):
    """Rebuild a problem over a :func:`problem_frame` frame's views (no array
    is copied).  Its fingerprint must equal the one the sender recorded, so a
    torn or mismatched frame fails loudly instead of serving wrong operators.
    """
    problem = _rebuild(frame.meta["problem"], frame.arrays)
    if problem.fingerprint() != frame.meta["fingerprint"]:
        raise ValueError("problem fingerprint mismatch: the rebuilt problem "
                         "does not reproduce the packed operator")
    return problem


def problem_to_shm(problem) -> SharedArrayBundle:
    """Pack a problem's frame into shared memory."""
    return SharedArrayBundle.pack("problem", *problem_frame(problem))


def problem_from_shm(manifest: Dict[str, object]):
    """Rebuild a problem over the shared views; it keeps its bundle alive as
    ``_shm_bundle``."""
    bundle = _attach_kind(manifest, "problem")
    try:
        problem = problem_from_frame(bundle.frame)
    except ValueError:
        bundle.close()
        raise
    problem._shm_bundle = bundle
    return problem


def model_to_shm(model) -> SharedArrayBundle:
    """Pack a DSS model's config and weights into shared memory."""
    return SharedArrayBundle.pack("dss-model", {"config": dataclasses.asdict(model.config)},
                                  model.state_dict())


def model_from_shm(manifest: Dict[str, object]):
    """Rebuild a DSS whose parameters are the read-only shared views.

    Inference only reads weights, so N worker processes reference one copy,
    and the model keeps the
    :func:`~repro.solvers.fingerprint.model_fingerprint` of the original.
    """
    from ..gnn.dss import DSS, DSSConfig

    bundle = _attach_kind(manifest, "dss-model")
    model = DSS(DSSConfig(**bundle.frame.meta["config"]))
    try:
        views = model.checked_state(bundle.frame.arrays)
    except (KeyError, ValueError) as exc:
        bundle.close()
        raise ValueError(f"model bundle mismatch: {exc}") from exc
    for name, view in views.items():
        model.params[name].data = view
    model._shm_bundle = bundle  # keep the mapping alive with the model
    return model
