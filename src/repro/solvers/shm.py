"""Shared-memory array bundles: one copy of the big operators for N workers.

The sharded serving layer (:mod:`repro.serve.shard`) pre-forks worker
processes; without sharing, every worker would hold its own copy of the
problem's CSR arrays and the checkpoint weights — N× the setup RAM for
bit-identical bytes.  This module packs named numpy arrays into a single
:class:`multiprocessing.shared_memory.SharedMemory` segment with a
JSON-serialisable *manifest* (name → dtype/shape/offset), and attaches
zero-copy **read-only** views in other processes:

* :meth:`SharedArrayBundle.pack` — parent side: allocate one segment, copy
  each array in once (64-byte aligned), return the bundle + manifest.
* :meth:`SharedArrayBundle.attach` — worker side: map the segment by name
  and build ``np.frombuffer`` views; no bytes are copied, and the views are
  marked non-writeable so no worker can corrupt another's operator.
* :func:`problem_to_shm` / :func:`problem_from_shm` — a
  :class:`~repro.fem.problem.Problem` round trip that preserves the content
  :meth:`~repro.fem.problem.Problem.fingerprint` **bitwise** (same CSR
  bytes → same fingerprint → same session keys on both sides of the fork).
* :func:`model_to_shm` / :func:`model_from_shm` — DSS checkpoint weights;
  the rebuilt model binds its parameters directly onto the shared views
  (inference only reads weights), so N workers share one weight copy.

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
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..fem.problem import Problem
from ..mesh.mesh import SimplexMesh

__all__ = [
    "SharedArrayBundle",
    "problem_to_shm",
    "problem_from_shm",
    "model_to_shm",
    "model_from_shm",
]

_ALIGN = 64

#: names of segments created (and therefore tracker-registered) by this
#: process — same-process attaches must not unregister the owner's claim
_OWNED_NAMES: set = set()

#: serialises the register-suppression window in :func:`_attach_untracked`
_ATTACH_LOCK = threading.Lock()


def _pad_to(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


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
    """Named arrays in one shared-memory segment, with a portable manifest.

    Build with :meth:`pack` (owner) or :meth:`attach` (reader); access the
    arrays through :attr:`arrays`.  The bundle keeps the underlying
    ``SharedMemory`` alive for as long as any of its views are in use — hold
    a reference to the bundle alongside anything built from its arrays.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 manifest: Dict[str, object],
                 arrays: Dict[str, np.ndarray], owner: bool) -> None:
        self.shm = shm
        self.manifest = manifest
        self.arrays = arrays
        self.owner = owner
        self._closed = False

    # ------------------------------------------------------------------ #
    @classmethod
    def pack(cls, arrays: Dict[str, np.ndarray],
             meta: Optional[Dict[str, object]] = None) -> "SharedArrayBundle":
        """Copy ``arrays`` into one fresh segment (the calling process owns it)."""
        normalised: List[Tuple[str, np.ndarray]] = []
        for name, value in arrays.items():
            array = np.ascontiguousarray(value)
            if array.dtype.byteorder == ">":
                array = array.astype(array.dtype.newbyteorder("<"))
            if array.dtype == object:
                raise ValueError(f"array {name!r} has object dtype (not shareable)")
            normalised.append((str(name), array))

        entries: List[Dict[str, object]] = []
        cursor = 0
        for name, array in normalised:
            cursor = _pad_to(cursor)
            entries.append({
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": cursor,
            })
            cursor += array.nbytes
        total = max(cursor, 1)  # SharedMemory(size=0) is invalid

        shm = shared_memory.SharedMemory(create=True, size=total)
        views: Dict[str, np.ndarray] = {}
        for entry, (name, array) in zip(entries, normalised):
            view = np.frombuffer(
                shm.buf, dtype=np.dtype(str(entry["dtype"])),
                count=array.size, offset=int(entry["offset"]),
            ).reshape(array.shape)
            view[...] = array
            view.flags.writeable = False
            views[name] = view
        manifest = {
            "shm": shm.name,
            "total": total,
            "meta": dict(meta or {}),
            "arrays": entries,
        }
        _OWNED_NAMES.add(shm.name)
        return cls(shm, manifest, views, owner=True)

    @classmethod
    def attach(cls, manifest: Dict[str, object]) -> "SharedArrayBundle":
        """Map an existing segment by manifest; views are zero-copy, read-only."""
        shm = _attach_untracked(str(manifest["shm"]))
        views: Dict[str, np.ndarray] = {}
        for entry in manifest["arrays"]:
            dtype = np.dtype(str(entry["dtype"]))
            shape = tuple(int(dim) for dim in entry["shape"])
            count = 1
            for dim in shape:
                count *= dim
            view = np.frombuffer(
                shm.buf, dtype=dtype, count=count, offset=int(entry["offset"])
            ).reshape(shape)
            view.flags.writeable = False
            views[str(entry["name"])] = view
        return cls(shm, dict(manifest), views, owner=False)

    # ------------------------------------------------------------------ #
    @property
    def meta(self) -> Dict[str, object]:
        return self.manifest.get("meta", {})  # type: ignore[return-value]

    def close(self) -> None:
        """Drop the views and the mapping; owners also unlink the segment.

        After ``close`` the bundle's arrays (and anything still viewing
        them) are invalid — callers must ensure no views escape.
        """
        if self._closed:
            return
        self._closed = True
        self.arrays = {}
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - a view is still exported
            pass
        if self.owner:
            _OWNED_NAMES.discard(self.shm.name)
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass


# --------------------------------------------------------------------------- #
# Problem round trip
# --------------------------------------------------------------------------- #
def _pack_csr(arrays: Dict[str, np.ndarray], prefix: str, matrix: sp.csr_matrix) -> None:
    arrays[f"{prefix}_data"] = matrix.data
    arrays[f"{prefix}_indices"] = np.asarray(matrix.indices, dtype=np.int64)
    arrays[f"{prefix}_indptr"] = np.asarray(matrix.indptr, dtype=np.int64)


def _unpack_csr(arrays: Dict[str, np.ndarray], prefix: str, shape) -> sp.csr_matrix:
    return sp.csr_matrix(
        (arrays[f"{prefix}_data"], arrays[f"{prefix}_indices"], arrays[f"{prefix}_indptr"]),
        shape=tuple(shape), copy=False,
    )


def problem_to_shm(problem: Problem) -> SharedArrayBundle:
    """Pack a problem's operator arrays into shared memory.

    Only the :class:`~repro.fem.problem.Problem` fields the solver stack and
    :meth:`~repro.fem.problem.Problem.fingerprint` consume travel, on a mesh
    of either dimension.  A
    :class:`~repro.timestepping.problem.TimeDependentProblem` also carries its
    step operators (mass, explicit operator, step load, initial state and
    the dt/θ scheme parameters), so a sharded worker can march the same
    trajectory the parent would.  The rebuilt problem's fingerprint is
    bit-equal to the original's.
    """
    from ..timestepping.problem import TimeDependentProblem

    matrix = problem.matrix.tocsr()
    stiffness = problem.stiffness.tocsr()
    cells = np.asarray(problem.mesh.cells, dtype=np.int64)
    arrays: Dict[str, np.ndarray] = {
        "rhs": problem.rhs,
        "nodes": problem.mesh.nodes,
        "cells": cells,
        "boundary_values": problem.boundary_values,
    }
    _pack_csr(arrays, "matrix", matrix)
    _pack_csr(arrays, "stiffness", stiffness)
    if problem.dirichlet_nodes is not None:
        arrays["dirichlet_nodes"] = np.asarray(problem.dirichlet_nodes, dtype=np.int64)
    if problem.node_diffusion is not None:
        arrays["node_diffusion"] = np.asarray(problem.node_diffusion, dtype=np.float64)
    meta = {
        "kind": "problem",
        "matrix_shape": list(matrix.shape),
        "stiffness_shape": list(stiffness.shape),
        "dirichlet_mode": problem.dirichlet_mode,
        "symmetric": bool(problem.symmetric),
        "fingerprint": problem.fingerprint(),
    }
    if isinstance(problem, TimeDependentProblem):
        mass = problem.mass.tocsr()
        explicit = problem.explicit_operator.tocsr()
        _pack_csr(arrays, "mass", mass)
        _pack_csr(arrays, "explicit", explicit)
        arrays["step_load"] = problem.step_load
        arrays["initial_state"] = problem.initial_state
        meta.update({
            "problem_kind": "time-dependent",
            "mass_shape": list(mass.shape),
            "explicit_shape": list(explicit.shape),
            "dt": float(problem.dt),
            "theta": float(problem.theta),
            "lumped_mass": bool(problem.lumped_mass),
        })
    return SharedArrayBundle.pack(arrays, meta=meta)


def problem_from_shm(manifest: Dict[str, object]) -> Problem:
    """Rebuild a problem over the shared views (operator bytes not copied).

    The CSR ``data`` arrays — the bulk of a problem's memory — stay in the
    shared segment; the rebuilt problem keeps its bundle alive via the
    ``_shm_bundle`` attribute.  The manifest's recorded fingerprint is
    verified against the rebuilt problem, so a torn or mismatched segment
    fails loudly instead of serving wrong operators.
    """
    bundle = SharedArrayBundle.attach(manifest)
    meta = bundle.meta
    if meta.get("kind") != "problem":
        bundle.close()
        raise ValueError(f"manifest is not a problem bundle (kind={meta.get('kind')!r})")
    a = bundle.arrays
    matrix = _unpack_csr(a, "matrix", meta["matrix_shape"])
    stiffness = _unpack_csr(a, "stiffness", meta["stiffness_shape"])
    common = dict(
        mesh=SimplexMesh(nodes=a["nodes"], cells=a["cells"]),
        matrix=matrix,
        rhs=a["rhs"],
        stiffness=stiffness,
        boundary_values=a["boundary_values"],
        dirichlet_mode=str(meta["dirichlet_mode"]),
        dirichlet_nodes=a.get("dirichlet_nodes"),
        node_diffusion=a.get("node_diffusion"),
        symmetric=bool(meta["symmetric"]),
    )
    if meta.get("problem_kind") == "time-dependent":
        from ..timestepping.problem import TimeDependentProblem

        problem = TimeDependentProblem(
            **common,
            mass=_unpack_csr(a, "mass", meta["mass_shape"]),
            explicit_operator=_unpack_csr(a, "explicit", meta["explicit_shape"]),
            step_load=a["step_load"],
            initial_state=a["initial_state"],
            dt=float(meta["dt"]),
            theta=float(meta["theta"]),
            lumped_mass=bool(meta["lumped_mass"]),
        )
    else:
        problem = Problem(**common)
    problem._shm_bundle = bundle  # keep the mapping alive with the problem
    expected = meta.get("fingerprint")
    if expected is not None and problem.fingerprint() != expected:
        bundle.close()
        raise ValueError(
            "shared-memory problem fingerprint mismatch: the rebuilt problem "
            "does not reproduce the packed operator"
        )
    return problem


# --------------------------------------------------------------------------- #
# Model (DSS checkpoint weights) round trip
# --------------------------------------------------------------------------- #
def model_to_shm(model) -> SharedArrayBundle:
    """Pack a DSS model's weights (and config) into shared memory.

    Requires ``state_dict()`` and a dataclass ``config`` (the DSS family);
    duck-typed test doubles without them should travel by pickle instead.
    """
    state_dict = getattr(model, "state_dict", None)
    config = getattr(model, "config", None)
    if not callable(state_dict) or config is None or not dataclasses.is_dataclass(config):
        raise ValueError(
            "model_to_shm needs a model with state_dict() and a dataclass "
            f"config, got {type(model).__name__}"
        )
    arrays = {name: np.asarray(value, dtype=np.float64)
              for name, value in state_dict().items()}
    meta = {"kind": "dss-model", "config": dataclasses.asdict(config)}
    return SharedArrayBundle.pack(arrays, meta=meta)


def model_from_shm(manifest: Dict[str, object]):
    """Rebuild a DSS whose parameters are the shared views (weights not copied).

    The parameters are bound directly onto the read-only shared arrays —
    inference only reads weights, so N worker processes reference one copy.
    The model hashes to the same
    :func:`~repro.solvers.fingerprint.model_fingerprint` as the original,
    keeping session keys identical across the process boundary.
    """
    from ..gnn.dss import DSS, DSSConfig

    bundle = SharedArrayBundle.attach(manifest)
    meta = bundle.meta
    if meta.get("kind") != "dss-model":
        bundle.close()
        raise ValueError(f"manifest is not a model bundle (kind={meta.get('kind')!r})")
    model = DSS(DSSConfig(**meta["config"]))
    try:
        views = model.checked_state(bundle.arrays)
    except (KeyError, ValueError) as exc:
        bundle.close()
        raise ValueError(f"model bundle mismatch: {exc}") from exc
    for name, view in views.items():
        model.params[name].data = view
    model._shm_bundle = bundle  # keep the mapping alive with the model
    return model
