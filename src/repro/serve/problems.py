"""Problem resolution for serve requests: spec dict → assembled ``Problem``.

HTTP clients cannot ship an assembled sparse operator, so a request names a
problem *spec* — the registered family plus the deterministic generation
knobs — and the service assembles (and caches) the problem server-side::

    {"family": "poisson", "target_n": 640, "element_size": 0.07,
     "seed": 0, "kwargs": {}}

Resolution is deterministic: the seed feeds one RNG that drives both mesh
generation and the family factory, so the same spec always yields the same
mesh, operator and right-hand side — and therefore the same
:meth:`~repro.fem.problem.Problem.fingerprint`, which is what lets spec-based
requests share cached sessions.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from ..fem.problem import Problem
from ..gnn.checkpoint import config_hash
from ..mesh.shapes import mesh_for_target_size
from ..problems import make_problem, problem_spec

__all__ = ["ProblemCache", "build_problem_from_spec", "DEFAULT_PROBLEM_SPEC", "PROBLEM_CAPACITY"]

DEFAULT_PROBLEM_SPEC: Dict[str, object] = {
    "family": "poisson",
    "target_n": 400,
    "element_size": 0.07,
    "seed": 0,
}

#: problems a :class:`ProblemCache` keeps, and a shard worker holds (see
#: :mod:`repro.serve.shard`)
PROBLEM_CAPACITY = 16

_SPEC_KEYS = frozenset({"family", "target_n", "element_size", "seed", "kwargs"})


def _normalise_spec(spec: Optional[Dict]) -> Dict[str, object]:
    spec = dict(spec or {})
    unknown = sorted(set(spec) - _SPEC_KEYS)
    if unknown:
        raise ValueError(
            f"unknown problem-spec fields: {unknown} (known: {sorted(_SPEC_KEYS)})"
        )
    merged = dict(DEFAULT_PROBLEM_SPEC)
    merged.update({k: v for k, v in spec.items() if v is not None})
    merged["kwargs"] = dict(merged.get("kwargs") or {})
    merged["target_n"] = int(merged["target_n"])
    merged["element_size"] = float(merged["element_size"])
    merged["seed"] = int(merged["seed"])
    if merged["target_n"] < 4:
        raise ValueError("target_n must be >= 4")
    return merged


def build_problem_from_spec(spec: Optional[Dict]) -> Problem:
    """Assemble the problem a spec describes (deterministic in the seed).

    Families registered with ``dim=3`` (``poisson3d``, ``heat3d``, …) resolve
    onto a deterministic structured tetrahedral box mesh sized by
    ``target_n`` — no RNG touches 3D mesh generation, so every worker
    reproduces the same mesh (and fingerprint) bit-for-bit.
    """
    spec = _normalise_spec(spec)
    rng = np.random.default_rng(spec["seed"])
    family = str(spec["family"])
    if problem_spec(family).dim == 3:
        return make_problem(family, rng=rng, **{**spec["kwargs"], "target_nodes": max(spec["target_n"], 8)})
    mesh = mesh_for_target_size(spec["target_n"], element_size=spec["element_size"], rng=rng)
    return make_problem(family, mesh=mesh, rng=rng, **spec["kwargs"])


class ProblemCache:
    """Small LRU of assembled problems keyed by the spec's canonical hash.

    Mesh generation + assembly costs as much as solver setup: at n = 866 a
    build is ≈ 25–27 ms against ≈ 15–20 ms for a ``ddm-lu`` ``prepare``,
    and at n ≈ 515k it is ≈ 11.6 s.  A serving process typically sees a
    handful of distinct problem specs, so a small cache removes re-assembly
    from the request path; the sharded service builds a spec's problem here
    only, in the front process, and ships the arrays to the owning worker.
    Thread-safe; assembly runs under the lock (it is rare and bounded, and a
    double build would waste more than it saves).
    """

    def __init__(self, capacity: int = PROBLEM_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._problems: "OrderedDict[str, Problem]" = OrderedDict()
        self._lock = threading.Lock()

    def resolve(self, spec: Optional[Dict]) -> Problem:
        spec = _normalise_spec(spec)
        key = config_hash(spec)
        with self._lock:
            problem = self._problems.get(key)
            if problem is not None:
                self._problems.move_to_end(key)
                return problem
            problem = build_problem_from_spec(spec)
            self._problems[key] = problem
            while len(self._problems) > self.capacity:
                self._problems.popitem(last=False)
            return problem

    def __len__(self) -> int:
        with self._lock:
            return len(self._problems)
