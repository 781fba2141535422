"""Registry-driven solver sessions with amortised setup and multi-RHS serving.

This package is the solver surface of the repository — the ``setup``/``apply``
split of production preconditioner libraries, applied to the paper's hybrid
DDM-GNN solver:

* :func:`~repro.solvers.session.prepare` performs all operator-dependent
  setup exactly once (partitioning, local factorisations, coarse space,
  compiled DSS inference plans) and returns a
  :class:`~repro.solvers.session.SolverSession`;
* the session serves any number of right-hand sides through
  :meth:`~repro.solvers.session.SolverSession.solve` and
  :meth:`~repro.solvers.session.SolverSession.solve_many` with zero re-setup;
* Krylov methods (``cg``, ``gmres``) and preconditioners
  (``ddm-gnn``, ``ddm-lu``, ``ddm-jacobi``, ``ic0``, ``none``) are resolved
  by name through decorator registries mirroring
  :mod:`repro.problems.registry`, so new methods plug in with no call-site
  changes;
* :class:`~repro.solvers.config.SolverConfig` round-trips through dict/JSON
  and is the single construction path shared by the experiment harness, the
  benchmarks and the checkpoint loaders.

Typical usage::

    from repro.solvers import SolverConfig, prepare

    session = prepare(problem, SolverConfig(preconditioner="ddm-lu",
                                            krylov="gmres", tolerance=1e-8))
    result = session.solve()              # first RHS (setup already paid)
    batch = session.solve_many(B)         # 16 more RHS, zero re-setup
"""

from . import methods, preconditioners  # noqa: F401  (populate the registries)
from .config import SolverConfig
from .fingerprint import checkpoint_fingerprint, model_fingerprint, session_key
from .registry import (
    KrylovSpec,
    PreconditionerSpec,
    available_krylov_methods,
    available_preconditioners,
    krylov_spec,
    preconditioner_spec,
    register_krylov,
    register_preconditioner,
)
from .session import MultiSolveResult, SolverSession, prepare
from .shm import (
    SharedArrayBundle,
    model_from_shm,
    model_to_shm,
    problem_from_shm,
    problem_to_shm,
)

__all__ = [
    "SolverConfig",
    "SolverSession",
    "MultiSolveResult",
    "prepare",
    "SharedArrayBundle",
    "problem_to_shm",
    "problem_from_shm",
    "model_to_shm",
    "model_from_shm",
    "register_krylov",
    "register_preconditioner",
    "krylov_spec",
    "preconditioner_spec",
    "KrylovSpec",
    "PreconditionerSpec",
    "available_krylov_methods",
    "available_preconditioners",
    "session_key",
    "model_fingerprint",
    "checkpoint_fingerprint",
]
