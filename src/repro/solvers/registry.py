"""Decorator registries for Krylov methods and preconditioner factories.

These mirror :mod:`repro.problems.registry`: solver components are requested
by name, and new methods plug in with a decorator — no call-site changes in
the session layer, the benchmarks or the experiment harness.

Two registries live here:

* **Krylov methods** (``cg``, ``gmres``): a method is a callable
  ``solve(matrix, rhs, preconditioner=None, initial_guess=None,
  tolerance=..., max_iterations=None, **kwargs) -> SolveResult``.  Extra
  keyword arguments (e.g. GMRES ``restart``) flow in through
  :attr:`~repro.solvers.config.SolverConfig.krylov_kwargs`.
* **Preconditioner factories** (``ddm-gnn``, ``ddm-lu``, ``ddm-jacobi``,
  ``ic0``, ``none``): a factory is a callable
  ``build(problem, config, *, decomposition=None, model=None) ->
  Preconditioner``.  The spec declares what the factory needs
  (``needs_decomposition``, ``needs_model``) so the session builds exactly
  the setup stages the method requires — ``ic0`` never partitions a mesh,
  ``ddm-lu`` never loads a DSS checkpoint.

Registering and looking up:

>>> from repro.solvers import available_krylov_methods, available_preconditioners
>>> [m for m in ("cg", "gmres") if m in available_krylov_methods()]
['cg', 'gmres']
>>> sorted(set(available_preconditioners()) & {"ddm-gnn", "ddm-lu", "ic0"})
['ddm-gnn', 'ddm-lu', 'ic0']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "KrylovSpec",
    "PreconditionerSpec",
    "register_krylov",
    "register_preconditioner",
    "krylov_spec",
    "preconditioner_spec",
    "available_krylov_methods",
    "available_preconditioners",
]

#: solve(matrix, rhs, preconditioner=..., initial_guess=..., tolerance=...,
#: max_iterations=..., **kwargs) -> SolveResult
KrylovSolve = Callable[..., object]
#: build(problem, config, *, decomposition=None, model=None) -> Preconditioner
PreconditionerFactory = Callable[..., object]


def _summary(description: str, obj: object) -> str:
    """An explicit description, or the first docstring line of the callable."""
    if description:
        return description
    doc = (getattr(obj, "__doc__", None) or "").strip()
    return doc.splitlines()[0] if doc else ""


@dataclass(frozen=True)
class KrylovSpec:
    """Registry entry for one Krylov method."""

    name: str
    solve: KrylovSolve
    description: str = ""
    #: True when the method assumes a symmetric (SPD) operator, e.g. CG.
    symmetric_only: bool = False
    default_kwargs: Dict[str, object] = field(default_factory=dict)
    #: optional fused multi-RHS implementation
    #: ``lockstep(matrix, rhs_batch, preconditioner=..., initial_guess=...,
    #: tolerance=..., max_iterations=...) -> List[SolveResult]`` whose per-RHS
    #: results are bit-identical to ``solve`` run on each RHS alone; used by
    #: ``SolverSession.solve_many`` and the request micro-batching in
    #: :mod:`repro.serve`
    lockstep: Optional[Callable[..., object]] = None


@dataclass(frozen=True)
class PreconditionerSpec:
    """Registry entry for one preconditioner factory."""

    name: str
    build: PreconditionerFactory
    description: str = ""
    #: the factory consumes an overlapping mesh decomposition (DDM family)
    needs_decomposition: bool = False
    #: the factory consumes a trained model (or a checkpoint to load one from)
    needs_model: bool = False
    #: the method is only valid on symmetric (SPD) operators, e.g. IC(0)
    spd_only: bool = False


_KRYLOV: Dict[str, KrylovSpec] = {}
_PRECONDITIONERS: Dict[str, PreconditionerSpec] = {}


def register_krylov(
    name: str,
    description: str = "",
    symmetric_only: bool = False,
    lockstep: Optional[Callable[..., object]] = None,
    **default_kwargs,
) -> Callable[[KrylovSolve], KrylovSolve]:
    """Decorator registering a Krylov method under ``name``.

    ``default_kwargs`` are merged under the caller's ``krylov_kwargs`` at
    solve time, so one implementation can be registered under several names
    with different presets.  ``lockstep`` optionally attaches a fused
    multi-RHS implementation (see :class:`KrylovSpec`).
    """

    def decorator(solve: KrylovSolve) -> KrylovSolve:
        if name in _KRYLOV:
            raise ValueError(f"Krylov method '{name}' is already registered")
        _KRYLOV[name] = KrylovSpec(
            name=name,
            solve=solve,
            description=_summary(description, solve),
            symmetric_only=symmetric_only,
            default_kwargs=dict(default_kwargs),
            lockstep=lockstep,
        )
        return solve

    return decorator


def register_preconditioner(
    name: str,
    description: str = "",
    needs_decomposition: bool = False,
    needs_model: bool = False,
    spd_only: bool = False,
) -> Callable[[PreconditionerFactory], PreconditionerFactory]:
    """Decorator registering a preconditioner factory under ``name``."""

    def decorator(build: PreconditionerFactory) -> PreconditionerFactory:
        if name in _PRECONDITIONERS:
            raise ValueError(f"preconditioner '{name}' is already registered")
        _PRECONDITIONERS[name] = PreconditionerSpec(
            name=name,
            build=build,
            description=_summary(description, build),
            needs_decomposition=needs_decomposition,
            needs_model=needs_model,
            spd_only=spd_only,
        )
        return build

    return decorator


def available_krylov_methods() -> List[str]:
    """Sorted names of every registered Krylov method."""
    return sorted(_KRYLOV)


def available_preconditioners() -> List[str]:
    """Sorted names of every registered preconditioner factory."""
    return sorted(_PRECONDITIONERS)


def krylov_spec(name: str) -> KrylovSpec:
    """The :class:`KrylovSpec` registered under ``name``.

    Raises :class:`ValueError` (not ``KeyError``) on unknown names so solver
    construction surfaces a configuration error uniformly.
    """
    try:
        return _KRYLOV[name]
    except KeyError:
        raise ValueError(
            f"unknown Krylov method '{name}'; available: {', '.join(available_krylov_methods())}"
        ) from None


def preconditioner_spec(name: str) -> PreconditionerSpec:
    """The :class:`PreconditionerSpec` registered under ``name``."""
    try:
        return _PRECONDITIONERS[name]
    except KeyError:
        raise ValueError(
            f"unknown preconditioner kind '{name}'; "
            f"available: {', '.join(available_preconditioners())}"
        ) from None
