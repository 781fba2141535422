"""Deterministic fault injection for the solver and serving stack.

Robustness claims are only as good as the failures they were tested against.
This module is a small, **seedable** chaos harness: each named fault is a
context-managed patch of one production seam (the GNN preconditioner's
``apply_columns``, a local subdomain solver, session construction, the
session solve itself), installed for exactly the duration of a ``with`` block
and removed afterwards even when the block raises.

All randomness is driven by ``numpy.random.default_rng(seed)``, so a chaos
test that fails replays bit-identically from its seed — there is no
wall-clock or global-RNG dependence anywhere in the harness.

Registered faults:

``gnn-nan-apply``
    :class:`~repro.core.ddm_gnn.DDMGNNPreconditioner` emits NaN corrections
    (all entries, or a seeded random subset) on calls ``after_calls`` up to
    (not including) ``until_calls`` — a call being one ``apply_columns``
    sweep, which a single-vector ``apply`` is too.  Exercises the Krylov
    ``non_finite_preconditioner`` guard and the degradation ladder
    end-to-end.
``local-solver-raise``
    :class:`~repro.ddm.local_solvers.LULocalSolver` raises
    :class:`FaultInjected` from its (one) block solve starting at call
    ``after_calls`` — SuperLU's substitutions, or the native DDM-LU apply
    that runs them (:class:`~repro.ddm._native.SchwarzApply`).  Exercises
    exception-path degradation.
``session-build-fail``
    :class:`~repro.solvers.session.SolverSession` construction raises
    :class:`FaultInjected` for the first ``builds`` attempts.  Exercises the
    serve cache's miss path and breaker accounting for setup failures.
``worker-stall``
    :class:`~repro.solvers.session.SolverSession.solve`/``solve_many`` block
    on an event (bounded by ``max_stall_s``) on calls ``after_calls`` up to
    ``until_calls``, until :meth:`Fault.release` or fault deactivation.
    Exercises deadlines: the reaper must fail the caller's future on time
    even though the worker thread is wedged.

Usage::

    from repro import faults

    with faults.inject("gnn-nan-apply", after_calls=2, seed=0) as fault:
        result = session.solve(b)          # primary fails, ladder serves
        assert result.info["degraded"]
    assert fault.calls > 2                 # the patch really fired

>>> sorted(available_faults())
['gnn-nan-apply', 'local-solver-raise', 'session-build-fail', 'worker-stall']
>>> fault_spec("gnn-nan-apply").description
'DDM-GNN preconditioner emits NaN corrections'
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .ddm.asm import Preconditioner

__all__ = [
    "FaultInjected",
    "Fault",
    "FaultSpec",
    "register_fault",
    "available_faults",
    "fault_spec",
    "inject",
    "install_from_specs",
    "PoisonedPreconditioner",
]


class FaultInjected(RuntimeError):
    """The error raised by injected raise-type faults.

    A distinct type so tests can assert that a failure came from the harness
    and production code is never tempted to catch it specifically.
    """


_INHERITED = object()  # marks a patched attribute its object did not define itself


class Fault:
    """Base class: reversible class-attribute patching with bookkeeping.

    Subclasses implement :meth:`_install` (calling :meth:`patch` for each
    seam) and optionally :meth:`_on_deactivate`.  ``calls`` counts how often
    any patched seam fired — tests assert it to prove the fault was actually
    exercised rather than silently bypassed.
    """

    name: str = "?"

    def __init__(self, after_calls: int = 0, until_calls: Optional[int] = None) -> None:
        if after_calls < 0:
            raise ValueError("after_calls must be >= 0")
        if until_calls is not None and until_calls <= after_calls:
            raise ValueError("until_calls must be > after_calls")
        #: the fault fires on calls ``after_calls <= index < until_calls``.
        #: A bounded window is how a fault installed inside a worker process
        #: (where no test can reach it to deactivate it) clears by itself.
        self.after_calls = int(after_calls)
        self.until_calls = until_calls
        self._patches: List[Tuple[object, str, object]] = []
        self._active = False
        self._lock = threading.Lock()
        self.calls = 0

    # -- bookkeeping ----------------------------------------------------- #
    def patch(self, obj: object, attr: str, replacement: object) -> None:
        """Replace ``obj.attr``, remembering the original for deactivation.

        An attribute ``obj`` only inherits is remembered as absent, so
        deactivation deletes the patch instead of pinning the inherited value
        on ``obj``.
        """
        self._patches.append((obj, attr, vars(obj).get(attr, _INHERITED)))
        setattr(obj, attr, replacement)

    def _count(self) -> int:
        """Thread-safe call counter; returns the index of this call (0-based)."""
        with self._lock:
            index = self.calls
            self.calls += 1
            return index

    def _fires(self) -> bool:
        """Count this call; whether it falls inside the fault's call window."""
        index = self._count()
        return index >= self.after_calls and (
            self.until_calls is None or index < self.until_calls)

    # -- lifecycle ------------------------------------------------------- #
    def activate(self) -> "Fault":
        if self._active:
            raise RuntimeError(f"fault {self.name!r} is already active")
        self._install()
        self._active = True
        return self

    def deactivate(self) -> None:
        if not self._active:
            return
        self._on_deactivate()
        while self._patches:
            obj, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self._active = False

    def _install(self) -> None:
        raise NotImplementedError

    def _on_deactivate(self) -> None:
        """Hook for subclasses (e.g. releasing stalled threads)."""

    def release(self) -> None:
        """No-op for most faults; worker-stall unblocks stalled solves."""


@dataclass(frozen=True)
class FaultSpec:
    """Registry entry: a named fault and its factory."""

    name: str
    description: str
    factory: Callable[..., Fault]


_REGISTRY: Dict[str, FaultSpec] = {}


def register_fault(name: str, description: str):
    """Class decorator registering a :class:`Fault` subclass under ``name``."""

    def decorator(cls):
        if name in _REGISTRY:
            raise ValueError(f"fault {name!r} is already registered")
        cls.name = name
        _REGISTRY[name] = FaultSpec(name=name, description=description, factory=cls)
        return cls

    return decorator


def available_faults() -> List[str]:
    """Registered fault names (sorted)."""
    return sorted(_REGISTRY)


def fault_spec(name: str) -> FaultSpec:
    """The registry entry for ``name`` (KeyError with the valid names if not)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown fault {name!r}; available: {', '.join(available_faults())}"
        ) from None


@contextmanager
def inject(name: str, **kwargs) -> Iterator[Fault]:
    """Activate fault ``name`` for the duration of the ``with`` block.

    The patch is installed on entry and removed on exit — including when the
    body raises — so no chaos test can leak a broken seam into later tests.
    """
    fault = fault_spec(name).factory(**kwargs)
    fault.activate()
    try:
        yield fault
    finally:
        fault.deactivate()


def install_from_specs(
    specs: Sequence[Tuple[str, Dict[str, object]]]
) -> List[Fault]:
    """Activate a list of ``(name, kwargs)`` fault specs; returns the faults.

    The cross-process entry point of the chaos harness: fault objects patch
    class attributes and therefore cannot travel through a fork/pickle
    boundary as live state, but their *specs* are plain data.  A sharded
    worker (:mod:`repro.serve.shard`) receives the parent's specs in its
    bootstrap payload and re-installs them locally before serving, so chaos
    tests exercise the same deterministic faults inside every worker
    process.  On any activation failure the already-installed faults are
    rolled back before the error propagates (no partial chaos).
    """
    installed: List[Fault] = []
    try:
        for name, kwargs in specs:
            installed.append(fault_spec(name).factory(**dict(kwargs)).activate())
    except BaseException:
        for fault in reversed(installed):
            fault.deactivate()
        raise
    return installed


# --------------------------------------------------------------------------- #
# the faults
# --------------------------------------------------------------------------- #
@register_fault("gnn-nan-apply", "DDM-GNN preconditioner emits NaN corrections")
class GNNNaNApplyFault(Fault):
    """Poison DDM-GNN corrections with NaN from call ``after_calls`` on.

    ``fraction`` < 1 poisons a seeded random subset of entries (one NaN is
    enough to trip the Krylov non-finite guard); the default poisons all.
    """

    def __init__(self, after_calls: int = 0, fraction: float = 1.0, seed: int = 0,
                 until_calls: Optional[int] = None) -> None:
        super().__init__(after_calls, until_calls)
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.fraction = float(fraction)
        self.rng = np.random.default_rng(seed)

    def _poison(self, z: np.ndarray) -> np.ndarray:
        z = np.array(z, dtype=np.float64, copy=True)
        if self.fraction >= 1.0:
            z[...] = np.nan
        else:
            flat = z.reshape(-1)
            count = max(1, int(self.fraction * flat.size))
            with self._lock:
                idx = self.rng.choice(flat.size, size=count, replace=False)
            flat[idx] = np.nan
        return z

    def _install(self) -> None:
        from .core.ddm_gnn import DDMGNNPreconditioner

        fault = self
        original = DDMGNNPreconditioner.apply_columns

        def apply_columns(self, residuals):
            z = original(self, residuals)
            if fault._fires():
                z = fault._poison(z)
            return z

        self.patch(DDMGNNPreconditioner, "apply_columns", apply_columns)


@register_fault("local-solver-raise", "LU local subdomain solver raises")
class LocalSolverRaiseFault(Fault):
    """Make the LU local solver's block solve raise from call ``after_calls``."""

    def __init__(self, after_calls: int = 0) -> None:
        super().__init__(after_calls)

    def _install(self) -> None:
        from .ddm._native import SchwarzApply
        from .ddm.local_solvers import LULocalSolver

        fault = self

        def raising(original):
            def solve(self, *args, **kwargs):
                if fault._fires():
                    raise FaultInjected("injected LU local-solver failure")
                return original(self, *args, **kwargs)
            return solve

        self.patch(LULocalSolver, "solve_stacked_columns", raising(LULocalSolver.solve_stacked_columns))
        self.patch(SchwarzApply, "apply_columns", raising(SchwarzApply.apply_columns))


@register_fault("session-build-fail", "SolverSession construction fails")
class SessionBuildFailFault(Fault):
    """Fail the first ``builds`` session constructions, then recover."""

    def __init__(self, builds: int = 1) -> None:
        super().__init__()
        if builds < 1:
            raise ValueError("builds must be >= 1")
        self.builds = int(builds)

    def _install(self) -> None:
        from .solvers.session import SolverSession

        fault = self
        original_init = SolverSession.__init__

        def __init__(self, *args, **kwargs):
            if fault._count() < fault.builds:
                raise FaultInjected("injected session-build failure")
            original_init(self, *args, **kwargs)

        self.patch(SolverSession, "__init__", __init__)


@register_fault("worker-stall", "SolverSession solves block until released")
class WorkerStallFault(Fault):
    """Block ``solve``/``solve_many`` on an event, bounded by ``max_stall_s``.

    The bound guarantees no test hangs forever even if it forgets to
    :meth:`release`; deactivation always releases.
    """

    def __init__(self, max_stall_s: float = 30.0, after_calls: int = 0,
                 until_calls: Optional[int] = None) -> None:
        super().__init__(after_calls, until_calls)
        if max_stall_s <= 0:
            raise ValueError("max_stall_s must be positive")
        self.max_stall_s = float(max_stall_s)
        self._event = threading.Event()

    def release(self) -> None:
        """Unblock all stalled (and future) solves."""
        self._event.set()

    def _on_deactivate(self) -> None:
        self.release()

    def _install(self) -> None:
        from .solvers.session import SolverSession

        fault = self

        def wrap(original):
            def solve(self, *args, **kwargs):
                if fault._fires():
                    fault._event.wait(fault.max_stall_s)
                return original(self, *args, **kwargs)

            return solve

        self.patch(SolverSession, "solve", wrap(SolverSession.solve))
        self.patch(SolverSession, "solve_many", wrap(SolverSession.solve_many))


# --------------------------------------------------------------------------- #
# deterministic per-column poisoning for lockstep tests
# --------------------------------------------------------------------------- #
class PoisonedPreconditioner(Preconditioner):
    """Wrap a preconditioner, poisoning chosen columns of one apply call.

    On call number ``on_call`` — a call being one ``apply_columns`` block,
    which a single-vector ``apply`` is too (its one column is column ``0``)
    — the selected ``columns`` of the result are set to ``value`` (NaN by
    default).  All other calls pass through untouched, so in a lockstep run
    poisoned columns fail with ``non_finite_preconditioner`` while the
    survivors' arithmetic is untouched — the basis of the bit-identity chaos
    tests.

    >>> import numpy as np
    >>> class Ident:
    ...     def apply(self, r): return np.asarray(r, dtype=float)
    ...     def apply_columns(self, R): return np.asarray(R, dtype=float)
    >>> poisoned = PoisonedPreconditioner(Ident(), columns=(1,), on_call=0)
    >>> Z = poisoned.apply_columns(np.ones((3, 2)))
    >>> bool(np.isnan(Z[:, 1]).all()), bool(np.isfinite(Z[:, 0]).all())
    (True, True)
    >>> bool(np.isfinite(poisoned.apply_columns(np.ones((3, 2)))).all())  # later calls clean
    True
    """

    def __init__(self, inner, columns: Sequence[int] = (0,), on_call: int = 0,
                 value: float = np.nan) -> None:
        self.inner = inner
        self.columns = tuple(int(c) for c in columns)
        self.on_call = int(on_call)
        self.value = float(value)
        self._calls = 0
        self._lock = threading.Lock()

    def _next_call(self) -> int:
        with self._lock:
            index = self._calls
            self._calls += 1
            return index

    @property
    def shape(self):
        return self.inner.shape

    @property
    def linear(self) -> bool:
        """Forwarded, so the Krylov recurrence is the wrapped preconditioner's."""
        return getattr(self.inner, "linear", True)

    def apply_columns(self, residuals: np.ndarray) -> np.ndarray:
        z = self.inner.apply_columns(residuals)
        if self._next_call() == self.on_call:
            z = np.array(z, dtype=np.float64, copy=True)
            for column in self.columns:
                if 0 <= column < z.shape[1]:
                    z[:, column] = self.value
        return z
