"""Declarative solver configuration — the one way every caller builds a solve.

A :class:`SolverConfig` names a preconditioner and a Krylov method from the
:mod:`repro.solvers.registry` registries, plus every knob of the setup phase
(sub-domain size, overlap, levels) and of the iteration phase (tolerance,
iteration cap).  It round-trips through plain dicts and JSON, so the
experiment harness, the benchmarks and ad-hoc scripts all construct sessions
through the same code path::

    config = SolverConfig(preconditioner="ddm-lu", krylov="gmres",
                          krylov_kwargs={"restart": 30})
    config = SolverConfig.from_dict(json.load(open("solver.json")))
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["SolverConfig"]


@dataclass
class SolverConfig:
    """Configuration of a solver session.

    Attributes
    ----------
    preconditioner:
        Registered preconditioner kind (see
        :func:`~repro.solvers.registry.available_preconditioners`):
        ``"ddm-gnn"``, ``"ddm-lu"``, ``"ddm-jacobi"``, ``"ic0"`` or
        ``"none"``.
    krylov:
        Registered Krylov method (``"cg"`` or ``"gmres"``).
    krylov_kwargs:
        Extra keyword arguments forwarded to the Krylov method (e.g.
        ``{"restart": 30}`` for GMRES).
    subdomain_size:
        Target sub-domain size Ns; used when ``num_subdomains`` is None.
    num_subdomains:
        Explicit number of sub-domains K (overrides ``subdomain_size``).
    overlap:
        Overlap width in graph layers (the paper uses 2, and 4 in ablations).
    levels:
        1 or 2 (two-level adds the Nicolaides coarse space).
    tolerance:
        Relative residual stopping threshold of the Krylov method: a finite
        number ``>= 0``.
    max_iterations:
        Iteration cap of the Krylov method: an int ``>= 1``, or None for the
        method's default (``10 n``).
    gnn_equilibrate:
        Diagonal equilibration of the DDM-GNN local solves; None (default)
        enables it exactly when the problem carries a κ field.
    jacobi_sweeps:
        Sweeps of the Jacobi local solver (``ddm-jacobi`` only).
    precision:
        Inference precision of the DDM-GNN local solves: ``"f64"`` (default,
        agreeing with ``DSS.predict`` to 1e-12) or ``"f32"`` (float32-staged
        weights and scratch, casts at the source/output boundary; the Krylov
        iteration itself always runs in float64).  Other preconditioner
        families are exact solvers and ignore it.  The field enters
        :meth:`config_hash` — and therefore the serve-layer session keys —
        so cached f32 and f64 sessions never mix.
    seed:
        Seed for the partitioner.
    fallback:
        Degradation ladder: an ordered list of preconditioner kinds to try
        when a solve with the primary preconditioner fails (raises, breaks
        down, stagnates or runs out of iterations).  The session lazily
        prepares rung ``i`` on first use with the *same* partition seed and
        tolerances, re-solves, and stamps ``info["degraded"]``/``info["rung"]``
        on the result.  A typical production policy is
        ``fallback=["ddm-lu"]`` — the exact Schwarz path that cannot break
        down.  Enters :meth:`config_hash` (a config with a ladder is a
        different serving contract than one without).
    stagnation_window:
        Consecutive iterations without a new best relative residual before
        the Krylov method stops with ``failure_reason="stagnation"``.
        ``None`` disables the guard.  The default (250) is far beyond any
        healthy preconditioned solve in this repository, so it only fires on
        genuinely stalled iterations (e.g. a broken checkpoint).
    checkpoint:
        Optional path to a versioned checkpoint
        (:mod:`repro.gnn.checkpoint`); when the preconditioner needs a model
        and none is passed to ``prepare``, it is loaded from here.

    A config holds no telemetry option: a solve's record is its
    :class:`~repro.krylov.result.SolveResult` (``residual_history``, ``info``)
    and, when tracing is on, its ``session.solve`` span (:mod:`repro.obs`).
    """

    preconditioner: str = "ddm-gnn"
    krylov: str = "cg"
    krylov_kwargs: Dict[str, object] = field(default_factory=dict)
    subdomain_size: int = 1000
    num_subdomains: Optional[int] = None
    overlap: int = 2
    levels: int = 2
    tolerance: float = 1e-6
    max_iterations: Optional[int] = None
    gnn_equilibrate: Optional[bool] = None
    jacobi_sweeps: int = 10
    precision: str = "f64"
    seed: int = 0
    fallback: List[str] = field(default_factory=list)
    stagnation_window: Optional[int] = 250
    checkpoint: Optional[str] = None

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if self.levels not in (1, 2):
            raise ValueError(
                f"levels must be 1 (one-level ASM) or 2 (Nicolaides coarse space), "
                f"got {self.levels!r}"
            )
        if self.precision not in ("f64", "f32"):
            raise ValueError(
                f"precision must be 'f64' or 'f32', got {self.precision!r}"
            )
        if isinstance(self.fallback, str):
            raise ValueError(
                "fallback must be a list of preconditioner kinds, not a string "
                f"(got {self.fallback!r})"
            )
        self.fallback = list(self.fallback)
        if any(not isinstance(kind, str) for kind in self.fallback):
            raise ValueError(f"fallback entries must be strings, got {self.fallback!r}")
        if self.preconditioner in self.fallback:
            raise ValueError(
                f"fallback may not repeat the primary preconditioner "
                f"{self.preconditioner!r}"
            )
        if len(set(self.fallback)) != len(self.fallback):
            # duplicates would make a rung's own config invalid when the
            # ladder promotes it (its remaining fallback would repeat it)
            raise ValueError(f"fallback entries must be unique, got {self.fallback!r}")
        if self.stagnation_window is not None and self.stagnation_window < 1:
            raise ValueError(
                f"stagnation_window must be a positive int or None, "
                f"got {self.stagnation_window!r}"
            )
        if (not isinstance(self.tolerance, numbers.Real) or isinstance(self.tolerance, bool)
                or not math.isfinite(self.tolerance) or self.tolerance < 0):
            raise ValueError(f"tolerance must be a finite number >= 0, got {self.tolerance!r}")
        if self.max_iterations is not None and (
                not isinstance(self.max_iterations, numbers.Integral)
                or isinstance(self.max_iterations, bool) or self.max_iterations < 1):
            raise ValueError(
                f"max_iterations must be an int >= 1 or None, got {self.max_iterations!r}"
            )

    def config_hash(self) -> str:
        """Stable SHA-256 over every solver-behaviour field.

        The ``checkpoint`` *path* is excluded: the session cache key
        (:func:`repro.solvers.fingerprint.session_key`) hashes the
        checkpoint's **content** separately, so moving a checkpoint file does
        not change a session's identity while retraining it does.

        >>> a = SolverConfig(preconditioner="ddm-lu")
        >>> b = SolverConfig(preconditioner="ddm-lu", checkpoint="elsewhere.npz")
        >>> a.config_hash() == b.config_hash()
        True
        >>> a.config_hash() == SolverConfig(preconditioner="ic0").config_hash()
        False
        """
        from ..gnn.checkpoint import config_hash

        data = self.to_dict()
        data.pop("checkpoint", None)
        return config_hash(data)

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-serialisable).

        >>> SolverConfig(krylov="gmres").to_dict()["krylov"]
        'gmres'
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "SolverConfig":
        """Build a config from a plain dict, rejecting unknown fields.

        >>> SolverConfig.from_dict({"preconditioner": "ddm-lu", "overlap": 3}).overlap
        3
        >>> try:
        ...     SolverConfig.from_dict({"preconditionner": "typo"})
        ... except ValueError as error:
        ...     print(str(error).split(" (")[0])
        unknown solver-config fields: ['preconditionner']
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown solver-config fields: {unknown} (known: {sorted(known)})"
            )
        return cls(**data)

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "SolverConfig":
        """Load a config from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"solver config '{path}' must be a JSON object")
        return cls.from_dict(data)

    def save_json(self, path: Union[str, Path]) -> None:
        """Write the config as indented JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
