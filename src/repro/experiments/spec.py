"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the single source of truth for one end-to-end
run: which problem family to harvest, at what mesh/sub-domain scale, which
DSS architecture to train, for how long, and which global sizes to bench the
resulting preconditioner on.  Specs are plain JSON on disk::

    {
      "name": "perf-smoke",
      "problem_family": "poisson",
      "mesh_element_size": 0.07,
      "subdomain_size": 110,
      "num_iterations": 20,
      "latent_dim": 10,
      "epochs": 6,
      "bench_sizes": [640]
    }

Every field that influences the trained artifact (dataset recipe, model
architecture, training hyper-parameters, seed) feeds the spec's
``config_hash``; cosmetic fields (``name``) and bench-only fields do not, so
re-benching the same model never invalidates a cached checkpoint.  The hash
is the directory name under which all artifacts of the run live, and a
cache key that reuses a trained checkpoint until its recipe changes.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..gnn.checkpoint import config_hash
from ..gnn.dss import DSSConfig
from ..gnn.training import TrainingConfig
from ..solvers.config import SolverConfig

__all__ = ["ExperimentSpec"]

#: spec fields that do NOT affect the trained artifact (excluded from the hash)
_NON_HASH_FIELDS = ("name", "bench_sizes", "bench_repeats", "tolerance")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of a seed→mesh→train→checkpoint→bench experiment."""

    name: str = "experiment"

    # -- dataset (harvested from classical ASM-PCG solves) -------------------
    problem_family: str = "poisson"
    problem_kwargs: Dict = field(default_factory=dict)
    num_global_problems: int = 2
    mesh_element_size: float = 0.1
    mesh_radius: float = 1.0
    subdomain_size: int = 80
    overlap: int = 2

    # -- model architecture ---------------------------------------------------
    num_iterations: int = 10
    latent_dim: int = 10
    alpha: float = 0.1
    edge_attr_dim: int = 3
    node_input_dim: int = 1

    # -- training recipe ------------------------------------------------------
    epochs: int = 4
    batch_size: int = 40
    learning_rate: float = 1e-2
    gradient_clip: float = 1e-2
    scheduler_patience: int = 4
    max_train_samples: Optional[int] = None
    max_validation_samples: int = 40
    seed: int = 0

    # -- bench (does not affect the artifact hash) ----------------------------
    bench_sizes: Tuple[int, ...] = (400,)
    bench_repeats: int = 3
    tolerance: float = 1e-3

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.num_global_problems < 1:
            raise ValueError("num_global_problems must be >= 1")
        object.__setattr__(self, "bench_sizes", tuple(int(n) for n in self.bench_sizes))

    # -- derived configurations ----------------------------------------------
    def dss_config(self) -> DSSConfig:
        return DSSConfig(
            num_iterations=self.num_iterations,
            latent_dim=self.latent_dim,
            alpha=self.alpha,
            seed=self.seed,
            edge_attr_dim=self.edge_attr_dim,
            node_input_dim=self.node_input_dim,
        )

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            gradient_clip=self.gradient_clip,
            scheduler_patience=self.scheduler_patience,
            seed=self.seed,
        )

    def solver_config(self, preconditioner: str, krylov: str = "cg") -> SolverConfig:
        """The :class:`~repro.solvers.config.SolverConfig` this spec benches with.

        This is the single construction path:
        ``prepare(problem, spec.solver_config(kind), model=...)`` builds the
        same session whether the caller is the experiment harness or an
        ad-hoc script.
        """
        return SolverConfig(
            preconditioner=preconditioner,
            krylov=krylov,
            subdomain_size=self.subdomain_size,
            overlap=self.overlap,
            tolerance=self.tolerance,
            max_iterations=4000,
            seed=self.seed,
        )

    # -- identity -------------------------------------------------------------
    @property
    def config_hash(self) -> str:
        """SHA-256 over every artifact-relevant field (full hex digest)."""
        relevant = {
            key: value
            for key, value in dataclasses.asdict(self).items()
            if key not in _NON_HASH_FIELDS
        }
        return config_hash(relevant)

    @property
    def short_hash(self) -> str:
        """First 12 hex chars — the artifact directory name."""
        return self.config_hash[:12]

    # -- (de)serialisation ----------------------------------------------------
    def to_dict(self) -> Dict:
        data = dataclasses.asdict(self)
        data["bench_sizes"] = list(self.bench_sizes)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown experiment-spec fields: {unknown} (known: {sorted(known)})")
        return cls(**data)

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "ExperimentSpec":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"experiment spec '{path}' must be a JSON object")
        return cls.from_dict(data)

    def save_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
