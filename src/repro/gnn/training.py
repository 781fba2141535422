"""Training loop for the DSS model (paper Sec. IV-B).

The reference configuration in the paper: Adam with learning rate 1e-2,
batch size 100, gradient clipping at 1e-2, ``ReduceLROnPlateau`` (factor 0.1),
400 epochs on ~70k local problems.  The :class:`DSSTrainer` reproduces that
pipeline with every quantity configurable so the scaled-down offline runs in
this repository use the same code path.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse.linalg as spla

from ..nn.optim import Adam, clip_grad_norm
from ..obs import trace as obs_trace
from ..nn.schedulers import ReduceLROnPlateau
from .batch import GraphBatch
from .dss import DSS
from .graph import GraphProblem
from .loss import relative_error

__all__ = ["TrainingConfig", "EpochStats", "EvaluationMetrics", "DSSTrainer", "evaluate_model"]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of a DSS training run."""

    epochs: int = 400
    batch_size: int = 100
    learning_rate: float = 1e-2
    gradient_clip: float = 1e-2
    scheduler_factor: float = 0.1
    scheduler_patience: int = 10
    shuffle: bool = True
    seed: int = 0
    log_every: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")


@dataclass
class EpochStats:
    """Loss/metric record for one epoch."""

    epoch: int
    train_loss: float
    validation_residual: Optional[float] = None
    validation_relative_error: Optional[float] = None
    learning_rate: float = 0.0
    elapsed_time: float = 0.0


@dataclass
class EvaluationMetrics:
    """Test-set metrics reported by the paper (Sec. IV-B and Table II)."""

    residual_mean: float
    residual_std: float
    relative_error_mean: float
    relative_error_std: float
    num_samples: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "residual_mean": self.residual_mean,
            "residual_std": self.residual_std,
            "relative_error_mean": self.relative_error_mean,
            "relative_error_std": self.relative_error_std,
            "num_samples": self.num_samples,
        }


def evaluate_model(model: DSS, problems: Sequence[GraphProblem], batch_size: int = 64) -> EvaluationMetrics:
    """Evaluate residual norms and relative errors against exact LU solutions.

    * residual — ``sqrt(mean((A u − c)²))`` of the normalised local problem,
      the quantity the paper reports as "Residual";
    * relative error — ‖u − u*‖/‖u*‖ where u* is the exact solution of the
      local problem computed by sparse LU.
    """
    problems = list(problems)
    if not problems:
        raise ValueError("cannot evaluate on an empty problem list")
    predictions = model.predict_batched(problems, batch_size=batch_size)
    residuals: List[float] = []
    rel_errors: List[float] = []
    for problem, prediction in zip(problems, predictions):
        residuals.append(problem.residual_norm(prediction))
        if problem.matrix is not None:
            exact = spla.spsolve(problem.matrix.tocsc(), problem.source)
            rel_errors.append(relative_error(prediction, exact))
    return EvaluationMetrics(
        residual_mean=float(np.mean(residuals)),
        residual_std=float(np.std(residuals)),
        relative_error_mean=float(np.mean(rel_errors)) if rel_errors else float("nan"),
        relative_error_std=float(np.std(rel_errors)) if rel_errors else float("nan"),
        num_samples=len(problems),
    )


class DSSTrainer:
    """Mini-batch trainer for :class:`DSS` with the paper's optimisation recipe."""

    def __init__(self, model: DSS, config: TrainingConfig = TrainingConfig()) -> None:
        self.model = model
        self.config = config
        self.optimizer = Adam(model.parameters(), lr=config.learning_rate)
        self.scheduler = ReduceLROnPlateau(
            self.optimizer, factor=config.scheduler_factor, patience=config.scheduler_patience
        )
        self.history: List[EpochStats] = []
        self.epochs_done = 0
        # the shuffle stream lives on the trainer (not in `fit`) so that a
        # checkpointed run resumes mid-stream and bit-matches an uninterrupted one
        self._rng: Optional[np.random.Generator] = None

    # ------------------------------------------------------------------ #
    def train_epoch(self, problems: Sequence[GraphProblem], rng: np.random.Generator) -> float:
        """One pass over the training set; returns the mean per-batch loss."""
        problems = list(problems)
        order = np.arange(len(problems))
        if self.config.shuffle:
            rng.shuffle(order)
        losses: List[float] = []
        batch_size = self.config.batch_size
        # one feature-width scan for the whole epoch instead of one per chunk
        edge_dim, node_dim = GraphBatch.feature_dims(problems) if problems else (3, 0)
        for start in range(0, len(problems), batch_size):
            chunk = [problems[i] for i in order[start:start + batch_size]]
            batch = GraphBatch.from_graphs(chunk, edge_attr_dim=edge_dim, node_attr_dim=node_dim)
            self.optimizer.zero_grad()
            loss = self.model.training_loss(batch)
            loss.backward()                                  # releases the forward's cache
            value = loss.item()
            grad_norm = clip_grad_norm(self.optimizer.parameters, self.config.gradient_clip)
            # ``nan > max_norm`` is false, so clipping lets a non-finite
            # gradient through and Adam would write it into every weight and
            # both moment slots; stop before the step, with the model intact
            if not (math.isfinite(value) and math.isfinite(grad_norm)):
                raise FloatingPointError(
                    f"non-finite training step {len(losses) + 1} of epoch {self.epochs_done + 1}: "
                    f"loss {value}, gradient norm {grad_norm}; weights and optimizer state "
                    "are those of the last finite step"
                )
            self.optimizer.step()
            losses.append(value)
        return float(np.mean(losses)) if losses else 0.0

    def fit(
        self,
        train_problems: Sequence[GraphProblem],
        validation_problems: Optional[Sequence[GraphProblem]] = None,
        epochs: Optional[int] = None,
        verbose: bool = False,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        checkpoint_metadata: Optional[Dict] = None,
    ) -> List[EpochStats]:
        """Train until epoch ``epochs`` (total), with optional per-epoch validation.

        A fresh trainer runs the full ``epochs`` epochs exactly as before; a
        trainer restored from a checkpoint (see :mod:`repro.gnn.checkpoint`)
        continues from ``self.epochs_done`` with the optimiser, scheduler and
        shuffle-RNG state it was saved with, so the resumed run bit-matches an
        uninterrupted one.  When ``checkpoint_path`` is given, a full
        checkpoint is written every ``checkpoint_every`` epochs and at the end.
        """
        if self._rng is None:
            self._rng = np.random.default_rng(self.config.seed)
        rng = self._rng
        epochs = epochs if epochs is not None else self.config.epochs
        self.model.train()
        for epoch in range(self.epochs_done + 1, epochs + 1):
            with obs_trace.record("train.epoch", epoch=epoch) as record:
                train_loss = self.train_epoch(train_problems, rng)
            stats = EpochStats(
                epoch=epoch,
                train_loss=train_loss,
                learning_rate=self.optimizer.lr,
                elapsed_time=record.seconds,
            )
            if validation_problems:
                self.model.eval()
                metrics = evaluate_model(self.model, validation_problems, batch_size=self.config.batch_size)
                stats.validation_residual = metrics.residual_mean
                stats.validation_relative_error = metrics.relative_error_mean
                self.scheduler.step(metrics.residual_mean)
                self.model.train()
            else:
                self.scheduler.step(train_loss)
            self.history.append(stats)
            self.epochs_done = epoch
            if checkpoint_path is not None and (
                epoch % max(1, checkpoint_every) == 0 or epoch == epochs
            ):
                self.save_checkpoint(checkpoint_path, metadata=checkpoint_metadata)
            if verbose and (epoch % self.config.log_every == 0):
                val = f", val residual {stats.validation_residual:.4e}" if stats.validation_residual is not None else ""
                print(f"[epoch {epoch:4d}] loss {train_loss:.4e}{val} (lr {self.optimizer.lr:.2e})")
        self.model.eval()
        return self.history

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict:
        """Everything needed to resume training deterministically.

        The model parameters are *not* included — they travel separately
        through ``model.state_dict()`` (see :mod:`repro.gnn.checkpoint` for
        the single-file format bundling both).
        """
        return {
            "epochs_done": self.epochs_done,
            "rng_state": None if self._rng is None else self._rng.bit_generator.state,
            "history": [asdict(stats) for stats in self.history],
            "config": asdict(self.config),
            "optimizer": self.optimizer.state_dict(),
            "scheduler": self.scheduler.state_dict(),
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore trainer progress saved by :meth:`state_dict`.

        The trainer must have been constructed with the same
        :class:`TrainingConfig` the state was saved under — a silently
        different recipe (batch size, learning rate, seed, ...) would break
        the resume-bit-matches-uninterrupted guarantee, so mismatches raise.
        """
        saved_config = state.get("config")
        if saved_config is not None and saved_config != asdict(self.config):
            changed = sorted(
                key for key in set(saved_config) | set(asdict(self.config))
                if saved_config.get(key) != asdict(self.config).get(key)
            )
            raise ValueError(
                f"trainer config does not match the checkpointed one (differs in {changed}); "
                "construct the trainer with the saved config, or use Checkpoint.build_trainer()"
            )
        self.epochs_done = int(state["epochs_done"])
        rng_state = state.get("rng_state")
        if rng_state is None:
            self._rng = None
        else:
            self._rng = np.random.default_rng(self.config.seed)
            self._rng.bit_generator.state = rng_state
        self.history = [EpochStats(**stats) for stats in state.get("history", [])]
        self.optimizer.load_state_dict(state["optimizer"])
        self.scheduler.load_state_dict(state["scheduler"])

    def save_checkpoint(self, path: str, metadata: Optional[Dict] = None) -> None:
        """Write a full versioned checkpoint (model + trainer state) to ``path``."""
        from .checkpoint import save_checkpoint  # local import: checkpoint imports this module

        save_checkpoint(path, self.model, trainer=self, metadata=metadata)

    def load_checkpoint(self, path: str) -> None:
        """Restore model weights and trainer progress from a checkpoint file."""
        from .checkpoint import load_checkpoint

        load_checkpoint(path).restore(model=self.model, trainer=self)
