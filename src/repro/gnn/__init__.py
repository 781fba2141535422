"""Graph neural network substrate and the Deep Statistical Solver model.

Public surface:

* :class:`~repro.gnn.dss.DSS`, :class:`~repro.gnn.dss.DSSConfig` — the GNN
  solver (paper Fig. 3): its config plus one keyed parameter dict,
  ``DSS.params``.
* :class:`~repro.gnn.graph.GraphProblem`,
  :func:`~repro.gnn.graph.graph_from_mesh` — graph-structured local problems.
* :class:`~repro.gnn.batch.GraphBatch` — disjoint-union batching, the one
  batch type: a forward runs on it, a plan compiles from it.
* :class:`~repro.gnn.infer.EdgeLayout` — the destination-sorted edges and
  the one edge pass (and its VJP) every forward, training or compiled,
  runs on.
* :class:`~repro.gnn.infer.InferencePlan` — a batch compiled onto its edge
  layout: the iteration-time fast path (``DSS.compile_plan`` /
  ``DSS.infer_columns``).
* :func:`~repro.gnn.mpnn.block_forward`, :func:`~repro.gnn.mpnn.decoder_forward`
  — block ``k`` and decoder ``k`` on the model's parameter dict; each returns
  its output and its hand-written backward.
* :func:`~repro.gnn.loss.residual_loss`, :func:`~repro.gnn.loss.relative_error`
  — the physics-informed loss and metrics; :class:`~repro.gnn.loss.TrainingLoss`
  — what ``DSS.training_loss`` returns (``.item()``, ``.backward()``).
* :class:`~repro.gnn.training.DSSTrainer`,
  :class:`~repro.gnn.training.TrainingConfig`,
  :func:`~repro.gnn.training.evaluate_model` — training pipeline.
* :func:`~repro.gnn.checkpoint.save_checkpoint`,
  :func:`~repro.gnn.checkpoint.load_checkpoint`,
  :func:`~repro.gnn.checkpoint.load_model`,
  :func:`~repro.gnn.checkpoint.config_hash` — versioned single-file
  checkpoints (weights + optimizer + scheduler + RNG state) with
  bit-identical round-trips and deterministic training resume.
"""

from .batch import GraphBatch
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    config_hash,
    load_checkpoint,
    load_model,
    save_checkpoint,
)
from .dss import DSS, DSSConfig
from .graph import GraphProblem, graph_from_mesh
from .infer import EdgeLayout, InferencePlan
from .loss import relative_error, residual_loss
from .mpnn import block_forward, decoder_forward
from .training import DSSTrainer, EvaluationMetrics, EpochStats, TrainingConfig, evaluate_model

__all__ = [
    "DSS",
    "DSSConfig",
    "GraphProblem",
    "graph_from_mesh",
    "GraphBatch",
    "EdgeLayout",
    "InferencePlan",
    "block_forward",
    "decoder_forward",
    "residual_loss",
    "relative_error",
    "DSSTrainer",
    "TrainingConfig",
    "EpochStats",
    "EvaluationMetrics",
    "evaluate_model",
    "Checkpoint",
    "CheckpointError",
    "config_hash",
    "save_checkpoint",
    "load_checkpoint",
    "load_model",
]
