"""Shared infrastructure of the benchmark harnesses.

All benches reproduce paper tables/figures at a CPU-friendly scale.  The scale
can be changed through environment variables without touching the code:

``REPRO_BENCH_SCALE``
    "small" (default, minutes), "medium", or "paper" (hours; the sizes the
    paper reports — only sensible on a large machine).
``REPRO_BENCH_EPOCHS``
    Number of epochs used when a DSS model has to be (re)trained by a bench.

The DSS model used by the solver benches is loaded from the versioned
checkpoint ``benchmarks/artifacts/dss_k20_d10.ckpt.npz`` (written by a previous
bench run); if the artifact is missing a model is trained on the spot with the
scaled-down recipe and cached there.  ``--checkpoint`` points the benches at
any other checkpoint, e.g. one written by ``examples/train_dss.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core import generate_dataset
from repro.gnn import DSS, DSSConfig, DSSTrainer, TrainingConfig
from repro.gnn.checkpoint import load_model, save_checkpoint
from repro.gnn.training import evaluate_model

ARTIFACT_DIR = Path(__file__).resolve().parent / "artifacts"
ARTIFACT_DIR.mkdir(exist_ok=True)

#: environment overrides pointing the solver benches at trained checkpoints
#: (set by ``--checkpoint`` / ``--het-checkpoint`` CLI and pytest options)
CHECKPOINT_ENV = "REPRO_BENCH_CHECKPOINT"
HET_CHECKPOINT_ENV = "REPRO_BENCH_HET_CHECKPOINT"

#: configuration of the reference pretrained model used by the solver benches
PRETRAINED_CONFIG = DSSConfig(num_iterations=20, latent_dim=10, alpha=0.1, seed=0)
PRETRAINED_PATH = ARTIFACT_DIR / "dss_k20_d10.ckpt.npz"

#: reference model for the heterogeneous (variable-coefficient) benches —
#: same architecture, trained on equilibrated checkerboard-κ local problems.
#: Deliberately κ-blind (default edge_attr_dim=3/node_input_dim=1): the
#: equilibration is the mechanism that absorbs the contrast, and at this
#: training budget the κ-aware feature channels measurably hurt (test
#: residual 0.049 vs 0.032, non-convergent at 1e-6); pass edge_attr_dim=4,
#: node_input_dim=2 to explore them at larger budgets.
HETEROGENEOUS_CONFIG = DSSConfig(num_iterations=20, latent_dim=10, alpha=0.1, seed=0)
HETEROGENEOUS_PATH = ARTIFACT_DIR / "dss_het_k20_d10.ckpt.npz"
#: training recipe proven to reach 1e-6 on checkerboard contrast 1e4
HET_ELEMENT_SIZE = 0.08
HET_SUBDOMAIN_SIZE = 110
#: training contrast — the model specialises to high-contrast local problems
#: (the homogeneous pretrained model covers the κ ≡ 1 end of the sweep)
HET_TRAIN_CONTRAST = 1e4

#: characteristic sub-domain size of the scaled-down experiments (1000 in the paper)
SUBDOMAIN_SIZE = 110
#: mesh element size of the scaled-down experiments (0.024 in the paper ≈ 7000-node meshes)
ELEMENT_SIZE = 0.07


@dataclass(frozen=True)
class BenchScale:
    """Knobs that the REPRO_BENCH_SCALE presets control."""

    name: str
    table1_sizes: Tuple[int, ...]
    table3_sizes: Tuple[int, ...]
    repetitions: int
    formula1_length: float
    formula1_element_size: float
    train_problems: int
    train_epochs: int
    train_samples: int


_SCALES: Dict[str, BenchScale] = {
    "small": BenchScale(
        name="small",
        table1_sizes=(500, 1200),
        table3_sizes=(800, 2000, 4000),
        repetitions=2,
        formula1_length=8.0,
        formula1_element_size=0.10,
        train_problems=4,
        train_epochs=8,
        train_samples=400,
    ),
    "medium": BenchScale(
        name="medium",
        table1_sizes=(2000, 7000, 30000),
        table3_sizes=(10000, 40000, 100000),
        repetitions=5,
        formula1_length=20.0,
        formula1_element_size=0.06,
        train_problems=20,
        train_epochs=40,
        train_samples=3000,
    ),
    "paper": BenchScale(
        name="paper",
        table1_sizes=(2632, 7148, 33969),
        table3_sizes=(10571, 41871, 100307, 259604, 405344, 609740),
        repetitions=100,
        formula1_length=60.0,
        formula1_element_size=0.024,
        train_problems=500,
        train_epochs=400,
        train_samples=70282,
    ),
}


def bench_scale() -> BenchScale:
    """The active scale preset (``REPRO_BENCH_SCALE``, default "small")."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if name not in _SCALES:
        raise ValueError(f"unknown REPRO_BENCH_SCALE '{name}'; choose from {sorted(_SCALES)}")
    return _SCALES[name]


def bench_epochs(default: Optional[int] = None) -> int:
    """Epoch count for in-bench training (``REPRO_BENCH_EPOCHS`` overrides the preset)."""
    if "REPRO_BENCH_EPOCHS" in os.environ:
        return int(os.environ["REPRO_BENCH_EPOCHS"])
    return default if default is not None else bench_scale().train_epochs


# --------------------------------------------------------------------------- #
# dataset / model caching shared by the benches
# --------------------------------------------------------------------------- #
_DATASET_CACHE = {}
_MODEL_CACHE: Dict[Tuple[int, int], DSS] = {}


def get_bench_dataset(num_global_problems: Optional[int] = None, seed: int = 7):
    """A cached small dataset of local problems used by the training benches."""
    scale = bench_scale()
    n = num_global_problems if num_global_problems is not None else min(scale.train_problems, 4)
    key = (n, seed)
    if key not in _DATASET_CACHE:
        rng = np.random.default_rng(seed)
        _DATASET_CACHE[key] = generate_dataset(
            num_global_problems=n,
            mesh_element_size=ELEMENT_SIZE,
            subdomain_size=SUBDOMAIN_SIZE,
            overlap=2,
            rng=rng,
        )
    return _DATASET_CACHE[key]


def train_model(
    num_iterations: int,
    latent_dim: int,
    epochs: Optional[int] = None,
    alpha: float = 0.1,
    max_train_samples: int = 300,
    seed: int = 0,
) -> DSS:
    """Train (and memoise) a DSS model with the scaled-down recipe."""
    key = (num_iterations, latent_dim)
    if key in _MODEL_CACHE:
        return _MODEL_CACHE[key]
    dataset = get_bench_dataset()
    model = DSS(DSSConfig(num_iterations=num_iterations, latent_dim=latent_dim, alpha=alpha, seed=seed))
    trainer = DSSTrainer(
        model,
        TrainingConfig(
            epochs=epochs if epochs is not None else bench_epochs(4),
            batch_size=40,
            learning_rate=1e-2,
            gradient_clip=1e-2,
            scheduler_patience=4,
            seed=seed,
        ),
    )
    trainer.fit(dataset.train[:max_train_samples], verbose=False)
    model.eval()
    _MODEL_CACHE[key] = model
    return model


def get_pretrained_model(checkpoint: Optional[str] = None) -> DSS:
    """The reference DSS model used by the solver benches.

    An explicit ``checkpoint`` path (or the ``REPRO_BENCH_CHECKPOINT``
    environment variable, which the ``--checkpoint`` pytest option sets)
    takes precedence.  Otherwise the cached artifact is loaded when present,
    or a model is trained with the scaled-down recipe and stored so later
    benches (and examples) reuse it.  Every path is a versioned checkpoint:
    a legacy weights-only file raises
    :class:`~repro.gnn.checkpoint.CheckpointError`.
    """
    checkpoint = checkpoint or os.environ.get(CHECKPOINT_ENV)
    if checkpoint:
        return load_model(checkpoint)
    if PRETRAINED_PATH.exists():
        return load_model(PRETRAINED_PATH)
    model = DSS(PRETRAINED_CONFIG)
    dataset = get_bench_dataset()
    trainer = DSSTrainer(
        model,
        TrainingConfig(
            epochs=bench_epochs(),
            batch_size=40,
            learning_rate=1e-2,
            gradient_clip=1e-2,
            scheduler_patience=4,
            seed=0,
        ),
    )
    trainer.fit(dataset.train[: bench_scale().train_samples], dataset.validation[:60], verbose=False)
    model.eval()
    save_checkpoint(PRETRAINED_PATH, model)
    return model


def get_heterogeneous_model(checkpoint: Optional[str] = None) -> DSS:
    """The reference DSS model for the variable-coefficient diffusion benches.

    Trained on local problems harvested from ``diffusion-checkerboard``
    solves at contrast 10⁴ — the sub-domain systems are diagonally
    equilibrated by the dataset layer, so the model sees Poisson-like
    matrices regardless of the contrast and transfers across contrast ratios.
    Cached to an artifact like :func:`get_pretrained_model`; an explicit
    ``checkpoint`` (or ``REPRO_BENCH_HET_CHECKPOINT``) takes precedence.
    """
    checkpoint = checkpoint or os.environ.get(HET_CHECKPOINT_ENV)
    if checkpoint:
        return load_model(checkpoint)
    if HETEROGENEOUS_PATH.exists():
        return load_model(HETEROGENEOUS_PATH)
    model = DSS(HETEROGENEOUS_CONFIG)
    rng = np.random.default_rng(0)
    dataset = generate_dataset(
        num_global_problems=4,
        mesh_element_size=HET_ELEMENT_SIZE,
        subdomain_size=HET_SUBDOMAIN_SIZE,
        overlap=2,
        rng=rng,
        problem_family="diffusion-checkerboard",
        problem_kwargs={"contrast": HET_TRAIN_CONTRAST},
    )
    trainer = DSSTrainer(
        model,
        TrainingConfig(
            epochs=bench_epochs(12),
            batch_size=40,
            learning_rate=1e-2,
            gradient_clip=1e-2,
            scheduler_patience=4,
            seed=0,
        ),
    )
    trainer.fit(dataset.train, dataset.validation[:40], verbose=False)
    model.eval()
    save_checkpoint(HETEROGENEOUS_PATH, model)
    return model


def summarize_model(model: DSS, n_test: int = 60) -> Dict[str, float]:
    """Test metrics of a model on the cached bench dataset."""
    dataset = get_bench_dataset()
    metrics = evaluate_model(model, dataset.test[:n_test])
    return metrics.as_dict()
