"""Versioned single-file checkpoints for DSS models and trainers.

The paper's headline artifact is a *trained* preconditioner, so model weights
need to be durable, versioned and verifiable.  A checkpoint is one ``.npz``
archive containing

* ``__checkpoint__`` — a JSON header with a magic format marker, a schema
  version, the full :class:`~repro.gnn.dss.DSSConfig`, a SHA-256 config hash,
  optional user metadata and (when saved from a trainer) the complete
  training state: epoch counter, shuffle-RNG state, per-epoch history and
  the optimizer/scheduler scalars;
* ``model/<name>`` — one array per model parameter (float64, lossless);
* ``optim/<slot>/<index>`` — optimiser slot arrays (Adam's first/second
  moments), aligned with the parameter order.

Everything numeric round-trips bit-exactly: reloading a checkpoint and
rebuilding the model reproduces ``DSS.infer`` outputs bit-identically, and a
resumed training run bit-matches an uninterrupted one.  Files are written
atomically (temp file + ``os.replace``) so an interrupted save never leaves a
truncated checkpoint behind.

Corrupt or foreign files are rejected by :func:`load_checkpoint` with
:class:`CheckpointError`: missing header, wrong magic, newer schema version,
parameter or optimiser arrays missing against the header.  A file that
parses but does not fit the model or trainer it is restored into is refused
by :meth:`Checkpoint.restore` before any state is touched: ``KeyError`` for
model keys missing or unexpected, ``ValueError`` for a parameter or moment
shape, a moment count or slot name, the optimiser or scheduler type, a
non-zero ``weight_decay`` or a different training config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from .dss import DSS, DSSConfig

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "Checkpoint",
    "config_hash",
    "save_checkpoint",
    "load_checkpoint",
    "load_model",
]

CHECKPOINT_FORMAT = "repro-dss-checkpoint"
CHECKPOINT_SCHEMA_VERSION = 1
_HEADER_KEY = "__checkpoint__"


class CheckpointError(RuntimeError):
    """Raised when a checkpoint file is corrupt, foreign, or incompatible."""


# --------------------------------------------------------------------------- #
# config hashing
# --------------------------------------------------------------------------- #
def _canonical(obj):
    """Reduce an object to JSON-serialisable canonical form for hashing."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, Path):
        return str(obj)
    return obj


def config_hash(*objects) -> str:
    """Stable SHA-256 over the canonical JSON of dataclasses/dicts/scalars.

    Key order, tuple-vs-list and NumPy scalar types do not affect the digest,
    so the hash is reproducible across processes and Python versions — it is
    the identity under which experiment artifacts are cached (locally and by
    CI's ``actions/cache``).
    """
    payload = json.dumps([_canonical(obj) for obj in objects], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# save
# --------------------------------------------------------------------------- #
def save_checkpoint(
    path: Union[str, Path],
    model: DSS,
    trainer=None,
    metadata: Optional[Dict] = None,
) -> str:
    """Write a versioned checkpoint; returns its config hash.

    ``trainer`` (a :class:`~repro.gnn.training.DSSTrainer`) is optional: a
    weights-only checkpoint still records the model config and hash, while a
    trainer checkpoint additionally embeds everything needed for a
    bit-identical resume.
    """
    path = Path(path)
    model_state = model.state_dict()
    arrays: Dict[str, np.ndarray] = {f"model/{name}": value for name, value in model_state.items()}

    trainer_state = None
    optimizer_slots: Dict[str, int] = {}
    if trainer is not None:
        trainer_state = trainer.state_dict()
        slots = trainer_state["optimizer"].pop("slots", {})
        for slot_name, slot_arrays in slots.items():
            optimizer_slots[slot_name] = len(slot_arrays)
            for i, value in enumerate(slot_arrays):
                arrays[f"optim/{slot_name}/{i}"] = value

    header = {
        "format": CHECKPOINT_FORMAT,
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "saved_at": time.time(),
        "config": dataclasses.asdict(model.config),
        "config_hash": config_hash(model.config),
        "model_keys": sorted(model_state),
        "optimizer_slots": optimizer_slots,
        "trainer": trainer_state,
        "metadata": _canonical(metadata or {}),
    }
    arrays[_HEADER_KEY] = np.array(json.dumps(header))

    # atomic write: an interrupted save never leaves a truncated file
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return header["config_hash"]


# --------------------------------------------------------------------------- #
# load
# --------------------------------------------------------------------------- #
@dataclass
class Checkpoint:
    """A fully parsed checkpoint, ready to rebuild models and trainers."""

    path: str
    header: Dict
    model_state: Dict[str, np.ndarray]
    optimizer_slots: Dict[str, List[np.ndarray]]

    # -- header accessors ----------------------------------------------------
    @property
    def schema_version(self) -> int:
        return int(self.header["schema_version"])

    @property
    def config(self) -> DSSConfig:
        return DSSConfig(**self.header["config"])

    @property
    def config_hash(self) -> str:
        return self.header["config_hash"]

    @property
    def epochs_done(self) -> int:
        trainer = self.header.get("trainer")
        return int(trainer["epochs_done"]) if trainer else 0

    @property
    def metadata(self) -> Dict:
        return self.header.get("metadata", {})

    # -- reconstruction ------------------------------------------------------
    def build_model(self) -> DSS:
        """Instantiate a DSS from the stored config and load the weights."""
        model = DSS(self.config)
        model.load_state_dict(self.model_state)
        return model

    def build_trainer(self):
        """Rebuild ``(model, trainer)`` ready to resume where training stopped."""
        from .training import DSSTrainer, TrainingConfig  # local import: training imports us lazily

        trainer_state = self.header.get("trainer")
        if trainer_state is None:
            raise CheckpointError(f"'{self.path}' is a weights-only checkpoint (no trainer state)")
        model = DSS(self.config)
        trainer = DSSTrainer(model, TrainingConfig(**trainer_state["config"]))
        self.restore(model=model, trainer=trainer)
        return model, trainer

    def restore(self, model: Optional[DSS] = None, trainer=None) -> None:
        """Load the stored state into an existing model and/or trainer.

        Everything is checked before anything is written: a refused file
        leaves the weights, the optimiser and the trainer as they were.
        """
        if trainer is not None:
            trainer_state = self.header.get("trainer")
            if trainer_state is None:
                raise CheckpointError(f"'{self.path}' is a weights-only checkpoint (no trainer state)")
            model = model if model is not None else trainer.model
        commits = [] if model is None else [model.prepare_load(self.model_state)]
        if trainer is not None:
            state = json.loads(json.dumps(trainer_state))  # deep copy; header stays pristine
            state["optimizer"]["slots"] = self.optimizer_slots
            commits.append(trainer.prepare_load(state))
        for commit in commits:
            commit()


def load_checkpoint(path: Union[str, Path]) -> Checkpoint:
    """Read and validate a checkpoint file (raises :class:`CheckpointError`)."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CheckpointError(f"'{path}' is not a readable .npz archive: {exc}") from exc

    if _HEADER_KEY not in arrays:
        raise CheckpointError(f"'{path}' has no checkpoint header (legacy weights-only file?)")
    try:
        header = json.loads(str(arrays.pop(_HEADER_KEY)[()]))
    except (json.JSONDecodeError, TypeError) as exc:
        raise CheckpointError(f"'{path}' has a corrupt checkpoint header: {exc}") from exc

    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"'{path}' is not a {CHECKPOINT_FORMAT} file (format={header.get('format')!r})"
        )
    version = header.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise CheckpointError(f"'{path}' has an invalid schema version {version!r}")
    if version > CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"'{path}' uses checkpoint schema v{version}; this build reads up to "
            f"v{CHECKPOINT_SCHEMA_VERSION} — upgrade the code, not the file"
        )

    model_state = {
        key[len("model/"):]: value for key, value in arrays.items() if key.startswith("model/")
    }
    expected = set(header.get("model_keys", []))
    if expected != set(model_state):
        missing = sorted(expected - set(model_state))
        extra = sorted(set(model_state) - expected)
        raise CheckpointError(
            f"'{path}' is corrupt: parameter arrays do not match the header "
            f"(missing={missing} unexpected={extra})"
        )

    optimizer_slots: Dict[str, List[np.ndarray]] = {}
    for slot_name, count in (header.get("optimizer_slots") or {}).items():
        slot_arrays = []
        for i in range(int(count)):
            key = f"optim/{slot_name}/{i}"
            if key not in arrays:
                raise CheckpointError(f"'{path}' is corrupt: missing optimiser array '{key}'")
            slot_arrays.append(arrays[key])
        optimizer_slots[slot_name] = slot_arrays

    return Checkpoint(
        path=str(path), header=header, model_state=model_state, optimizer_slots=optimizer_slots
    )


def load_model(path: Union[str, Path]) -> DSS:
    """Convenience: rebuild just the model from a checkpoint."""
    return load_checkpoint(path).build_model()
