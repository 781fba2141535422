"""Tests of the versioned checkpoint layer (repro.gnn.checkpoint).

Covers the acceptance criteria of the checkpoint subsystem: bit-identical
save→load round trips (through both ``DSS.predict`` and the compiled
``DSS.infer`` fast path), resume-equals-uninterrupted training, config-hash
stability, rejection of corrupt or mismatched files, and checkpoint loading
at the core-solver layer.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gnn import (
    DSS,
    DSSConfig,
    DSSTrainer,
    GraphBatch,
    TrainingConfig,
    config_hash,
    graph_from_mesh,
    load_checkpoint,
    load_model,
    save_checkpoint,
)
from repro.gnn.checkpoint import CHECKPOINT_SCHEMA_VERSION, CheckpointError
from repro.mesh import structured_rectangle_mesh
from repro.nn.optim import Adam
from repro.nn.schedulers import ReduceLROnPlateau
from repro.solvers import SolverConfig, prepare


def _toy_graph(seed: int = 0):
    mesh = structured_rectangle_mesh(2, 3)
    rng = np.random.default_rng(seed)
    from repro.fem import assemble_stiffness

    matrix = (assemble_stiffness(mesh) + sp.identity(mesh.num_nodes)).tocsr()
    source = rng.normal(size=mesh.num_nodes)
    source /= np.linalg.norm(source)
    return graph_from_mesh(mesh, source=source, matrix=matrix)


TINY = DSSConfig(num_iterations=2, latent_dim=4, alpha=0.1, seed=0)


# --------------------------------------------------------------------------- #
# config hashing
# --------------------------------------------------------------------------- #
class TestConfigHash:
    def test_stable_under_key_order_and_container_type(self):
        a = config_hash({"x": 1, "y": (1, 2), "z": {"b": 2, "a": 1}})
        b = config_hash({"z": {"a": 1, "b": 2}, "y": [1, 2], "x": 1})
        assert a == b

    def test_numpy_scalars_hash_like_python_scalars(self):
        assert config_hash({"n": np.int64(3), "x": np.float64(0.5)}) == config_hash({"n": 3, "x": 0.5})

    def test_dataclass_hashes_like_its_dict(self):
        import dataclasses

        assert config_hash(TINY) == config_hash(dataclasses.asdict(TINY))

    def test_different_configs_differ(self):
        assert config_hash(TINY) != config_hash(DSSConfig(num_iterations=3, latent_dim=4))

    def test_hash_is_hex_sha256(self):
        digest = config_hash(TINY)
        assert len(digest) == 64
        int(digest, 16)  # parses as hex


# --------------------------------------------------------------------------- #
# optimizer / scheduler state dicts
# --------------------------------------------------------------------------- #
class TestOptimizerState:
    def _trained_adam(self):
        model = DSS(TINY)
        optimizer = Adam(model.parameters(), lr=1e-2)
        graph = _toy_graph()
        for _ in range(3):
            optimizer.zero_grad()
            model.training_loss(graph).backward()
            optimizer.step()
        return model, optimizer, graph

    def test_adam_round_trip_continues_identically(self):
        model, optimizer, graph = self._trained_adam()
        state = optimizer.state_dict()

        clone_model = DSS(TINY)
        clone_model.load_state_dict(model.state_dict())
        clone_optimizer = Adam(clone_model.parameters(), lr=99.0)  # wrong lr, restored below
        clone_optimizer.load_state_dict(state)

        for opt, mdl in ((optimizer, model), (clone_optimizer, clone_model)):
            opt.zero_grad()
            mdl.training_loss(graph).backward()
            opt.step()
        for p, q in zip(model.parameters(), clone_model.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_wrong_optimizer_type_rejected(self):
        """A checkpoint header comes from outside the program: another optimizer's state is refused."""
        model = DSS(TINY)
        forged = {**Adam(model.parameters()).state_dict(), "type": "SGD", "momentum": 0.9}
        with pytest.raises(ValueError, match="Adam"):
            Adam(model.parameters()).load_state_dict(forged)

    def test_slot_shape_mismatch_rejected(self):
        model = DSS(TINY)
        other = DSS(DSSConfig(num_iterations=2, latent_dim=5))
        state = Adam(model.parameters()).state_dict()
        with pytest.raises(ValueError):
            Adam(other.parameters()).load_state_dict(state)

    def test_scheduler_round_trip(self):
        model = DSS(TINY)
        optimizer = Adam(model.parameters(), lr=1e-2)
        scheduler = ReduceLROnPlateau(optimizer, factor=0.5, patience=1)
        for metric in (1.0, 1.1, 1.2):  # trips one reduction
            scheduler.step(metric)
        clone = ReduceLROnPlateau(Adam(DSS(TINY).parameters()), factor=0.9, patience=7)
        clone.load_state_dict(scheduler.state_dict())
        assert clone.best == scheduler.best
        assert clone.num_bad_epochs == scheduler.num_bad_epochs
        assert clone.num_reductions == scheduler.num_reductions
        assert clone.patience == 1 and clone.factor == 0.5

    def test_wrong_scheduler_type_rejected(self):
        scheduler = ReduceLROnPlateau(Adam(DSS(TINY).parameters()))
        forged = {"type": "StepLR", "step_size": 2, "gamma": 0.5, "epoch": 1}
        with pytest.raises(ValueError, match="StepLR"):
            scheduler.load_state_dict(forged)


# --------------------------------------------------------------------------- #
# round trips
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    def test_predict_bit_identical(self, tmp_path):
        model = DSS(TINY)
        graph = _toy_graph()
        path = tmp_path / "weights.npz"
        save_checkpoint(path, model)
        reloaded = load_model(path)
        assert np.array_equal(model.predict(graph), reloaded.predict(graph))

    def test_infer_fast_path_bit_identical(self, tmp_path):
        """The compiled inference engine reproduces bit-identical outputs."""
        model = DSS(TINY)
        graphs = [_toy_graph(seed=i) for i in range(3)]
        batch = GraphBatch.from_graphs(graphs)
        path = tmp_path / "weights.npz"
        save_checkpoint(path, model)
        reloaded = load_model(path)

        plan_a = model.compile_plan(GraphBatch.from_graphs(graphs))
        plan_b = reloaded.compile_plan(GraphBatch.from_graphs(graphs))
        out_a = model.infer(plan_a, source=batch.source).copy()
        out_b = reloaded.infer(plan_b, source=batch.source)
        assert np.array_equal(out_a, out_b)

    def test_header_records_config_and_hash(self, tmp_path):
        model = DSS(TINY)
        path = tmp_path / "weights.npz"
        returned_hash = save_checkpoint(path, model, metadata={"note": "unit-test"})
        checkpoint = load_checkpoint(path)
        assert checkpoint.config == TINY
        assert checkpoint.config_hash == returned_hash == config_hash(TINY)
        assert checkpoint.schema_version == CHECKPOINT_SCHEMA_VERSION
        assert checkpoint.metadata == {"note": "unit-test"}
        assert checkpoint.epochs_done == 0


# --------------------------------------------------------------------------- #
# resume determinism
# --------------------------------------------------------------------------- #
class TestResume:
    def test_resume_bit_matches_uninterrupted(self, tmp_path):
        graphs = [_toy_graph(seed=i) for i in range(6)]
        cfg = TrainingConfig(epochs=6, batch_size=3, seed=3)

        straight = DSS(TINY)
        DSSTrainer(straight, cfg).fit(graphs, verbose=False)

        interrupted = DSS(TINY)
        trainer = DSSTrainer(interrupted, cfg)
        trainer.fit(graphs, epochs=3)
        path = tmp_path / "resume.npz"
        trainer.save_checkpoint(str(path))

        resumed, resumed_trainer = load_checkpoint(path).build_trainer()
        assert resumed_trainer.epochs_done == 3
        resumed_trainer.fit(graphs, epochs=6)
        assert len(resumed_trainer.history) == 6
        for (name, p), (_, q) in zip(straight.named_parameters(), resumed.named_parameters()):
            assert np.array_equal(p.data, q.data), f"parameter '{name}' diverged after resume"

    def test_resume_with_validation_and_scheduler(self, tmp_path):
        """The scheduler's plateau bookkeeping survives the round trip."""
        graphs = [_toy_graph(seed=i) for i in range(6)]
        cfg = TrainingConfig(epochs=4, batch_size=3, seed=1, scheduler_patience=1)

        straight = DSS(TINY)
        DSSTrainer(straight, cfg).fit(graphs[:4], validation_problems=graphs[4:], verbose=False)

        model = DSS(TINY)
        trainer = DSSTrainer(model, cfg)
        trainer.fit(graphs[:4], validation_problems=graphs[4:], epochs=2)
        path = tmp_path / "resume.npz"
        trainer.save_checkpoint(str(path))

        _, resumed_trainer = load_checkpoint(path).build_trainer()
        assert resumed_trainer.scheduler.best == trainer.scheduler.best
        resumed_trainer.fit(graphs[:4], validation_problems=graphs[4:], epochs=4)
        for p, q in zip(straight.parameters(), resumed_trainer.model.parameters()):
            assert np.array_equal(p.data, q.data)

    def test_fit_writes_periodic_checkpoints(self, tmp_path):
        graphs = [_toy_graph(seed=i) for i in range(4)]
        path = tmp_path / "auto.npz"
        trainer = DSSTrainer(DSS(TINY), TrainingConfig(epochs=2, batch_size=2, seed=0))
        trainer.fit(graphs, checkpoint_path=str(path), checkpoint_metadata={"spec_hash": "abc"})
        checkpoint = load_checkpoint(path)
        assert checkpoint.epochs_done == 2
        assert checkpoint.metadata["spec_hash"] == "abc"


# --------------------------------------------------------------------------- #
# rejection of corrupt / mismatched files
# --------------------------------------------------------------------------- #
class TestRejection:
    def test_legacy_flat_npz_rejected_with_clear_message(self, tmp_path):
        model = DSS(TINY)
        path = tmp_path / "legacy.npz"
        np.savez(path, **model.state_dict())  # flat weights-only format
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    def test_non_npz_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_text("this is not an archive")
        with pytest.raises(CheckpointError, match="not a readable"):
            load_checkpoint(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_foreign_format_marker_rejected(self, tmp_path):
        header = json.dumps({"format": "someone-elses-format", "schema_version": 1})
        path = tmp_path / "foreign.npz"
        np.savez(path, __checkpoint__=np.array(header))
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)

    def test_newer_schema_version_rejected(self, tmp_path):
        model = DSS(TINY)
        path = tmp_path / "future.npz"
        save_checkpoint(path, model)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(str(arrays["__checkpoint__"][()]))
        header["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        arrays["__checkpoint__"] = np.array(json.dumps(header))
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path)

    def test_missing_parameter_array_rejected(self, tmp_path):
        model = DSS(TINY)
        path = tmp_path / "truncated.npz"
        save_checkpoint(path, model)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        dropped = next(k for k in arrays if k.startswith("model/"))
        del arrays[dropped]
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_architecture_mismatch_rejected_on_restore(self, tmp_path):
        path = tmp_path / "small.npz"
        save_checkpoint(path, DSS(TINY))
        bigger = DSS(DSSConfig(num_iterations=3, latent_dim=4))
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(path).restore(model=bigger)

    def test_weights_only_checkpoint_has_no_trainer(self, tmp_path):
        path = tmp_path / "weights.npz"
        save_checkpoint(path, DSS(TINY))
        with pytest.raises(CheckpointError, match="weights-only"):
            load_checkpoint(path).build_trainer()

    def test_training_config_mismatch_rejected(self, tmp_path):
        """Resuming under a different recipe would break bit-match — rejected."""
        graphs = [_toy_graph(seed=i) for i in range(4)]
        trainer = DSSTrainer(DSS(TINY), TrainingConfig(epochs=2, batch_size=2, seed=0))
        trainer.fit(graphs, epochs=1)
        path = tmp_path / "resume.npz"
        trainer.save_checkpoint(str(path))

        mismatched = DSSTrainer(DSS(TINY), TrainingConfig(epochs=2, batch_size=4, seed=0))
        with pytest.raises(ValueError, match="batch_size"):
            load_checkpoint(path).restore(trainer=mismatched)


# --------------------------------------------------------------------------- #
# core-layer loading
# --------------------------------------------------------------------------- #
class TestCoreLoading:
    def test_session_from_checkpoint(self, tmp_path, random_problem):
        model = DSS(TINY)
        path = tmp_path / "solver.npz"
        save_checkpoint(path, model)
        session = prepare(
            random_problem,
            SolverConfig(preconditioner="ddm-gnn", checkpoint=str(path),
                         subdomain_size=80, tolerance=1e-1, max_iterations=50),
        )
        assert session.model is not None
        assert session.model.config == TINY
        graph = _toy_graph()
        assert np.array_equal(session.model.predict(graph), model.predict(graph))
        preconditioner = session.preconditioner
        z = preconditioner.apply(random_problem.rhs)
        assert z.shape == random_problem.rhs.shape
        assert np.all(np.isfinite(z))
