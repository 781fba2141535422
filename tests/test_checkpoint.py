"""Tests of the versioned checkpoint layer (repro.gnn.checkpoint).

Covers the acceptance criteria of the checkpoint subsystem: bit-identical
save→load round trips (through both ``DSS.predict`` and the compiled
``DSS.infer`` fast path), resume-equals-uninterrupted training, config-hash
stability, rejection of corrupt or mismatched files, and checkpoint loading
at the core-solver layer.
"""

from __future__ import annotations

import hashlib
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
from repro.nn.optim import Adam, ReduceLROnPlateau
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
# a fresh model's keys and bytes
# --------------------------------------------------------------------------- #
#: (config, key count, sha256 of the newline-joined keys, sha256 over each key, shape and bytes in order);
#: written before the model became one keyed parameter dict: every seeded model and checkpoint hangs on them
STATE_PINS = [
    (DSSConfig(), 480,
     "aee455e13ba54d628bc7082e304a7e1123518b03066b9040ca2f19d957be4120",
     "6bd2d50e6c27137d932df6d4ca098296d779681bf907d51df514919b9c301436"),
    (DSSConfig(num_iterations=2, latent_dim=3, alpha=0.1, seed=7), 32,
     "443353f855748614c847d70b20fcbada0d9f1b3c7223ec6efa77e486fbd3acd1",
     "fbf4bba18a0da362f108e2e7b5e31c20643348d29cedaf1b74faa58c71bdeb3f"),
    (DSSConfig(num_iterations=3, latent_dim=5, seed=11, edge_attr_dim=4, node_input_dim=2), 48,
     "e35af19a367e38301bb9f7d86d1ebfc36dd95c2a4dc5effd1e151f1c7ba39e29",
     "5fd771be6bad638cded10c867a9acff2ea8ed335a151277ed6752c25a2c3ed11"),
]


@pytest.mark.parametrize("config, count, keys_sha, state_sha", STATE_PINS, ids=["default", "tiny", "kappa"])
def test_a_fresh_models_state_dict_keeps_its_key_order_and_bytes(config, count, keys_sha, state_sha):
    state = DSS(config).state_dict()
    layers = [f"{mlp}.layer_{i}.{kind}" for mlp in ("phi_forward", "phi_backward", "psi")
              for i in (0, 1) for kind in ("weight", "bias")]
    decoder = [f"mlp.layer_{i}.{kind}" for i in (0, 1) for kind in ("weight", "bias")]
    assert list(state)[:16] == [f"block_0.{name}" for name in layers] + [f"decoder_0.{name}" for name in decoder]
    assert len(state) == count
    assert hashlib.sha256("\n".join(state).encode()).hexdigest() == keys_sha
    digest = hashlib.sha256()
    for name, value in state.items():
        digest.update(name.encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    assert digest.hexdigest() == state_sha


# --------------------------------------------------------------------------- #
# optimizer / scheduler state dicts
# --------------------------------------------------------------------------- #
class TestOptimizerState:
    def _trained_adam(self):
        model = DSS(TINY)
        optimizer = Adam(model.params.values(), lr=1e-2)
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
        clone_optimizer = Adam(clone_model.params.values(), lr=99.0)  # wrong lr, restored below
        clone_optimizer.load_state_dict(state)

        for opt, mdl in ((optimizer, model), (clone_optimizer, clone_model)):
            opt.zero_grad()
            mdl.training_loss(graph).backward()
            opt.step()
        for p, q in zip(model.params.values(), clone_model.params.values()):
            assert np.array_equal(p.data, q.data)

    def test_wrong_optimizer_type_rejected(self):
        """A checkpoint header comes from outside the program: another optimizer's state is refused."""
        model = DSS(TINY)
        forged = {**Adam(model.params.values()).state_dict(), "type": "SGD", "momentum": 0.9}
        with pytest.raises(ValueError, match="Adam"):
            Adam(model.params.values()).load_state_dict(forged)

    def test_slot_shape_mismatch_rejected(self):
        model = DSS(TINY)
        other = DSS(DSSConfig(num_iterations=2, latent_dim=5))
        state = Adam(model.params.values()).state_dict()
        with pytest.raises(ValueError):
            Adam(other.params.values()).load_state_dict(state)

    def test_scheduler_round_trip(self):
        model = DSS(TINY)
        optimizer = Adam(model.params.values(), lr=1e-2)
        scheduler = ReduceLROnPlateau(optimizer, factor=0.5, patience=1)
        for metric in (1.0, 1.1, 1.2):  # trips one reduction
            scheduler.step(metric)
        clone = ReduceLROnPlateau(Adam(DSS(TINY).params.values()), factor=0.9, patience=7)
        clone.load_state_dict(scheduler.state_dict())
        assert clone.best == scheduler.best
        assert clone.num_bad_epochs == scheduler.num_bad_epochs
        assert clone.num_reductions == scheduler.num_reductions
        assert clone.patience == 1 and clone.factor == 0.5

    def test_wrong_scheduler_type_rejected(self):
        scheduler = ReduceLROnPlateau(Adam(DSS(TINY).params.values()))
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
        for (name, p), (_, q) in zip(straight.params.items(), resumed.params.items()):
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
        for p, q in zip(straight.params.values(), resumed_trainer.model.params.values()):
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
# a refused restore writes nothing
# --------------------------------------------------------------------------- #
def _rewrite(path, edit) -> None:
    """Apply ``edit(header, arrays)`` to a checkpoint file in place (a forged or damaged file)."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(str(arrays.pop("__checkpoint__")[()]))
    edit(header, arrays)
    np.savez(path, __checkpoint__=np.array(json.dumps(header)), **arrays)


def _drop_last_v(header, arrays):
    count = header["optimizer_slots"]["v"] = header["optimizer_slots"]["v"] - 1
    del arrays[f"optim/v/{count}"]


def _rename_slot(header, arrays):
    header["optimizer_slots"]["w"] = header["optimizer_slots"].pop("v")
    for key in [k for k in arrays if k.startswith("optim/v/")]:
        arrays["optim/w/" + key.split("/")[-1]] = arrays.pop(key)


def _drop_v(header, arrays):
    for i in range(header["optimizer_slots"].pop("v")):
        del arrays[f"optim/v/{i}"]


def _reshape_last_m(header, arrays):
    arrays[f"optim/m/{header['optimizer_slots']['m'] - 1}"] = np.zeros(7)


def _reshape_last_weight(header, arrays):
    arrays[header["model_keys"][-1].join(("model/", ""))] = np.zeros((3, 3))


def _set(*path_and_value):
    *path, value = path_and_value

    def edit(header, arrays):
        node = header["trainer"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


class TestAtomicRestore:
    """A file that parses but does not fit is refused before the model or the trainer changes."""

    @staticmethod
    def _snapshot(trainer):
        slots = trainer.optimizer.state_dict()["slots"]
        return (trainer.model.state_dict(), trainer.optimizer.lr, slots["m"], slots["v"], trainer.epochs_done,
                len(trainer.history), trainer.scheduler.state_dict(), trainer._rng.bit_generator.state)

    @pytest.mark.parametrize("edit, error, match", [
        (_drop_last_v, ValueError, "slot 'v'"),
        (_rename_slot, ValueError, r"slots \['m', 'w'\]"),
        (_drop_v, ValueError, r"slots \['m'\]"),
        (_reshape_last_m, ValueError, "slot 'm' shape"),
        (_reshape_last_weight, ValueError, "shape mismatch"),
        (_set("optimizer", "type", "SGD"), ValueError, "SGD"),
        (_set("optimizer", "weight_decay", 0.1), ValueError, "weight_decay"),
        (_set("scheduler", "type", "StepLR"), ValueError, "StepLR"),
        (_set("config", "seed", 5), ValueError, "seed"),
    ], ids=["v-short", "slot-name", "slot-missing", "m-shape", "weight-shape", "optimizer-type", "weight-decay",
            "scheduler-type", "trainer-config"])
    def test_a_refused_restore_leaves_weights_moments_lr_and_progress(self, tmp_path, edit, error, match):
        graphs = [_toy_graph(seed=i) for i in range(4)]
        config = TrainingConfig(epochs=3, batch_size=2, seed=0, scheduler_patience=0)
        saved = DSSTrainer(DSS(TINY), config)
        saved.fit(graphs, epochs=2)
        path = tmp_path / "damaged.npz"
        saved.save_checkpoint(str(path))
        _rewrite(path, edit)

        target = DSSTrainer(DSS(TINY), config)
        target.fit(graphs[:2], epochs=1)                 # its own weights, moments, lr and progress
        before = self._snapshot(target)
        for model in (target.model, None):               # into the trainer's model, named or not
            with pytest.raises(error, match=match):
                load_checkpoint(path).restore(model=model, trainer=target)
            after = self._snapshot(target)
            for old, new in zip(before[0].values(), after[0].values()):
                assert np.array_equal(old, new)
            assert after[1] == before[1]
            for old_slot, new_slot in zip(before[2:4], after[2:4]):
                assert all(np.array_equal(a, b) for a, b in zip(old_slot, new_slot))
            assert after[4:] == before[4:]

    def test_a_model_state_with_one_bad_shape_writes_no_key(self):
        model = DSS(TINY)
        before = model.state_dict()
        state = DSS(DSSConfig(**{**TINY.__dict__, "seed": 9})).state_dict()
        state[next(reversed(state))] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state)
        assert all(np.array_equal(before[name], value) for name, value in model.state_dict().items())

    def test_a_trainer_file_with_zero_weight_decay_resumes(self, tmp_path):
        """Files written before Adam lost its ``weight_decay`` carry it as 0.0: they load and resume bit for bit."""
        graphs = [_toy_graph(seed=i) for i in range(4)]
        config = TrainingConfig(epochs=3, batch_size=2, seed=0)
        straight = DSSTrainer(DSS(TINY), config)
        straight.fit(graphs)
        trainer = DSSTrainer(DSS(TINY), config)
        trainer.fit(graphs, epochs=1)
        path = tmp_path / "older.npz"
        trainer.save_checkpoint(str(path))
        _rewrite(path, _set("optimizer", "weight_decay", 0.0))
        model, resumed = load_checkpoint(path).build_trainer()
        resumed.fit(graphs)
        for name, value in straight.model.state_dict().items():
            assert np.array_equal(value, model.params[name].data), name


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
