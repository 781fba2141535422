"""Tests of the experiment harness (repro.experiments)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import generate_dataset
from repro.experiments import ExperimentHarness, ExperimentSpec
from repro.experiments.__main__ import main as experiments_main
from repro.gnn import DSS, DSSTrainer, load_checkpoint
from repro.obs import trace as obs_trace

#: smallest spec that exercises every pipeline stage in a couple of seconds
TINY_SPEC = dict(
    name="tiny",
    problem_family="poisson",
    num_global_problems=1,
    mesh_element_size=0.14,
    subdomain_size=60,
    num_iterations=2,
    latent_dim=3,
    epochs=2,
    batch_size=20,
    max_train_samples=40,
    max_validation_samples=10,
    bench_sizes=[150],
    bench_repeats=1,
    tolerance=0.5,
)


# --------------------------------------------------------------------------- #
# spec
# --------------------------------------------------------------------------- #
class TestExperimentSpec:
    def test_json_round_trip(self, tmp_path):
        spec = ExperimentSpec.from_dict(TINY_SPEC)
        path = tmp_path / "spec.json"
        spec.save_json(path)
        assert ExperimentSpec.from_json(path) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment-spec fields"):
            ExperimentSpec.from_dict({"name": "x", "learning_rat": 0.1})

    def test_hash_ignores_cosmetic_and_bench_fields(self):
        base = ExperimentSpec.from_dict(TINY_SPEC)
        renamed = ExperimentSpec.from_dict({**TINY_SPEC, "name": "other",
                                            "bench_sizes": [999], "bench_repeats": 9,
                                            "tolerance": 1e-9})
        assert base.config_hash == renamed.config_hash

    def test_hash_changes_with_training_recipe(self):
        base = ExperimentSpec.from_dict(TINY_SPEC)
        for field, value in (("epochs", 3), ("latent_dim", 4), ("seed", 1),
                             ("problem_family", "diffusion-smooth"),
                             ("mesh_element_size", 0.2)):
            changed = ExperimentSpec.from_dict({**TINY_SPEC, field: value})
            assert changed.config_hash != base.config_hash, field

    def test_short_hash_prefixes_full_hash(self):
        spec = ExperimentSpec.from_dict(TINY_SPEC)
        assert spec.config_hash.startswith(spec.short_hash)
        assert len(spec.short_hash) == 12

    def test_derived_configs(self):
        spec = ExperimentSpec.from_dict(TINY_SPEC)
        assert spec.dss_config().num_iterations == 2
        assert spec.training_config().epochs == 2


# --------------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------------- #
class TestHarness:
    def test_end_to_end_artifacts(self, tmp_path):
        spec = ExperimentSpec.from_dict(TINY_SPEC)
        harness = ExperimentHarness(spec, artifacts_root=tmp_path)
        result = harness.run(verbose=False)

        assert result.trained_epochs == 2
        assert result.artifact_dir == tmp_path / spec.short_hash
        for artifact in ("spec.json", "checkpoint.npz", "metrics.json", "bench.json", "report.md"):
            assert (result.artifact_dir / artifact).exists(), artifact
        assert result.metrics["num_samples"] > 0
        solvers = {record["solver"] for record in result.bench_records}
        assert solvers == {"ic0", "ddm-lu", "ddm-gnn"}
        bench_payload = json.loads((result.artifact_dir / "bench.json").read_text())
        assert bench_payload["config_hash"] == spec.config_hash
        # one trace per bench's untimed solve, its outcome on the session.solve span;
        # the harness switched tracing on for it only, and kept nothing behind
        traces = json.loads((result.artifact_dir / "traces.json").read_text())
        assert [t["attributes"]["solver"] for t in traces] == \
            [record["solver"] for record in result.bench_records]
        for trace, record in zip(traces, result.bench_records):
            (solve,) = [c for c in trace["children"] if c["name"] == "session.solve"]
            assert solve["attributes"]["iterations"] == record["iters"]
            assert solve["attributes"]["preconditioner"] == record["solver"]
        assert not obs_trace.trace_enabled() and obs_trace.finished_traces() == []

    def test_bench_keeps_a_callers_traces(self, tmp_path):
        """With tracing already on, the harness adds its roots beside the caller's
        and leaves tracing on: it does not drain what the caller kept."""
        harness = ExperimentHarness(ExperimentSpec.from_dict(TINY_SPEC), artifacts_root=tmp_path)
        obs_trace.enable_tracing()
        try:
            with obs_trace.trace_root("caller.request") as mine:
                pass
            harness.run(verbose=False)
            kept = obs_trace.finished_traces()
            assert obs_trace.trace_enabled()
        finally:
            obs_trace.disable_tracing()
        assert kept[0] is mine
        assert [root.name for root in kept[1:]] == ["experiment.solve"] * 3

    def test_second_run_skips_training(self, tmp_path):
        spec = ExperimentSpec.from_dict(TINY_SPEC)
        ExperimentHarness(spec, artifacts_root=tmp_path).run(verbose=False, skip_bench=True)
        result = ExperimentHarness(spec, artifacts_root=tmp_path).run(verbose=False, skip_bench=True)
        assert result.resumed_from_epoch == 2
        assert result.trained_epochs == 2

    def test_resumed_run_bit_matches_uninterrupted(self, tmp_path):
        """Interrupt after epoch 1; the harness resume reproduces the clean run."""
        spec = ExperimentSpec.from_dict(TINY_SPEC)

        clean = ExperimentHarness(spec, artifacts_root=tmp_path / "clean")
        clean.run(verbose=False, skip_bench=True)

        # simulate the interrupted half-run: identical dataset + 1 epoch,
        # checkpointed into the artifact slot the harness will look at
        interrupted_root = tmp_path / "interrupted"
        checkpoint_path = interrupted_root / spec.short_hash / "checkpoint.npz"
        dataset = generate_dataset(
            num_global_problems=spec.num_global_problems,
            mesh_element_size=spec.mesh_element_size,
            mesh_radius=spec.mesh_radius,
            subdomain_size=spec.subdomain_size,
            overlap=spec.overlap,
            rng=np.random.default_rng(spec.seed),
            problem_family=spec.problem_family,
        )
        trainer = DSSTrainer(DSS(spec.dss_config()), spec.training_config())
        trainer.fit(
            dataset.train[: spec.max_train_samples],
            dataset.validation[: spec.max_validation_samples],
            epochs=1,
            checkpoint_path=str(checkpoint_path),
            checkpoint_metadata={"spec_hash": spec.config_hash},
        )

        result = ExperimentHarness(spec, artifacts_root=interrupted_root).run(
            verbose=False, skip_bench=True
        )
        assert result.resumed_from_epoch == 1
        clean_state = load_checkpoint(clean.checkpoint_path).model_state
        resumed_state = load_checkpoint(checkpoint_path).model_state
        for name in clean_state:
            assert np.array_equal(clean_state[name], resumed_state[name]), name

    def test_foreign_checkpoint_triggers_retrain(self, tmp_path):
        spec = ExperimentSpec.from_dict(TINY_SPEC)
        other = ExperimentSpec.from_dict({**TINY_SPEC, "seed": 9})
        # plant a checkpoint trained under a DIFFERENT spec in this spec's slot
        checkpoint_path = tmp_path / spec.short_hash / "checkpoint.npz"
        checkpoint_path.parent.mkdir(parents=True)
        trainer = DSSTrainer(DSS(other.dss_config()), other.training_config())
        graphs = generate_dataset(
            num_global_problems=1, mesh_element_size=0.14, subdomain_size=60,
            rng=np.random.default_rng(9),
        ).train[:10]
        trainer.fit(graphs, epochs=1, checkpoint_path=str(checkpoint_path),
                    checkpoint_metadata={"spec_hash": other.config_hash})

        result = ExperimentHarness(spec, artifacts_root=tmp_path).run(verbose=False, skip_bench=True)
        assert result.resumed_from_epoch == 0  # did not trust the foreign checkpoint
        assert result.trained_epochs == 2


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCLI:
    def _write_spec(self, tmp_path) -> Path:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TINY_SPEC))
        return path

    def test_hash_command(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        assert experiments_main(["hash", "--spec", str(spec_path)]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == ExperimentSpec.from_dict(TINY_SPEC).short_hash
        assert experiments_main(["hash", "--spec", str(spec_path), "--full"]) == 0
        assert capsys.readouterr().out.strip() == ExperimentSpec.from_dict(TINY_SPEC).config_hash

    def test_show_command(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        assert experiments_main(["show", "--spec", str(spec_path),
                                 "--artifacts-root", str(tmp_path / "artifacts")]) == 0
        out = capsys.readouterr().out
        assert "config hash" in out and "not trained yet" in out

    def test_run_and_list_commands(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        root = tmp_path / "artifacts"
        assert experiments_main(["run", "--spec", str(spec_path),
                                 "--artifacts-root", str(root), "--quiet",
                                 "--skip-bench"]) == 0
        capsys.readouterr()
        assert experiments_main(["list", "--artifacts-root", str(root)]) == 0
        out = capsys.readouterr().out
        assert ExperimentSpec.from_dict(TINY_SPEC).short_hash in out
        assert "tiny" in out
