"""The experiment harness: seed → mesh → train → checkpoint → bench → report.

One :class:`ExperimentHarness` run turns a declarative
:class:`~repro.experiments.spec.ExperimentSpec` into a durable artifact
directory::

    benchmarks/artifacts/<short-hash>/
        spec.json         the resolved spec + full config hash
        checkpoint.npz    versioned model+trainer checkpoint (repro.gnn.checkpoint)
        metrics.json      test-set metrics + per-epoch training history
        bench.json        per-solver setup / apply / iteration / re-solve records
        traces.json       the trace of each bench's untimed solve: one
                          ``session.solve`` span per (solver, size), with its
                          outcome (inspect with ``python -m repro.obs``)
        report.md         human-readable summary of all of the above

Runs are resumable and cache-friendly: an existing checkpoint whose embedded
spec hash matches is picked up where it left off (training continues from the
saved epoch, bit-matching an uninterrupted run), and a checkpoint already at
the target epoch count skips training entirely — so a restored artifact
directory goes straight to benching.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.dataset import generate_dataset
from ..gnn.checkpoint import CheckpointError, load_checkpoint
from ..gnn.dss import DSS
from ..gnn.training import DSSTrainer, evaluate_model
from ..krylov.result import SolveResult
from ..mesh.shapes import mesh_for_target_size
from ..obs import trace as obs_trace
from ..problems import make_problem
from ..solvers import prepare, preconditioner_spec
from .spec import ExperimentSpec

__all__ = ["ExperimentResult", "ExperimentHarness", "default_artifacts_root"]

#: solvers benched against the freshly trained checkpoint
BENCH_SOLVERS = ("ic0", "ddm-lu", "ddm-gnn")


def default_artifacts_root() -> Path:
    """``benchmarks/artifacts`` when run from a checkout, else ``./artifacts``."""
    repo_root = Path(__file__).resolve().parents[3]
    candidate = repo_root / "benchmarks" / "artifacts"
    if candidate.parent.is_dir():
        return candidate
    return Path.cwd() / "artifacts"


@dataclass
class ExperimentResult:
    """Everything a caller (or the CLI) needs to know about a finished run."""

    spec: ExperimentSpec
    config_hash: str
    artifact_dir: Path
    checkpoint_path: Path
    trained_epochs: int
    resumed_from_epoch: int
    metrics: Dict[str, float]
    bench_records: List[Dict] = field(default_factory=list)
    elapsed: Dict[str, float] = field(default_factory=dict)


def _traced_solve(session, **attributes) -> Tuple[SolveResult, obs_trace.Span]:
    """``session.solve()`` under a root span of its own; returns the result and the root.

    Tracing is switched on only if it was off (and off again after), so a
    caller's tracing state, and the traces it has kept, are left as they were.
    """
    was_tracing = obs_trace.trace_enabled()
    if not was_tracing:
        obs_trace.enable_tracing()
    try:
        with obs_trace.trace_root("experiment.solve", **attributes) as root:
            result = session.solve()
    finally:
        if not was_tracing:
            obs_trace.disable_tracing()
    return result, root


class ExperimentHarness:
    """Drives one spec end-to-end and materialises its artifact directory."""

    def __init__(self, spec: ExperimentSpec, artifacts_root: Optional[Path] = None) -> None:
        self.spec = spec
        self.artifacts_root = Path(artifacts_root) if artifacts_root else default_artifacts_root()
        self.artifact_dir = self.artifacts_root / spec.short_hash
        self.checkpoint_path = self.artifact_dir / "checkpoint.npz"

    # ------------------------------------------------------------------ #
    def run(
        self,
        force_retrain: bool = False,
        skip_bench: bool = False,
        verbose: bool = True,
    ) -> ExperimentResult:
        """Execute (or resume) the full pipeline and write every artifact."""
        spec = self.spec
        say = print if verbose else (lambda *a, **k: None)
        self.artifact_dir.mkdir(parents=True, exist_ok=True)
        self._write_json("spec.json", {"config_hash": spec.config_hash, "spec": spec.to_dict()})
        elapsed: Dict[str, float] = {}

        # -- resume decision -------------------------------------------------
        model, trainer, resumed_from = self._restore_or_create(force_retrain, say)

        # -- dataset + training ---------------------------------------------
        if trainer.epochs_done < spec.epochs:
            say(f"[{spec.name}] harvesting dataset: {spec.num_global_problems} "
                f"'{spec.problem_family}' problems, element size {spec.mesh_element_size}")
            with obs_trace.record("experiment.dataset") as stage:
                dataset = self.generate_dataset()
            elapsed["dataset_s"] = stage.seconds
            train = dataset.train[: spec.max_train_samples] if spec.max_train_samples else dataset.train
            validation = dataset.validation[: spec.max_validation_samples]
            say(f"[{spec.name}] training epochs {trainer.epochs_done + 1}..{spec.epochs} "
                f"on {len(train)} local problems ({model.summary()})")
            with obs_trace.record("experiment.train") as stage:
                trainer.fit(
                    train,
                    validation,
                    epochs=spec.epochs,
                    verbose=verbose,
                    checkpoint_path=str(self.checkpoint_path),
                    checkpoint_metadata={"spec_hash": spec.config_hash, "spec_name": spec.name},
                )
            elapsed["train_s"] = stage.seconds
            test = dataset.test[: spec.max_validation_samples]
            metrics = evaluate_model(model, test).as_dict() if test else {}
        else:
            say(f"[{spec.name}] checkpoint already trained to epoch {trainer.epochs_done} — skipping training")
            metrics = self._read_json("metrics.json").get("test_metrics", {})
            if not metrics:
                # a previous run was interrupted after the final checkpoint but
                # before metrics.json landed — recompute instead of losing them
                say(f"[{spec.name}] stored metrics missing — re-evaluating the checkpointed model")
                with obs_trace.record("experiment.evaluate") as stage:
                    test = self.generate_dataset().test[: spec.max_validation_samples]
                    metrics = evaluate_model(model, test).as_dict() if test else {}
                elapsed["evaluate_s"] = stage.seconds

        self._write_json("metrics.json", {
            "config_hash": spec.config_hash,
            "trained_epochs": trainer.epochs_done,
            "test_metrics": metrics,
            "history": [
                {"epoch": s.epoch, "train_loss": s.train_loss,
                 "validation_residual": s.validation_residual,
                 "learning_rate": s.learning_rate}
                for s in trainer.history
            ],
        })

        # -- bench ------------------------------------------------------------
        bench_records: List[Dict] = []
        if not skip_bench:
            with obs_trace.record("experiment.bench") as stage:
                bench_records, traces = self._bench(model, say)
            elapsed["bench_s"] = stage.seconds
            (self.artifact_dir / "traces.json").write_text(
                json.dumps([root.to_dict() for root in traces]) + "\n", encoding="utf-8")
            self._write_json("bench.json", {
                "config_hash": spec.config_hash,
                "tolerance": spec.tolerance,
                "schema": ["solver", "n", "K", "setup_s", "apply_ms_p50",
                           "resolve_ms_p50", "iters", "total_s"],
                "records": bench_records,
            })

        result = ExperimentResult(
            spec=spec,
            config_hash=spec.config_hash,
            artifact_dir=self.artifact_dir,
            checkpoint_path=self.checkpoint_path,
            trained_epochs=trainer.epochs_done,
            resumed_from_epoch=resumed_from,
            metrics=metrics,
            bench_records=bench_records,
            elapsed=elapsed,
        )
        self._write_report(result)
        say(f"[{spec.name}] artifacts in {self.artifact_dir}")
        return result

    # ------------------------------------------------------------------ #
    def generate_dataset(self):
        """Harvest the spec's dataset (deterministic in the spec seed): what ``run`` trains and tests on."""
        spec = self.spec
        return generate_dataset(
            num_global_problems=spec.num_global_problems,
            mesh_element_size=spec.mesh_element_size,
            mesh_radius=spec.mesh_radius,
            subdomain_size=spec.subdomain_size,
            overlap=spec.overlap,
            rng=np.random.default_rng(spec.seed),
            problem_family=spec.problem_family,
            problem_kwargs=dict(spec.problem_kwargs),
        )

    def _restore_or_create(self, force_retrain: bool, say):
        """Build a fresh (model, trainer) or restore one from the checkpoint."""
        spec = self.spec
        if not force_retrain and self.checkpoint_path.exists():
            try:
                checkpoint = load_checkpoint(self.checkpoint_path)
                if checkpoint.metadata.get("spec_hash") == spec.config_hash:
                    model, trainer = checkpoint.build_trainer()
                    say(f"[{spec.name}] resuming from {self.checkpoint_path} "
                        f"(epoch {trainer.epochs_done}/{spec.epochs})")
                    return model, trainer, trainer.epochs_done
                say(f"[{spec.name}] checkpoint belongs to a different spec — retraining")
            except CheckpointError as exc:
                say(f"[{spec.name}] unusable checkpoint ({exc}) — retraining")
        model = DSS(spec.dss_config())
        trainer = DSSTrainer(model, spec.training_config())
        return model, trainer, 0

    def _bench(self, model: DSS, say) -> Tuple[List[Dict], List[obs_trace.Span]]:
        """Per-solver setup/apply/iteration records (``bench.json``) and traces.

        Sessions are built through ``spec.solver_config`` — the same code
        path the benchmarks use — and benched on two axes: the classical
        per-apply cost, and the amortised repeated-RHS cost
        (``resolve_ms_p50``: median wall time of a full re-solve on a fresh
        right-hand side against the already-prepared session).  The one
        untimed solve per (solver, size) runs traced (``traces.json``); the
        timed loops do not.
        """
        spec = self.spec
        records: List[Dict] = []
        traces: List[obs_trace.Span] = []
        rng = np.random.default_rng(spec.seed + 1)
        # separate stream for the fresh resolve RHS so timing knobs
        # (bench_repeats, solver list) never perturb the benched problems
        resolve_rng = np.random.default_rng(spec.seed + 2)
        for target_n in spec.bench_sizes:
            mesh = mesh_for_target_size(target_n, element_size=spec.mesh_element_size, rng=rng)
            problem = make_problem(
                spec.problem_family, mesh=mesh, rng=rng, **dict(spec.problem_kwargs)
            )
            symmetric = getattr(problem, "symmetric", True)
            krylov = "cg" if symmetric else "gmres"
            say(f"[{spec.name}] bench n={problem.num_dofs} "
                f"({', '.join(BENCH_SOLVERS)}, tolerance {spec.tolerance:g})")
            for kind in BENCH_SOLVERS:
                if not symmetric and preconditioner_spec(kind).spd_only:
                    say(f"[{spec.name}]   skipping {kind} (SPD-only) on the nonsymmetric problem")
                    continue
                config = spec.solver_config(kind, krylov=krylov)
                session = prepare(
                    problem,
                    config,
                    model=model if kind == "ddm-gnn" else None,
                )
                preconditioner = session.preconditioner
                preconditioner.apply(problem.rhs)  # warm-up
                times = []
                for _ in range(max(1, spec.bench_repeats)):
                    with obs_trace.record("bench.apply") as apply_record:
                        preconditioner.apply(problem.rhs)
                    times.append(apply_record.seconds)
                result, root = _traced_solve(session, solver=kind, n=int(problem.num_dofs))
                traces.append(root)
                resolve_times = []
                for _ in range(max(1, spec.bench_repeats)):
                    fresh_rhs = resolve_rng.normal(size=problem.num_dofs)
                    with obs_trace.record("bench.resolve") as resolve_record:
                        session.solve(fresh_rhs)
                    resolve_times.append(resolve_record.seconds)
                records.append({
                    "solver": kind,
                    "n": int(problem.num_dofs),
                    "K": int(getattr(preconditioner, "num_subdomains", 0)),
                    "setup_s": round(session.setup_time, 6),
                    "apply_ms_p50": round(float(np.median(times)) * 1e3, 4),
                    "resolve_ms_p50": round(float(np.median(resolve_times)) * 1e3, 4),
                    "iters": int(result.iterations),
                    "total_s": round(result.elapsed_time, 6),
                })
        return records, traces

    # ------------------------------------------------------------------ #
    def _write_report(self, result: ExperimentResult) -> None:
        spec = result.spec
        lines = [
            f"# Experiment report: {spec.name}",
            "",
            f"- config hash: `{result.config_hash}` (artifacts in `{result.artifact_dir.name}/`)",
            f"- problem family: `{spec.problem_family}`, element size {spec.mesh_element_size}, "
            f"sub-domain size {spec.subdomain_size}, overlap {spec.overlap}",
            f"- model: k̄={spec.num_iterations}, d={spec.latent_dim}, α={spec.alpha}",
            f"- trained epochs: {result.trained_epochs}"
            + (f" (resumed from {result.resumed_from_epoch})" if result.resumed_from_epoch else ""),
            "",
        ]
        if result.metrics:
            lines += [
                "## Test metrics",
                "",
                *(f"- {key}: {value:.6g}" for key, value in result.metrics.items()),
                "",
            ]
        if result.bench_records:
            lines += [
                f"## Bench (tolerance {spec.tolerance:g})",
                "",
                "| solver | n | K | setup_s | apply_ms_p50 | resolve_ms_p50 | iters | total_s |",
                "|---|---|---|---|---|---|---|---|",
                *(
                    f"| {r['solver']} | {r['n']} | {r['K']} | {r['setup_s']} "
                    f"| {r['apply_ms_p50']} | {r.get('resolve_ms_p50', '-')} "
                    f"| {r['iters']} | {r['total_s']} |"
                    for r in result.bench_records
                ),
                "",
            ]
        if result.elapsed:
            lines += [
                "## Wall time",
                "",
                *(f"- {stage}: {seconds:.1f}s" for stage, seconds in result.elapsed.items()),
                "",
            ]
        (self.artifact_dir / "report.md").write_text("\n".join(lines), encoding="utf-8")

    def _write_json(self, name: str, payload: Dict) -> None:
        (self.artifact_dir / name).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    def _read_json(self, name: str) -> Dict:
        path = self.artifact_dir / name
        if not path.exists():
            return {}
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            return {}
