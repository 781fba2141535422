#!/usr/bin/env python
"""The paper's tables and figures, regenerated in one run.

Run:  python benchmarks/paper_tables.py        (no arguments; ~2 min on 2 CPUs)

Every cell runs at one CPU-sized scale — the constants below; the paper's own
sizes are written beside each table — and gets its DSS from one of two places:

* the homogeneous cells load the frozen ``benchmarks/ledger/dss_k20_d10.npz``
  read-only (the file the ledger and ``TestIterationBudget`` use);
* the cells that train — the Table II / Fig. 6 (k̄, d) grid and the
  checkerboard-κ model — are :class:`~repro.experiments.ExperimentSpec` s run
  through :class:`~repro.experiments.ExperimentHarness`, the repo's one
  training recipe, cached by config hash under ``benchmarks/artifacts/``.

The results are written to ``PAPER_TABLES.json`` at the repository root, and
``PAPER_TABLES.md`` is rendered from that file.  The checks come in two kinds:

* **contract** — what the code claims: every cell converges, the DDM kinds
  need fewer iterations than CG, the weight counts are the paper's, ... .  One
  failing check makes the exit status 1.
* **departure** — an ordering the paper reports that this reproduction does
  not follow (DESIGN.md, "Where the reproduction departs from the paper").
  Recorded with its numbers and a ``holds`` flag; it never sets the exit
  status.

Every time in the tables is a field of a :class:`~repro.krylov.SolveResult`
(a span read); the script holds no clock of its own.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy loads, so the counts repeat from host to host
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core import DDMGNNPreconditioner  # noqa: E402
from repro.ddm import AdditiveSchwarzPreconditioner, LULocalSolver  # noqa: E402
from repro.experiments import ExperimentHarness, ExperimentSpec  # noqa: E402
from repro.gnn import DSS, DSSConfig, evaluate_model, load_model  # noqa: E402
from repro.krylov import preconditioned_conjugate_gradient  # noqa: E402
from repro.mesh import box_mesh_for_target_size, formula1_mesh, mesh_for_target_size, random_domain_mesh  # noqa: E402
from repro.partition import OverlappingDecomposition, analyse_partition, partition_mesh_target_size  # noqa: E402
from repro.problems import available_problems, make_problem, problem_spec  # noqa: E402
from repro.solvers import SolverConfig, preconditioner_spec, prepare  # noqa: E402
from repro.utils import format_mean_std, format_table  # noqa: E402

JSON_PATH = ROOT / "PAPER_TABLES.json"
MD_PATH = ROOT / "PAPER_TABLES.md"
CHECKPOINT = ROOT / "benchmarks" / "ledger" / "dss_k20_d10.npz"

#: mesh element size and sub-domain size of every homogeneous cell (0.024 and 1,000 in the paper)
ELEMENT_SIZE = 0.07
SUBDOMAIN_SIZE = 110
TABLE1_SIZES = (500, 1200)
TABLE3_SIZES = (800, 2000, 4000)
#: random problems per Table I row and per contrast of the heterogeneous sweep (100 in the paper)
REPETITIONS = 2
FORMULA1_LENGTH = 8.0
FORMULA1_ELEMENT_SIZE = 0.10
#: the (k̄, d) grid trained for Table II and Fig. 6 (the paper trains ten), and its epoch budget
GRID = ((5, 10), (10, 10), (20, 10))
GRID_EPOCHS = 3
#: Table II's "Nb Weights" column, the paper's full grid
PAPER_WEIGHTS = {
    (5, 5): 1755, (5, 10): 6255, (5, 20): 23505,
    (10, 5): 3510, (10, 10): 12510, (10, 20): 47010,
    (20, 5): 7020, (20, 10): 25020, (20, 20): 94020,
    (30, 10): 37530,
}
CONTRASTS = (1.0, 1e2, 1e4)
HET_ELEMENT_SIZE = 0.08

#: the paper's own sizes, written beside each table
PAPER_SCALE = {
    "table1": "N = 2,632 / 7,148 / 33,969; Ns = 500 / 1,000 / 2,000; 100 problems per row",
    "table2": "ten (k̄, d) models, 400 epochs on ~70k local problems of ~1,000 nodes",
    "table3": "N = 10,571 … 609,740 (six sizes), 1,000-node sub-domains, C++/LibTorch",
    "fig4": "one domain of ~7,420 nodes in 8 sub-meshes of ~1,000",
    "fig5": "Formula-1 mesh of 233k nodes, 234 sub-meshes",
    "fig6": "the ten (k̄, d) models, N = 10,000",
    "sec4b": "residual 0.0058 ± 0.002, relative error 0.13 ± 0.2; ~117k samples from 500 problems",
}


def grid_spec(k: int, d: int) -> ExperimentSpec:
    """The Table II / Fig. 6 recipe of one (k̄, d) cell."""
    return ExperimentSpec(
        name=f"paper-grid-k{k}-d{d}", num_global_problems=4, mesh_element_size=ELEMENT_SIZE,
        subdomain_size=SUBDOMAIN_SIZE, num_iterations=k, latent_dim=d, epochs=GRID_EPOCHS,
        max_train_samples=300,
    )


#: the checkerboard-κ model: equilibrated local problems at contrast 10⁴, κ-blind features
#: (the κ-aware channels measured worse at this budget: test residual 0.049 against 0.032)
KAPPA_SPEC = ExperimentSpec(
    name="paper-kappa-checkerboard", problem_family="diffusion-checkerboard",
    problem_kwargs={"contrast": 1e4}, num_global_problems=4, mesh_element_size=HET_ELEMENT_SIZE,
    subdomain_size=SUBDOMAIN_SIZE, num_iterations=20, latent_dim=10, epochs=12,
)


def train(spec: ExperimentSpec):
    """(model, test metrics) of a spec, trained once and cached by its config hash."""
    result = ExperimentHarness(spec).run(skip_bench=True, verbose=False)
    return load_model(result.checkpoint_path), result.metrics


class Checks:
    """The two kinds of check: contract (gates the exit status) and departure (recorded only)."""

    def __init__(self) -> None:
        self.contract = []
        self.departures = []

    def claim(self, cell: str, claim: str, holds: bool, **numbers) -> None:
        self.contract.append({"cell": cell, "claim": claim, "holds": bool(holds), **numbers})

    def departure(self, cell: str, claim: str, holds: bool, **numbers) -> None:
        self.departures.append({"cell": cell, "claim": claim, "holds": bool(holds), **numbers})


def solve(problem, kind, model=None, **config):
    return prepare(problem, SolverConfig(preconditioner=kind, **config),
                   model=model if kind == "ddm-gnn" else None).solve()


def seconds(value: float) -> float:
    return round(float(value), 4)


# --------------------------------------------------------------------------- #
# the cells
# --------------------------------------------------------------------------- #
def table1(model, checks):
    """Iterations to 1e-6 for N × Ns × overlap, plus exact LU local solves in ddm-gnn's skeleton."""
    rng = np.random.default_rng(0)
    rows = []
    for target_n in TABLE1_SIZES:
        mesh = mesh_for_target_size(target_n, element_size=ELEMENT_SIZE, rng=rng)
        problems = [make_problem("poisson", mesh=mesh, rng=rng) for _ in range(REPETITIONS)]
        for ns, overlap in ((SUBDOMAIN_SIZE // 2, 2), (SUBDOMAIN_SIZE, 2), (SUBDOMAIN_SIZE * 2, 2),
                            (SUBDOMAIN_SIZE, 4)):
            counts = {"ddm-gnn": [], "ddm-lu": [], "none": [], "exact-local": []}
            converged = True
            for problem in problems:
                config = dict(subdomain_size=ns, overlap=overlap, tolerance=1e-6, max_iterations=6000)
                gnn = prepare(problem, SolverConfig(preconditioner="ddm-gnn", **config), model=model)
                results = {"ddm-gnn": gnn.solve(), "ddm-lu": solve(problem, "ddm-lu", **config),
                           "none": solve(problem, "none", **config)}
                # exact LU local solves in ddm-gnn's own skeleton: RAS glue, the coarse solve last
                exact = AdditiveSchwarzPreconditioner(problem.matrix, gnn.decomposition, LULocalSolver(),
                                                      levels=2, variant="ras")
                results["exact-local"] = preconditioned_conjugate_gradient(
                    problem.matrix, problem.rhs, exact, tolerance=1e-6, max_iterations=6000)
                for kind, result in results.items():
                    counts[kind].append(result.iterations)
                    converged &= result.converged
                converged &= results["exact-local"].info["recurrence"] == "flexible"
            rows.append({"N": mesh.num_nodes, "Ns": ns, "K": gnn.decomposition.num_subdomains,
                         "overlap": overlap, "converged": converged, "iterations": counts})

    mean = {kind: [float(np.mean(row["iterations"][kind])) for row in rows] for kind in counts}
    checks.claim("table1", "every cell converges to 1e-6 (exact-local under flexible CG)",
                 all(row["converged"] for row in rows))
    checks.claim("table1", "ddm-gnn < cg on every row (means)",
                 all(g < c for g, c in zip(mean["ddm-gnn"], mean["none"])))
    checks.claim("table1", "exact-local <= ddm-gnn on every row (means)",
                 all(e <= g for e, g in zip(mean["exact-local"], mean["ddm-gnn"])))
    late = [{"N": row["N"], "Ns": row["Ns"], "overlap": row["overlap"], "ddm-lu": lu, "ddm-gnn": gnn}
            for row, lu, gnn in zip(rows, mean["ddm-lu"], mean["ddm-gnn"]) if lu > gnn + 1]
    checks.departure("table1", "the paper's ordering ddm-lu <= ddm-gnn + 1 on every row (means)", not late,
                     failing_rows=late)
    return {"tolerance": 1e-6, "rows": rows}


def table2(checks):
    """DSS test metrics and weight counts over the trained (k̄, d) grid."""
    weights = [{"k": k, "d": d, "weights": DSS(DSSConfig(num_iterations=k, latent_dim=d)).num_parameters(),
                "paper": expected} for (k, d), expected in PAPER_WEIGHTS.items()]
    checks.claim("table2", "the weight count of every model of the paper's grid is the paper's",
                 all(w["weights"] == w["paper"] for w in weights))
    rows, models = [], {}
    for k, d in GRID:
        models[k, d], metrics = train(grid_spec(k, d))
        rows.append({"k": k, "d": d, "weights": models[k, d].num_parameters(), "spec": grid_spec(k, d).short_hash,
                     "residual": [metrics["residual_mean"], metrics["residual_std"]],
                     "relative_error": [metrics["relative_error_mean"], metrics["relative_error_std"]]})
    shallow, deep = rows[0]["residual"][0], rows[-1]["residual"][0]
    checks.departure("table2", f"the paper's depth trend: residual(k̄={GRID[-1][0]}) <= 1.5 × "
                     f"residual(k̄={GRID[0][0]}) after {GRID_EPOCHS} epochs", deep <= 1.5 * shallow,
                     deep=deep, shallow=shallow)
    return {"epochs": GRID_EPOCHS, "weights": weights, "rows": rows}, models


def table3(model, checks):
    """IC(0), DDM-LU and DDM-GNN at 1e-3: iterations, solve time T and preconditioner time."""
    rng = np.random.default_rng(1)
    rows = []
    for target_n in TABLE3_SIZES:
        mesh = mesh_for_target_size(target_n, element_size=ELEMENT_SIZE, rng=rng)
        problem = make_problem("poisson", mesh=mesh, rng=rng)
        for ns in (SUBDOMAIN_SIZE * 2, SUBDOMAIN_SIZE, SUBDOMAIN_SIZE // 2):
            results = {kind: solve(problem, kind, model, subdomain_size=ns, overlap=2, tolerance=1e-3,
                                   max_iterations=4000) for kind in ("ic0", "ddm-lu", "ddm-gnn")}
            rows.append({
                "N": mesh.num_nodes, "Ns": ns, "K": results["ddm-lu"].info["num_subdomains"],
                "converged": all(r.converged for r in results.values()),
                "iterations": {kind: r.iterations for kind, r in results.items()},
                "time_s": {kind: seconds(r.elapsed_time) for kind, r in results.items()},
                "preconditioner_time_s": {kind: seconds(r.preconditioner_time) for kind, r in results.items()},
            })
    # growth from the smallest to the largest N, at the largest sub-domains
    first, *_, last = (row["iterations"] for row in rows if row["Ns"] == SUBDOMAIN_SIZE * 2)
    growth = {kind: last[kind] / max(first[kind], 1) for kind in first}
    for kind in ("ddm-lu", "ddm-gnn"):
        checks.claim("table3", f"{kind}'s iteration growth from the smallest to the largest N <= IC(0)'s + 0.5",
                     growth[kind] <= growth["ic0"] + 0.5, growth=growth[kind], ic0_growth=growth["ic0"])
    checks.claim("table3", "T_gnn <= T on every row", all(
        row["preconditioner_time_s"]["ddm-gnn"] <= row["time_s"]["ddm-gnn"] + 1e-9 for row in rows))
    return {"tolerance": 1e-3, "rows": rows}


def fig4(checks):
    """One random domain and its partition (the data behind the figure)."""
    mesh = random_domain_mesh(radius=1.0, element_size=ELEMENT_SIZE, rng=np.random.default_rng(4))
    partition = partition_mesh_target_size(mesh, SUBDOMAIN_SIZE, rng=np.random.default_rng(4))
    report = analyse_partition(mesh, partition)
    decomposition = OverlappingDecomposition(mesh, partition, overlap=2)
    checks.claim("fig4", "imbalance < 1.5", report.imbalance < 1.5, imbalance=report.imbalance)
    checks.claim("fig4", "at most one sub-mesh disconnected", report.connected_parts >= report.num_parts - 1)
    checks.claim("fig4", "the overlapping sub-domains cover every node", decomposition.covers_all_nodes())
    return {"nodes": mesh.num_nodes, "triangles": mesh.num_cells,
            "mean_element_quality": round(float(mesh.quality()["mean_quality"]), 4),
            "K": report.num_parts, "sizes_min_mean_max": [report.min_size, round(report.mean_size, 1),
                                                         report.max_size],
            "imbalance": round(report.imbalance, 4), "edge_cut_fraction": round(report.edge_cut_fraction, 4),
            "connected": report.connected_parts,
            "overlapping_mean_size": round(float(decomposition.sizes().mean()), 1)}


def fig5(model, checks):
    """Out-of-distribution solve to 1e-9 on the Formula-1 mesh with holes."""
    mesh = formula1_mesh(length=FORMULA1_LENGTH, element_size=FORMULA1_ELEMENT_SIZE, with_holes=True)
    rng = np.random.default_rng(5)
    scale = FORMULA1_LENGTH / 2.0
    problem = make_problem("poisson", mesh=mesh, rng=rng, scale=scale)
    rows, results = [], {}
    for kind, label in (("none", "CG"), ("ddm-lu", "DDM-LU"), ("ddm-gnn", "DDM-GNN")):
        results[label] = result = solve(problem, kind, model, subdomain_size=SUBDOMAIN_SIZE, overlap=2,
                                        tolerance=1e-9, max_iterations=20000)
        rows.append({"method": label, "K": result.info.get("num_subdomains"), "converged": result.converged,
                     "iterations": result.iterations,
                     "final_residual": float(f"{result.final_relative_residual:.3g}"),
                     "time_s": seconds(result.elapsed_time),
                     "residual_every_10": [float(f"{v:.3g}") for v in result.residual_history[::10][:25]]})
    checks.claim("fig5", "every method converges to 1e-9", all(r.converged for r in results.values()))
    checks.claim("fig5", "DDM-GNN < CG", results["DDM-GNN"].iterations < results["CG"].iterations)
    checks.claim("fig5", "DDM-LU <= DDM-GNN + 2", results["DDM-LU"].iterations <= results["DDM-GNN"].iterations + 2)
    return {"N": mesh.num_nodes, "tolerance": 1e-9, "rows": rows}


def fig6(models, checks):
    """Per-apply inference time, iterations and total time of each grid model on one problem."""
    rng = np.random.default_rng(6)
    mesh = mesh_for_target_size(TABLE1_SIZES[-1], element_size=ELEMENT_SIZE, rng=rng)
    problem = make_problem("poisson", mesh=mesh, rng=rng)
    rows = []
    for (k, d), model in models.items():
        result = solve(problem, "ddm-gnn", model, subdomain_size=SUBDOMAIN_SIZE, overlap=2, tolerance=1e-6,
                       max_iterations=4000)
        rows.append({"k": k, "d": d, "weights": model.num_parameters(), "converged": result.converged,
                     "iterations": result.iterations,
                     "inference_s_per_apply": seconds(result.info["gnn_stats"]["mean_inference_time"]),
                     "time_s": seconds(result.elapsed_time)})
    small, large = rows[0]["inference_s_per_apply"], rows[-1]["inference_s_per_apply"]
    checks.claim("fig6", f"inference per apply at k̄={GRID[-1][0]} >= 0.8 × at k̄={GRID[0][0]}",
                 large >= 0.8 * small, large=large, small=small)
    return {"N": mesh.num_nodes, "tolerance": 1e-6, "rows": rows}


def ablations(model, checks):
    """Coarse level on/off, residual normalisation on/off, and the local solver's quality."""
    rng = np.random.default_rng(11)
    mesh = mesh_for_target_size(TABLE1_SIZES[-1], element_size=ELEMENT_SIZE, rng=rng)
    problem = make_problem("poisson", mesh=mesh, rng=rng)
    config = dict(subdomain_size=SUBDOMAIN_SIZE, overlap=2, tolerance=1e-6, max_iterations=4000)

    coarse = {}
    for kind in ("ddm-gnn", "ddm-lu"):
        for levels in (1, 2):
            result = solve(problem, kind, model, levels=levels, **config)
            coarse[kind, levels] = {"preconditioner": kind, "levels": levels, "converged": result.converged,
                                    "iterations": result.iterations}
    for kind in ("ddm-lu", "ddm-gnn"):
        checks.claim("ablation_coarse", f"{kind}: two levels <= one level + 2",
                     coarse[kind, 2]["iterations"] <= coarse[kind, 1]["iterations"] + 2)

    partition = partition_mesh_target_size(mesh, SUBDOMAIN_SIZE, rng=np.random.default_rng(0))
    decomposition = OverlappingDecomposition(mesh, partition, overlap=2)
    normalisation = {}
    for normalise in (True, False):
        pre = DDMGNNPreconditioner(problem.matrix, mesh, decomposition, model, levels=2,
                                   normalize_local_residuals=normalise)
        normalisation[normalise] = preconditioned_conjugate_gradient(
            problem.matrix, problem.rhs, preconditioner=pre, tolerance=1e-6, max_iterations=2000)
    checks.claim("ablation_normalisation", "the normalised input converges", normalisation[True].converged)
    checks.claim("ablation_normalisation", "normalised final residual <= 10 × raw",
                 normalisation[True].final_relative_residual <= 10 * normalisation[False].final_relative_residual)

    local = {}
    for kind, label in (("ddm-lu", "exact LU"), ("ddm-gnn", "DSS (GNN)"), ("ddm-jacobi", "damped Jacobi")):
        result = solve(problem, kind, model, jacobi_sweeps=5, **config)
        local[label] = {"local_solver": label, "converged": result.converged, "iterations": result.iterations,
                        "time_s": seconds(result.elapsed_time)}
    checks.claim("ablation_local_solver", "exact LU <= DSS + 1",
                 local["exact LU"]["iterations"] <= local["DSS (GNN)"]["iterations"] + 1)
    return ({"rows": list(coarse.values())},
            {"rows": [{"input": "normalised" if normalise else "raw", "converged": result.converged,
                       "iterations": result.iterations,
                       "final_residual": float(f"{result.final_relative_residual:.3g}")}
                      for normalise, result in normalisation.items()]},
            {"rows": list(local.values())})


def sec4b(model, checks):
    """The harvested dataset's structure (Sec. IV-A) and the checkpoint's test metrics (Sec. IV-B)."""
    dataset = ExperimentHarness(grid_spec(*GRID[0])).generate_dataset()
    n_train, n_val, n_test = dataset.sizes
    sizes = [g.num_nodes for g in dataset.train[:200]]
    checks.claim("sec4b", "more training samples than validation or test samples", n_train > max(n_val, n_test))
    checks.claim("sec4b", "every sample is a normalised local problem with its operator", all(
        g.matrix is not None and np.isclose(np.linalg.norm(g.source), 1.0) for g in dataset.train[:20]))
    metrics = evaluate_model(model, dataset.test[:80]).as_dict()
    checks.claim("sec4b", "test residual < 0.05 (the zero prediction's is ≈ 0.08)", metrics["residual_mean"] < 0.05)
    checks.claim("sec4b", "test relative error < 1", metrics["relative_error_mean"] < 1.0)
    return {"dataset": {"train_validation_test": [n_train, n_val, n_test],
                        "subproblem_nodes_min_mean_max": [min(sizes), round(float(np.mean(sizes)), 1), max(sizes)]},
            "metrics": metrics, "model": model.summary()}


def heterogeneous(model, checks):
    """Checkerboard-κ diffusion at contrast 1, 10², 10⁴ under all four solvers."""
    kappa_model, kappa_metrics = train(KAPPA_SPEC)
    rng = np.random.default_rng(11)
    rows = []
    for contrast in CONTRASTS:
        # each regime uses the model trained for it: the ledger model at κ ≡ 1, the κ model above
        regime_model = model if contrast == 1.0 else kappa_model
        counts = {kind: [] for kind in ("ddm-gnn", "ddm-lu", "ic0", "none")}
        converged = True
        for _ in range(REPETITIONS):
            mesh = random_domain_mesh(radius=1.0, element_size=HET_ELEMENT_SIZE, rng=rng)
            problem = make_problem("diffusion-checkerboard", mesh=mesh, rng=rng, contrast=contrast)
            for kind in counts:
                result = solve(problem, kind, regime_model, subdomain_size=SUBDOMAIN_SIZE, overlap=2,
                               tolerance=1e-6, max_iterations=6000)
                counts[kind].append(result.iterations)
                converged &= result.converged
        rows.append({"contrast": contrast, "model": "ledger" if contrast == 1.0 else "kappa",
                     "converged": converged, "iterations": counts})
    checks.claim("heterogeneous", "every solver converges at every contrast", all(r["converged"] for r in rows))
    growth = {kind: np.mean(rows[-1]["iterations"][kind]) / max(np.mean(rows[0]["iterations"][kind]), 1.0)
              for kind in ("ddm-gnn", "none")}
    checks.claim("heterogeneous", "ddm-gnn's iteration growth over the contrast < CG's",
                 growth["ddm-gnn"] < growth["none"], gnn_growth=growth["ddm-gnn"], cg_growth=growth["none"])
    return {"tolerance": 1e-6, "kappa_spec": KAPPA_SPEC.short_hash, "kappa_metrics": kappa_metrics, "rows": rows}


def family_sweep(checks):
    """Every registered family under the classical preconditioners, on a mesh of its own dimension."""
    rng = np.random.default_rng(3)
    meshes = {2: random_domain_mesh(radius=1.0, element_size=0.1, rng=rng), 3: box_mesh_for_target_size(512)}
    rows = []
    for name in available_problems():
        dim = problem_spec(name).dim
        problem = make_problem(name, mesh=meshes[dim], rng=np.random.default_rng(3))
        counts, converged = {}, True
        for kind in ("ddm-lu", "ic0", "none"):
            if not problem.symmetric and preconditioner_spec(kind).spd_only:
                continue  # e.g. IC(0): Cholesky-based, SPD only
            result = solve(problem, kind, krylov="cg" if problem.symmetric else "gmres", subdomain_size=80,
                           tolerance=1e-6, max_iterations=6000)
            counts[kind] = result.iterations
            converged &= result.converged
        rows.append({"family": name, "N": problem.num_dofs, "converged": converged, "iterations": counts})
    checks.claim("family_sweep", "every family converges under every applicable preconditioner",
                 all(r["converged"] for r in rows),
                 failing=[r["family"] for r in rows if not r["converged"]])
    return {"tolerance": 1e-6, "rows": rows}


# --------------------------------------------------------------------------- #
# PAPER_TABLES.md, rendered from the JSON
# --------------------------------------------------------------------------- #
def mean_std(counts) -> str:
    return format_mean_std(np.mean(counts), np.std(counts), 0)


def tol_label(value: float) -> str:
    return f"{value:.0e}".replace("e-0", "e-")


def number(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else json.dumps(value, ensure_ascii=False)


def block(headers, rows) -> list:
    return ["```text", format_table(headers, rows), "```", ""]


def render(data: dict) -> str:
    t1, t2, t3 = data["table1"], data["table2"], data["table3"]
    lines = [
        "# The paper's tables, regenerated",
        "",
        "Written by `python benchmarks/paper_tables.py` from `PAPER_TABLES.json`; do not edit by hand.",
        f"Homogeneous cells use `{data['checkpoint']}`; trained cells are experiment specs "
        "(config hash in the tables).  Departures from the paper are explained in DESIGN.md, "
        "\"Where the reproduction departs from the paper\".",
        "",
        f"## Table I — iterations to {tol_label(t1['tolerance'])} (paper: {data['paper_scale']['table1']})",
        "",
        "`exact-local` is exact LU local solves in `ddm-gnn`'s own skeleton (RAS glue, coarse solve last, "
        "flexible CG); `gnn/exact` is the ratio of the two means.",
        "",
        *block(["N", "Ns", "K", "overlap", "DDM-GNN", "DDM-LU", "CG", "exact-local", "gnn/exact"], [
            [r["N"], r["Ns"], r["K"], r["overlap"], *(mean_std(r["iterations"][k])
                                                   for k in ("ddm-gnn", "ddm-lu", "none", "exact-local")),
             f"{np.mean(r['iterations']['ddm-gnn']) / np.mean(r['iterations']['exact-local']):.2f}"]
            for r in t1["rows"]]),
        f"## Table II — DSS test metrics after {t2['epochs']} epochs (paper: {data['paper_scale']['table2']})",
        "",
        *block(["k̄", "d", "residual", "relative error", "weights", "spec"], [
            [r["k"], r["d"], f"{r['residual'][0]:.4f} ± {r['residual'][1]:.4f}",
             f"{r['relative_error'][0]:.2f} ± {r['relative_error'][1]:.2f}", r["weights"], r["spec"]]
            for r in t2["rows"]]),
        "Weight counts of the paper's full grid:",
        "",
        *block(["k̄", "d", "weights", "paper"], [[w["k"], w["d"], w["weights"], w["paper"]] for w in t2["weights"]]),
        f"## Table III — PCG to {tol_label(t3['tolerance'])} (paper: {data['paper_scale']['table3']})",
        "",
        *block(["N", "K", "IC0 iters", "IC0 T", "LU iters", "LU T", "T_lu", "GNN iters", "GNN T", "T_gnn"], [
            [r["N"], r["K"], r["iterations"]["ic0"], r["time_s"]["ic0"],
             r["iterations"]["ddm-lu"], r["time_s"]["ddm-lu"], r["preconditioner_time_s"]["ddm-lu"],
             r["iterations"]["ddm-gnn"], r["time_s"]["ddm-gnn"], r["preconditioner_time_s"]["ddm-gnn"]]
            for r in t3["rows"]]),
        f"## Fig. 4 — domain and partition (paper: {data['paper_scale']['fig4']})",
        "",
        *block(["quantity", "value"], [[key, value] for key, value in data["fig4"].items()]),
        f"## Fig. 5 — Formula-1 mesh, N = {data['fig5']['N']}, to {tol_label(data['fig5']['tolerance'])} "
        f"(paper: {data['paper_scale']['fig5']})",
        "",
        *block(["method", "K", "iterations", "final residual", "time [s]"], [
            [r["method"], r["K"] or "-", r["iterations"], r["final_residual"], r["time_s"]]
            for r in data["fig5"]["rows"]]),
        "Residual history, every 10 iterations:",
        "",
        *block(["method", "relative residual"], [
            [r["method"], " ".join(f"{v:.1e}" for v in r["residual_every_10"])] for r in data["fig5"]["rows"]]),
        f"## Fig. 6 — DSS size against solve cost, N = {data['fig6']['N']} (paper: {data['paper_scale']['fig6']})",
        "",
        *block(["k̄", "d", "weights", "inference / apply [s]", "iterations", "total [s]", "converged"], [
            [r["k"], r["d"], r["weights"], r["inference_s_per_apply"], r["iterations"], r["time_s"], r["converged"]]
            for r in data["fig6"]["rows"]]),
        f"## Sec. IV-B — dataset and test metrics (paper: {data['paper_scale']['sec4b']})",
        "",
        *block(["quantity", "value"], [
            ["train / validation / test", data["sec4b"]["dataset"]["train_validation_test"]],
            ["sub-problem nodes min / mean / max", data["sec4b"]["dataset"]["subproblem_nodes_min_mean_max"]],
            ["residual", f"{data['sec4b']['metrics']['residual_mean']:.4f} ± "
                         f"{data['sec4b']['metrics']['residual_std']:.4f}"],
            ["relative error", f"{data['sec4b']['metrics']['relative_error_mean']:.3f} ± "
                               f"{data['sec4b']['metrics']['relative_error_std']:.3f}"],
            ["model", data["sec4b"]["model"]]]),
        "## Ablations",
        "",
        *block(["preconditioner", "levels", "iterations", "converged"], [
            [r["preconditioner"], r["levels"], r["iterations"], r["converged"]]
            for r in data["ablation_coarse"]["rows"]]),
        *block(["local residual input", "iterations", "final residual", "converged"], [
            [r["input"], r["iterations"], r["final_residual"], r["converged"]]
            for r in data["ablation_normalisation"]["rows"]]),
        *block(["local solver", "iterations", "time [s]", "converged"], [
            [r["local_solver"], r["iterations"], r["time_s"], r["converged"]]
            for r in data["ablation_local_solver"]["rows"]]),
        "## Heterogeneous diffusion — checkerboard κ, iterations to 1e-6",
        "",
        f"The κ model is spec `{data['heterogeneous']['kappa_spec']}` (test residual "
        f"{data['heterogeneous']['kappa_metrics']['residual_mean']:.4f}); contrast 1 uses the ledger model.",
        "",
        *block(["κ_max/κ_min", "DDM-GNN", "DDM-LU", "IC(0)", "CG"], [
            [f"{r['contrast']:g}", *(mean_std(r["iterations"][k]) for k in ("ddm-gnn", "ddm-lu", "ic0", "none"))]
            for r in data["heterogeneous"]["rows"]]),
        "## Problem-family sweep — iterations to 1e-6",
        "",
        *block(["family", "N", "DDM-LU", "IC(0)", "CG"], [
            [r["family"], r["N"], *(r["iterations"].get(k, "-") for k in ("ddm-lu", "ic0", "none"))]
            for r in data["family_sweep"]["rows"]]),
        "## Contract checks (gate the exit status)",
        "",
        *(f"- [{'holds' if c['holds'] else 'FAILS'}] {c['cell']}: {c['claim']}" for c in data["contract"]),
        "",
        "## Departures from the paper (recorded, never gating)",
        "",
        *(f"- {c['cell']}: {c['claim']} — holds: {str(c['holds']).lower()}; "
          + ", ".join(f"{key} = {number(value)}" for key, value in c.items() if key not in ("cell", "claim", "holds"))
          for c in data["departures"]),
        "",
    ]
    return "\n".join(lines)


def main() -> int:
    model = load_model(CHECKPOINT)
    checks = Checks()
    data = {"checkpoint": str(CHECKPOINT.relative_to(ROOT)), "paper_scale": PAPER_SCALE}
    data["table1"] = table1(model, checks)
    data["table2"], grid_models = table2(checks)
    data["table3"] = table3(model, checks)
    data["fig4"] = fig4(checks)
    data["fig5"] = fig5(model, checks)
    data["fig6"] = fig6(grid_models, checks)
    data["ablation_coarse"], data["ablation_normalisation"], data["ablation_local_solver"] = ablations(model, checks)
    data["sec4b"] = sec4b(model, checks)
    data["heterogeneous"] = heterogeneous(model, checks)
    data["family_sweep"] = family_sweep(checks)
    data["contract"], data["departures"] = checks.contract, checks.departures

    JSON_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    MD_PATH.write_text(render(json.loads(JSON_PATH.read_text(encoding="utf-8"))), encoding="utf-8")
    print(MD_PATH.read_text(encoding="utf-8"))
    failed = [c for c in checks.contract if not c["holds"]]
    for c in failed:
        print(f"contract check failed — {c['cell']}: {c['claim']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
