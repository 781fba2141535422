#!/usr/bin/env python
"""Weak scaling at fixed sub-domain size — the table of DESIGN.md, "Set-up scaling".

One row per operator (2D Poisson on growing random domains, one structured 3D box) cut into ~110-node
sub-domains with overlap 2: set-up seconds per layer; iterations, solve seconds and apply cost of ddm-gnn /
ddm-lu / ic0 at 1e-3 on a manufactured right-hand side; ddm-lu at 1e-6 on the problem's forcing; peak RSS
so far — 2D rows run smallest first and the box last, so the box's RSS is its own only when it runs alone.
Run:  OPENBLAS_NUM_THREADS=1 python examples/weak_scaling.py --targets 2400 6000 --box 4000
"""

import argparse
import json
import time
from pathlib import Path
from resource import RUSAGE_SELF, getrusage

import numpy as np

from repro.ddm import NicolaidesCoarseSpace
from repro.gnn.checkpoint import load_model
from repro.mesh import box_mesh_for_target_size, mesh_for_target_size
from repro.problems import make_problem
from repro.solvers import SolverConfig, prepare

CHECKPOINT = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger" / "dss_k20_d10.npz"
KINDS = ("ddm-gnn", "ddm-lu", "ic0")
LAYERS = ["mesh.generate_s", "fem.assemble_s", "partition_s", "overlap_s", "local_lu_s", "coarse_s", "gnn_build_s"]


def solver_config(kind: str, tolerance: float) -> SolverConfig:  # the cap only binds ddm-gnn's 3D row (a 2D model)
    return SolverConfig(preconditioner=kind, subdomain_size=110, overlap=2, tolerance=tolerance, max_iterations=100)


def measure(family: str, build_mesh, model) -> dict:
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    mesh = build_mesh(rng)
    meshed = time.perf_counter()
    problem = make_problem(family, mesh=mesh, rng=rng)
    row = {"family": family, "mesh.generate_s": meshed - start, "fem.assemble_s": time.perf_counter() - meshed}
    n = row["n"] = problem.num_dofs
    rhs = problem.matrix @ rng.normal(size=n)
    for kind in KINDS:
        session = prepare(problem, solver_config(kind, 1e-3), model=model if kind == "ddm-gnn" else None)
        result = session.solve(rhs)
        row[kind] = {**session.setup_timings, "iterations": result.iterations, "converged": result.converged,
                     "apply_ms_per_1k_dofs": 1e6 * result.preconditioner_time / ((result.iterations + 1) * n),
                     "solve_s": result.elapsed_time, "peak_rss_mb": getrusage(RUSAGE_SELF).ru_maxrss / 1024}
    tight = prepare(problem, solver_config("ddm-lu", 1e-6))
    start = time.perf_counter()
    NicolaidesCoarseSpace(tight.decomposition.subdomain_nodes, n).factorize(problem.matrix)
    coarse_s, lu, gnn = time.perf_counter() - start, row["ddm-lu"], row["ddm-gnn"]
    row.update({"K": tight.decomposition.num_subdomains, "partition_s": gnn["partition_s"] - gnn["overlap_s"],
                "overlap_s": gnn["overlap_s"], "local_lu_s": lu["preconditioner_s"] - coarse_s, "coarse_s": coarse_s,
                "gnn_build_s": gnn["preconditioner_s"] - coarse_s, "rss_kb_per_dof": gnn["peak_rss_mb"] * 1024 / n,
                "iterations": {kind: row[kind]["iterations"] if row[kind]["converged"] else None for kind in KINDS},
                "ddm-lu_iterations_1e-6_forcing": tight.solve().iterations})
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--targets", type=int, nargs="*", default=[2400, 6000], help="2D mesh_for_target_size targets")
    parser.add_argument("--box", type=int, default=4000, help="target nodes of the poisson3d row (0 skips it)")
    parser.add_argument("--out", default="weak_scaling.json")
    args = parser.parse_args()
    model = load_model(str(CHECKPOINT))
    rows = [measure("poisson", lambda rng, t=t: mesh_for_target_size(t, rng=rng), model) for t in sorted(args.targets)]
    if len(rows) > 1:  # fitted between the two largest 2D rows: seconds ~ n ** exponent
        (a, b), growth = rows[-2:], np.log(rows[-1]["n"] / rows[-2]["n"])
        b["exponents"] = {layer: round(float(np.log(b[layer] / a[layer]) / growth), 2) for layer in LAYERS}
    rows += [measure("poisson3d", lambda rng: box_mesh_for_target_size(args.box), model)] if args.box else []
    Path(args.out).write_text(json.dumps(rows, indent=1))
    for row in rows:  # the per-kind detail stays in the file
        print({k: round(v, 3) if isinstance(v, float) else v for k, v in row.items() if k not in KINDS})


if __name__ == "__main__":
    main()
