#!/usr/bin/env python
"""Quickstart: solve one Poisson problem with the full hybrid pipeline.

This walks through the complete DDM-GNN workflow of the paper on a small
(random) domain so that it runs in about a minute on a laptop CPU:

1. generate a random domain and mesh it (paper Fig. 4a);
2. assemble the P1 finite-element system ``A u = b``;
3. harvest a small training set of local sub-problems from a classical
   two-level ASM solve and train a Deep Statistical Solver on it;
4. solve the problem with plain CG, PCG-DDM-LU and PCG-DDM-GNN and compare
   iteration counts (paper Table I, scaled down).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import generate_dataset
from repro.solvers import SolverConfig, prepare
from repro.gnn import DSS, DSSConfig, DSSTrainer, TrainingConfig, evaluate_model
from repro.mesh import random_domain_mesh
from repro.problems import make_problem
from repro.utils import format_table

SUBDOMAIN_SIZE = 110          # ~1000 in the paper; scaled down for CPU
ELEMENT_SIZE = 0.08           # mesh resolution (the paper uses ~7000-node meshes)
TRAIN_EPOCHS = 6              # 400 in the paper
SEED = 0


def main() -> None:
    rng = np.random.default_rng(SEED)

    # ------------------------------------------------------------------ #
    # 1-2. mesh a random domain and assemble the Poisson system
    # ------------------------------------------------------------------ #
    print("1) meshing a random Bezier domain ...")
    mesh = random_domain_mesh(radius=1.0, element_size=ELEMENT_SIZE, rng=rng)
    problem = make_problem("poisson", mesh=mesh, rng=rng)
    print(f"   mesh: {mesh.num_nodes} nodes, {mesh.num_cells} triangles, "
          f"mean quality {mesh.quality()['mean_quality']:.2f}")

    # ------------------------------------------------------------------ #
    # 3. build a small training set and train the DSS model
    # ------------------------------------------------------------------ #
    print("2) harvesting local problems from a two-level ASM-PCG solve ...")
    dataset = generate_dataset(
        num_global_problems=2,
        mesh_element_size=ELEMENT_SIZE,
        subdomain_size=SUBDOMAIN_SIZE,
        overlap=2,
        rng=rng,
    )
    print(f"   dataset: train/val/test = {dataset.sizes}")

    print("3) training the Deep Statistical Solver (scaled-down settings) ...")
    model = DSS(DSSConfig(num_iterations=20, latent_dim=10, alpha=0.1, seed=SEED))
    trainer = DSSTrainer(
        model,
        TrainingConfig(epochs=TRAIN_EPOCHS, batch_size=40, learning_rate=1e-2, gradient_clip=1e-2, seed=SEED),
    )
    start = time.perf_counter()
    trainer.fit(dataset.train, dataset.validation[:40], verbose=True)
    print(f"   training took {time.perf_counter() - start:.1f}s")
    metrics = evaluate_model(model, dataset.test[:60])
    print(f"   test residual {metrics.residual_mean:.4f} ± {metrics.residual_std:.4f}, "
          f"relative error {metrics.relative_error_mean:.3f}")

    # ------------------------------------------------------------------ #
    # 4. compare CG, DDM-LU and DDM-GNN on the global problem
    # ------------------------------------------------------------------ #
    print("4) solving the global problem with the three solvers of the paper ...")
    rows = []
    for kind in ("none", "ddm-lu", "ddm-gnn"):
        session = prepare(
            problem,
            SolverConfig(preconditioner=kind, subdomain_size=SUBDOMAIN_SIZE, overlap=2, tolerance=1e-6),
            model=model if kind == "ddm-gnn" else None,
        )
        result = session.solve()
        label = {"none": "CG", "ddm-lu": "PCG-DDM-LU", "ddm-gnn": "PCG-DDM-GNN"}[kind]
        rows.append([label, result.iterations, f"{result.final_relative_residual:.2e}",
                     f"{result.elapsed_time:.2f}s", result.converged])
    print(format_table(["solver", "iterations", "final rel. residual", "time", "converged"], rows))
    print("\nThe hybrid solver converges to the requested tolerance with far fewer"
          "\niterations than plain CG, at the cost of slightly more iterations than"
          "\nthe exact DDM-LU preconditioner — the behaviour reported in the paper.")

    # ------------------------------------------------------------------ #
    # 5. serving: amortise the setup over many right-hand sides
    # ------------------------------------------------------------------ #
    print("5) serving 8 fresh right-hand sides against one prepared session ...")
    session = prepare(
        problem,
        SolverConfig(preconditioner="ddm-lu", subdomain_size=SUBDOMAIN_SIZE, overlap=2, tolerance=1e-6),
    )
    rhs_batch = np.random.default_rng(SEED + 1).normal(size=(8, problem.num_dofs))
    batch = session.solve_many(rhs_batch)
    print(f"   setup once: {session.setup_time:.3f}s; then {batch.summary()}")
    print(f"   per-RHS serving cost {batch.elapsed_time / batch.num_rhs * 1e3:.1f}ms — the partition,"
          f"\n   local factorisations and coarse space were built exactly once.")


if __name__ == "__main__":
    main()
