"""Heterogeneous diffusion — preconditioner comparison across κ contrast.

The paper's experiments stop at the homogeneous Poisson equation; this bench
grows the scenario axis: variable-coefficient diffusion problems from the
problem registry (``diffusion-checkerboard``) at contrast ratios
κ_max/κ_min ∈ {1, 10², 10⁴}, solved with PCG under

* **DDM-GNN** — the paper's preconditioner with diagonally-equilibrated local
  solves and a DSS trained on heterogeneous local problems;
* **DDM-LU** — exact two-level Additive Schwarz;
* **IC(0)** — the incomplete-Cholesky baseline of paper Table III;
* plain **CG**.

Expected behaviour: DDM-LU iteration counts stay flat in the contrast (the
coarse space and exact local solves absorb it) and DDM-GNN follows at a small
multiple on its training distribution, while plain CG degrades sharply with
the contrast — the classic argument for domain-decomposition preconditioning
of high-contrast problems.  The DSS is a learned component, so each contrast
regime uses the model trained for it: the homogeneous pretrained model at
κ ≡ 1, the heterogeneous (equilibrated checkerboard) model above.

A second harness sweeps every registered problem family (mixed
Dirichlet/Neumann/Robin boundaries included) through the classical
preconditioners as a scenario-coverage smoke screen.

Both DSS models can be swapped for trained checkpoints without retraining:
``pytest benchmarks/bench_heterogeneous.py --checkpoint <ckpt> --het-checkpoint
<ckpt>`` (options registered in ``benchmarks/conftest.py``; they accept files
written by :mod:`repro.gnn.checkpoint`, e.g. the output of
``python -m repro.experiments run``).
"""

from __future__ import annotations

import numpy as np

from repro.mesh import box_mesh_for_target_size, random_domain_mesh
from repro.problems import available_problems, make_problem, problem_spec
from repro.solvers import SolverConfig, preconditioner_spec, prepare
from repro.utils import format_mean_std, format_table

from common import (
    HET_ELEMENT_SIZE,
    HET_SUBDOMAIN_SIZE,
    bench_scale,
    get_heterogeneous_model,
    get_pretrained_model,
)

TOLERANCE = 1e-6
CONTRASTS = (1.0, 1e2, 1e4)
KINDS = ("ddm-gnn", "ddm-lu", "ic0", "none")
LABELS = {"ddm-gnn": "DDM-GNN", "ddm-lu": "DDM-LU", "ic0": "IC(0)", "none": "CG"}


def _solve(problem, kind, model, equilibrate=None):
    session = prepare(
        problem,
        SolverConfig(
            preconditioner=kind,
            subdomain_size=HET_SUBDOMAIN_SIZE,
            overlap=2,
            tolerance=TOLERANCE,
            max_iterations=6000,
            gnn_equilibrate=equilibrate,
        ),
        model=model if kind == "ddm-gnn" else None,
    )
    result = session.solve()
    return result.iterations, result.converged


def test_heterogeneous_contrast_sweep(benchmark):
    """Iteration counts of all four solvers across checkerboard-κ contrasts."""
    scale = bench_scale()
    het_model = get_heterogeneous_model()
    hom_model = get_pretrained_model()
    rng = np.random.default_rng(11)

    rows = []
    mean_iters = {}  # (contrast, kind) -> raw mean, for the assertions below
    converged = {kind: True for kind in KINDS}
    reference_problem = None
    for contrast in CONTRASTS:
        # the DSS is a learned component: use the model whose training
        # distribution covers the regime (hom. Poisson model at κ ≡ 1,
        # heterogeneous checkerboard model elsewhere).  Measured: keeping the
        # equilibration ON for the hom. model (150±16 iters) beats switching
        # it off for train/eval consistency (584±336) — the unit-diagonal
        # normalisation helps even a model trained on raw systems, so the
        # problem's default (equilibrate=None → on for κ problems) stands.
        model = hom_model if contrast == 1.0 else het_model
        iters = {kind: [] for kind in KINDS}
        for _ in range(scale.repetitions):
            mesh = random_domain_mesh(radius=1.0, element_size=HET_ELEMENT_SIZE, rng=rng)
            problem = make_problem(
                "diffusion-checkerboard", mesh=mesh, rng=rng, contrast=contrast
            )
            if contrast == CONTRASTS[-1] and reference_problem is None:
                reference_problem = problem
            for kind in KINDS:
                count, ok = _solve(problem, kind, model)
                iters[kind].append(count)
                converged[kind] &= ok
        for kind in KINDS:
            mean_iters[(contrast, kind)] = float(np.mean(iters[kind]))
        rows.append(
            [f"{contrast:g}"]
            + [
                format_mean_std(np.mean(iters[kind]), np.std(iters[kind]), 0)
                for kind in KINDS
            ]
        )

    print()
    print(format_table(
        ["κ_max/κ_min"] + [LABELS[kind] for kind in KINDS],
        rows,
        title=f"Heterogeneous diffusion (scale={scale.name}): iterations to {TOLERANCE:g}",
    ))

    # timed kernel: the hardest configuration (DDM-GNN at contrast 1e4)
    benchmark.pedantic(
        lambda: _solve(reference_problem, "ddm-gnn", het_model),
        rounds=1,
        iterations=1,
    )

    # every solver must converge at every contrast (the DDM ones flatly so)
    for kind in KINDS:
        assert converged[kind], f"{LABELS[kind]} failed to reach {TOLERANCE:g}"
    # DDM iteration counts must not blow up with the contrast the way CG does
    first, last = CONTRASTS[0], CONTRASTS[-1]
    gnn_growth = mean_iters[(last, "ddm-gnn")] / max(mean_iters[(first, "ddm-gnn")], 1.0)
    cg_growth = mean_iters[(last, "none")] / max(mean_iters[(first, "none")], 1.0)
    assert gnn_growth < cg_growth, "DDM-GNN should scale with contrast better than CG"


def test_problem_family_sweep(benchmark):
    """Every registered family solves under the classical preconditioners, each on a mesh of its dimension."""
    rng = np.random.default_rng(3)
    meshes = {2: random_domain_mesh(radius=1.0, element_size=0.1, rng=rng), 3: box_mesh_for_target_size(512)}
    mesh = meshes[2]
    rows = []
    for name in available_problems():
        dim = int(problem_spec(name).default_kwargs.get("dim", 2))
        problem = make_problem(name, mesh=meshes[dim], rng=np.random.default_rng(3))
        row = [name, problem.num_dofs]
        for kind in ("ddm-lu", "ic0", "none"):
            if not problem.symmetric and preconditioner_spec(kind).spd_only:
                row.append("-")  # e.g. IC(0): Cholesky-based, SPD only
                continue
            krylov = "cg" if problem.symmetric else "gmres"
            session = prepare(
                problem,
                SolverConfig(
                    preconditioner=kind,
                    krylov=krylov,
                    subdomain_size=80,
                    tolerance=TOLERANCE,
                    max_iterations=6000,
                ),
            )
            result = session.solve()
            assert result.converged, f"{kind}+{krylov} failed on '{name}'"
            row.append(result.iterations)
        rows.append(row)

    print()
    print(format_table(
        ["family", "N", "DDM-LU", "IC(0)", "CG"],
        rows,
        title=f"Problem-family sweep: iterations to {TOLERANCE:g}",
    ))

    benchmark.pedantic(
        lambda: prepare(
            make_problem("diffusion-mixed-bc", mesh=mesh, rng=np.random.default_rng(3)),
            SolverConfig(preconditioner="ddm-lu", subdomain_size=80, tolerance=TOLERANCE),
        ).solve(),
        rounds=1,
        iterations=1,
    )
