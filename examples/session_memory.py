#!/usr/bin/env python
"""What a prepared session holds, in kB per DOF — the table of DESIGN.md, "Where allocations remain".

tracemalloc over everything allocated from the start of ``prepare`` (numpy arrays and Python objects;
SuperLU's own C allocations are invisible to it), for ddm-gnn in f64 and f32 and for ddm-lu, on the 2D
Poisson operators of examples/weak_scaling.py, at four points: held after ``prepare``, held after the
first solve, and the peak of a 1-column solve and of an 8-column ``solve_many``.
Run:  OPENBLAS_NUM_THREADS=1 python examples/session_memory.py --targets 2400 24000
"""

import argparse
import gc
import tracemalloc
from pathlib import Path

import numpy as np

from repro.gnn.checkpoint import load_model
from repro.mesh import mesh_for_target_size
from repro.problems import make_problem
from repro.solvers import SolverConfig, prepare

CHECKPOINT = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger" / "dss_k20_d10.npz"
SESSIONS = (("ddm-gnn", "f64"), ("ddm-gnn", "f32"), ("ddm-lu", "f64"))
POINTS = ("after prepare", "after first solve", "k = 1 peak", "k = 8 peak")


def footprint(problem, kind: str, precision: str, model) -> list:
    """Bytes held or peaked at each of ``POINTS``, counted from just before ``prepare``."""
    rng = np.random.default_rng(1)
    rhs, block = problem.matrix @ rng.normal(size=problem.num_dofs), rng.normal(size=(8, problem.num_dofs))
    config = SolverConfig(preconditioner=kind, subdomain_size=110, overlap=2, tolerance=1e-3, precision=precision)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        session = prepare(problem, config, model=model if kind == "ddm-gnn" else None)
        prepared = tracemalloc.get_traced_memory()[0]
        session.solve(rhs)
        solved = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        session.solve(rhs)
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        session.solve_many(block)
        eight = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return [value - base for value in (prepared, solved, one, eight)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--targets", type=int, nargs="*", default=[2400, 24000], help="2D mesh_for_target_size targets")
    args = parser.parse_args()
    model = load_model(str(CHECKPOINT))
    print("| n | session | " + " | ".join(POINTS) + " |")
    print("|---|---|" + "---:|" * len(POINTS))
    for target in sorted(args.targets):
        rng = np.random.default_rng(0)
        problem = make_problem("poisson", mesh=mesh_for_target_size(target, rng=rng), rng=rng)
        n = problem.num_dofs
        for kind, precision in SESSIONS:
            kb = [f"{value / 1024 / n:.2f}" for value in footprint(problem, kind, precision, model)]
            print(f"| {n:,} | {kind} {precision} | " + " | ".join(kb) + " |", flush=True)


if __name__ == "__main__":
    main()
