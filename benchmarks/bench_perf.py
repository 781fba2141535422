"""Setup vs per-iteration cost of the solver stack — the perf trajectory bench.

For every mesh size this harness prepares each solver **once** through
:func:`repro.solvers.prepare` (setup cost), measures the median wall time of
a single preconditioner ``apply`` (the per-Krylov-iteration cost), runs a
full solve (iterations and total time, split into preconditioner vs Krylov
machinery), and then serves several **fresh right-hand sides** against the
same prepared session (``resolve_ms_p50`` — the amortised repeated-RHS cost
that the setup/solve split exists for; repeat-solve wall time excludes all
partitioning/factorisation and is far below the first-solve+setup cost).
Solvers covered:

* ``ic0``         — incomplete Cholesky PCG,
* ``ddm-lu``      — two-level ASM with exact local LU solves,
* ``ddm-gnn``     — the paper's GNN preconditioner (precompiled plans,
  stacked restrictions, allocation-free DSS engine).

The ddm-gnn rows additionally cover the precision/fused trajectory: a second
session served in float32 (``precision: "f32"`` records — same schema, its
iteration drift vs f64 is gated by ``check_perf.py``) and
``ddm-gnn-fused`` records timing one ``apply_columns`` over ``k=8`` RHS
columns (``apply_ms_p50``).  The f32 record also times the ``k`` sequential
applies its k-wide sweep replaces (``seq_apply_ms_p50``,
``fused_apply_speedup``); the f64 record carries neither, because f64
``apply_columns`` *is* ``k`` passes of the single-column kernel — sequential
by construction, which is what makes it bit-identical per column.

Results are appended to stdout as a table and written to ``BENCH_perf.json``
(schema per record: ``solver, precision, n, K, setup_s, apply_ms_p50,
resolve_ms_p50, iters, total_s`` plus ``k`` on the fused records and
``seq_apply_ms_p50, fused_apply_speedup`` on the f32 one) so the repository's performance
trajectory accumulates across PRs.

Usage::

    python benchmarks/bench_perf.py            # sizes from REPRO_BENCH_SCALE
    python benchmarks/bench_perf.py --smoke    # one tiny mesh (CI smoke job)
    python benchmarks/bench_perf.py --output /tmp/perf.json --repeats 15
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.fem import random_poisson_problem
from repro.mesh import mesh_for_target_size
from repro.solvers import SolverConfig, prepare
from repro.utils import format_table, format_timing_split

from common import ELEMENT_SIZE, SUBDOMAIN_SIZE, bench_scale, get_pretrained_model

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
TOLERANCE = 1e-3  # the tolerance of the paper's timing experiments (Table III)
SMOKE_TARGET_N = 640
#: column count of the fused multi-column apply records (lockstep CG widths
#: of interest are k>=4; 8 matches the serve layer's default max_batch)
FUSED_K = 8


def median_apply_ms(apply_fn, residual: np.ndarray, repeats: int) -> float:
    """Median wall time of one preconditioner application, in milliseconds."""
    apply_fn(residual)  # warm-up (first call may fault in buffers)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        apply_fn(residual)
        times.append(time.perf_counter() - t0)
    return float(np.median(times) * 1e3)


def median_columns_ms(preconditioner, residuals: np.ndarray, repeats: int) -> float:
    """Median wall time of one ``apply_columns`` call, in milliseconds."""
    preconditioner.apply_columns(residuals)  # warm-up (compiles/keeps k-wide buffers)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        preconditioner.apply_columns(residuals)
        times.append(time.perf_counter() - t0)
    return float(np.median(times) * 1e3)


def median_sequential_columns_ms(preconditioner, residuals: np.ndarray,
                                 repeats: int) -> float:
    """Median wall time of k per-column ``apply`` calls — what lockstep CG
    pays when the GNN serializes over the batch."""
    k = residuals.shape[1]
    preconditioner.apply(residuals[:, 0])
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(k):
            preconditioner.apply(residuals[:, i])
        times.append(time.perf_counter() - t0)
    return float(np.median(times) * 1e3)


def median_resolve_ms(session, rng: np.random.Generator, repeats: int) -> float:
    """Median wall time of a full re-solve on a fresh RHS, in milliseconds.

    The session is already prepared, so this is the amortised serving cost:
    no partitioning, no factorisation, no plan compilation — just Krylov
    iterations against the prepared preconditioner.
    """
    n = session.problem.num_dofs
    times = []
    for _ in range(max(1, repeats)):
        fresh_rhs = rng.normal(size=n)
        t0 = time.perf_counter()
        session.solve(fresh_rhs)
        times.append(time.perf_counter() - t0)
    return float(np.median(times) * 1e3)


def record_label(record: dict) -> str:
    """Table/print label: the solver name, tagged when not plain f64."""
    label = record["solver"]
    if record.get("precision", "f64") != "f64":
        label += f"[{record['precision']}]"
    if "k" in record:
        label += f" k={record['k']}"
    return label


def make_config(kind: str, precision: str = "f64", max_iterations: int = 4000) -> SolverConfig:
    return SolverConfig(
        preconditioner=kind,
        subdomain_size=SUBDOMAIN_SIZE,
        overlap=2,
        tolerance=TOLERANCE,
        max_iterations=max_iterations,
        precision=precision,
    )


def bench_problem(problem, model, repeats: int, resolve_repeats: int, max_iterations: int = 4000):
    """All per-solver records for one global problem."""
    records = []
    solves = {}
    resolve_rng = np.random.default_rng(2)
    n = int(problem.num_dofs)
    for kind in ("ic0", "ddm-lu", "ddm-gnn"):
        session = prepare(
            problem,
            make_config(kind, max_iterations=max_iterations),
            model=model if kind == "ddm-gnn" else None,
        )
        preconditioner = session.preconditioner
        apply_ms = median_apply_ms(preconditioner.apply, problem.rhs, repeats)
        result = session.solve()
        resolve_ms = median_resolve_ms(session, resolve_rng, resolve_repeats)
        solves[kind] = result
        records.append({
            "solver": kind,
            "precision": "f64",
            "n": n,
            "K": int(getattr(preconditioner, "num_subdomains", 0)),
            "setup_s": round(session.setup_time, 6),
            "apply_ms_p50": round(apply_ms, 4),
            "resolve_ms_p50": round(resolve_ms, 4),
            "iters": int(result.iterations),
            "total_s": round(result.elapsed_time, 6),
        })
        if kind == "ddm-gnn":
            # ---- precision trajectory: the same model served in float32 ----
            f32_session = prepare(problem, make_config(kind, "f32", max_iterations),
                                  model=model)
            f32_pre = f32_session.preconditioner
            f32_apply_ms = median_apply_ms(f32_pre.apply, problem.rhs, repeats)
            f32_result = f32_session.solve()
            f32_resolve_ms = median_resolve_ms(f32_session, resolve_rng, resolve_repeats)
            solves["ddm-gnn[f32]"] = f32_result
            records.append({
                "solver": "ddm-gnn",
                "precision": "f32",
                "n": n,
                "K": int(f32_pre.num_subdomains),
                "setup_s": round(f32_session.setup_time, 6),
                "apply_ms_p50": round(f32_apply_ms, 4),
                "resolve_ms_p50": round(f32_resolve_ms, 4),
                "iters": int(f32_result.iterations),
                "total_s": round(f32_result.elapsed_time, 6),
            })

            # ---- multi-column apply over k RHS columns: f32 is one k-wide
            # sweep, timed against the k sequential applies it replaces; f64
            # is k single-column passes by construction (nothing to compare)
            R = np.asfortranarray(np.random.default_rng(3).normal(size=(n, FUSED_K)))
            for precision, pre in (("f64", preconditioner), ("f32", f32_pre)):
                record = {
                    "solver": "ddm-gnn-fused",
                    "precision": precision,
                    "n": n,
                    "K": int(pre.num_subdomains),
                    "k": FUSED_K,
                    "apply_ms_p50": round(median_columns_ms(pre, R, repeats), 4),
                }
                if precision == "f32":
                    seq_ms = median_sequential_columns_ms(pre, R, repeats)
                    record["seq_apply_ms_p50"] = round(seq_ms, 4)
                    record["fused_apply_speedup"] = round(seq_ms / record["apply_ms_p50"], 3)
                records.append(record)
    return records, solves


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"single ~{SMOKE_TARGET_N}-node mesh, few repeats (CI smoke job)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="apply timing repetitions (default: scale preset)")
    parser.add_argument("--resolve-repeats", type=int, default=None,
                        help="fresh-RHS re-solves per prepared session for the amortised "
                             "resolve_ms_p50 metric (default: 2 with --smoke, 3 otherwise)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"where to write the JSON records (default: {DEFAULT_OUTPUT})")
    parser.add_argument("--checkpoint", type=Path, default=None,
                        help="bench a trained checkpoint (repro.gnn.checkpoint format, e.g. "
                             "benchmarks/artifacts/<hash>/checkpoint.npz) instead of the "
                             "default cached artifact")
    args = parser.parse_args(argv)

    scale = bench_scale()
    if args.smoke:
        sizes = (SMOKE_TARGET_N,)
        repeats = args.repeats if args.repeats is not None else 3
        resolve_repeats = args.resolve_repeats if args.resolve_repeats is not None else 2
    else:
        sizes = scale.table3_sizes
        repeats = args.repeats if args.repeats is not None else max(scale.repetitions, 9)
        resolve_repeats = args.resolve_repeats if args.resolve_repeats is not None else 3

    model = get_pretrained_model(checkpoint=str(args.checkpoint) if args.checkpoint else None)
    rng = np.random.default_rng(1)

    all_records = []
    lockstep_speedups = {}
    for target_n in sizes:
        mesh = mesh_for_target_size(target_n, element_size=ELEMENT_SIZE, rng=rng)
        problem = random_poisson_problem(mesh, rng=rng)
        records, solves = bench_problem(problem, model, repeats, resolve_repeats)
        all_records.extend(records)
        by_solver = {record_label(r): r for r in records}
        print(f"\nn={problem.num_dofs}  (K={by_solver['ddm-gnn']['K']}, tolerance={TOLERANCE:g})")
        print(format_table(
            ["solver", "setup_s", "apply_ms_p50", "resolve_ms_p50", "iters", "total_s", "timing split"],
            [
                [record_label(r),
                 f"{r['setup_s']:.3f}" if "setup_s" in r else "-",
                 f"{r['apply_ms_p50']:.2f}",
                 f"{r['resolve_ms_p50']:.2f}" if "resolve_ms_p50" in r else "-",
                 r.get("iters", "-"),
                 f"{r['total_s']:.3f}" if "total_s" in r else "-",
                 format_timing_split(solves[record_label(r)])
                 if record_label(r) in solves else "-"]
                for r in records
            ],
        ))
        fused = {r["precision"]: r for r in records if r["solver"] == "ddm-gnn-fused"}
        print(f"DDM-GNN fused apply_columns (f32, k={FUSED_K}): "
              f"{fused['f32']['fused_apply_speedup']:.2f}x vs {FUSED_K} sequential applies")
        # the lockstep headline: a k-wide CG iteration through one fused f32
        # sweep vs through the f64 path (k single-column passes)
        lockstep = fused["f64"]["apply_ms_p50"] / fused["f32"]["apply_ms_p50"]
        lockstep_speedups[problem.num_dofs] = round(lockstep, 3)
        print(f"DDM-GNN lockstep k={FUSED_K} apply speedup "
              f"(fused f32 vs sequential f64): {lockstep:.2f}x")
        f64_iters = by_solver["ddm-gnn"]["iters"]
        f32_iters = by_solver["ddm-gnn[f32]"]["iters"]
        print(f"DDM-GNN f32 iteration drift: {f32_iters}/{f64_iters} "
              f"({f32_iters / max(f64_iters, 1):.2f}x)")
        amortised = {
            record_label(r): (r["setup_s"] * 1e3 + r["total_s"] * 1e3) / max(r["resolve_ms_p50"], 1e-9)
            for r in records if "resolve_ms_p50" in r
        }
        print("first-solve (setup+solve) / repeat-solve ratio: "
              + ", ".join(f"{k}={v:.1f}x" for k, v in amortised.items()))

    payload = {
        "bench": "bench_perf",
        "scale": scale.name,
        "tolerance": TOLERANCE,
        "smoke": bool(args.smoke),
        "checkpoint": str(args.checkpoint) if args.checkpoint else None,
        "schema": ["solver", "precision", "n", "K", "setup_s", "apply_ms_p50",
                   "resolve_ms_p50", "iters", "total_s", "k", "seq_apply_ms_p50",
                   "fused_apply_speedup"],
        "records": all_records,
        "fused_apply_speedup": {
            f"{r['n']}/{r['precision']}": r["fused_apply_speedup"]
            for r in all_records if "fused_apply_speedup" in r
        },
        "lockstep_apply_speedup": {str(n): s for n, s in lockstep_speedups.items()},
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {len(all_records)} records to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
