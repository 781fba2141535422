"""Closed-loop load generator for the serve layer — the serving trajectory bench.

For each (client count × batching setting) cell this harness stands up a
fresh service, drives it with C closed-loop client threads (each thread
fires its next request the moment the previous one returns — the classical
closed-loop model), and records:

* ``throughput_rps``   — completed requests over the measured wall time,
* ``lat_ms_p50/p95/p99`` — end-to-end request latency percentiles
  (queue wait + solve, as observed by the clients),
* ``cache_hit_rate``   — session-cache hit rate over the cell.

``--workers 1`` (the default) benches the in-process
:class:`repro.serve.SolveService` — these are the historical cells and stay
the ``workers=1`` / ``proto="json"`` baseline.  ``--workers N`` benches the
pre-fork :class:`repro.serve.ShardedSolveService`: N worker processes,
sessions sharded by fingerprint, requests and results crossing the process
boundary as zero-copy binary frames (``proto="binary"``).  ``--problems S``
spreads the load over S problem operators (distinct seeds) so the sessions
actually shard across processes instead of pinning to one.

Batching "on" uses the service's micro-batching queue (requests coalesce
into lockstep multi-RHS solves); "off" (``max_batch=1``) is the
one-solve-per-request baseline.  **Correctness is asserted, not assumed**:
every response is compared bit-for-bit against reference solutions computed
sequentially through ``session.solve`` — micro-batching, process sharding
and the binary protocol are pure throughput optimisations.

Results are written to ``BENCH_serve.json`` (schema per record: ``solver,
n, clients, batching, max_batch, max_wait_ms, workers, proto, problems,
cpus, requests, throughput_rps, lat_ms_p50, lat_ms_p95, lat_ms_p99,
cache_hit_rate, mean_batch_size``) so the serving trajectory accumulates
across PRs, and the headline ``batched/unbatched`` throughput speedups are
printed per solver.  The recorded ``cpus`` lets the scaling gate
(``check_perf.py --scaling-gate``) distinguish "the code doesn't scale"
from "the machine had one core".

``--trace`` runs every request under a live trace root (``repro.obs.trace``)
and adds ``trace_stage_shares`` to each cell record: the share of request
wall time spent in route/queue/pipe/solve/encode, aggregated over the cell's
finished span trees — the per-stage attribution the elastic-pool tuning
items need.

Usage::

    python benchmarks/bench_serve.py            # full sweep
    python benchmarks/bench_serve.py --smoke    # CI smoke cell set
    python benchmarks/bench_serve.py --smoke --workers 4 --problems 4
    python benchmarks/bench_serve.py --smoke --trace
    python benchmarks/bench_serve.py --checkpoint artifacts/<hash>/checkpoint.npz
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
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
from repro.obs import trace as obs_trace
from repro.serve import ServeConfig, ShardConfig, ShardedSolveService, SolveService
from repro.solvers import SolverConfig, prepare
from repro.utils import format_table

from common import SUBDOMAIN_SIZE, get_pretrained_model


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
TOLERANCE = 1e-3  # the tolerance of the paper's timing experiments (Table III)
SMOKE_TARGET_N = 640
RHS_POOL = 32

#: solvers swept by the bench; ddm-gnn is appended when a checkpoint/model is
#: available (the CI serve-smoke job restores the cached perf-smoke artifact)
SWEEP_SOLVERS = ("ddm-lu", "ddm-jacobi")


def make_solver_config(kind: str) -> SolverConfig:
    return SolverConfig(
        preconditioner=kind,
        subdomain_size=SUBDOMAIN_SIZE,
        overlap=2,
        tolerance=TOLERANCE,
        max_iterations=4000,
    )


def make_service(model, max_batch: int, max_wait_ms: float, workers: int):
    """The cell's service: in-process threads (workers=1) or a sharded pool."""
    config = ServeConfig(
        workers=2 if workers == 1 else 1,
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        cache_capacity=8,
    )
    if workers == 1:
        return SolveService(config, model=model)
    return ShardedSolveService(
        config, model=model,
        shard_config=ShardConfig(workers=workers, threads_per_worker=1),
    )


#: stage-share keys recorded by ``--trace`` cells.  ``pipe`` is the sharded
#: round-trip minus the worker-side request (serialization + wire + worker
#: queueing overhead); ``encode`` only accrues on the HTTP path and stays 0
#: when the bench drives the service objects directly.
TRACE_STAGES = ("route", "queue", "pipe", "solve", "encode")


def stage_shares(traces) -> dict:
    """Collapse finished request traces into per-stage shares of wall time.

    Shares are ``sum(stage duration) / sum(root duration)`` over all traces,
    using :meth:`Span.stage_timings` (worker-side spans grafted into the
    parent trace are included, so sharded cells attribute queue/solve time
    spent inside the worker process).
    """
    totals: dict = {}
    wall_ms = 0.0
    for root in traces:
        wall_ms += root.duration_ms
        for name, ms in root.stage_timings().items():
            totals[name] = totals.get(name, 0.0) + ms
    if wall_ms <= 0.0:
        return {}
    pipe_ms = max(0.0, totals.get("shard.roundtrip", 0.0)
                  - totals.get("worker.request", 0.0))
    named = {
        "route": totals.get("serve.route", 0.0),
        "queue": totals.get("serve.queue", 0.0),
        "pipe": pipe_ms,
        "solve": totals.get("serve.solve", 0.0),
        "encode": totals.get("response.encode", 0.0),
    }
    return {stage: round(named[stage] / wall_ms, 4) for stage in TRACE_STAGES}


def run_cell(workload, solver_config, model, clients: int, max_batch: int,
             max_wait_ms: float, requests_per_client: int, workers: int,
             trace: bool = False):
    """One closed-loop cell; returns its record plus the parity verdict.

    ``workload`` is a flat list of ``(problem, b, reference_solution)``
    triples, possibly spanning several problem operators — with ``workers``
    processes, distinct operators shard onto distinct workers.  With
    ``trace=True`` every request runs under a live trace root and the cell
    record gains ``trace_stage_shares`` (see :func:`stage_shares`).
    """
    if trace:
        # enable BEFORE the service is built: sharded workers inherit the
        # tracing switch through their spawn-time bootstrap, so flipping it
        # afterwards would leave the worker side dark (pipe would then absorb
        # the whole round-trip).  Ring sized to the cell so no request trace
        # is evicted before the stage-share aggregation.
        obs_trace.enable_tracing(max_traces=clients * requests_per_client + 16)
    service = make_service(model, max_batch, max_wait_ms, workers)
    try:
        # warm every operator's session so the measured window holds no
        # setup cost (and, sharded, so operators are installed over shm)
        warmed = set()
        for problem, b, _ in workload:
            if id(problem) not in warmed:
                warmed.add(id(problem))
                service.solve(problem, b=b, solver_config=solver_config)

        mismatches = []
        latencies_ms = []
        latencies_lock = threading.Lock()
        barrier = threading.Barrier(clients + 1)

        def client(tid: int) -> None:
            local_latencies = []
            try:
                barrier.wait()
                for i in range(requests_per_client):
                    problem, b, reference = workload[(tid * 7 + i) % len(workload)]
                    t0 = time.perf_counter()
                    if trace:
                        with obs_trace.trace_root("bench.request"):
                            result = service.solve(problem, b=b, solver_config=solver_config)
                    else:
                        result = service.solve(problem, b=b, solver_config=solver_config)
                    local_latencies.append((time.perf_counter() - t0) * 1e3)
                    if not np.array_equal(result.solution, reference):
                        mismatches.append((tid, i))
            except Exception as error:  # noqa: BLE001 - recorded, fails the bench
                mismatches.append((tid, repr(error)))
            with latencies_lock:
                latencies_ms.extend(local_latencies)

        threads = [threading.Thread(target=client, args=(t,)) for t in range(clients)]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        traces = obs_trace.drain_traces() if trace else []
        if trace:
            obs_trace.disable_tracing()

        stats = service.stats()
        total_requests = clients * requests_per_client
        ordered = np.sort(np.asarray(latencies_ms))

        def percentile(q: float) -> float:
            rank = max(1, math.ceil(q / 100.0 * len(ordered)))
            return float(ordered[min(rank, len(ordered)) - 1])

        record = {
            "solver": solver_config.preconditioner,
            "n": int(workload[0][0].num_dofs),
            "clients": clients,
            "batching": max_batch > 1,
            "max_batch": max_batch,
            "max_wait_ms": max_wait_ms,
            "workers": workers,
            "proto": "json" if workers == 1 else "binary",
            "problems": len(warmed),
            "cpus": available_cpus(),
            "requests": total_requests,
            "throughput_rps": round(total_requests / elapsed, 2),
            "lat_ms_p50": round(percentile(50.0), 3),
            "lat_ms_p95": round(percentile(95.0), 3),
            "lat_ms_p99": round(percentile(99.0), 3),
            "cache_hit_rate": round(stats["cache"]["hit_rate"] or 0.0, 4),
            "mean_batch_size": round(stats["mean_batch_size"] or 1.0, 2),
        }
        if trace:
            record["trace_stage_shares"] = stage_shares(traces)
            record["traced_requests"] = len(traces)
        return record, mismatches
    finally:
        service.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"small cell set on a ~{SMOKE_TARGET_N}-node mesh (CI smoke job)")
    parser.add_argument("--target-n", type=int, default=None,
                        help="global problem size (default: smoke preset or 2000)")
    parser.add_argument("--requests-per-client", type=int, default=None,
                        help="closed-loop requests each client issues per cell")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="micro-batch bound of the batched cells (default 8)")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="longest contended wait for more same-session requests "
                             "(default 2ms; a lone request never waits)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes: 1 = in-process SolveService "
                             "(the JSON-path baseline), N > 1 = sharded pool "
                             "over the binary protocol (default 1)")
    parser.add_argument("--problems", type=int, default=None,
                        help="distinct problem operators to spread load over "
                             "(default: 1 in-process, max(4, workers) sharded)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"where to write the JSON records (default: {DEFAULT_OUTPUT})")
    parser.add_argument("--checkpoint", type=Path, default=None,
                        help="bench a ddm-gnn serving cell against this trained checkpoint "
                             "(repro.gnn.checkpoint format); without it the GNN cell is "
                             "included only when a cached bench artifact exists")
    parser.add_argument("--skip-gnn", action="store_true",
                        help="never include the ddm-gnn serving cell")
    parser.add_argument("--trace", action="store_true",
                        help="run every request under a live trace root and "
                             "record per-stage time shares "
                             f"({'/'.join(TRACE_STAGES)}) into each cell record")
    args = parser.parse_args(argv)

    if args.workers < 1:
        parser.error("--workers must be >= 1")
    target_n = args.target_n or (SMOKE_TARGET_N if args.smoke else 2000)
    requests_per_client = args.requests_per_client or (25 if args.smoke else 40)
    client_counts = (1, 8, 16) if args.smoke else (1, 4, 8, 16)
    num_problems = args.problems or (1 if args.workers == 1 else max(4, args.workers))

    # problem 0 reproduces the historical single-problem bench exactly (same
    # rng stream), so workers=1/problems=1 records stay comparable across PRs
    rng = np.random.default_rng(1)
    mesh = mesh_for_target_size(target_n, element_size=0.07, rng=rng)
    problems = [random_poisson_problem(mesh, rng=rng)]
    pool_size = max(4, RHS_POOL // num_problems)
    pools = [[rng.normal(size=problems[0].num_dofs) for _ in range(
        RHS_POOL if num_problems == 1 else pool_size)]]
    for seed in range(1, num_problems):
        extra_rng = np.random.default_rng(1000 + seed)
        extra_mesh = mesh_for_target_size(target_n, element_size=0.07, rng=extra_rng)
        extra = random_poisson_problem(extra_mesh, rng=extra_rng)
        problems.append(extra)
        pools.append([extra_rng.normal(size=extra.num_dofs)
                      for _ in range(pool_size)])

    solvers = list(SWEEP_SOLVERS)
    model = None
    if not args.skip_gnn:
        try:
            model = get_pretrained_model(
                checkpoint=str(args.checkpoint) if args.checkpoint else None
            )
            solvers.append("ddm-gnn")
        except Exception as error:  # noqa: BLE001 - GNN cell is optional
            print(f"note: skipping ddm-gnn serving cell ({type(error).__name__}: {error})")

    print(f"serve bench: n={problems[0].num_dofs}, tolerance={TOLERANCE:g}, "
          f"{num_problems} problem(s) x {len(pools[0])} pooled RHS, "
          f"{requests_per_client} requests/client, clients {client_counts}, "
          f"workers={args.workers} "
          f"({'in-process/json' if args.workers == 1 else 'sharded/binary'}, "
          f"{available_cpus()} cpu(s))")

    all_records = []
    speedups = {}
    parity_failures = 0
    for kind in solvers:
        solver_config = make_solver_config(kind)
        cell_model = model if kind == "ddm-gnn" else None
        # the GNN runs the same clients x batching grid as the exact solvers:
        # fused multi-column inference makes its micro-batched lockstep solves
        # share one forward pass, so reduced-load special-casing is gone
        cell_clients = client_counts
        cell_requests = requests_per_client
        # bit-parity references: sequential solves on standalone sessions
        workload = []
        for problem, pool in zip(problems, pools):
            reference_session = prepare(problem, solver_config, model=cell_model)
            workload.extend(
                (problem, b, reference_session.solve(b).solution) for b in pool)

        by_cell = {}
        for clients in cell_clients:
            for batched in (False, True):
                max_batch = args.max_batch if batched else 1
                record, mismatches = run_cell(
                    workload, solver_config, cell_model,
                    clients=clients, max_batch=max_batch,
                    max_wait_ms=args.max_wait_ms if batched else 0.0,
                    requests_per_client=cell_requests,
                    workers=args.workers,
                    trace=args.trace,
                )
                if mismatches:
                    parity_failures += len(mismatches)
                    print(f"PARITY FAILURE: {kind} clients={clients} batched={batched}: "
                          f"{mismatches[:3]}")
                record["bitwise_identical"] = not mismatches
                all_records.append(record)
                by_cell[(clients, batched)] = record

        print(f"\n[{kind}]")
        print(format_table(
            ["clients", "batching", "throughput_rps", "lat_ms_p50", "lat_ms_p95",
             "lat_ms_p99", "hit_rate", "mean_batch"],
            [
                [c, "on" if b else "off", r["throughput_rps"], r["lat_ms_p50"],
                 r["lat_ms_p95"], r["lat_ms_p99"], r["cache_hit_rate"], r["mean_batch_size"]]
                for (c, b), r in sorted(by_cell.items())
            ],
        ))
        for clients in cell_clients:
            if clients < 8:
                continue
            ratio = (by_cell[(clients, True)]["throughput_rps"]
                     / by_cell[(clients, False)]["throughput_rps"])
            speedups[f"{kind}@{clients}"] = round(ratio, 3)
            print(f"micro-batching speedup at {clients} clients: {ratio:.2f}x")

    best = max(speedups.values()) if speedups else 0.0
    payload = {
        "bench": "bench_serve",
        "smoke": bool(args.smoke),
        "tolerance": TOLERANCE,
        "n": int(problems[0].num_dofs),
        "workers": args.workers,
        "proto": "json" if args.workers == 1 else "binary",
        "problems": num_problems,
        "cpus": available_cpus(),
        "checkpoint": str(args.checkpoint) if args.checkpoint else None,
        "schema": ["solver", "n", "clients", "batching", "max_batch", "max_wait_ms",
                   "workers", "proto", "problems", "cpus",
                   "requests", "throughput_rps", "lat_ms_p50", "lat_ms_p95",
                   "lat_ms_p99", "cache_hit_rate", "mean_batch_size",
                   "bitwise_identical"],
        "records": all_records,
        "batching_speedup": speedups,
        "best_batching_speedup": best,
        "bitwise_identical": parity_failures == 0,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {len(all_records)} records to {args.output}")
    print(f"best micro-batching speedup at >=8 clients: {best:.2f}x "
          f"(bitwise identical: {parity_failures == 0})")

    if parity_failures:
        print("FAIL: served results diverged from sequential session.solve")
        return 1
    if best < 1.5:
        print("WARNING: micro-batched throughput did not reach 1.5x the "
              "one-solve-per-request baseline on this run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
