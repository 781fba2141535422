"""``gnn-resolve`` and ``gnn-batch``: the paper's method on a prepared session.

Both run the frozen DSS checkpoint on the same operator (T=2400, K=19
sub-domains).  ``gnn-resolve`` is one f64 ``session.solve(b)`` per op — the
single-column inference layout; ``gnn-batch`` is one f32
``session.solve_many(B)`` per op with an 8-RHS block — the fused k-wide
layout.  A kernel change that helps one layout and costs the other shows as
opposite moves on the two.

Right-hand sides are manufactured: ``b = A x`` for a seeded white-noise
``x``.  That gives an exact reference without a direct solve and — measured
while sizing — PCG iteration counts that barely depend on the draw (30 +- 1
against 35 +- 3 for white-noise ``b``), so a median over a handful of solves
holds still across seeds.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Tuple

import numpy as np

from ledger_core import (CHECKPOINT, Ops, Spans, Timed, Witness, cold_setups, end_to_end, median, out_of_time,
                         peak_rss_mb)

from repro.gnn.batch import GraphBatch
from repro.gnn.checkpoint import load_model
from repro.mesh import mesh_for_target_size
from repro.problems import make_problem
from repro.serve import build_problem_from_spec
from repro.solvers import SolverConfig, prepare

TOLERANCE = 1e-3            # the tolerance of the paper's timing table (Table III)
ERROR_BOUND = 1e-1          # vs the manufactured solution; measured 2.6e-2 .. 3.2e-2
BLOCK = 8
PRECISION = {"gnn-resolve": "f64", "gnn-batch": "f32"}


def problem_spec(smoke: bool) -> Dict[str, object]:
    return {"family": "poisson", "target_n": 400 if smoke else 2400,
            "element_size": 0.07, "seed": 0}


def solver_config(precision: str, kind: str = "ddm-gnn") -> SolverConfig:
    return SolverConfig(preconditioner=kind, subdomain_size=110, overlap=2,
                        tolerance=TOLERANCE, precision=precision)


def sequence(workload: str, seed: int, rounds: int) -> List[Tuple]:
    """The run's ops, warm-up first: ``(round, kind, draw index)``; draws come from ``seed``."""
    kind = "solve" if workload == "gnn-resolve" else f"solve_many[{BLOCK}]"
    ops = [(-1, kind if workload == "gnn-resolve" else "apply_columns[8..1]", seed, 0)]
    return ops + [(r, kind, seed, 1 + r) for r in range(rounds)]


def cold_setup(spec: Dict[str, object], precision: str):
    """Everything paid before the first op, on fresh objects; returns its wall time."""
    start = time.perf_counter()
    problem = build_problem_from_spec(spec)
    model = load_model(str(CHECKPOINT))
    session = prepare(problem, solver_config(precision), model=model)
    return problem, model, session, time.perf_counter() - start


def manufactured(problem, seed: int, count: int, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` ops of ``width`` columns: exact solutions X and right-hand sides A X."""
    exact = np.random.default_rng(seed).normal(size=(count, width, problem.num_dofs))
    rhs = np.stack([(problem.matrix @ block.T).T for block in exact])
    return exact, rhs


def verify(problem, results, rhs: np.ndarray, exact: np.ndarray) -> str:
    """Why an op's solutions fail their right-hand sides or references ('' when they pass)."""
    for result, b, x in zip(results, rhs, exact):
        residual = np.linalg.norm(b - problem.matrix @ result.solution) / np.linalg.norm(b)
        error = np.linalg.norm(result.solution - x) / np.linalg.norm(x)
        if not (result.converged and residual <= 2 * TOLERANCE and error <= ERROR_BOUND):
            return f"converged={result.converged} residual={residual:.2e} error={error:.2e}"
    return ""


def warm_up(session, workload: str, rhs: np.ndarray) -> None:
    """Untimed first touch: one solve, or — a 5 s block being too dear — one fused apply
    per column count a shrinking lockstep block passes through (measured: without it the
    first block is 8-10% slow, with it on par)."""
    if workload == "gnn-resolve":
        session.solve(rhs[0])
    else:
        for k in range(len(rhs), 0, -1):
            session.preconditioner.apply_columns(np.asfortranarray(rhs[:k].T))


def run_ops(session, workload: str, rhs: np.ndarray) -> Tuple[list, float]:
    """One op (a solve, or one lockstep block); returns its results and wall seconds."""
    start = time.perf_counter()
    if workload == "gnn-resolve":
        results = [session.solve(rhs[0])]
    else:
        results = session.solve_many(rhs).results
    return results, time.perf_counter() - start


# --------------------------------------------------------------------------- #
# untraced run: the four end-to-end metrics
# --------------------------------------------------------------------------- #
def run(workload: str, seed: int, rounds: int, seconds: float, smoke: bool, corrupt: bool,
        ops: Ops) -> Dict[str, float]:
    spec, precision = problem_spec(smoke), PRECISION[workload]
    setups, kept = [], []
    with Witness() as witness:
        for _ in range(cold_setups(smoke)):
            problem = session = None
            gc.collect()                                    # the previous set-up's objects are gone
            start = time.perf_counter()
            problem, _, session, took = cold_setup(spec, precision)
            setups.append((start, start + took))

        width = 1 if workload == "gnn-resolve" else BLOCK
        exact, rhs = manufactured(problem, seed, 1 + rounds, width)
        if corrupt:
            exact[1] += 1.0

        warm_up(session, workload, rhs[0])
        phase = time.perf_counter()
        for i in range(1, 1 + rounds):                      # a round is one op
            start = time.perf_counter()
            results, took = run_ops(session, workload, rhs[i])
            ops.rounds.append((width, start, start + took, [took * 1e3]))
            kept.append(results)
            if out_of_time(phase, seconds):
                break
        rss = peak_rss_mb()

    for i, results in enumerate(kept, start=1):             # checks, outside the timed window
        reason = verify(problem, results, rhs[i], exact[i])
        ops.record(not reason, reason)
    return end_to_end(setups, ops, witness, rss)


# --------------------------------------------------------------------------- #
# traced run: per-layer numbers, timed from these files
# --------------------------------------------------------------------------- #
def own_plans(preconditioner, model, precision: str):
    """Inference plans the benchmark compiles itself from the sub-domain geometries.

    Batches follow the preconditioner's documented automatic rule (about 2048
    stacked nodes per inference call), so one sweep over these plans is the
    local-solve work of one apply.
    """
    geometries = preconditioner.geometries
    total = preconditioner.stacked_restriction.total_rows
    chunk = max(1, 2048 // max(1, total // len(geometries)))
    edge_dim, node_dim = GraphBatch.feature_dims(geometries)
    plans, nodes, edges = [], 0, 0
    for start in range(0, len(geometries), chunk):
        graphs = [g.make_graph(np.zeros(len(g.positions))) for g in geometries[start:start + chunk]]
        batch = GraphBatch.from_graphs(graphs, edge_attr_dim=edge_dim, node_attr_dim=node_dim)
        plans.append((model.compile_plan(batch, precision=precision), nodes, nodes + batch.num_nodes))
        nodes += batch.num_nodes
        edges += batch.num_edges
    return plans, nodes, edges


def infer_cost(model, nodes: int, edges: int, columns: int, itemsize: int) -> Tuple[float, float]:
    """Computed (not measured) GFLOP and MB of one DSS sweep, from array shapes.

    FLOPs are the model's: per block two edge MLPs ``(2d+e) -> d -> d`` on E
    edges and one node MLP ``(3d+c) -> d -> d`` on n nodes, plus the final
    decoder ``d -> d -> 1``.  Bytes are the minimum streaming traffic of that
    dataflow (gathers, hidden activations written and read once, aggregates),
    ignoring weights and caches.
    """
    cfg = model.config
    d, e, c, blocks = cfg.latent_dim, cfg.edge_attr_dim, cfg.node_input_dim, cfg.num_iterations
    flop_block = 2 * 2 * edges * ((2 * d + e) * d + d * d) + 2 * nodes * ((3 * d + c) * d + d * d)
    flops = blocks * flop_block + 2 * nodes * (d * d + d)
    words_block = 2 * (edges * (5 * d + e) + nodes * d) + nodes * (3 * d + c) + 5 * nodes * d
    words = blocks * words_block + nodes * (3 * d + 1)
    return columns * flops / 1e9, columns * words * itemsize / 1e6


def time_calls(function, repeats: int) -> float:
    """Median milliseconds of ``repeats`` calls (results consumed by the call itself)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append((time.perf_counter() - start) * 1e3)
    return median(samples)


def install_proxies(session, spans: Spans) -> None:
    """Time the program's own apply tree from outside: swap in span-recording proxies."""
    pre = session.preconditioner
    pre.coarse_space = Timed(pre.coarse_space, spans, {"apply": "ddm.coarse", "apply_columns": "ddm.coarse"})
    pre.stacked_restriction = Timed(pre.stacked_restriction, spans,
                                    {"extract": "ddm.restrict", "glue": "ddm.glue"})
    pre.model = Timed(pre.model, spans, {"infer": "gnn.infer", "infer_columns": "gnn.infer"})
    session.preconditioner = Timed(pre, spans, {"apply": "core.apply", "apply_columns": "core.apply"})


def traced_ops(session, workload: str, rhs_ops: np.ndarray, spans: Spans, matvec_ms: float):
    """Run ops under proxies; returns (median op ms, krylov self share, unattributed share, results)."""
    install_proxies(session, spans)
    all_results = []
    for rhs in rhs_ops:
        with spans.span("op"):
            results, _ = run_ops(session, workload, rhs)
        all_results.append(results)
    op_ms = sum(spans.durations_ms("op"))
    self_ms = spans.self_ms()
    sweeps = sum(max(r.iterations for r in results) for results in all_results)
    layers = sum(self_ms.get(name, 0.0) for name in
                 ("gnn.infer", "ddm.coarse", "ddm.restrict", "ddm.glue", "core.apply"))
    return (median(spans.durations_ms("op")), self_ms["op"] / op_ms,
            1.0 - (layers + sweeps * matvec_ms) / op_ms, all_results)


def run_traced(workload: str, seed: int, smoke: bool, ops: Ops, spans: Spans) -> Dict[str, float]:
    spec, precision = problem_spec(smoke), PRECISION[workload]
    metrics: Dict[str, float] = {}
    rng = np.random.default_rng(seed)

    # -- set-up, step by step (gnn-resolve owns the set-up breakdown) ---------
    build_rng = np.random.default_rng(spec["seed"])
    with spans.span("mesh.generate"):
        mesh = mesh_for_target_size(spec["target_n"], element_size=spec["element_size"], rng=build_rng)
    with spans.span("fem.assemble"):
        problem = make_problem("poisson", mesh=mesh, rng=build_rng)
    same = build_problem_from_spec(spec)
    ops.record(np.array_equal(problem.rhs, same.rhs) and (problem.matrix != same.matrix).nnz == 0,
               "step-by-step build differs from build_problem_from_spec")
    with spans.span("gnn.checkpoint_load"):
        model = load_model(str(CHECKPOINT))
    session = prepare(problem, solver_config(precision), model=model)
    pre = session.preconditioner
    if workload == "gnn-resolve":
        metrics["mesh.generate_s"] = spans.durations_ms("mesh.generate")[0] / 1e3
        metrics["fem.assemble_s"] = spans.durations_ms("fem.assemble")[0] / 1e3
        metrics["gnn.checkpoint_load_s"] = spans.durations_ms("gnn.checkpoint_load")[0] / 1e3
        metrics["partition.decompose_s"] = session.setup_timings["partition_s"]
        metrics["core.precond_build_s"] = session.setup_timings["preconditioner_s"]

    n = problem.num_dofs
    width = 1 if workload == "gnn-resolve" else BLOCK
    count = 2 if smoke else 3 if workload == "gnn-resolve" else 1
    exact, rhs = manufactured(problem, seed, 1 + count, width)
    warm_up(session, workload, rhs[0])

    # -- layers in isolation ---------------------------------------------------
    residuals = rng.normal(size=(30, n))
    plans, nodes, edges = own_plans(pre, model, precision)
    gflop, mbytes = infer_cost(model, nodes, edges, width, 8 if precision == "f64" else 4)
    metrics["gnn.infer_gflop"], metrics["gnn.infer_mbytes"] = gflop, mbytes
    if workload == "gnn-resolve":
        before = pre.inference_stats()
        samples = iter(residuals)
        metrics["core.apply_ms_p50"] = time_calls(lambda: pre.apply(next(samples)), len(residuals))
        after = pre.inference_stats()
        applies = after["applications"] - before["applications"]
        metrics["ddm.coarse_ms_per_apply"] = (
            (after["total_coarse_time"] - before["total_coarse_time"]) * 1e3 / applies)
        metrics["core.local_ms_per_apply"] = (
            (after["total_inference_time"] - before["total_inference_time"]) * 1e3 / applies)
        stacked = np.empty(pre.stacked_restriction.total_rows)
        metrics["ddm.restrict_ms_p50"] = time_calls(
            lambda: pre.stacked_restriction.extract(residuals[0], out=stacked), 30)
        metrics["ddm.glue_ms_p50"] = time_calls(lambda: pre.stacked_restriction.glue(stacked), 30)
        source = stacked / np.linalg.norm(stacked)
        infer_ms = time_calls(
            lambda: [model.infer(plan, source=source[lo:hi]) for plan, lo, hi in plans], 30)
        metrics["gnn.infer_ms_p50"] = infer_ms
        matvec_ms = time_calls(lambda: problem.matrix @ residuals[1], 200)
        metrics["krylov.matvec_ms_p50"] = matvec_ms
    else:
        block = np.asfortranarray(residuals[:BLOCK].T)
        metrics["core.apply_columns_ms_p50"] = time_calls(lambda: pre.apply_columns(block), 10)
        metrics["core.apply_f32_ms_p50"] = time_calls(lambda: pre.apply(residuals[0]), 20)
        metrics["core.fused_speedup"] = (
            BLOCK * metrics["core.apply_f32_ms_p50"] / metrics["core.apply_columns_ms_p50"])
        f64 = prepare(problem, solver_config("f64"), model=model).preconditioner
        f64.apply_columns(block)
        metrics["core.apply_columns_f64_ms_p50"] = time_calls(lambda: f64.apply_columns(block), 5)
        sources = np.take(block, pre.stacked_restriction.node_indices, axis=0)
        sources /= np.linalg.norm(sources, axis=0)
        infer_ms = time_calls(
            lambda: [model.infer_columns(plan, sources[lo:hi]) for plan, lo, hi in plans], 10)
        metrics["gnn.infer_columns_ms_p50"] = infer_ms
        matvec_ms = time_calls(lambda: problem.matrix @ block, 100)
        metrics["krylov.block_matvec_ms_p50"] = matvec_ms
    metrics["gnn.infer_gflops_achieved"] = gflop / (infer_ms / 1e3)

    # -- the workload's ops: untraced, then under the proxies -----------------
    untraced = [run_ops(session, workload, rhs[i]) for i in range(1, 1 + count)]
    untraced_ms = median(seconds * 1e3 for _, seconds in untraced)
    traced_ms, self_share, unattributed, traced = traced_ops(session, workload, rhs[1:], spans, matvec_ms)
    for i, results in enumerate(traced, start=1):
        reason = verify(problem, results, rhs[i], exact[i])
        ops.record(not reason, reason)
        ops.record(all(np.array_equal(a.solution, b.solution) for a, b in zip(results, untraced[i - 1][0])),
                   "traced solve differs from untraced solve")
    iterations = [r.iterations for results in traced for r in results]
    metrics["krylov.iters_per_rhs"] = float(np.mean(iterations))
    metrics["krylov.self_share"] = self_share
    metrics["unattributed_share"] = unattributed
    metrics["obs.trace_overhead_ratio"] = traced_ms / untraced_ms

    # -- references -------------------------------------------------------------
    if workload == "gnn-resolve":
        lu = prepare(problem, solver_config("f64", kind="ddm-lu"))
        lu.solve(rhs[0][0])
        lu_ms = []
        for i in range(1, 1 + count):
            start = time.perf_counter()
            result = lu.solve(rhs[i][0])
            lu_ms.append((time.perf_counter() - start) * 1e3)
            reason = verify(problem, [result], rhs[i], exact[i])
            ops.record(not reason, reason)
        metrics["solvers.lu_resolve_ms_p50"] = median(lu_ms)
        metrics["core.gnn_lu_gap"] = untraced_ms / median(lu_ms)   # base: ddm-lu on the same ops
    else:
        sequential = prepare(problem, solver_config(precision), model=model)
        sequential.solve(rhs[0][0])
        start = time.perf_counter()
        singles = [sequential.solve(b) for b in rhs[1]]
        seq_seconds = time.perf_counter() - start
        # the f32 layouts differ (interleaved vs single column): the repo's contract is 1e-3, not bitwise
        for single, fused in zip(singles, untraced[0][0]):
            drift = np.linalg.norm(fused.solution - single.solution) / np.linalg.norm(single.solution)
            ops.record(single.converged and drift < 1e-3,
                       f"lockstep block column is {drift:.1e} from its sequential solve")
        metrics["krylov.lockstep_sweeps"] = float(max(iterations))
        metrics["solvers.seq_rhs_per_s"] = BLOCK / seq_seconds
        metrics["solvers.batch_speedup"] = seq_seconds / (untraced_ms / 1e3)   # base: sequential
    return metrics
