"""``serve-lu``: client bytes -> HTTP -> ring -> pipe -> shard -> session -> bytes back.

A ``ShardedSolveService`` (2 worker processes, default ``ServeConfig()``
including the 2 ms coalescing window) behind ``ServeHTTPServer`` on loopback,
driven by ONE closed-loop ``ServeClient.solve_binary`` — one request in
flight.  Closed loop and one client are deliberate: on two cores a
multi-client cell measures the scheduler, not the serve tier.

Four ``ddm-lu`` operators (T=1000, seeds 0-3) at tol 1e-6; the request cycle
is 32 passes over the operators, each pass three single right-hand sides and
one k=4 block (96 singles + 32 blocks = 224 right-hand sides), and a timed
round is one pass.  Serve stages are about half of a request,
``ddm``/``krylov``/``solvers`` the other half and ``gnn`` nothing: the
workload on which a GNN optimisation must show no change.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np

from ledger_core import (Ops, Spans, Witness, cold_setups, end_to_end, median, out_of_time, peak_rss_mb,
                         tail_percentile)

from repro.obs import trace as obs_trace
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeHTTPServer,
    ShardConfig,
    ShardedSolveService,
    build_problem_from_spec,
    decode_frame,
    encode_frame,
)
from repro.solvers import SolverConfig, prepare

OPERATORS = 4
POOL = 8                     # right-hand sides per operator, cycled by the op sequence
BLOCK = 4
#: requests of one timed round: one pass over the operators, three singles and one block
ROUND = OPERATORS
CONFIG = SolverConfig(preconditioner="ddm-lu", subdomain_size=110, overlap=2, tolerance=1e-6)


def specs(smoke: bool) -> List[Dict[str, object]]:
    return [{"family": "poisson", "target_n": 300 if smoke else 1000,
             "element_size": 0.07, "seed": s} for s in range(OPERATORS)]


def sequence(seed: int, smoke: bool) -> List[Tuple[int, Tuple[int, ...]]]:
    """The request cycle, ``(operator, pool ids)``: 128 requests, 224 right-hand sides.

    Every pass visits the operators in a seeded order and sends one k=4 block
    (at a position that rotates with the pass) and three single right-hand
    sides.  A timed round is one pass: the same 7 right-hand sides' worth of
    work every round, in ~50 ms — short, so that the witness can tell the
    rounds that ran undisturbed from the others.
    """
    rng = np.random.default_rng([seed, 1])
    ops = []
    for p in range(4 if smoke else 32):
        for position, operator in enumerate(rng.permutation(OPERATORS)):
            size = BLOCK if position == p % OPERATORS else 1
            ids = rng.choice(POOL, size=size, replace=False)
            ops.append((int(operator), tuple(int(i) for i in ids)))
    return ops


def rhs_pools(seed: int, problems) -> List[np.ndarray]:
    return [np.random.default_rng([seed, 2, o]).normal(size=(POOL, p.num_dofs))
            for o, p in enumerate(problems)]


def references(problems, pools):
    """What every response must equal bit for bit: in-process ``prepare().solve(b)``."""
    sessions = [prepare(problem, CONFIG) for problem in problems]
    return sessions, [[session.solve(b).solution for b in pool] for session, pool in zip(sessions, pools)]


@contextmanager
def serving():
    """A fresh service, its worker processes, the HTTP server and a client.

    Yields ``(service, client, seconds it took to start)``.
    """
    start = time.perf_counter()
    service = ShardedSolveService(ServeConfig(), default_solver_config=CONFIG,
                                  shard_config=ShardConfig(workers=2))
    try:
        server = ServeHTTPServer(service, port=0).start()
        try:
            yield service, ServeClient(server.url), time.perf_counter() - start
        finally:
            server.stop()
    finally:
        service.close()


def request(client: ServeClient, spec, pool: np.ndarray, ids: Tuple[int, ...]):
    """Send one request; returns the decoded response and the client's wall ms."""
    b = pool[ids[0]] if len(ids) == 1 else np.ascontiguousarray(pool[list(ids)].T)
    start = time.perf_counter()
    response = client.solve_binary(problem=spec, b=b, config=CONFIG.to_dict())
    return response, (time.perf_counter() - start) * 1e3


def matches(response, reference: List[np.ndarray], ids: Tuple[int, ...]) -> bool:
    solution = response["solution"]
    columns = [solution] if len(ids) == 1 else [solution[:, c] for c in range(len(ids))]
    return all(response["converged"]) and all(
        np.array_equal(column, reference[i]) for column, i in zip(columns, ids))


def cold_requests(client, all_specs, pools, refs, ops: Ops) -> List[float]:
    """One request per operator on a fresh service: each pays spec build + prepare."""
    cold = []
    for o, spec in enumerate(all_specs):
        response, ms = request(client, spec, pools[o], (0,))
        ops.record(matches(response, refs[o], (0,)), f"cold request on operator {o} differs")
        cold.append(ms)
    return cold


def play_round(client, all_specs, pools, refs, round_ops, ops: Ops):
    """One closed-loop pass over the round; checks run after the clock stops."""
    singles, blocks, answered = [], [], []
    start = time.perf_counter()
    for operator, ids in round_ops:
        try:
            response, ms = request(client, all_specs[operator], pools[operator], ids)
        except Exception as error:  # noqa: BLE001 - an HTTP error or exhausted retries fails the op
            answered.append((operator, ids, error))
            continue
        (singles if len(ids) == 1 else blocks).append(ms)
        answered.append((operator, ids, response))
    seconds = time.perf_counter() - start
    for operator, ids, response in answered:
        if isinstance(response, Exception):
            ops.record(False, repr(response))
        else:
            ops.record(matches(response, refs[operator], ids), f"operator {operator} rhs {ids} differs")
    return singles, blocks, seconds


# --------------------------------------------------------------------------- #
# untraced run
# --------------------------------------------------------------------------- #
def timed_rounds(client, all_specs, pools, refs, cycle, rounds: int, seconds: float, ops: Ops) -> None:
    """Warm-up over the whole cycle, then ``rounds`` rounds of ``ROUND`` requests."""
    play_round(client, all_specs, pools, refs, cycle, ops)
    phase = time.perf_counter()
    for r in range(rounds):
        at = r * ROUND % len(cycle)
        round_ops = cycle[at:at + ROUND]
        start = time.perf_counter()
        singles, _, took = play_round(client, all_specs, pools, refs, round_ops, ops)
        ops.rounds.append((sum(len(ids) for _, ids in round_ops), start, start + took, singles))
        if out_of_time(phase, seconds):
            break


def run(workload: str, seed: int, rounds: int, seconds: float, smoke: bool, corrupt: bool,
        ops: Ops) -> Dict[str, float]:
    all_specs = specs(smoke)
    problems = [build_problem_from_spec(spec) for spec in all_specs]
    pools = rhs_pools(seed, problems)
    _, refs = references(problems, pools)
    cycle = sequence(seed, smoke)
    if corrupt:
        refs[cycle[0][0]][cycle[0][1][0]] += 1.0

    setups, last = [], cold_setups(smoke) - 1
    with Witness() as witness:
        for attempt in range(last + 1):
            gc.collect()                                    # workers fork from the same heap every time
            start = time.perf_counter()
            with serving() as (_, client, _):
                cold_requests(client, all_specs, pools, refs, ops)
                setups.append((start, time.perf_counter()))
                if attempt == last:                         # the last set-up serves the timed phase
                    timed_rounds(client, all_specs, pools, refs, cycle, rounds, seconds, ops)
                    rss = peak_rss_mb()
    return end_to_end(setups, ops, witness, rss)


# --------------------------------------------------------------------------- #
# traced run
# --------------------------------------------------------------------------- #
def single_request_stages(traces) -> Tuple[Dict[str, List[float]], List[float]]:
    """Per-stage ms of every single-RHS request trace, and each root's duration."""
    stages: Dict[str, List[float]] = {name: [] for name in
                                      ("route", "queue", "pipe", "solve", "encode", "decode")}
    roots = []
    for root in traces:
        result = [event for event in root.events if event["kind"] == "result"]
        if root.name != "http.request" or not result or result[0].get("k") != 1:
            continue
        timings = root.stage_timings()
        stages["route"].append(timings.get("serve.route", 0.0))
        stages["queue"].append(timings.get("serve.queue", 0.0))
        stages["pipe"].append(timings.get("shard.roundtrip", 0.0) - timings.get("worker.request", 0.0))
        stages["solve"].append(timings.get("serve.solve", 0.0))
        stages["encode"].append(timings.get("response.encode", 0.0))
        stages["decode"].append(timings.get("ingress.decode", 0.0))
        roots.append(root.duration_ms)
    return stages, roots


def proto_costs(pool: np.ndarray, reference: np.ndarray) -> Tuple[float, float]:
    """Median us to encode, and to decode, one request- plus one response-shaped frame."""
    meta = {"problem": specs(False)[0], "config": CONFIG.to_dict(), "deadline_ms": None}
    reply = {"k": 1, "converged": [True], "iterations": [21], "elapsed_s": [0.004], "serve": [{}]}
    arrays = {"solution": reference, "final_relative_residual": np.zeros(1),
              "residual_history": np.zeros(22)}
    encode, decode = [], []
    for b in list(pool) * 25:
        start = time.perf_counter()
        frames = encode_frame("solve", meta, {"b": b}), encode_frame("result", reply, arrays)
        middle = time.perf_counter()
        for frame in frames:
            decode_frame(frame)
        end = time.perf_counter()
        encode.append((middle - start) * 1e6)
        decode.append((end - middle) * 1e6)
    return median(encode), median(decode)


def run_traced(workload: str, seed: int, smoke: bool, ops: Ops, spans: Spans) -> Dict[str, float]:
    all_specs = specs(smoke)
    problems = [build_problem_from_spec(spec) for spec in all_specs]
    pools = rhs_pools(seed, problems)
    sessions, refs = references(problems, pools)
    round_ops = sequence(seed, smoke)
    rounds = 1 if smoke else 3
    metrics: Dict[str, float] = {}

    # -- the solver half of a request, called directly on the same ops --------
    for operator, ids in round_ops:
        if len(ids) == 1:
            with spans.span("solvers.session_solve"):
                sessions[operator].solve(pools[operator][ids[0]])
    direct = spans.durations_ms("solvers.session_solve")
    metrics["solvers.session_solve_ms_p50"] = median(direct)
    metrics["serve.proto_encode_us_p50"], metrics["serve.proto_decode_us_p50"] = proto_costs(
        pools[0], refs[0][0])

    # -- untraced service: the latencies every overhead is measured against ---
    with serving() as (_, client, _):
        cold_requests(client, all_specs, pools, refs, ops)
        play_round(client, all_specs, pools, refs, round_ops, ops)             # warm-up
        untraced, blocks = [], []
        for _ in range(rounds):
            singles, block_ms, _ = play_round(client, all_specs, pools, refs, round_ops, ops)
            untraced.extend(singles)
            blocks.extend(block_ms)
    lat = median(untraced)
    metrics["serve.block_lat_ms_p50"] = median(blocks)
    metrics["serve.lat_tail_pct"], metrics["serve.lat_ms_tail"] = tail_percentile(untraced)
    metrics["serve.overhead_ms_p50"] = lat - median(direct)
    metrics["serve.overhead_share"] = (lat - median(direct)) / lat   # base: client latency

    # -- traced service: tracing on BEFORE it is built, so workers inherit it --
    per_round = len(round_ops)
    obs_trace.enable_tracing(max_traces=(rounds + 2) * per_round + 64)
    try:
        with serving() as (service, client, start_seconds):
            metrics["serve.start_s"] = start_seconds
            metrics["serve.cold_request_ms_p50"] = median(
                cold_requests(client, all_specs, pools, refs, ops))
            play_round(client, all_specs, pools, refs, round_ops, ops)         # warm-up
            obs_trace.drain_traces()
            traced = []
            for _ in range(rounds):
                singles, _, _ = play_round(client, all_specs, pools, refs, round_ops, ops)
                traced.extend(singles)
            stages, roots = single_request_stages(obs_trace.drain_traces())
            for operator, ids in [op for op in round_ops if len(op[1]) == 1][:40]:
                with spans.span("serve.json_request"):
                    reply = client.solve(problem=all_specs[operator], b=pools[operator][ids[0]],
                                         config=CONFIG.to_dict())
                ops.record(np.array_equal(np.asarray(reply["solution"]), refs[operator][ids[0]]),
                           "JSON response differs from the in-process solve")
            json_ms = spans.durations_ms("serve.json_request")
            stats = service.stats()
    finally:
        obs_trace.disable_tracing()

    for name in ("route", "queue", "pipe", "solve", "encode"):
        metrics[f"serve.stage_ms.{name}"] = float(np.mean(stages[name]))
    ops.record(len(roots) == len(traced), f"{len(roots)} single-request traces for {len(traced)} requests")
    http = [client_ms - root_ms for client_ms, root_ms in zip(traced, roots)]
    metrics["serve.http_ms_p50"] = median(http)
    attributed = sum(float(np.mean(values)) for values in stages.values()) + float(np.mean(http))
    metrics["unattributed_share"] = 1.0 - attributed / float(np.mean(traced))
    metrics["obs.trace_overhead_ratio"] = median(traced) / lat     # base: untraced latency
    metrics["serve.json_lat_ms_p50"] = median(json_ms)
    metrics["serve.mean_batch_size"] = float(stats["mean_batch_size"])
    metrics["serve.cache_hit_rate"] = float(stats["cache_hit_rate"])
    sent = OPERATORS + (rounds + 1) * sum(len(ids) for _, ids in round_ops)
    metrics["serve.retries"] = float(stats["proto"]["binary"] - sent)
    return metrics
