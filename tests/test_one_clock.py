"""One clock: every timing the program reports is a read of one span record.

``SolveResult.elapsed_time`` / ``preconditioner_time`` (the lockstep share
included), ``setup_timings`` and ``info["stage_timings"]``, the
``inference_stats()`` times and the serve queue / solve samples are each the
duration of a :mod:`repro.obs.trace` record or the exact sum of its named
leaves — compared with ``==``, since a view that re-measured would drift by
at least a clock read.  The structural guard keeps it that way: no module
under ``src/repro`` outside ``obs/`` reads ``perf_counter``.  And observing
changes nothing it observes: a kept trace leaves solutions, iteration counts
and session keys as they are.
"""

from __future__ import annotations

import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.krylov import bicgstab, gmres, lockstep_pcg, preconditioned_conjugate_gradient
from repro.obs import trace as obs_trace
from repro.obs.trace import Span
from repro.serve import ServeConfig, ServeHTTPServer, ShardConfig, ShardedSolveService, SolveService, proto
from repro.solvers import SolverConfig, prepare

SRC = Path(repro.__file__).resolve().parent
DDM_LU = SolverConfig(preconditioner="ddm-lu", tolerance=1e-8)
SPEC = {"family": "poisson", "target_n": 300, "seed": 1}


@pytest.fixture(autouse=True)
def _tracing_off():
    obs_trace.disable_tracing()
    yield
    obs_trace.disable_tracing()


def leaves(record: Span, name: str):
    """The record's leaves named ``name``, in the order they were recorded."""
    list(record.walk())  # materialise the buffered leaves
    return [child for child in record.children if child.name == name]


def leaf_sum(record: Span, name: str) -> float:
    return sum(leaf.end - leaf.start for leaf in leaves(record, name))


def duration(record: Span) -> float:
    return record.end - record.start


# --------------------------------------------------------------------------- #
# the guard
# --------------------------------------------------------------------------- #
def test_no_stopwatch_outside_obs():
    offenders = [f"{path.relative_to(SRC)}:{number}"
                 for path in sorted(SRC.rglob("*.py")) if path.relative_to(SRC).parts[0] != "obs"
                 for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if "perf_counter" in line]
    assert not offenders, f"a clock read outside repro.obs: {offenders}"


# --------------------------------------------------------------------------- #
# Krylov: elapsed and preconditioner time are reads of the krylov.solve record
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def ic0(random_problem):
    return prepare(random_problem, SolverConfig(preconditioner="ic0")).preconditioner


@pytest.mark.parametrize("solver", [preconditioned_conjugate_gradient, gmres, bicgstab])
def test_single_rhs_views_equal_the_record(solver, random_problem, ic0):
    b = np.random.default_rng(1).standard_normal(random_problem.num_dofs)
    obs_trace.enable_tracing()
    with obs_trace.trace_root("krylov.request") as root:
        result = solver(random_problem.matrix, b, preconditioner=ic0, tolerance=1e-8)
    (record,) = root.find("krylov.solve")
    assert result.converged and leaves(record, "precond.apply")
    assert result.elapsed_time == duration(record)
    assert result.preconditioner_time == leaf_sum(record, "precond.apply")
    assert result.krylov_time == max(duration(record) - leaf_sum(record, "precond.apply"), 0.0)


def test_lockstep_share_is_the_record_over_the_block(random_problem, ic0):
    B = np.random.default_rng(2).standard_normal((3, random_problem.num_dofs))
    obs_trace.enable_tracing()
    with obs_trace.trace_root("block.request") as root:
        results = lockstep_pcg(random_problem.matrix, B, preconditioner=ic0, tolerance=1e-8)
    (record,) = root.find("krylov.solve")
    elapsed, applying = duration(record), leaf_sum(record, "precond.apply")
    for result in results:
        assert result.elapsed_time == elapsed / len(B)
        assert result.preconditioner_time == applying / len(B)
        assert result.info["lockstep"]["batch_elapsed_s"] == elapsed
        assert result.info["lockstep"]["batch_preconditioner_s"] == applying


@pytest.mark.parametrize("kind", ["ic0", "none"])
def test_every_kind_leaves_one_apply_per_application(kind, random_problem):
    """The leaf comes from the Krylov call site, so kinds outside the Schwarz family show too."""
    session = prepare(random_problem, SolverConfig(preconditioner=kind, tolerance=1e-8))
    obs_trace.enable_tracing()
    with obs_trace.trace_root("kind.request") as root:
        result = session.solve()
    applies = root.find("session.solve")[0].find("precond.apply")
    assert result.converged
    assert len(applies) == result.iterations
    assert {leaf.attributes["k"] for leaf in applies} == {1}


# --------------------------------------------------------------------------- #
# session: set-up and stage timings
# --------------------------------------------------------------------------- #
def test_setup_and_stage_timings_are_reads_of_their_records(random_problem):
    obs_trace.enable_tracing()
    with obs_trace.trace_root("session.request") as root:
        session = prepare(random_problem, DDM_LU)
        result = session.solve()
    (setup,) = root.find("session.setup")
    timings = session.setup_timings
    assert timings["overlap_s"] == leaf_sum(setup, "session.overlap")
    assert timings["partition_s"] == leaf_sum(setup, "session.partition") + leaf_sum(setup, "session.overlap")
    assert timings["preconditioner_s"] == leaf_sum(setup, "session.preconditioner")
    assert timings["total_s"] == session.setup_time == duration(setup)

    (solve,) = root.find("krylov.solve")
    stages = result.info["stage_timings"]
    assert stages["partition_s"] == timings["partition_s"]
    assert stages["preconditioner_s"] == timings["preconditioner_s"]
    assert stages["setup_s"] == duration(setup)
    assert stages["solve_s"] == duration(solve)
    assert stages["precond_apply_s"] == leaf_sum(solve, "precond.apply")
    assert stages["krylov_s"] == max(duration(solve) - leaf_sum(solve, "precond.apply"), 0.0)


def test_solve_many_elapsed_is_its_record(random_problem):
    session = prepare(random_problem, SolverConfig(preconditioner="ic0", tolerance=1e-8))
    B = np.random.default_rng(3).standard_normal((2, random_problem.num_dofs))
    obs_trace.enable_tracing()
    with obs_trace.trace_root("many.request") as root:
        many = session.solve_many(B, mode="fused")
    (record,) = root.find("session.solve_many")
    assert many.elapsed_time == duration(record)
    assert record.attributes["mode"] == many.mode == "fused"


def test_inference_stats_times_sum_the_apply_record(random_problem, tiny_dss_model):
    config = SolverConfig(preconditioner="ddm-gnn", subdomain_size=80, tolerance=1e-2,
                          max_iterations=5, seed=0)
    pre = prepare(random_problem, config, model=tiny_dss_model).preconditioner
    pre.steps = Span("steps")  # a kept record in place of the detached one, so its leaves can be listed
    R = np.random.default_rng(4).standard_normal((random_problem.num_dofs, 3))
    pre.apply(R[:, 0])
    pre.apply_columns(R)
    stats = pre.inference_stats()
    assert len(leaves(pre.steps, "ddm.local")) == len(leaves(pre.steps, "ddm.coarse")) == 2
    assert stats["total_inference_time"] == leaf_sum(pre.steps, "ddm.local")
    assert stats["total_coarse_time"] == leaf_sum(pre.steps, "ddm.coarse")
    assert stats["applications"] == 4 and stats["fused_applications"] == 2


# --------------------------------------------------------------------------- #
# serve: the queue and solve samples are the ticket's leaves
# --------------------------------------------------------------------------- #
def _capture_samples(monkeypatch, service):
    samples = []
    observe = service.metrics.observe_request

    def capture(queue_ms, solve_ms):
        samples.append((queue_ms, solve_ms))
        observe(queue_ms, solve_ms)

    monkeypatch.setattr(service.metrics, "observe_request", capture)
    return samples


def test_in_process_samples_are_the_ticket_leaves(monkeypatch):
    with SolveService(ServeConfig(workers=1), default_solver_config=DDM_LU) as service:
        n = service.problems.resolve(SPEC).num_dofs
        service.solve(SPEC)  # warm: the set-up is routing, not queue
        samples = _capture_samples(monkeypatch, service)
        obs_trace.enable_tracing()
        with obs_trace.trace_root("serve.request") as root:
            futures = service.submit_columns(SPEC, np.random.default_rng(5).standard_normal((n, 3)))
            results = [future.result(60) for future in futures]
    tickets = root.find("serve.ticket")
    assert len(tickets) == len(samples) == 3
    expected = [(leaf_sum(t, "serve.queue") * 1e3, leaf_sum(t, "serve.solve") * 1e3) for t in tickets]
    assert sorted(samples) == sorted(expected)
    assert sorted(r.info["queue_s"] for r in results) == sorted(leaf_sum(t, "serve.queue") for t in tickets)


def test_sharded_block_settles_with_the_worker_solve(monkeypatch):
    """Every column of one lockstep block waited for the whole block, so each
    settles with the worker's batch solve, not its per-RHS share of it."""
    service = ShardedSolveService(ServeConfig(workers=1), default_solver_config=DDM_LU,
                                  shard_config=ShardConfig(workers=1))
    try:
        n = service.problems.resolve(SPEC).num_dofs
        service.solve(SPEC, timeout=120)  # warm
        samples = _capture_samples(monkeypatch, service)
        futures = service.submit_columns(SPEC, np.random.default_rng(6).standard_normal((n, 4)))
        results = [future.result(120) for future in futures]
    finally:
        service.close()
    assert {r.info["batch_size"] for r in results} == {4}
    solve_ms = {solve for _, solve in samples}
    assert len(samples) == 4 and len(solve_ms) == 1
    assert solve_ms.pop() >= results[0].info["lockstep"]["batch_elapsed_s"] * 1e3
    assert all(queue >= 0.0 for queue, _ in samples)


# --------------------------------------------------------------------------- #
# observing changes nothing it observes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind, precision", [("ddm-gnn", "f64"), ("ddm-gnn", "f32"),
                                             ("ddm-lu", "f64"), ("ic0", "f64")])
def test_traced_and_untraced_solves_are_identical(kind, precision, random_problem, trained_dss_model):
    config = SolverConfig(preconditioner=kind, precision=precision, subdomain_size=80,
                          tolerance=1e-6, max_iterations=300, seed=0)
    model = trained_dss_model if kind == "ddm-gnn" else None
    B = np.random.default_rng(7).standard_normal((3, random_problem.num_dofs))
    plain = prepare(random_problem, config, model=model)
    one, many = plain.solve(B[0]), plain.solve_many(B, mode="fused")
    obs_trace.enable_tracing()
    with obs_trace.trace_root("observed.request") as root:
        observed = prepare(random_problem, config, model=model)
        traced_one, traced_many = observed.solve(B[0]), observed.solve_many(B, mode="fused")
    assert root.find("precond.apply")
    assert observed.fingerprint() == plain.fingerprint()
    assert np.array_equal(traced_one.solution, one.solution)
    assert traced_one.iterations == one.iterations
    for traced, untraced in zip(traced_many.results, many.results):
        assert np.array_equal(traced.solution, untraced.solution)
        assert traced.iterations == untraced.iterations


def test_sharded_binary_request_is_identical_traced_or_not(monkeypatch):
    obs_trace.enable_tracing()  # before construction: the workers inherit the switch
    service = ShardedSolveService(ServeConfig(workers=1), default_solver_config=DDM_LU,
                                  shard_config=ShardConfig(workers=1))
    server = ServeHTTPServer(service, port=0).start()
    metas = []
    handle = service._executor._handle_frame

    def capture(shard, frame):
        metas.append(dict(frame.meta))
        handle(shard, frame)

    monkeypatch.setattr(service._executor, "_handle_frame", capture)
    try:
        b = np.random.default_rng(8).standard_normal(service.problems.resolve(SPEC).num_dofs)

        def post():
            request = urllib.request.Request(
                server.url + "/solve", data=proto.encode_frame("solve", {"problem": SPEC}, {"b": b}),
                headers={"Content-Type": proto.CONTENT_TYPE})
            with urllib.request.urlopen(request, timeout=120.0) as response:
                return proto.decode_frame(response.read())

        traced = post()
        obs_trace.disable_tracing()
        untraced = post()
    finally:
        server.stop()
        service.close()
    assert np.array_equal(traced.arrays["solution"], untraced.arrays["solution"])
    assert traced.meta["iterations"] == untraced.meta["iterations"]
    results = [meta for meta in metas if "solve_s" in meta]
    assert [proto.TRACE_META_KEY in meta for meta in results] == [True, False]
