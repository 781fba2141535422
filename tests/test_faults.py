"""Chaos suite: deterministic fault injection across solvers and serving.

Every test here injects a failure at a production seam (``repro.faults``) and
asserts the hardening layer's contract end-to-end:

* a poisoned GNN preconditioner degrades onto the fallback rung and the
  served answer is *bitwise* the exact-path reference;
* bounded queues shed with ``ServiceOverloaded`` instead of buffering;
* no injected fault — including a stalled worker — leaves a future
  unresolved past its deadline;
* circuit breakers open after consecutive primary failures, reroute, and
  close again through a half-open probe once the fault clears.

All faults are seeded/deterministic: a failure replays from its seed.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future, wait

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultInjected, PoisonedPreconditioner
from repro.serve import (
    DeadlineExceeded,
    InvalidRequest,
    ServeConfig,
    ServiceOverloaded,
    SolveService,
)
from repro.serve.errors import as_serve_error
from repro.solvers import SolverConfig, prepare
from repro.solvers.session import SolverSession


GNN_CONFIG = dict(preconditioner="ddm-gnn", subdomain_size=80,
                  tolerance=1e-6, max_iterations=300, seed=0)


# --------------------------------------------------------------------------- #
# harness mechanics
# --------------------------------------------------------------------------- #
class TestHarness:
    def test_registry(self):
        assert faults.available_faults() == [
            "gnn-nan-apply", "local-solver-raise",
            "session-build-fail", "worker-stall",
        ]
        with pytest.raises(KeyError, match="unknown fault"):
            faults.fault_spec("no-such-fault")
        with pytest.raises(KeyError, match="available"):
            with faults.inject("nope"):
                pass

    def test_patches_restored_after_block(self):
        from repro.ddm.local_solvers import LULocalSolver

        original = LULocalSolver.solve_stacked_columns
        with faults.inject("local-solver-raise"):
            assert LULocalSolver.solve_stacked_columns is not original
        assert LULocalSolver.solve_stacked_columns is original

    def test_an_inherited_seam_is_unpatched_by_deletion(self):
        """``DDMGNNPreconditioner`` inherits its apply from the Schwarz class: toggling the fault
        must leave its own attributes as they were, not pin the inherited apply on it."""
        from repro.core import DDMGNNPreconditioner
        from repro.ddm import AdditiveSchwarzPreconditioner

        before = dict(vars(DDMGNNPreconditioner))
        assert "apply_columns" not in before
        fault = faults.fault_spec("gnn-nan-apply").factory().activate()
        assert "apply_columns" in vars(DDMGNNPreconditioner)
        fault.deactivate()
        assert dict(vars(DDMGNNPreconditioner)) == before
        assert DDMGNNPreconditioner.apply_columns is AdditiveSchwarzPreconditioner.apply_columns

    def test_patches_restored_on_exception(self):
        original = SolverSession.__init__
        with pytest.raises(RuntimeError, match="boom"):
            with faults.inject("session-build-fail"):
                raise RuntimeError("boom")
        assert SolverSession.__init__ is original

    def test_double_activation_rejected(self):
        fault = faults.fault_spec("local-solver-raise").factory()
        fault.activate()
        try:
            with pytest.raises(RuntimeError, match="already active"):
                fault.activate()
        finally:
            fault.deactivate()

    def test_seeded_poison_is_deterministic(self):
        def poison_once(seed):
            fault = faults.GNNNaNApplyFault(fraction=0.25, seed=seed)
            return fault._poison(np.zeros(64))

        a, b = poison_once(7), poison_once(7)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.isnan(a).sum() == 16


# --------------------------------------------------------------------------- #
# the ladder end-to-end: injected NaN GNN → fallback rung serves bitwise-exact
# --------------------------------------------------------------------------- #
class TestLadderEndToEnd:
    def test_gnn_nan_degrades_to_exact_reference_via_service(
            self, random_problem, trained_dss_model):
        primary = SolverConfig(fallback=["ddm-lu"], **GNN_CONFIG)
        rng = np.random.default_rng(11)
        b = rng.normal(size=random_problem.num_dofs)

        # the exact-path reference: an independently prepared ddm-lu session
        # with the identical rung config the ladder will build
        rung_config = dataclasses.replace(primary, preconditioner="ddm-lu",
                                          fallback=[])
        reference = prepare(random_problem, rung_config).solve(b)
        assert reference.converged

        with SolveService(ServeConfig(workers=1), model=trained_dss_model) as service:
            with faults.inject("gnn-nan-apply", seed=0) as fault:
                result = service.solve(random_problem, b, solver_config=primary)
            assert fault.calls > 0  # the poison actually fired
            assert result.converged
            assert result.info["degraded"] is True
            assert result.info["rung"] == "ddm-lu"
            assert "non_finite_preconditioner" in str(result.info["primary_failure"])
            # the degraded answer is *bitwise* the exact-path reference
            assert np.array_equal(result.solution, reference.solution)
            assert result.iterations == reference.iterations
            stats = service.stats()
            assert stats["degraded"] >= 1
            assert stats["errors"] == 0  # degraded, not errored

        # without the fault the same service config serves via the primary
        with SolveService(ServeConfig(workers=1), model=trained_dss_model) as service:
            clean = service.solve(random_problem, b, solver_config=primary)
            assert clean.converged
            assert not clean.info["degraded"]

    def test_local_solver_raise_degrades(self, random_problem):
        config = SolverConfig(preconditioner="ddm-lu", subdomain_size=80,
                              tolerance=1e-6, seed=0, fallback=["ic0"])
        session = prepare(random_problem, config)
        with faults.inject("local-solver-raise") as fault:
            result = session.solve()
        assert fault.calls > 0
        assert result.converged
        assert result.info["degraded"] is True
        assert result.info["rung"] == "ic0"
        assert "FaultInjected" in result.info["primary_failure"]

    def test_exhausted_ladder_raises_injected_error(self, random_problem):
        # both the primary and the rung go through the LU local solver, so
        # the whole ladder fails and the injected error surfaces
        config = SolverConfig(preconditioner="ddm-lu", subdomain_size=80,
                              tolerance=1e-6, seed=0, fallback=[])
        session = prepare(random_problem, config)
        with faults.inject("local-solver-raise"):
            with pytest.raises(FaultInjected):
                session.solve()


# --------------------------------------------------------------------------- #
# deadlines: no fault leaves a future unresolved past its deadline
# --------------------------------------------------------------------------- #
class TestDeadlines:
    def test_stalled_worker_never_blocks_past_deadline(self, random_problem, serving):
        config = SolverConfig(preconditioner="ddm-lu", subdomain_size=80,
                              tolerance=1e-6, seed=0)
        # the first solve passes — it warms the session cache so the stall
        # hits the solve, not setup — and every later one wedges its worker
        service = serving(
            ServeConfig(workers=1, max_batch=1),
            faults=[("worker-stall", {"max_stall_s": 20.0, "after_calls": 1})])
        service.solve(random_problem, solver_config=config)
        start = time.perf_counter()
        future = service.submit(random_problem, solver_config=config,
                                deadline_ms=300)
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=10.0)
        elapsed = time.perf_counter() - start
        # failed fast at the deadline, nowhere near the stall bound
        assert 0.2 <= elapsed < 5.0
        assert service.stats()["deadline_timeouts"] >= 1

    def test_deadline_not_hit_when_solve_is_fast(self, random_problem):
        config = SolverConfig(preconditioner="ddm-lu", subdomain_size=80,
                              tolerance=1e-6, seed=0)
        with SolveService(ServeConfig(workers=1)) as service:
            result = service.solve(random_problem, solver_config=config,
                                   deadline_ms=60_000)
            assert result.converged
            assert service.stats()["deadline_timeouts"] == 0

    def test_invalid_deadline_rejected(self, random_problem):
        with SolveService(ServeConfig(workers=1)) as service:
            with pytest.raises(InvalidRequest, match="deadline_ms"):
                service.submit(random_problem, deadline_ms=0)


# --------------------------------------------------------------------------- #
# overload: bounded queues shed, accepted requests still complete
# --------------------------------------------------------------------------- #
class TestOverload:
    def test_bounded_queue_sheds_with_retry_after(self, random_problem, serving):
        config = SolverConfig(preconditioner="ddm-lu", subdomain_size=80,
                              tolerance=1e-6, seed=0)
        # warm the cache (the first solve passes), then the second solve
        # wedges the single worker so the queue fills deterministically;
        # the stall clears by itself and the accepted requests drain
        service = serving(
            ServeConfig(workers=1, max_batch=1, max_queue=2,
                        shed_retry_after_s=0.25),
            faults=[("worker-stall", {"max_stall_s": 3.0, "after_calls": 1,
                                      "until_calls": 2})])
        service.solve(random_problem, solver_config=config)
        accepted: list[Future] = []
        shed = 0
        deadline_budget_s = 15.0
        for _ in range(6):
            try:
                future = service.submit(
                    random_problem, solver_config=config,
                    deadline_ms=deadline_budget_s * 1e3)
                # give the worker a beat to dequeue the first request — or,
                # when its queue is on the far side of a pipe, to refuse
                # this one: that shed arrives through the future
                wait([future], timeout=0.25)
                refusal = future.exception() if future.done() else None
                if refusal is not None:
                    raise refusal
                accepted.append(future)
            except ServiceOverloaded as error:
                shed += 1
                assert error.retry_after_s == 0.25
                assert error.http_status == 503
        assert shed >= 1
        assert len(accepted) >= 3  # in-flight + the queue bound
        # every accepted request completes well inside its deadline
        start = time.perf_counter()
        for future in accepted:
            result = future.result(timeout=deadline_budget_s)
            assert result.converged
        drain_s = time.perf_counter() - start
        assert drain_s < deadline_budget_s
        stats = service.stats()
        assert stats["shed"] == shed
        assert stats["requests"] == 1 + len(accepted)
        # accepted-request p99 stayed bounded (all samples recorded)
        assert stats["latency_ms"]["total"]["p99_ms"] < deadline_budget_s * 1e3


# --------------------------------------------------------------------------- #
# circuit breaker: open after consecutive failures, reroute, probe, close
# --------------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_breaker_opens_reroutes_and_recovers(self, random_problem,
                                                 trained_dss_model, serving):
        primary = SolverConfig(fallback=["ddm-lu"], **GNN_CONFIG)
        # the poison fires on the first two GNN applies — one per primary
        # attempt, the non-finite guard stops each at its first — and then
        # the fault is gone
        service = serving(
            ServeConfig(workers=1, breaker_failures=2, breaker_reset_s=3600.0),
            faults=[("gnn-nan-apply", {"seed": 0, "until_calls": 2})],
            model=trained_dss_model)
        # two consecutive primary failures (served via the ladder)
        for _ in range(2):
            result = service.solve(random_problem, solver_config=primary)
            assert result.converged and result.info["degraded"]
            assert "breaker_rerouted" not in result.info
        assert service.health()["breakers"]["open"] == 1
        assert service.health()["status"] == "degraded"
        # breaker open: the next request skips the primary entirely
        rerouted = service.solve(random_problem, solver_config=primary)
        assert rerouted.converged
        assert rerouted.info["breaker_rerouted"] is True
        assert "ladder_attempts" not in rerouted.info  # no primary try

        # fault gone; force the half-open window and probe the primary
        (breaker,) = service._breakers.values()
        assert breaker.state == "open"
        breaker.reset_after_s = 0.0
        probe = service.solve(random_problem, solver_config=primary)
        assert probe.converged
        assert not probe.info["degraded"]          # primary served it
        assert breaker.state == "closed"
        assert service.health()["status"] == "ok"

    def test_a_request_only_the_session_build_rejects_spares_the_breaker(
            self, random_problem, serving):
        """A config with an argument its Krylov method does not take is the
        client's error, not the primary's: four such requests used to open
        the breaker at ``breaker_failures=3`` and reroute the fourth."""
        service = serving(ServeConfig(workers=1, breaker_failures=3, breaker_reset_s=3600.0))
        config = SolverConfig(preconditioner="ddm-lu", subdomain_size=80, tolerance=1e-6,
                              fallback=["ddm-jacobi"], krylov_kwargs={"bogus": 1})
        for _ in range(4):
            with pytest.raises(ValueError, match="does not accept") as excinfo:
                service.solve(random_problem, solver_config=config, timeout=60)
            assert as_serve_error(excinfo.value).code == InvalidRequest.code
        breakers = service.health()["breakers"]
        assert (breakers["total"], breakers["open"], breakers["half_open"]) == (1, 0, 0)
        (breaker,) = breakers["by_key"].values()
        # closed throughout, so every request ran the primary: none was rerouted
        assert breaker["state"] == "closed" and breaker["total_failures"] == 0
        assert service.stats()["errors"] == 4

    def test_failed_probe_reopens(self):
        from repro.serve.breaker import CircuitBreaker

        t = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=5.0,
                                 clock=lambda: t[0])
        breaker.record_failure()
        assert breaker.state == "open"
        t[0] = 6.0
        assert breaker.allow_primary()        # the half-open probe
        breaker.record_failure()              # probe failed
        assert breaker.state == "open"
        snap = breaker.snapshot()
        assert snap["total_opens"] == 2
        assert snap["opened_for_s"] == 0.0


# --------------------------------------------------------------------------- #
# session-build failures: cache retries, nothing poisoned
# --------------------------------------------------------------------------- #
class TestSessionBuildFailure:
    def test_failed_build_not_cached(self, random_problem):
        config = SolverConfig(preconditioner="ddm-lu", subdomain_size=80,
                              tolerance=1e-6, seed=0)
        with SolveService(ServeConfig(workers=1)) as service:
            with faults.inject("session-build-fail", builds=1):
                with pytest.raises(FaultInjected):
                    service.submit(random_problem, solver_config=config)
                assert service.stats()["errors"] >= 1
            # the failed build was not cached; the retry succeeds
            result = service.solve(random_problem, solver_config=config)
            assert result.converged

    def test_build_failures_count_toward_breaker(self, random_problem,
                                                 tiny_dss_model):
        primary = SolverConfig(fallback=["ddm-lu"], **GNN_CONFIG)
        service = SolveService(
            ServeConfig(workers=1, breaker_failures=2, breaker_reset_s=3600.0),
            model=tiny_dss_model,
        )
        try:
            with faults.inject("session-build-fail", builds=10):
                for _ in range(2):
                    with pytest.raises(FaultInjected):
                        service.submit(random_problem, solver_config=primary)
            # two build failures opened the breaker: the next request goes
            # straight to the fallback rung and succeeds
            assert service.health()["breakers"]["open"] == 1
            result = service.solve(random_problem, solver_config=primary)
            assert result.converged
            assert result.info["breaker_rerouted"] is True
        finally:
            service.close()


# --------------------------------------------------------------------------- #
# request validation at the service boundary
# --------------------------------------------------------------------------- #
class TestValidation:
    def test_shape_dtype_finiteness(self, random_problem, serving):
        n = random_problem.num_dofs
        service = serving(ServeConfig(workers=1))
        with pytest.raises(InvalidRequest, match="right-hand side"):
            service.submit(random_problem, b=np.zeros(n + 1))
        with pytest.raises(InvalidRequest, match="non-finite"):
            bad = np.zeros(n)
            bad[0] = np.nan
            service.submit(random_problem, b=bad)
        with pytest.raises(InvalidRequest, match="numeric"):
            service.submit(random_problem, b=["x"] * n)
        with pytest.raises(InvalidRequest, match="initial guess"):
            service.submit(random_problem, x0=np.zeros(n - 1))
        with pytest.raises(InvalidRequest, match="unknown solver-config"):
            service.submit(random_problem, solver_config={"bogus": 1})
        assert service.stats()["requests"] == 0  # nothing was enqueued

    def test_invalid_request_maps_to_http_400(self):
        assert InvalidRequest("x").http_status == 400
        assert InvalidRequest("x").code == "invalid_request"
        assert issubclass(InvalidRequest, ValueError)


# --------------------------------------------------------------------------- #
# poisoned lockstep column through the session fused path
# --------------------------------------------------------------------------- #
class TestPoisonedColumnServing:
    def test_fused_batch_with_poisoned_column_degrades_only_that_row(
            self, random_problem):
        config = SolverConfig(preconditioner="ddm-lu", subdomain_size=80,
                              tolerance=1e-8, seed=0, fallback=["ic0"])
        session = prepare(random_problem, config)
        rng = np.random.default_rng(13)
        batch = rng.normal(size=(3, random_problem.num_dofs))
        # poison the whole preconditioner output on its second apply call:
        # every lockstep column fails mid-flight and re-solves on the rung
        poisoned = PoisonedPreconditioner(session.preconditioner, columns=(0, 1, 2),
                                          on_call=1)
        session.preconditioner = poisoned
        outcome = session.solve_many(batch)
        for row, result in zip(batch, outcome.results):
            assert result.converged
            assert result.info["degraded"] is True
            residual = np.linalg.norm(
                random_problem.matrix @ result.solution - row
            ) / np.linalg.norm(row)
            assert residual < 1e-6


# --------------------------------------------------------------------------- #
# no unresolved futures, ever
# --------------------------------------------------------------------------- #
class TestNoOrphanedFutures:
    @pytest.mark.parametrize("fault_name,kwargs", [
        ("gnn-nan-apply", {"seed": 0}),
        ("local-solver-raise", {}),
        ("worker-stall", {"max_stall_s": 20.0}),
    ])
    def test_every_future_resolves_under_fault(self, random_problem,
                                               tiny_dss_model, fault_name, kwargs):
        config = SolverConfig(preconditioner="ddm-lu", subdomain_size=80,
                              tolerance=1e-6, seed=0)
        with SolveService(ServeConfig(workers=2, max_batch=2),
                          model=tiny_dss_model) as service:
            service.solve(random_problem, solver_config=config)  # warm cache
            with faults.inject(fault_name, **kwargs) as fault:
                futures = [
                    service.submit(random_problem, solver_config=config,
                                   deadline_ms=2_000)
                    for _ in range(4)
                ]
                resolved = 0
                for future in futures:
                    try:
                        future.result(timeout=10.0)
                    except Exception:
                        pass
                    resolved += 1
                fault.release()
            assert resolved == len(futures)
            for future in futures:
                assert future.done()

    def test_timeout_raised_in_a_solve_without_deadline_resolves(self, serving, monkeypatch):
        """A ``TimeoutError`` out of a solve maps to ``deadline_exceeded``
        (inside a worker process, before its error frame).  The reaper never
        watches a ticket without a deadline, so settling must not leave that
        one to it: the future resolves, typed, instead of pending for ever."""
        def timing_out(self, *args, **kwargs):
            raise TimeoutError("solver gave up")

        # patched before the service starts, so a forked worker has it too
        monkeypatch.setattr(SolverSession, "solve", timing_out)
        service = serving(ServeConfig(workers=1, max_batch=1),
                          default_solver_config=SolverConfig(preconditioner="ddm-lu"))
        future = service.submit({"family": "poisson", "target_n": 150, "seed": 4})
        done, _ = wait([future], timeout=60.0)
        assert done == {future}
        error = future.exception()
        assert isinstance(error, TimeoutError)
        assert as_serve_error(error).code == DeadlineExceeded.code
        assert service.stats()["errors"] == 1


# --------------------------------------------------------------------------- #
# client retry: 503 + Retry-After honoured, idempotent solves retried
# --------------------------------------------------------------------------- #
class TestClientRetry:
    @staticmethod
    def _flaky_server(fail_times: int, status: int = 503):
        """A stub HTTP server failing the first ``fail_times`` requests."""
        import json
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        state = {"failures": 0, "requests": 0}

        class Handler(BaseHTTPRequestHandler):
            def _respond(self):
                state["requests"] += 1
                if state["failures"] < fail_times:
                    state["failures"] += 1
                    body = json.dumps({"error": {
                        "code": "overloaded", "message": "queue full",
                        "status": status}}).encode()
                    self.send_response(status)
                    self.send_header("Retry-After", "0")
                else:
                    body = json.dumps({"status": "ok"}).encode()
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            do_GET = do_POST = _respond

            def log_message(self, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        return httpd, state

    def test_retries_503_until_success(self):
        from repro.serve import ServeClient

        httpd, state = self._flaky_server(fail_times=2)
        try:
            client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}",
                                 retries=3, backoff_s=0.01, seed=0)
            assert client.healthz() == {"status": "ok"}
            assert state["requests"] == 3  # two 503s + the success
        finally:
            httpd.shutdown()

    def test_retries_exhausted_surface_structured_error(self):
        from repro.serve import ServeClient
        from repro.serve.client import ServeClientError

        httpd, state = self._flaky_server(fail_times=10)
        try:
            client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}",
                                 retries=1, backoff_s=0.01)
            with pytest.raises(ServeClientError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 503
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retry_after_s == 0.0
            assert state["requests"] == 2  # initial + one retry, then give up
        finally:
            httpd.shutdown()

    def test_400_not_retried(self):
        from repro.serve import ServeClient
        from repro.serve.client import ServeClientError

        httpd, state = self._flaky_server(fail_times=10, status=400)
        try:
            client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}",
                                 retries=3, backoff_s=0.01)
            with pytest.raises(ServeClientError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 400
            assert state["requests"] == 1  # non-retryable: one attempt only
        finally:
            httpd.shutdown()
