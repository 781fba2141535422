"""Tests for the sharded serving layer: binary protocol, shared memory,
consistent hashing, cross-process parity and crash recovery.

The contract under test is the PR's acceptance bar: responses served through
worker processes over the binary frame path are **bitwise** identical to
single-process JSON-path solves, and the PR-7 failure-domain semantics
(typed errors, breakers, deadlines, shedding) survive the process boundary —
including a worker killed with SIGKILL mid-solve.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import install_from_specs
from repro.serve import (
    InvalidRequest,
    ServeClient,
    ServeConfig,
    ServeError,
    ServeHTTPServer,
    ServiceOverloaded,
    ShardConfig,
    ShardedSolveService,
    SolveService,
    WorkerCrashed,
    build_problem_from_spec,
    decode_frame,
    encode_frame,
    error_from_code,
)
from repro.serve.proto import CONTENT_TYPE, MAGIC
from repro.serve.shard import build_ring, route
from repro.solvers import SolverConfig, prepare, session_key

DDM_LU = SolverConfig(preconditioner="ddm-lu", tolerance=1e-8)
SPEC = {"family": "poisson", "target_n": 300, "seed": 1}


# --------------------------------------------------------------------------- #
# binary frame protocol
# --------------------------------------------------------------------------- #
class TestProtoRoundTrip:
    WIRE_DTYPES = ["<f8", "<f4", "<i8", "<i4", "<u8", "<u4", "<u1", "|b1"]
    SHAPES = [(0,), (1,), (7,), (64,), (5, 3), (2, 2, 2), (1, 9)]

    def test_seeded_property_sweep(self):
        """shapes × dtypes × k-columns all round-trip bit-exactly."""
        rng = np.random.default_rng(2024)
        for dtype in self.WIRE_DTYPES:
            for shape in self.SHAPES:
                raw = rng.integers(0, 255, size=shape, dtype=np.uint8)
                array = raw.astype(dtype) if dtype != "|b1" else (raw % 2).astype(bool)
                frame_bytes = encode_frame("solve", {"dtype": dtype}, {"a": array})
                frame = decode_frame(frame_bytes)
                assert frame.kind == "solve"
                got = frame.arrays["a"]
                assert got.shape == array.shape
                assert got.tobytes() == np.ascontiguousarray(array).tobytes()
                assert not got.flags.writeable  # zero-copy views are read-only

    def test_multi_column_blocks_round_trip(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 3, 8):
            block = rng.standard_normal((40, k))
            frame = decode_frame(encode_frame("solve", {"k": k}, {"B": block}))
            assert frame.arrays["B"].tobytes() == block.tobytes()
            # columns extracted from the view match the originals exactly
            for j in range(k):
                assert np.ascontiguousarray(
                    frame.arrays["B"][:, j]).tobytes() == \
                    np.ascontiguousarray(block[:, j]).tobytes()

    def test_non_contiguous_and_big_endian_inputs_normalise(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        strided = base[:, ::2]
        frame = decode_frame(encode_frame("x", {}, {"s": strided}))
        assert np.array_equal(frame.arrays["s"], strided)
        big = np.arange(5, dtype=">f8")
        frame = decode_frame(encode_frame("x", {}, {"b": big}))
        assert frame.arrays["b"].dtype == np.dtype("<f8")
        assert np.array_equal(frame.arrays["b"], big)

    def test_meta_round_trips_including_numpy_scalars(self):
        meta = {"deadline_ms": np.float64(12.5), "k": np.int64(3),
                "nested": {"list": [1, 2.5, None, "s"]}}
        frame = decode_frame(encode_frame("solve", meta))
        assert frame.meta["deadline_ms"] == 12.5
        assert frame.meta["k"] == 3
        assert frame.meta["nested"] == {"list": [1, 2.5, None, "s"]}

    @pytest.mark.parametrize("meta, arrays", [
        ({"deadline_ms": np.float64(12.5), "k": np.int64(3), "ok": np.bool_(True),
          "nested": {"x": np.float32(0.5), "list": [np.int32(1), None]}}, {"b": np.arange(3.0)}),
        (None, {"b": np.arange(3.0)}),
        ({"n": 1}, {}),
        ({"n": 2}, {"B": np.ones((5, 3)), "ids": np.arange(7, dtype=np.int32),
                    "mask": np.ones(65, dtype=bool), "x": np.arange(4, dtype=np.float32)}),
    ], ids=["numpy-scalar-meta", "none-meta", "no-arrays", "mixed-dtypes"])
    def test_header_is_the_reference_json_dumps(self, meta, arrays):
        """The header is ``json.dumps`` of the whole header dict, padded with
        spaces to the block boundary, although ``meta`` is dumped once."""
        from repro.serve.proto import _json_default

        frame_bytes = encode_frame("solve", meta, arrays)
        header_len = struct.unpack_from("<I", frame_bytes, 4)[0]
        header = frame_bytes[8:8 + header_len]
        parsed = json.loads(header)
        reference = json.dumps({"v": 1, "kind": "solve", "meta": dict(meta or {}),
                                "arrays": parsed["arrays"], "total": parsed["total"]},
                               default=_json_default).encode("utf-8")
        assert header.rstrip(b" ") == reference
        assert (8 + header_len) % 64 == 0 and len(header) - len(reference) < 64
        assert parsed["total"] == len(frame_bytes)
        decoded = decode_frame(frame_bytes)
        assert {name: array.tobytes() for name, array in decoded.arrays.items()} == \
            {name: np.ascontiguousarray(array).tobytes() for name, array in arrays.items()}

    def test_blocks_are_64_byte_aligned(self):
        frame_bytes = encode_frame("x", {}, {
            "a": np.arange(3, dtype=np.float64),
            "b": np.arange(5, dtype=np.float32),
        })
        header_len = struct.unpack_from("<I", frame_bytes, 4)[0]
        header = json.loads(frame_bytes[8:8 + header_len])
        for entry in header["arrays"]:
            assert entry["offset"] % 64 == 0


class TestProtoMalformed:
    """Every malformed frame is a typed InvalidRequest — never a traceback."""

    def _good(self):
        return encode_frame("solve", {"n": 1}, {"b": np.arange(9, dtype=np.float64)})

    def test_truncated_frames(self):
        good = self._good()
        for cut in (0, 1, 4, 7, 8, len(good) // 2, len(good) - 1):
            with pytest.raises(InvalidRequest):
                decode_frame(good[:cut])

    def test_oversized_frame_trailing_garbage(self):
        with pytest.raises(InvalidRequest, match="trailing"):
            decode_frame(self._good() + b"\x00" * 8)

    def test_corrupt_magic(self):
        bad = bytearray(self._good())
        bad[:4] = b"XXXX"
        with pytest.raises(InvalidRequest, match="magic"):
            decode_frame(bytes(bad))
        assert not MAGIC == b"XXXX"

    def test_corrupt_header_json(self):
        good = bytearray(self._good())
        header_len = struct.unpack_from("<I", good, 4)[0]
        good[8:8 + header_len] = b"{" * header_len
        with pytest.raises(InvalidRequest):
            decode_frame(bytes(good))

    def test_rejects_non_whitelisted_dtype(self):
        with pytest.raises(ValueError, match="non-wire dtype"):
            encode_frame("x", {}, {"a": np.array(["text"], dtype=object)})

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=256))
    def test_fuzz_random_bytes_never_traceback(self, data):
        try:
            decode_frame(data)
        except InvalidRequest:
            pass  # the only acceptable failure mode

    @settings(max_examples=100, deadline=None)
    @given(index=st.integers(min_value=0, max_value=10_000),
           value=st.integers(min_value=0, max_value=255))
    def test_fuzz_single_byte_corruption(self, index, value):
        good = bytearray(
            encode_frame("solve", {"k": 2}, {"B": np.ones((16, 2))}))
        index %= len(good)
        good[index] = value
        try:
            frame = decode_frame(bytes(good))
        except InvalidRequest:
            return
        # a corruption that still parses (e.g. a flipped byte inside header
        # whitespace or a renamed array) must still be structurally sound
        for array in frame.arrays.values():
            assert isinstance(array, np.ndarray)
            assert array.nbytes == array.size * array.itemsize


# --------------------------------------------------------------------------- #
# shared memory + session pickling
# --------------------------------------------------------------------------- #
class TestSharedMemory:
    def test_problem_round_trip_preserves_fingerprint(self, random_problem):
        from repro.serve.shm import problem_from_shm, problem_to_shm

        bundle = problem_to_shm(random_problem)
        try:
            clone = problem_from_shm(bundle.manifest)
            assert clone.fingerprint() == random_problem.fingerprint()
            assert clone.matrix.data.tobytes() == random_problem.matrix.data.tobytes()
            assert not clone.rhs.flags.writeable
            clone._shm_bundle.close()
        finally:
            bundle.close()

    def test_shm_problem_solve_is_bitwise_identical(self, random_problem):
        from repro.serve.shm import problem_from_shm, problem_to_shm
        from repro.solvers import prepare

        rng = np.random.default_rng(0)
        b = rng.standard_normal(random_problem.num_dofs)
        want = prepare(random_problem, DDM_LU).solve(b)
        bundle = problem_to_shm(random_problem)
        try:
            clone = problem_from_shm(bundle.manifest)
            got = prepare(clone, DDM_LU).solve(b)
            assert got.solution.tobytes() == want.solution.tobytes()
            assert got.iterations == want.iterations
            clone._shm_bundle.close()
        finally:
            bundle.close()

    def test_session_pickle_rebuild_is_bitwise_identical(self, random_problem):
        from repro.solvers import prepare

        session = prepare(random_problem, DDM_LU)
        rebuilt = pickle.loads(pickle.dumps(session))
        b = np.random.default_rng(1).standard_normal(random_problem.num_dofs)
        assert rebuilt.solve(b).solution.tobytes() == \
            session.solve(b).solution.tobytes()

    def test_model_shm_preserves_fingerprint(self, tiny_dss_model):
        from repro.serve.shm import model_from_shm, model_to_shm
        from repro.solvers.fingerprint import model_fingerprint

        bundle = model_to_shm(tiny_dss_model)
        try:
            clone = model_from_shm(bundle.manifest)
            assert model_fingerprint(clone) == model_fingerprint(tiny_dss_model)
            clone._shm_bundle.close()
        finally:
            bundle.close()

    @staticmethod
    def _assert_same_fields(original, clone):
        """Every dataclass field, the mesh's too, comes back with equal bytes
        or an equal scalar — a field the walk drops fails here."""
        import dataclasses

        import scipy.sparse as sp

        assert type(clone) is type(original)
        for field in dataclasses.fields(original):
            want, got = getattr(original, field.name), getattr(clone, field.name)
            if dataclasses.is_dataclass(want):
                TestSharedMemory._assert_same_fields(want, got)
            elif sp.issparse(want):
                want = want.tocsr()
                assert got.shape == want.shape, field.name
                for part in ("indptr", "indices", "data"):
                    a, b = getattr(want, part), getattr(got, part)
                    assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), (field.name, part)
            elif isinstance(want, np.ndarray):
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (want.dtype, want.shape, want.tobytes()), field.name
            else:
                assert got == want and type(got) is type(want), field.name

    @pytest.mark.parametrize("case", ["kappa-and-dirichlet-nodes", "both-none", "3d", "time-dependent"])
    def test_problem_round_trip_keeps_every_field(self, case):
        from repro.fem import Problem
        from repro.problems import make_problem
        from repro.serve.shm import problem_from_shm, problem_to_shm

        rng = np.random.default_rng(4)
        if case == "kappa-and-dirichlet-nodes":
            problem = make_problem("diffusion-mixed-bc", rng=rng)
            assert problem.node_diffusion is not None and problem.dirichlet_nodes is not None
        elif case == "both-none":
            base = make_problem("poisson", rng=rng)
            problem = Problem(mesh=base.mesh, matrix=base.matrix, rhs=base.rhs,
                              stiffness=base.stiffness, boundary_values=base.boundary_values)
            assert problem.node_diffusion is None and problem.dirichlet_nodes is None
        elif case == "3d":
            problem = make_problem("poisson3d", rng=rng, target_nodes=64)
            assert problem.mesh.dim == 3
        else:
            problem = make_problem("heat", rng=rng)
        bundle = problem_to_shm(problem)
        try:
            clone = problem_from_shm(bundle.manifest)
            try:
                self._assert_same_fields(problem, clone)
                assert clone.fingerprint() == problem.fingerprint()
            finally:
                clone._shm_bundle.close()
        finally:
            bundle.close()

    def test_manifest_length_that_disagrees_with_its_segment_is_refused(self, random_problem):
        from repro.serve.shm import SharedArrayBundle, problem_to_shm

        bundle = problem_to_shm(random_problem)
        try:
            for nbytes in (bundle.manifest["nbytes"] - 64, bundle.manifest["nbytes"] + 64):
                with pytest.raises(InvalidRequest):
                    SharedArrayBundle.attach(dict(bundle.manifest, nbytes=nbytes))
        finally:
            bundle.close()

    def test_sharded_service_unlinks_its_segments_on_close(self, random_problem, tiny_dss_model):
        from multiprocessing import shared_memory

        service = ShardedSolveService(ServeConfig(), model=tiny_dss_model, default_solver_config=DDM_LU,
                                      shard_config=ShardConfig(workers=1))
        try:
            service.solve(random_problem, timeout=120)
            names = [bundle.manifest["shm"] for bundle in service._problem_bundles.values()]
            names.append(service._executor._model_bundle.manifest["shm"])
        finally:
            service.close()
        assert len(names) == 2
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


# --------------------------------------------------------------------------- #
# typed errors across the boundary
# --------------------------------------------------------------------------- #
class TestErrorCodes:
    def test_round_trip_every_typed_error(self):
        for code, status in [("invalid_request", 400), ("overloaded", 503),
                             ("deadline_exceeded", 504), ("worker_crashed", 503)]:
            error = error_from_code(code, "boom")
            assert error.code == code
            assert error.http_status == status

    def test_unknown_code_degrades_to_base_error(self):
        error = error_from_code("martian", "boom")
        assert isinstance(error, ServeError)
        assert error.code == "internal"

    def test_retry_after_survives(self):
        assert error_from_code("overloaded", "x", retry_after_s=0.25).retry_after_s == 0.25

    def test_worker_crashed_is_retryable_503(self):
        error = WorkerCrashed("gone")
        assert error.http_status == 503
        assert isinstance(error, RuntimeError)


class TestServeConfigDict:
    def test_round_trip(self):
        config = ServeConfig(workers=3, max_batch=4, max_queue=7)
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown serve-config"):
            ServeConfig.from_dict({"workres": 2})


class TestInstallFromSpecs:
    def test_installs_and_rolls_back_on_failure(self):
        faults = install_from_specs([("worker-stall", {"max_stall_s": 0.01})])
        assert len(faults) == 1 and faults[0]._active
        faults[0].deactivate()
        with pytest.raises(Exception):
            install_from_specs([
                ("worker-stall", {"max_stall_s": 0.01}),
                ("no-such-fault", {}),
            ])
        # nothing may be left half-installed after the rollback
        from repro.solvers.session import SolverSession

        assert "wrap" not in repr(SolverSession.solve)


# --------------------------------------------------------------------------- #
# consistent-hash ring
# --------------------------------------------------------------------------- #
class TestHashRing:
    def test_deterministic_and_sorted(self):
        assert build_ring(4, 32) == build_ring(4, 32)
        ring = build_ring(4, 32)
        assert ring == sorted(ring)
        assert len(ring) == 128

    def test_every_slot_reachable_and_roughly_balanced(self):
        ring = build_ring(4, virtual_nodes=64)
        counts = [0] * 4
        rng = np.random.default_rng(9)
        for _ in range(2000):
            key = "".join(rng.choice(list("0123456789abcdef"), 64))
            counts[route(ring, key)] += 1
        assert all(count > 0 for count in counts)
        assert max(counts) < 4 * min(counts)  # no pathological imbalance

    def test_adding_a_shard_moves_a_minority_of_keys(self):
        before, after = build_ring(4, 64), build_ring(5, 64)
        rng = np.random.default_rng(10)
        keys = ["".join(rng.choice(list("0123456789abcdef"), 64))
                for _ in range(1000)]
        moved = sum(1 for key in keys if route(before, key) != route(after, key))
        assert moved < 500  # consistent hashing: ~1/5 expected, never a reshuffle

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            build_ring(0)
        with pytest.raises(ValueError):
            ShardConfig(workers=0)
        with pytest.raises(ValueError):
            ShardConfig(max_restarts=-1)


# --------------------------------------------------------------------------- #
# the sharded service itself (forks real processes — keep problems small)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def sharded_service():
    service = ShardedSolveService(
        ServeConfig(workers=1),
        default_solver_config=DDM_LU,
        shard_config=ShardConfig(workers=2),
    )
    yield service
    service.close()


class TestShardedService:
    def test_bitwise_parity_with_single_process(self, sharded_service):
        specs = [{"family": "poisson", "target_n": 300, "seed": s}
                 for s in range(3)]
        reference = SolveService(ServeConfig(workers=1),
                                 default_solver_config=DDM_LU)
        rng = np.random.default_rng(7)
        payloads = [(spec, rng.standard_normal(
            reference.problems.resolve(spec).num_dofs)) for spec in specs]
        want = [reference.solve(spec, b=b) for spec, b in payloads]
        reference.close()
        futures = [sharded_service.submit(spec, b=b) for spec, b in payloads]
        got = [future.result(120) for future in futures]
        for result, expected in zip(got, want):
            assert result.converged == expected.converged
            assert result.iterations == expected.iterations
            assert result.solution.tobytes() == expected.solution.tobytes()
            assert result.residual_history == expected.residual_history
            assert "shard" in result.info
        # seeds 0-2 route to both shards: sharding that serialises through
        # one worker fails here, with no stopwatch
        assert {result.info["shard"] for result in got} == {0, 1}

    def test_direct_problem_installs_via_shared_memory(self, sharded_service,
                                                       random_problem):
        from repro.solvers import prepare

        b = np.random.default_rng(2).standard_normal(random_problem.num_dofs)
        got = sharded_service.solve(random_problem, b=b, timeout=120)
        want = prepare(random_problem, DDM_LU).solve(b)
        assert got.solution.tobytes() == want.solution.tobytes()
        assert random_problem.fingerprint() in sharded_service._problem_bundles

    def test_same_key_always_routes_to_same_shard(self, sharded_service):
        results = [sharded_service.solve(SPEC, timeout=120) for _ in range(3)]
        assert len({r.info["shard"] for r in results}) == 1

    def test_invalid_request_stays_synchronous_and_typed(self, sharded_service):
        with pytest.raises(InvalidRequest):
            sharded_service.submit(SPEC, b=np.ones(3))
        with pytest.raises(InvalidRequest):
            sharded_service.submit({"family": "warp-drive"})
        with pytest.raises(InvalidRequest):
            sharded_service.submit(SPEC, deadline_ms=-1)

    def test_stats_and_health_aggregate_workers(self, sharded_service):
        sharded_service.solve(SPEC, timeout=120)
        stats = sharded_service.stats()
        assert stats["workers"] == 2
        assert len(stats["shards"]) == 2
        assert stats["cache"]["hits"] + stats["cache"]["misses"] >= 1
        health = sharded_service.health()
        assert health["status"] in ("ok", "degraded")
        assert len(health["workers"]) == 2
        for worker in health["workers"]:
            assert worker["worker_health"]["status"] in ("ok", "degraded")

    def test_closed_service_rejects_submissions(self):
        service = ShardedSolveService(
            ServeConfig(workers=1), default_solver_config=DDM_LU,
            shard_config=ShardConfig(workers=1))
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(SPEC)


class TestCrossProcessChaos:
    """kill -9 a worker mid-solve: typed failure, restart, breaker evidence."""

    def test_sigkill_mid_solve_fails_typed_and_restarts(self):
        config = SolverConfig(preconditioner="ddm-lu", tolerance=1e-8,
                              fallback=["ddm-jacobi"])
        service = ShardedSolveService(
            ServeConfig(workers=1),
            default_solver_config=config,
            shard_config=ShardConfig(
                workers=2,
                # every worker-side solve stalls: the kill window is guaranteed
                faults=[("worker-stall", {"max_stall_s": 120.0})],
            ),
        )
        try:
            future = service.submit(SPEC)
            deadline = time.monotonic() + 30.0
            victim = None
            while time.monotonic() < deadline and victim is None:
                for shard in service._shards:
                    if shard.pending:
                        victim = shard
                        break
                time.sleep(0.01)
            assert victim is not None, "request never reached a shard"
            pid_before = victim.pid
            # wait for the worker to actually pick the request up (stalled in
            # solve), then kill it dead
            time.sleep(0.5)
            os.kill(pid_before, signal.SIGKILL)
            with pytest.raises(WorkerCrashed):
                future.result(30)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and victim.pid == pid_before:
                time.sleep(0.05)
            assert victim.pid != pid_before, "supervisor never restarted the worker"
            snapshot = service.metrics.snapshot()
            assert snapshot["worker_crashes"] >= 1
            assert snapshot["worker_restarts"] >= 1
            # the crash fed the primary key's breaker
            key = session_key(service.problems.resolve(SPEC), config,
                              service.model)
            assert service._breakers[key].snapshot()["total_failures"] >= 1
            # NOTE: the restarted worker re-installs the stall fault (it is in
            # the bootstrap), so a post-restart solve would stall again — the
            # restart itself is asserted via the new pid above.
        finally:
            service.close()

    def test_restart_budget_exhaustion_marks_shard_dead(self):
        service = ShardedSolveService(
            ServeConfig(workers=1), default_solver_config=DDM_LU,
            shard_config=ShardConfig(workers=1, max_restarts=0))
        try:
            os.kill(service._shards[0].pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not service._shards[0].dead:
                time.sleep(0.05)
            assert service._shards[0].dead
            with pytest.raises(WorkerCrashed):
                service.submit(SPEC)
            assert service.health()["status"] == "unhealthy"
        finally:
            service.close()


# --------------------------------------------------------------------------- #
# shared state between submitters: the install table and the in-flight cap
# --------------------------------------------------------------------------- #
class TestConcurrentSubmitters:
    def test_install_frame_precedes_every_solve_that_needs_it(
            self, random_problem, monkeypatch):
        """Two first submitters of a never-seen ``Problem``: whoever loses
        the race to install it must not get its solve frame onto the pipe
        before the winner's install frame."""
        from repro.serve import shard as shard_module
        from repro.solvers import prepare

        real_send = shard_module._shard_send

        def slow_install(shard, frame_bytes):
            if decode_frame(frame_bytes).kind == "install_problem":
                time.sleep(0.3)  # widen the window between marking and sending
            real_send(shard, frame_bytes)

        monkeypatch.setattr(shard_module, "_shard_send", slow_install)
        service = ShardedSolveService(
            ServeConfig(workers=1), default_solver_config=DDM_LU,
            shard_config=ShardConfig(workers=1))
        try:
            rng = np.random.default_rng(12)
            rhs = [rng.standard_normal(random_problem.num_dofs) for _ in range(2)]
            barrier = threading.Barrier(2)
            outcomes = [None, None]

            def client(index):
                barrier.wait()
                try:
                    outcomes[index] = service.solve(random_problem, b=rhs[index],
                                                    timeout=120)
                except Exception as error:  # asserted on below
                    outcomes[index] = error

            threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(150)
            assert not any(thread.is_alive() for thread in threads)
            session = prepare(random_problem, DDM_LU)
            for b, outcome in zip(rhs, outcomes):
                assert not isinstance(outcome, Exception), repr(outcome)
                assert outcome.converged
                assert outcome.solution.tobytes() == session.solve(b).solution.tobytes()
        finally:
            service.close()

    def test_in_flight_cap_is_never_overshot(self, monkeypatch):
        """16 threads race 64 submissions at a wedged worker: exactly the
        cap is accepted, the rest shed."""
        from repro.serve import shard as shard_module

        def dawdling_encode(*args, **kwargs):
            time.sleep(0.002)  # submitters overlap wherever the code lets them
            return encode_frame(*args, **kwargs)

        monkeypatch.setattr(shard_module, "encode_frame", dawdling_encode)
        service = ShardedSolveService(
            ServeConfig(workers=1, max_queue=2), default_solver_config=DDM_LU,
            shard_config=ShardConfig(workers=1))
        shard = service._shards[0]
        try:
            service.solve(SPEC, timeout=120)
            cap = service.stats()["config"]["max_pending_per_shard"]
            # stopped, not dead: nothing is answered, frames pile up in the pipe
            os.kill(shard.pid, signal.SIGSTOP)
            barrier = threading.Barrier(16)
            outcomes = []

            def submitter():
                barrier.wait()
                for _ in range(4):
                    try:
                        service.submit(SPEC)
                        outcomes.append("accepted")
                    except ServiceOverloaded:
                        outcomes.append("shed")

            threads = [threading.Thread(target=submitter) for _ in range(16)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert outcomes.count("accepted") == cap
            assert len(shard.pending) == cap
            assert service.metrics.snapshot()["shed"] == len(outcomes) - cap
        finally:
            os.kill(shard.pid, signal.SIGCONT)
            service.close()

    def test_block_takes_all_its_slots_or_none(self):
        """A block that does not fit the in-flight cap is shed whole: the
        table never holds part of a request."""
        service = ShardedSolveService(
            ServeConfig(workers=1, max_queue=2), default_solver_config=DDM_LU,
            shard_config=ShardConfig(workers=1))
        shard = service._shards[0]
        try:
            service.solve(SPEC, timeout=120)
            cap = service.stats()["config"]["max_pending_per_shard"]
            n = service.problems.resolve(SPEC).num_dofs
            os.kill(shard.pid, signal.SIGSTOP)  # nothing is answered from here on
            for _ in range(cap - 3):
                service.submit(SPEC)
            with pytest.raises(ServiceOverloaded, match="4 more do not fit"):
                service.submit_columns(SPEC, np.ones((n, 4)))
            assert len(shard.pending) == cap - 3
            service.submit_columns(SPEC, np.ones((n, 3)))
            assert len(shard.pending) == cap
        finally:
            os.kill(shard.pid, signal.SIGCONT)
            service.close()


# --------------------------------------------------------------------------- #
# one serving core: the lifecycle exists once, the worker hosts no second one
# --------------------------------------------------------------------------- #
class TestOneServingCore:
    def test_worker_module_constructs_no_service(self):
        import ast
        import inspect

        from repro.serve import shard as shard_module

        calls = {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(ast.parse(inspect.getsource(shard_module)))
            if isinstance(node, ast.Call)
        }
        assert "SolveService" not in calls
        assert "ThreadExecutor" in calls  # what a worker process hosts instead

    def test_sharded_service_runs_the_same_lifecycle_code(self):
        for name in ("submit", "submit_columns", "_submit", "solve",
                     "_resolve_problem", "_resolve_config",
                     "_breaker_for", "_record_outcome", "_settle_result",
                     "_settle_error", "health", "stats", "metrics_snapshot",
                     "close"):
            assert getattr(ShardedSolveService, name) is getattr(SolveService, name), name


# --------------------------------------------------------------------------- #
# HTTP binary path end-to-end
# --------------------------------------------------------------------------- #
class TestBinaryHTTP:
    @pytest.fixture(scope="class")
    def stack(self):
        service = ShardedSolveService(
            ServeConfig(workers=1), default_solver_config=DDM_LU,
            shard_config=ShardConfig(workers=2))
        server = ServeHTTPServer(service, port=0).start()
        yield server, ServeClient(server.url, timeout=120.0)
        server.stop()
        service.close()

    def test_binary_matches_single_process_json_bitwise(self, stack):
        server, client = stack
        reference = SolveService(ServeConfig(workers=1),
                                 default_solver_config=DDM_LU)
        b = np.random.default_rng(3).standard_normal(
            reference.problems.resolve(SPEC).num_dofs)
        with ServeHTTPServer(reference, port=0) as json_server:
            json_server.start()
            json_response = ServeClient(json_server.url, timeout=120.0).solve(
                problem=SPEC, b=b)
        reference.close()
        json_solution = np.asarray(json_response["solution"], dtype=np.float64)
        binary_response = client.solve_binary(problem=SPEC, b=b)
        assert isinstance(binary_response["solution"], np.ndarray)
        assert binary_response["solution"].tobytes() == json_solution.tobytes()
        assert binary_response["converged"] == [json_response["converged"]]
        assert binary_response["iterations"] == [json_response["iterations"]]

    def test_multi_column_block_is_one_batch(self, stack):
        server, client = stack
        reference = SolveService(ServeConfig(workers=1),
                                 default_solver_config=DDM_LU)
        n = reference.problems.resolve(SPEC).num_dofs
        block = np.random.default_rng(4).standard_normal((n, 3))
        want = [reference.solve(SPEC, b=np.ascontiguousarray(block[:, j]))
                for j in range(3)]
        reference.close()
        response = client.solve_binary(problem=SPEC, b=block)
        assert response["k"] == 3
        assert [serve["batch_size"] for serve in response["serve"]] == [3, 3, 3]
        assert response["solution"].shape == (n, 3)
        for j in range(3):
            assert response["solution"][:, j].tobytes() == \
                want[j].solution.tobytes()

    def test_corrupt_frame_answers_typed_json_400(self, stack):
        server, _ = stack
        for body in (b"", b"\x00" * 16, b"RPB1" + b"\xff" * 64):
            request = urllib.request.Request(
                server.url + "/solve", data=body,
                headers={"Content-Type": CONTENT_TYPE})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400
            payload = json.loads(excinfo.value.read())
            assert payload["error"]["code"] == "invalid_request"

    def test_wrong_frame_kind_rejected(self, stack):
        server, _ = stack
        request = urllib.request.Request(
            server.url + "/solve", data=encode_frame("stats", {}),
            headers={"Content-Type": CONTENT_TYPE})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_twenty_solves_share_one_connection(self, stack):
        server, _ = stack
        problem = build_problem_from_spec(SPEC)
        session = prepare(problem, DDM_LU)
        pool = np.random.default_rng(9).standard_normal((4, problem.num_dofs))
        before = server.connections_accepted
        with ServeClient(server.url, timeout=120.0) as client:
            for i in range(20):
                response = client.solve_binary(problem=SPEC, b=pool[i % 4])
                assert response["solution"].tobytes() == \
                    session.solve(pool[i % 4]).solution.tobytes()
        assert server.connections_accepted - before == 1

    def test_six_threads_share_one_client(self, stack):
        server, _ = stack
        problem = build_problem_from_spec(SPEC)
        session = prepare(problem, DDM_LU)
        pool = np.random.default_rng(10).standard_normal((6, problem.num_dofs))
        want = [session.solve(b).solution for b in pool]
        answers = []
        before = server.connections_accepted
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # interleave the threads' client calls
        try:
            with ServeClient(server.url, timeout=120.0) as client:
                def caller(tid):
                    for _ in range(3):
                        response = client.solve_binary(problem=SPEC, b=pool[tid])
                        answers.append(response["solution"].tobytes() == want[tid].tobytes())

                threads = [threading.Thread(target=caller, args=(t,)) for t in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert answers == [True] * 18
        assert server.connections_accepted - before == 6

    def test_proto_counters_split_json_and_binary(self, stack):
        server, client = stack
        before = client.stats()["proto"]
        client.solve_binary(problem=SPEC)
        client.solve(problem=SPEC)
        after = client.stats()["proto"]
        assert after["binary"] == before["binary"] + 1
        assert after["json"] == before["json"] + 1


# --------------------------------------------------------------------------- #
# the worker resolves a request's spec and config only to build its session
# --------------------------------------------------------------------------- #
class TestWorkerResolution:
    def test_session_hit_resolves_nothing(self, monkeypatch):
        import multiprocessing as mp

        from repro.serve.problems import ProblemCache

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("counting inside a worker needs fork")
        counts = mp.get_context("fork").RawArray("i", 2)   # shared with the workers
        front = os.getpid()
        resolve, from_dict = ProblemCache.resolve, SolverConfig.from_dict.__func__

        def counting_resolve(self, spec):
            if os.getpid() != front:
                counts[0] += 1
            return resolve(self, spec)

        def counting_from_dict(cls, data):
            if os.getpid() != front:
                counts[1] += 1
            return from_dict(cls, data)

        monkeypatch.setattr(ProblemCache, "resolve", counting_resolve)
        monkeypatch.setattr(SolverConfig, "from_dict", classmethod(counting_from_dict))
        problem = build_problem_from_spec(SPEC)
        session = prepare(problem, DDM_LU)
        pool = np.random.default_rng(11).standard_normal((4, problem.num_dofs))
        config = DDM_LU.to_dict()
        service = ShardedSolveService(
            ServeConfig(workers=1), default_solver_config=DDM_LU,
            shard_config=ShardConfig(workers=1, start_method="fork"))
        try:
            service.solve(SPEC, pool[0], solver_config=config)      # the worker's cache miss
            assert counts[0] == 1 and counts[1] >= 1
            after_miss = list(counts)
            for b in pool:
                result = service.solve(SPEC, b, solver_config=config)
                assert result.solution.tobytes() == session.solve(b).solution.tobytes()
            assert list(counts) == after_miss

            # a restarted worker starts with an empty cache and still resolves
            pid = service.pids()[0]
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while service.pids()[0] in (pid, None) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert service.pids()[0] != pid
            result = service.solve(SPEC, pool[1], solver_config=config, timeout=60)
            assert result.solution.tobytes() == session.solve(pool[1]).solution.tobytes()
            assert counts[0] == after_miss[0] + 1
        finally:
            service.close()
