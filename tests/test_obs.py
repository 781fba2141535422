"""Observability suite: tracing, metrics registry, convergence telemetry.

The contract under test is the observability PR's acceptance bar:

* span trees are *complete* — every recorded trace is finished root-to-leaf,
  carries exactly the typed terminal event its outcome implies, and stays
  complete under chaos (a worker killed with SIGKILL mid-solve, a deadline
  firing against a stalled worker, a breaker rerouting off a poisoned rung);
* a sharded binary-path request yields ONE connected trace whose stages
  tile the request wall time up to the front process's own sub-millisecond
  bookkeeping;
* observation never perturbs the payload: ``obs``/tracing on changes no
  session key and no response bytes (bitwise parity);
* the ``/metrics`` exposition is strictly grammatical Prometheus text 0.0.4;
* malformed trace metadata in a binary frame must never fail the solve.
"""

from __future__ import annotations

import doctest
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.events import EventRing, capture_events
from repro.obs.metrics import MetricsRegistry, merge_snapshots, render_prometheus
from repro.obs.trace import Span
from repro.serve import (
    DeadlineExceeded,
    ServeClient,
    ServeClientError,
    ServeConfig,
    ServeHTTPServer,
    ServiceOverloaded,
    ShardConfig,
    ShardedSolveService,
    SolveService,
    WorkerCrashed,
)
from repro.serve import proto
from repro.serve.metrics import ServeMetrics, window_stat
from repro.serve.problems import build_problem_from_spec
from repro.solvers import SolverConfig, prepare, session_key

DDM_LU = SolverConfig(preconditioner="ddm-lu", tolerance=1e-8)
SPEC = {"family": "poisson", "target_n": 300, "seed": 1}
GNN_CONFIG = dict(preconditioner="ddm-gnn", subdomain_size=80,
                  tolerance=1e-6, max_iterations=300, seed=0)


@pytest.fixture(autouse=True)
def _tracing_hygiene():
    """Every test starts and ends with tracing off and the rings clear."""
    obs_trace.disable_tracing()
    yield
    obs_trace.disable_tracing()
    obs_events.get_ring().clear()


def assert_complete(root: Span) -> None:
    """The no-orphan invariant: every span in the tree is finished."""
    for node in root.walk():
        assert node.end is not None, f"orphan (unfinished) span {node.name!r}"
        assert node.trace_id == root.trace_id, (
            f"span {node.name!r} belongs to a different trace"
        )


# --------------------------------------------------------------------------- #
# span mechanics
# --------------------------------------------------------------------------- #
class TestSpanBasics:
    def test_tree_ids_and_ring(self):
        obs_trace.enable_tracing(max_traces=4)
        with obs_trace.trace_root("http.request", path="/solve") as root:
            with obs_trace.span("ingress.decode"):
                pass
            with obs_trace.span("serve.dispatch") as dispatch:
                dispatch.set_attribute("worker", 0)
                with obs_trace.span("session.solve"):
                    pass
        assert [c.name for c in root.children] == ["ingress.decode", "serve.dispatch"]
        assert root.children[1].children[0].name == "session.solve"
        assert {node.trace_id for node in root.walk()} == {root.trace_id}
        assert root.children[0].parent_id == root.span_id
        assert_complete(root)
        drained = obs_trace.drain_traces()
        assert drained == [root]
        assert obs_trace.drain_traces() == []

    def test_lazy_span_ids_are_unique_and_stable(self):
        spans = [Span(f"s{i}") for i in range(64)]
        assert all(s._span_id is None for s in spans)  # nothing allocated yet
        ids = [s.span_id for s in spans]
        assert len(set(ids)) == len(ids)
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)
        assert spans[0].span_id == ids[0]  # stable on re-read

    def test_events_and_terminals(self):
        node = Span("x")
        node.add_event("result", converged=True)
        node.add_event("note", detail="not terminal")
        assert node.terminal_events() == ["result"]
        assert all(e["offset_ms"] >= 0.0 for e in node.events)

    def test_child_cap_never_unbounded(self):
        node = Span("parent")
        for i in range(obs_trace._MAX_CHILDREN + 10):
            node.child(f"c{i}", start=0.0, end=0.0)
        assert len(node.children) == obs_trace._MAX_CHILDREN
        assert node.dropped_children == 10

    def test_stage_timings_aggregate_by_name(self):
        root = Span("root", start=0.0)
        root.child("serve.queue", start=0.0, end=0.010)
        root.child("serve.solve", start=0.010, end=0.050)
        root.child("serve.solve", start=0.050, end=0.060)
        root.finish(end=0.061)
        timings = root.stage_timings()
        assert timings["serve.queue"] == pytest.approx(10.0)
        assert timings["serve.solve"] == pytest.approx(50.0)
        assert root.find("serve.solve")[0].name == "serve.solve"

    def test_disabled_tracing_is_inert(self):
        assert not obs_trace.trace_enabled()
        assert obs_trace.current_span() is None
        assert obs_trace.span("x") is obs_trace._NULL_SPAN
        with obs_trace.trace_root("unrecorded") as root:
            with obs_trace.span("child"):
                pass
            with obs_trace.record("timed") as record:
                record.record_leaf("leaf", record.start, record.start + 1.0)
        assert root.end is not None
        assert obs_trace.finished_traces() == []  # never recorded
        # a record still times when nothing is kept: detached, no tree, no ids
        assert record.end is not None and record.total("leaf") == 1.0
        assert root.children == [] and obs_trace.current_span() is None
        assert record._trace_id is None and record._span_id is None
        assert root._trace_id is None  # an unkept root allocates no trace id either

    def test_ring_capacity_evicts_oldest(self):
        obs_trace.enable_tracing(max_traces=2)
        for i in range(4):
            with obs_trace.trace_root(f"r{i}"):
                pass
        assert [r.name for r in obs_trace.finished_traces()] == ["r2", "r3"]


class TestLeafSpans:
    def test_record_leaf_defers_materialization(self):
        obs_trace.enable_tracing()
        with obs_trace.trace_root("root") as root:
            root.record_leaf("precond.apply", 1.0, 1.002, {"k": 1})
            root.record_leaf("precond.apply", 1.002, 1.004, None, "ValueError")
        # finish() must not pay the tuple->Span conversion (hot path)
        assert root.children == []
        names = [n.name for n in root.walk()]
        assert names == ["root", "precond.apply", "precond.apply"]
        first, second = root.children
        assert first.attributes == {"k": 1}
        assert first.duration_ms == pytest.approx(2.0)
        assert second.events[0]["kind"] == "error"
        assert second.events[0]["error_type"] == "ValueError"
        # the buffer drained: a second walk does not duplicate children
        assert len(list(root.walk())) == 3

    def test_record_past_the_child_cap_still_sums_every_leaf(self):
        record = Span("lifetime", start=0.0)
        count = obs_trace._MAX_CHILDREN + 10
        intervals = [(i * 0.5, i * 0.5 + 1e-3 * (i % 7 + 1)) for i in range(count)]
        for start, end in intervals:
            record.record_leaf("ddm.local", start, end)
        assert record.total("ddm.local") == sum(end - start for start, end in intervals)
        assert record.dropped_children == 10
        kept = [leaf for leaf in record.walk() if leaf.name == "ddm.local"]
        assert len(kept) == obs_trace._MAX_CHILDREN

    def test_measure_records_one_leaf_per_call(self):
        record = Span("solve")
        assert record.measure("step", lambda x: x + 1, 41, attributes={"k": 1}) == 42
        with pytest.raises(ZeroDivisionError):
            record.measure("step", lambda x: 1 / x, 0)
        leaves = [leaf for leaf in record.walk() if leaf.name == "step"]
        assert [leaf.attributes for leaf in leaves] == [{"k": 1}, {}]
        assert record.total("step") == sum(leaf.end - leaf.start for leaf in leaves)

    def test_record_attaches_only_under_a_kept_trace(self):
        obs_trace.enable_tracing()
        with obs_trace.record("orphan") as orphan:  # tracing on, no active span
            pass
        with obs_trace.trace_root("root") as root:
            with obs_trace.record("kept", k=3) as kept:
                assert obs_trace.current_span() is kept
        assert orphan not in root.walk() and root.children == [kept]
        assert kept.attributes == {"k": 3} and kept.end is not None


class TestSerialization:
    def test_round_trip_preserves_structure(self):
        obs_trace.enable_tracing()
        with obs_trace.trace_root("worker.request", shard=1) as root:
            with obs_trace.span("session.solve", key="abc") as solve:
                solve.add_event("result", iterations=7)
        rebuilt = Span.from_dict(root.to_dict())
        assert rebuilt.name == "worker.request"
        assert rebuilt.attributes["shard"] == 1
        assert rebuilt.attributes["remote"] is True  # marked as rebuilt
        assert rebuilt.duration_ms == pytest.approx(root.duration_ms, rel=1e-6)
        (child,) = rebuilt.children
        assert child.name == "session.solve"
        assert child.trace_id == rebuilt.trace_id
        assert child.events == [e for e in root.children[0].events]
        assert_complete(rebuilt)

    def test_graft_attaches_under_parent(self):
        remote = Span("worker.request", start=0.0)
        remote.finish(end=0.040)
        parent = Span("shard.roundtrip")
        node = parent.graft(remote.to_dict())
        assert node is not None
        assert node.trace_id == parent.trace_id
        assert node.parent_id == parent.span_id
        assert node.duration_ms == pytest.approx(40.0)

    def test_graft_drops_malformed(self):
        parent = Span("shard.roundtrip")
        for garbage in ({}, {"name": 3}, {"name": "x", "attributes": "nope"},
                        {"name": "x", "events": "nope"}):
            assert parent.graft(garbage) is None
        assert parent.children == []


# --------------------------------------------------------------------------- #
# telemetry event ring + CLI
# --------------------------------------------------------------------------- #
class TestEventRing:
    def test_capacity_eviction_and_emitted(self):
        ring = EventRing(capacity=3)
        for i in range(5):
            ring.emit("iteration", iteration=i)
        assert len(ring) == 3
        assert ring.emitted == 5
        assert [e["iteration"] for e in ring.tail()] == [2, 3, 4]
        assert [e["iteration"] for e in ring.tail(2)] == [3, 4]
        with pytest.raises(ValueError):
            EventRing(capacity=0)

    def test_extend_preserves_prestamped_ts(self):
        ring = EventRing(capacity=8)
        ring.extend([{"ts": 123.0, "kind": "iteration", "iteration": 1},
                     {"ts": 123.0, "kind": "iteration", "iteration": 2}])
        assert [e["ts"] for e in ring.tail()] == [123.0, 123.0]
        assert ring.emitted == 2

    def test_capture_events_swaps_and_restores(self):
        before = obs_events.get_ring()
        with capture_events(capacity=4) as ring:
            obs_events.get_ring().emit("terminal", converged=True, iterations=3)
            assert obs_events.get_ring() is ring
            assert len(ring) == 1
        assert obs_events.get_ring() is before

    def test_dump_jsonl_and_cli(self, tmp_path):
        ring = EventRing(capacity=16)
        for i in range(4):
            ring.emit("iteration", iteration=i, residual=10.0 ** -i)
        ring.emit("terminal", converged=True, iterations=4)
        path = tmp_path / "events.jsonl"
        assert ring.dump_jsonl(path) == 5
        # a malformed line must be skipped, not fatal
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        tail = subprocess.run(
            [sys.executable, "-m", "repro.obs", "tail", str(path), "-n", "2",
             "--kind", "iteration"],
            capture_output=True, text=True, env=env, cwd="/root/repo")
        assert tail.returncode == 0
        lines = [json.loads(l) for l in tail.stdout.splitlines()]
        assert [e["iteration"] for e in lines] == [2, 3]
        summary = subprocess.run(
            [sys.executable, "-m", "repro.obs", "summary", str(path)],
            capture_output=True, text=True, env=env, cwd="/root/repo")
        assert summary.returncode == 0
        report = json.loads(summary.stdout)
        assert report["kinds"] == {"iteration": 4, "terminal": 1}
        assert report["solves"] == 1 and report["iterations_max"] == 4


# --------------------------------------------------------------------------- #
# metrics registry + Prometheus exposition grammar
# --------------------------------------------------------------------------- #
_NAME_RE = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL_RE = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"'
_VALUE_RE = r"(?:[+-]Inf|NaN|[+-]?[0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?)"
_HELP_RE = re.compile(rf"^# HELP {_NAME_RE} [^\n]*$")
_TYPE_RE = re.compile(rf"^# TYPE {_NAME_RE} (?:counter|gauge|histogram)$")
_SAMPLE_RE = re.compile(
    rf"^{_NAME_RE}(?:\{{{_LABEL_RE}(?:,{_LABEL_RE})*\}})? {_VALUE_RE}$")


def assert_exposition_grammar(text: str) -> None:
    """Strict line-by-line lint of Prometheus text exposition 0.0.4."""
    assert text.endswith("\n")
    seen_type: dict = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# HELP"):
            assert _HELP_RE.match(line), f"bad HELP line: {line!r}"
        elif line.startswith("# TYPE"):
            assert _TYPE_RE.match(line), f"bad TYPE line: {line!r}"
            _, _, name, kind = line.split(" ")
            assert name not in seen_type, f"duplicate TYPE for {name}"
            seen_type[name] = kind
            current = (name, kind)
        else:
            assert _SAMPLE_RE.match(line), f"bad sample line: {line!r}"
            assert current is not None, f"sample before TYPE: {line!r}"
            name, kind = current
            sample_name = re.match(_NAME_RE, line).group(0)
            if kind == "histogram":
                assert sample_name in (f"{name}_bucket", f"{name}_sum",
                                       f"{name}_count"), line
            else:
                assert sample_name == name, line
    # histogram semantics: cumulative buckets end at +Inf == _count
    for name, kind in seen_type.items():
        if kind != "histogram":
            continue
        buckets = [l for l in text.splitlines()
                   if l.startswith(f"{name}_bucket")]
        assert any('le="+Inf"' in l for l in buckets)
        counts = [float(l.rsplit(" ", 1)[1]) for l in buckets]
        assert len([l for l in text.splitlines()
                    if l.startswith(f"{name}_sum")]) >= 1
        assert len([l for l in text.splitlines()
                    if l.startswith(f"{name}_count")]) >= 1
        assert counts == sorted(counts) or len(set(counts)) > 1  # per-series


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        c = registry.counter("t_total", "help")
        c.inc()
        c.inc(2, proto="json")
        assert c.value() == 1.0 and c.value(proto="json") == 2.0
        assert c.total() == 3.0
        with pytest.raises(ValueError):
            c.inc(-1)
        g = registry.gauge("t_gauge", "help")
        g.set(3.0)
        g.inc()
        g.dec(0.5)
        assert g.value() == 3.5
        h = registry.histogram("t_hist", "help", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(99.0)
        snap = h.snapshot()
        assert snap["series"][0]["count"] == 2
        assert snap["series"][0]["counts"] == [1, 0]  # 99.0 overflows to +Inf
        # get-or-create: same object back, type conflicts rejected
        assert registry.counter("t_total", "help") is c
        with pytest.raises(ValueError):
            registry.gauge("t_total", "help")
        with pytest.raises(ValueError):
            registry.counter("bad name!", "help")

    def test_merge_snapshots_adds_elementwise(self):
        def build():
            r = MetricsRegistry()
            r.counter("m_total", "h").inc(2, shard="0")
            r.histogram("m_ms", "h", buckets=(1.0, 8.0)).observe(0.5)
            r.gauge("m_depth", "h").set(3)
            return r.snapshot()

        merged = merge_snapshots([build(), build(), {}])
        assert merged["m_total"]["series"][0]["value"] == 4.0
        assert merged["m_ms"]["series"][0]["counts"] == [2, 0]
        assert merged["m_ms"]["series"][0]["count"] == 2
        assert merged["m_depth"]["series"][0]["value"] == 6.0  # extensive sum
        bad = build()
        bad["m_total"]["type"] = "gauge"
        with pytest.raises(ValueError, match="conflicting types"):
            merge_snapshots([build(), bad])

    def test_exposition_grammar_synthetic(self):
        registry = MetricsRegistry()
        registry.counter("r_req_total", "Requests.").inc(3, proto="json")
        registry.counter("r_req_total", "Requests.").inc(1, proto="binary")
        registry.gauge("r_depth", "Depth, with \"quotes\"\nand newline.").set(2)
        h = registry.histogram("r_lat_ms", "Latency.")
        for v in (0.01, 0.5, 7.0, 1e6):
            h.observe(v, path="/solve")
        assert_exposition_grammar(render_prometheus(registry.snapshot()))

    def test_exposition_grammar_live_endpoint(self):
        service = SolveService(ServeConfig(workers=1),
                               default_solver_config=DDM_LU)
        try:
            service.solve(SPEC)
            server = ServeHTTPServer(service, port=0).start()
            try:
                client = ServeClient(server.url, timeout=60.0)
                text = client.metrics()
            finally:
                server.stop()
        finally:
            service.close()
        assert_exposition_grammar(text)
        assert "repro_serve_requests_total" in text
        assert "repro_serve_latency_ms_bucket" in text


# --------------------------------------------------------------------------- #
# empty-window normalization + module doctests
# --------------------------------------------------------------------------- #
class TestWindowNormalization:
    def test_empty_window_stats_are_none_not_zero(self):
        metrics = ServeMetrics()
        snap = metrics.snapshot()
        assert snap["requests"] == 0  # counters are numbers, always
        for q in ("p50_ms", "p95_ms", "p99_ms", "mean_ms"):
            assert snap["latency_ms"]["total"][q] is None
        assert snap["mean_batch_size"] is None
        assert window_stat(0.0, 0) is None
        assert window_stat(0.0, 1) == 0.0

    @pytest.mark.parametrize("module", [
        obs_trace, obs_events, obs_metrics,
        pytest.param(__import__("repro.serve.metrics", fromlist=["x"]),
                     id="serve.metrics"),
    ])
    def test_module_doctests(self, module):
        failed, attempted = doctest.testmod(module)
        assert attempted > 0
        assert failed == 0


# --------------------------------------------------------------------------- #
# observation never perturbs the payload
# --------------------------------------------------------------------------- #
class TestObservationIsFree:
    def test_obs_excluded_from_config_hash_and_session_key(self, random_problem):
        plain = SolverConfig(preconditioner="ddm-lu", tolerance=1e-8)
        observed = SolverConfig(preconditioner="ddm-lu", tolerance=1e-8,
                                obs={"convergence": True})
        assert plain.config_hash() == observed.config_hash()
        assert session_key(random_problem, plain, None) == \
            session_key(random_problem, observed, None)
        with pytest.raises(ValueError, match="obs"):
            SolverConfig(obs="yes please")

    def test_bitwise_parity_tracing_and_telemetry_on(self):
        problem = build_problem_from_spec(SPEC)
        b = np.random.default_rng(5).standard_normal(problem.num_dofs)
        baseline = prepare(problem, DDM_LU).solve(b)
        observed_config = SolverConfig(preconditioner="ddm-lu", tolerance=1e-8,
                                       obs={"convergence": True})
        obs_trace.enable_tracing()
        with capture_events(capacity=4096):
            with obs_trace.trace_root("parity.request"):
                observed = prepare(problem, observed_config).solve(b)
        assert observed.solution.tobytes() == baseline.solution.tobytes()
        assert observed.iterations == baseline.iterations
        assert observed.residual_history == baseline.residual_history
        assert observed.final_relative_residual == baseline.final_relative_residual

    def test_iteration_events_mirror_residual_history(self):
        problem = build_problem_from_spec(SPEC)
        b = np.random.default_rng(6).standard_normal(problem.num_dofs)
        config = SolverConfig(preconditioner="ddm-lu", tolerance=1e-8,
                              obs={"convergence": True})
        with capture_events(capacity=4096) as ring:
            result = prepare(problem, config).solve(b)
        events = ring.tail()
        iteration = [e for e in events if e["kind"] == "iteration"]
        terminal = [e for e in events if e["kind"] == "terminal"]
        assert len(iteration) == result.iterations
        assert [e["iteration"] for e in iteration] == \
            list(range(1, result.iterations + 1))
        assert [e["residual"] for e in iteration] == result.residual_history[1:]
        assert len(terminal) == 1
        assert terminal[0]["converged"] is True
        assert terminal[0]["iterations"] == result.iterations

    def test_terminal_event_and_span_report_the_recurrence(self, tiny_dss_model):
        """Why 24 iterations here and 30 there: the trace says which recurrence ran."""
        problem = build_problem_from_spec(SPEC)
        obs_trace.enable_tracing()
        for kind, model, expected in (("ddm-lu", None, "standard"),
                                      ("ddm-gnn", tiny_dss_model, "flexible")):
            config = SolverConfig(preconditioner=kind, tolerance=1e-2, max_iterations=4,
                                  obs={"convergence": True})
            with capture_events(capacity=64) as ring:
                with obs_trace.trace_root("recurrence.request") as root:
                    result = prepare(problem, config, model=model).solve()
            terminal = [e for e in ring.tail() if e["kind"] == "terminal"]
            solve_span = next(s for s in root.walk() if s.name == "session.solve")
            assert result.info["recurrence"] == expected
            assert [e["recurrence"] for e in terminal] == [expected]
            assert solve_span.attributes["recurrence"] == expected
            # ... and, beside it, which body the preconditioner ran: the GNN's edge pass, DDM-LU's apply
            assert solve_span.attributes["kernel"] == result.info.get("kernel")
            assert result.info.get("kernel") in ("native", "numpy")

    def test_obs_off_emits_nothing(self):
        problem = build_problem_from_spec(SPEC)
        b = np.random.default_rng(6).standard_normal(problem.num_dofs)
        with capture_events(capacity=64) as ring:
            prepare(problem, DDM_LU).solve(b)
        assert len(ring) == 0


# --------------------------------------------------------------------------- #
# one request, one connected trace — in-process and sharded
# --------------------------------------------------------------------------- #
class TestRequestTraces:
    #: ms of a sharded request's wall time that neither of its two stages (``serve.route``, then
    #: ``shard.roundtrip`` from the enqueue on) covers: the front process's admission before routing and
    #: the caller's wake-up after the reply frame.  A fixed cost, not a share — the solve inside the
    #: round trip can be any length.  Measured on a 2-CPU host over 120 requests on the native and the
    #: numpy DDM-LU bodies: 0.12–0.37 ms (median 0.18–0.23), single requests 0.67 and 1.84 ms when the
    #: scheduler preempted them, which best-of-3 absorbs.
    UNCOVERED_MS = 1.0

    def test_in_process_request_trace_shape(self):
        obs_trace.enable_tracing()
        with SolveService(ServeConfig(workers=1),
                          default_solver_config=DDM_LU) as service:
            with obs_trace.trace_root("test.request") as root:
                result = service.solve(SPEC)
        assert result.converged
        assert_complete(root)
        timings = root.stage_timings()
        for stage in ("serve.route", "serve.queue", "serve.solve",
                      "session.solve", "precond.apply"):
            assert stage in timings, f"missing stage {stage}"
        assert root.terminal_events() == ["result"]
        # the Krylov loop leaves one precond.apply child per iteration
        solve_span = root.find("session.solve")[0]
        applies = solve_span.find("precond.apply")
        assert len(applies) == result.iterations

    def test_sharded_binary_path_single_connected_trace(self):
        # enabling BEFORE construction matters: workers inherit the tracing
        # switch through their spawn-time bootstrap
        obs_trace.enable_tracing()
        spec = {"family": "poisson", "target_n": 2000, "seed": 0}
        service = ShardedSolveService(
            ServeConfig(workers=1), default_solver_config=DDM_LU,
            shard_config=ShardConfig(workers=2))
        try:
            service.solve(spec, timeout=120)  # warm: session install is setup
            gaps = []
            for _ in range(3):  # best-of-3 absorbs scheduler preemption
                with obs_trace.trace_root("accept.request") as root:
                    result = service.solve(spec, timeout=120)
                assert result.converged
                assert_complete(root)
                # the stages run back to back inside the root: what they leave uncovered is >= 0
                gaps.append(root.duration_ms - sum(c.duration_ms for c in root.children))
                assert gaps[-1] >= 0.0, f"stages overlap by {-gaps[-1]:.3f} ms"
                if gaps[-1] <= self.UNCOVERED_MS:
                    break
            assert min(gaps) <= self.UNCOVERED_MS, f"{min(gaps):.3f} ms outside every stage"
            timings = root.stage_timings()
            for stage in ("serve.route", "shard.roundtrip", "worker.request",
                          "serve.solve", "session.solve"):
                assert stage in timings, f"missing stage {stage}"
            # admitted and routed once, in the front process — the worker
            # does not run a second lifecycle under its own root
            assert len(root.find("serve.route")) == 1
            # the worker subtree crossed the fork and is marked remote
            (worker_span,) = root.find("worker.request")
            assert worker_span.attributes.get("remote") is True
            assert worker_span.trace_id == root.trace_id
        finally:
            service.close()


# --------------------------------------------------------------------------- #
# one leaf per preconditioner sweep, whatever the class or the width
# --------------------------------------------------------------------------- #
class TestPreconditionerLeaves:
    """Both Schwarz preconditioners have one entry point, so both record the
    same buffered leaf — ``precond.apply`` with its column count ``k``."""

    @pytest.fixture(scope="class")
    def gnn_session(self, random_problem, trained_dss_model):
        return prepare(random_problem, SolverConfig(**GNN_CONFIG), model=trained_dss_model)

    def test_ddm_gnn_solve_shows_every_application(self, random_problem, gnn_session):
        b = np.random.default_rng(11).standard_normal(random_problem.num_dofs)
        untraced = gnn_session.solve(b)
        stats = gnn_session.preconditioner.inference_stats
        before = stats()["applications"]
        obs_trace.enable_tracing()
        with obs_trace.trace_root("gnn.request") as root:
            traced = gnn_session.solve(b)
        leaves = root.find("session.solve")[0].find("precond.apply")
        assert len(leaves) == stats()["applications"] - before == traced.iterations
        assert {leaf.attributes["k"] for leaf in leaves} == {1}
        assert_complete(root)
        # obs-on ≡ obs-off
        assert traced.solution.tobytes() == untraced.solution.tobytes()
        assert traced.residual_history == untraced.residual_history

    @pytest.mark.parametrize("kind", ["ddm-gnn", "ddm-lu"])
    def test_fused_solve_many_leaves_carry_the_active_column_counts(
            self, random_problem, gnn_session, kind):
        session = gnn_session if kind == "ddm-gnn" else prepare(
            random_problem, SolverConfig(**{**GNN_CONFIG, "preconditioner": kind}))
        # a smooth, a rough and two noisy right-hand sides: they converge at
        # different iterations, so the lockstep block shrinks along the way
        rng = np.random.default_rng(12)
        block = np.stack([random_problem.rhs, random_problem.matrix @ rng.standard_normal(
            random_problem.num_dofs), *rng.standard_normal((2, random_problem.num_dofs))])
        untraced = session.solve_many(block, mode="fused")
        obs_trace.enable_tracing()
        with obs_trace.trace_root("gnn.block") as root:
            traced = session.solve_many(block, mode="fused")
        widths = [leaf.attributes["k"] for leaf in root.find("precond.apply")]
        assert widths[0] == len(block) and widths == sorted(widths, reverse=True)
        assert len(set(widths)) > 1, "the block never shrank; pick rougher right-hand sides"
        assert len(widths) == max(traced.iterations)
        assert sum(widths) == sum(traced.iterations)
        for a, b in zip(traced.results, untraced.results):
            assert a.solution.tobytes() == b.solution.tobytes()


# --------------------------------------------------------------------------- #
# span invariants under chaos
# --------------------------------------------------------------------------- #
class TestChaosTraces:
    def test_deadline_trace_is_complete_and_typed(self, random_problem):
        config = SolverConfig(preconditioner="ddm-lu", subdomain_size=80,
                              tolerance=1e-6, seed=0)
        with SolveService(ServeConfig(workers=1, max_batch=1)) as service:
            service.solve(random_problem, solver_config=config)  # warm
            obs_trace.enable_tracing()
            with faults.inject("worker-stall", max_stall_s=20.0) as fault:
                with obs_trace.trace_root("chaos.deadline") as root:
                    future = service.submit(random_problem,
                                            solver_config=config,
                                            deadline_ms=300)
                    with pytest.raises(DeadlineExceeded):
                        future.result(timeout=10.0)
                drained = obs_trace.drain_traces()
                fault.release()
            assert drained == [root]
            assert "deadline_exceeded" in root.terminal_events()
            assert_complete(root)

    def test_sigkill_trace_is_complete_and_typed(self):
        obs_trace.enable_tracing()
        service = ShardedSolveService(
            ServeConfig(workers=1),
            default_solver_config=SolverConfig(
                preconditioner="ddm-lu", tolerance=1e-8,
                fallback=["ddm-jacobi"]),
            shard_config=ShardConfig(
                workers=2,
                faults=[("worker-stall", {"max_stall_s": 120.0})]),
        )
        try:
            with obs_trace.trace_root("chaos.sigkill") as root:
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
                time.sleep(0.5)  # let the worker pick it up (stalled in solve)
                os.kill(victim.pid, signal.SIGKILL)
                with pytest.raises(WorkerCrashed):
                    future.result(30)
            assert "worker_crashed" in root.terminal_events()
            assert_complete(root)
        finally:
            service.close()

    def test_breaker_reroute_trace_is_complete(self, random_problem,
                                               trained_dss_model, serving):
        primary = SolverConfig(fallback=["ddm-lu"], obs={"convergence": True},
                               **GNN_CONFIG)
        service = serving(
            ServeConfig(workers=1, breaker_failures=2, breaker_reset_s=3600.0),
            faults=[("gnn-nan-apply", {"seed": 0, "until_calls": 2})],
            model=trained_dss_model)
        for _ in range(2):  # open the breaker via the ladder
            assert service.solve(random_problem,
                                 solver_config=primary).converged
        obs_trace.enable_tracing()
        with capture_events(capacity=4096) as ring:
            with obs_trace.trace_root("chaos.reroute") as root:
                rerouted = service.solve(random_problem,
                                         solver_config=primary)
        assert rerouted.info["breaker_rerouted"] is True
        reroutes = [e for e in root.events if e["kind"] == "breaker_reroute"]
        assert len(reroutes) == 1
        assert reroutes[0]["rung"] == "ddm-lu"
        assert root.terminal_events() == ["result"]
        assert_complete(root)
        # the reroute is a telemetry event too, wherever the solve then runs
        (event,) = [e for e in ring.tail() if e["kind"] == "breaker"]
        assert event["action"] == "reroute"
        assert event["rung"] == "ddm-lu"


# --------------------------------------------------------------------------- #
# trace metadata on the wire: fuzzed, and never fatal
# --------------------------------------------------------------------------- #
_JSONISH = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=32)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=8), inner,
                                            max_size=4)),
    max_leaves=8)


class TestTraceMetaOnTheWire:
    @settings(max_examples=200, deadline=None)
    @given(payload=_JSONISH)
    def test_extract_trace_meta_never_raises(self, payload):
        out = proto.extract_trace_meta({"trace": payload})
        if out is not None:
            assert isinstance(out["trace_id"], str)

    def test_make_extract_round_trip(self):
        meta = {"trace": proto.make_trace_meta("ab12cd34", "ef56")}
        out = proto.extract_trace_meta(meta)
        assert out == {"trace_id": "ab12cd34", "parent_span_id": "ef56"}
        # a valid trace id with a garbage parent still correlates the hop
        out = proto.extract_trace_meta(
            {"trace": {"trace_id": "ab12", "parent_span_id": ["nope"]}})
        assert out == {"trace_id": "ab12", "parent_span_id": None}

    def test_malformed_trace_meta_still_served(self):
        service = SolveService(ServeConfig(workers=1),
                               default_solver_config=DDM_LU)
        server = ServeHTTPServer(service, port=0).start()
        try:
            n = service.problems.resolve(SPEC).num_dofs
            b = np.random.default_rng(9).standard_normal(n)
            for garbage in ({"trace_id": "NOT HEX!!"}, [1, 2, 3], "string",
                            {"trace_id": {"nested": True}}):
                frame_bytes = proto.encode_frame(
                    "solve", {"problem": SPEC, "trace": garbage}, {"b": b})
                request = urllib.request.Request(
                    server.url + "/solve", data=frame_bytes,
                    headers={"Content-Type": proto.CONTENT_TYPE})
                with urllib.request.urlopen(request, timeout=60.0) as response:
                    assert response.status == 200
                    frame = proto.decode_frame(response.read())
                assert frame.kind == "result"
                assert frame.meta["converged"] == [True]
        finally:
            server.stop()
            service.close()

    def test_well_formed_trace_meta_adopted_as_trace_id(self):
        service = SolveService(ServeConfig(workers=1),
                               default_solver_config=DDM_LU)
        server = ServeHTTPServer(service, port=0).start()
        try:
            n = service.problems.resolve(SPEC).num_dofs
            b = np.random.default_rng(9).standard_normal(n)
            trace_id = "feedc0de" * 4
            frame_bytes = proto.encode_frame(
                "solve",
                {"problem": SPEC, "trace": proto.make_trace_meta(trace_id)},
                {"b": b})
            request = urllib.request.Request(
                server.url + "/solve", data=frame_bytes,
                headers={"Content-Type": proto.CONTENT_TYPE})
            with urllib.request.urlopen(request, timeout=60.0) as response:
                assert response.headers["X-Trace-Id"] == trace_id
        finally:
            server.stop()
            service.close()


# --------------------------------------------------------------------------- #
# error correlation: trace_id on failures, retry_of across attempts
# --------------------------------------------------------------------------- #
class _FlakyService(SolveService):
    """Raises ServiceOverloaded for the first ``failures`` solves, then serves."""

    def __init__(self, *args, failures: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._failures_left = failures

    def solve(self, *args, **kwargs):
        if self._failures_left > 0:
            self._failures_left -= 1
            raise ServiceOverloaded("synthetic overload", retry_after_s=0.01)
        return super().solve(*args, **kwargs)


class TestErrorCorrelation:
    def test_error_response_carries_trace_id(self):
        service = _FlakyService(ServeConfig(workers=1),
                                default_solver_config=DDM_LU, failures=10**6)
        server = ServeHTTPServer(service, port=0).start()
        try:
            client = ServeClient(server.url, timeout=30.0, retries=0)
            with pytest.raises(ServeClientError) as excinfo:
                client.solve(SPEC)
            error = excinfo.value
            assert error.status == 503
            assert error.code == "overloaded"
            assert isinstance(error.trace_id, str)
            assert re.fullmatch(r"[0-9a-f]{8,64}", error.trace_id)
        finally:
            server.stop()
            service.close()

    def test_retry_keeps_correlation_via_retry_of(self):
        obs_trace.enable_tracing()
        service = _FlakyService(ServeConfig(workers=1),
                                default_solver_config=DDM_LU, failures=1)
        server = ServeHTTPServer(service, port=0).start()
        try:
            client = ServeClient(server.url, timeout=30.0, retries=2,
                                 backoff_s=0.01)
            response = client.solve(SPEC)
            assert response["converged"] is True
        finally:
            server.stop()
            service.close()
        roots = [r for r in obs_trace.drain_traces()
                 if r.name == "http.request"]
        assert len(roots) == 2
        failed, retried = roots
        assert failed.attributes.get("retry_of") is None
        assert retried.attributes["retry_of"] == failed.trace_id
        assert retried.trace_id != failed.trace_id
        for root in roots:
            assert_complete(root)
