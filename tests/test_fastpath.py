"""Tests of the iteration-time fast path: precompiled inference plans, the
allocation-free DSS engine, stacked restrictions, and the regression pins
that keep the exact solvers bit-identical to the classical loops."""

from __future__ import annotations

import collections
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dst_sorted

from repro.core import DDMGNNPreconditioner
from repro.core import ddm_gnn as ddm_gnn_module
from repro.ddm import _native as ddm_native
from repro.ddm import (
    AdditiveSchwarzPreconditioner,
    LULocalSolver,
    StackedRestriction,
    build_restrictions,
    extract_local_matrices,
)
from repro.ddm.restriction import segment_norms
from repro.gnn import DSS, DSSConfig, EdgeLayout, GraphBatch, _native
from repro.gnn import infer as engine
from repro.gnn.graph import GraphProblem, graph_from_mesh
from repro.krylov import preconditioned_conjugate_gradient
from repro.krylov.result import SolveResult
from repro.partition import OverlappingDecomposition, partition_mesh_target_size
from repro.solvers import SolverConfig, prepare
from repro.utils import native, sparse


@pytest.fixture(scope="module")
def toy_batch(small_disk_mesh):
    rng = np.random.default_rng(0)
    graphs = [
        graph_from_mesh(small_disk_mesh, rng.normal(size=small_disk_mesh.num_nodes))
        for _ in range(3)
    ]
    return GraphBatch.from_graphs(graphs)


@pytest.fixture(scope="module")
def kappa_batch(small_disk_mesh):
    """Batch whose graphs carry κ features (node_attr + a 4th edge column)."""
    rng = np.random.default_rng(21)
    graphs = []
    for _ in range(3):
        g = graph_from_mesh(small_disk_mesh, rng.normal(size=small_disk_mesh.num_nodes))
        g.node_attr = rng.normal(size=(small_disk_mesh.num_nodes, 1))
        g.edge_attr = np.hstack([g.edge_attr, rng.normal(size=(g.edge_attr.shape[0], 1))])
        graphs.append(g)
    return GraphBatch.from_graphs(graphs)


# --------------------------------------------------------------------------- #
# DSS.infer vs DSS.forward parity
# --------------------------------------------------------------------------- #
class TestInferParity:
    @pytest.mark.parametrize("config", [
        DSSConfig(num_iterations=3, latent_dim=4, seed=1),
        DSSConfig(num_iterations=30, latent_dim=10, seed=2),
        DSSConfig(num_iterations=4, latent_dim=5, seed=3, edge_attr_dim=4, node_input_dim=2),
    ])
    def test_infer_matches_forward(self, toy_batch, config):
        model = DSS(config)
        plan = model.compile_plan(toy_batch)
        source = np.random.default_rng(7).normal(size=toy_batch.num_nodes)
        fast = model.infer(plan, source).copy()
        toy_batch.source = source
        forward = model.predict(toy_batch)
        assert np.allclose(fast, forward, rtol=1e-12, atol=1e-12)
        # and against the forward running on the batch's edges already in the plan's order
        forward_on_sorted = model.predict(dst_sorted(toy_batch))
        assert np.allclose(fast, forward_on_sorted, rtol=1e-12, atol=1e-12)

    def test_buffer_reuse_across_sources(self, toy_batch):
        """Repeated infer calls on one plan must not leak state between sources."""
        model = DSS(DSSConfig(num_iterations=3, latent_dim=4, seed=1))
        plan = model.compile_plan(toy_batch)
        rng = np.random.default_rng(11)
        for _ in range(3):
            source = rng.normal(size=toy_batch.num_nodes)
            fast = model.infer(plan, source).copy()
            toy_batch.source = source
            assert np.allclose(fast, model.predict(toy_batch), rtol=1e-12, atol=1e-12)

    def test_infer_output_is_reused_view(self, toy_batch):
        model = DSS(DSSConfig(num_iterations=2, latent_dim=3, seed=1))
        plan = model.compile_plan(toy_batch)
        rng = np.random.default_rng(13)
        first = model.infer(plan, rng.normal(size=toy_batch.num_nodes))
        second = model.infer(plan, rng.normal(size=toy_batch.num_nodes))
        # same underlying buffer, overwritten in place by the second call
        assert np.shares_memory(first, second)
        assert np.array_equal(first, second)

    def test_infer_takes_one_source_column(self, toy_batch):
        """``infer`` is the one-column run: a source of the wrong length, or with columns, is a
        ``ValueError`` naming the shape, and leaves the plan's next run unchanged."""
        model = DSS(DSSConfig(num_iterations=2, latent_dim=3, seed=1))
        plan = model.compile_plan(toy_batch)
        source = np.random.default_rng(8).normal(size=toy_batch.num_nodes)
        expected = model.infer(plan, source).copy()
        for wrong in (np.ones(toy_batch.num_nodes + 1), np.ones((toy_batch.num_nodes, 2))):
            with pytest.raises(ValueError, match="num_nodes"):
                model.infer(plan, wrong)
        assert np.array_equal(model.infer(plan, source), expected)

    def test_edge_layout_preserves_graph(self, toy_batch):
        """The layout's sort by destination keeps the edge multiset, and is stable: the edges arriving at
        one node keep their batch order."""
        layout = EdgeLayout(toy_batch.edge_index, toy_batch.edge_attr, toy_batch.num_nodes)
        original = sorted(map(tuple, np.vstack([toy_batch.edge_index, toy_batch.edge_attr.T]).T.tolist()))
        sorted_ = sorted(map(tuple, np.vstack([layout.edge_index, layout.attr.T]).T.tolist()))
        assert original == sorted_
        assert np.all(np.diff(layout.edge_index[1]) >= 0)
        position = {edge: e for e, edge in enumerate(map(tuple, toy_batch.edge_index.T.tolist()))}
        assert len(position) == toy_batch.num_edges                  # no repeated edge: positions are defined
        batch_order = np.array([position[edge] for edge in map(tuple, layout.edge_index.T.tolist())])
        same_destination = np.diff(layout.edge_index[1]) == 0
        assert np.all(np.diff(batch_order)[same_destination] > 0)


# --------------------------------------------------------------------------- #
# multi-column (fused) inference parity
# --------------------------------------------------------------------------- #
PLAIN_CONFIG = DSSConfig(num_iterations=3, latent_dim=4, seed=1)
KAPPA_CONFIG = DSSConfig(num_iterations=4, latent_dim=5, seed=3, edge_attr_dim=4, node_input_dim=2)
#: the paper's d = 10: the width the C instantiates (every other d runs its generic loop bound)
D10_CONFIG = DSSConfig(num_iterations=3, latent_dim=10, seed=2)

COLUMN_COUNTS = [1, 2, 7, 16]


def _model_and_batch(config, toy_batch, kappa_batch):
    batch = kappa_batch if config.node_input_dim > 1 else toy_batch
    model = DSS(config)
    return model, batch


class TestMultiColumnParity:
    """``infer_columns(k)`` against ``k`` sequential ``infer`` calls.

    The f64 contract is *bitwise* (the lockstep CG relies on it); the f32
    k-wide sweep trades bit-identity for fusion and is pinned by tolerance
    against the f32 single-column sweeps instead.  Both hold on either body of
    the edge pass (|e| = 3 and the κ-aware |e| = 4).
    """

    def _sequential(self, model, plan, sources):
        return np.stack(
            [model.infer(plan, sources[:, j]).copy() for j in range(sources.shape[1])],
            axis=1,
        )

    @pytest.mark.parametrize("config", [PLAIN_CONFIG, KAPPA_CONFIG, D10_CONFIG])
    @pytest.mark.parametrize("k", COLUMN_COUNTS)
    def test_f64_columns_bitwise_match_sequential(self, toy_batch, kappa_batch, config, k, body):
        model, batch = _model_and_batch(config, toy_batch, kappa_batch)
        plan = model.compile_plan(batch)
        sources = np.random.default_rng(100 + k).normal(size=(batch.num_nodes, k))
        fused = model.infer_columns(plan, sources).copy()
        assert np.array_equal(fused, self._sequential(model, plan, sources))

    @pytest.mark.parametrize("config", [PLAIN_CONFIG, KAPPA_CONFIG])
    @pytest.mark.parametrize("k", COLUMN_COUNTS)
    def test_f32_columns_match_f32_sequential_to_tolerance(self, toy_batch, kappa_batch, config, k, body):
        model, batch = _model_and_batch(config, toy_batch, kappa_batch)
        plan32 = model.compile_plan(batch, precision="f32")
        rng = np.random.default_rng(200 + k)
        sources = rng.normal(size=(batch.num_nodes, k))
        fused = model.infer_columns(plan32, sources).copy()
        sequential = self._sequential(model, plan32, sources)
        assert fused.dtype == np.float32
        scale = np.abs(sequential).max()
        assert np.allclose(fused, sequential, rtol=1e-4, atol=1e-5 * max(scale, 1.0))

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_shrinking_column_counts_stay_correct(self, toy_batch, precision):
        """Lockstep compaction shrinks k mid-solve, and the workspaces of all
        column counts alias one allocation: every smaller count served after
        the largest one must still match single-column ``infer``."""
        model = DSS(PLAIN_CONFIG)
        plan = model.compile_plan(toy_batch, precision=precision)
        rng = np.random.default_rng(31)
        model.infer_columns(plan, rng.normal(size=(toy_batch.num_nodes, 16)))
        for k in (9, 5, 2, 1):
            sources = rng.normal(size=(toy_batch.num_nodes, k))
            fused = model.infer_columns(plan, sources).copy()
            for c in range(k):
                single = model.infer(plan, sources[:, c])
                if precision == "f64":
                    assert np.array_equal(fused[:, c], single)
                else:
                    assert np.allclose(fused[:, c], single, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_no_allocation_growth(self, toy_batch, precision):
        """After warm-up, calls of any mix of column counts allocate nothing
        that outlives them, and transiently nothing beyond numpy's bounded
        broadcast-iterator buffer (8192 elements = 64 KiB, well below any of
        the plan's per-edge arrays)."""
        import tracemalloc

        model = DSS(PLAIN_CONFIG)
        plan = model.compile_plan(toy_batch, precision=precision)
        rng = np.random.default_rng(37)
        sources5 = rng.normal(size=(toy_batch.num_nodes, 5))
        sources3 = rng.normal(size=(toy_batch.num_nodes, 3))
        first = model.infer_columns(plan, sources5)
        expected = first.copy()
        model.infer_columns(plan, sources3)
        model.infer(plan, sources3[:, 0])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(50):
                model.infer_columns(plan, sources3)
                model.infer(plan, sources3[:, 0])
                again = model.infer_columns(plan, sources5)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(first, again)
        assert np.array_equal(again, expected)
        assert after - before < 4096
        assert peak - before < 96 * 1024

    def test_load_source_columns_validates_shape(self, toy_batch):
        model = DSS(PLAIN_CONFIG)
        plan = model.compile_plan(toy_batch)
        with pytest.raises(ValueError):
            plan.load_source_columns(np.zeros(toy_batch.num_nodes))
        with pytest.raises(ValueError):
            plan.load_source_columns(np.zeros((toy_batch.num_nodes + 1, 2)))

    def test_single_column_fused_matches_single_infer(self, toy_batch):
        """k=1 through the fused path is bit-identical to the 1-D fast path."""
        model = DSS(PLAIN_CONFIG)
        plan = model.compile_plan(toy_batch)
        source = np.random.default_rng(41).normal(size=toy_batch.num_nodes)
        fused = model.infer_columns(plan, source[:, None]).copy()
        assert np.array_equal(fused[:, 0], model.infer(plan, source))


class TestKernelFallbacks:
    """The code paths no default run reaches: scipy without its BLAS wrappers
    or without the private CSR kernel, both on the numpy body (the native one
    uses neither).  Each must agree with the default path."""

    @pytest.mark.parametrize("patched", ["_BLAS_GEMM", "_csr_matvecs"])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_forced_fallback_matches_default(self, monkeypatch, toy_batch, patched, precision):
        model = DSS(PLAIN_CONFIG)
        plan = model.compile_plan(toy_batch, precision=precision)
        sources = np.random.default_rng(61).normal(size=(toy_batch.num_nodes, 3))
        default = model.infer_columns(plan, sources).copy()
        monkeypatch.setattr(_native, "_kernels", None)
        if patched == "_BLAS_GEMM":
            monkeypatch.setattr(engine, patched, {})
        else:
            monkeypatch.setattr(sparse, "csr_matvecs", None)
        fallback = model.infer_columns(plan, sources)
        tolerance = 1e-12 if precision == "f64" else 1e-4
        assert np.allclose(fallback, default, rtol=tolerance, atol=tolerance)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gemm_acc_fallback_uses_the_scratch(self, monkeypatch, dtype):
        """Without the BLAS wrappers ``c += a @ b`` must not allocate the product."""
        import tracemalloc

        rng = np.random.default_rng(63)
        a = rng.normal(size=(20000, 6)).astype(dtype)
        b = rng.normal(size=(6, 10)).astype(dtype)
        c = rng.normal(size=(20000, 10)).astype(dtype)
        scratch = np.empty_like(c)
        expected = c.copy()
        engine._gemm_acc(a, b, expected, scratch)
        monkeypatch.setattr(engine, "_BLAS_GEMM", {})
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            engine._gemm_acc(a, b, c, scratch)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < c.nbytes // 4
        assert np.allclose(c, expected, rtol=1e-12 if dtype == np.float64 else 1e-5)


def _owned_arrays(obj, seen):
    """Every ndarray reachable from ``obj`` through attributes and containers, views resolved to their owners."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        if isinstance(obj.base, np.ndarray):
            yield from _owned_arrays(obj.base, seen)
        else:
            yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _owned_arrays(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _owned_arrays(value, seen)
    elif hasattr(obj, "__dict__"):
        yield from _owned_arrays(vars(obj), seen)


class TestPlanMemory:
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_plan_memory_is_linear_in_edges_plus_nodes_times_blocks(self, toy_batch, precision):
        """A plan owns its edges once, O(1) per node and O(keys·d + d²) per block — never an ``(E, 2d)`` array
        per block (the precomputed static edge terms this replaced were 28 of the 39 kB of RSS per DOF), nor
        an ``(n, d)`` one (the per-node ψ bias the keyed table replaced was 2.95 of 4.78 kB per DOF).  Summed
        over every array reachable from the plan after a run, its fold and workspace included, for the
        ledger's model shape (k̄ = 20, d = 10)."""
        blocks, d, k = 20, 10, 2
        model = DSS(DSSConfig(num_iterations=blocks, latent_dim=d, seed=5))
        plan = model.compile_plan(toy_batch, precision=precision)
        model.infer_columns(plan, np.random.default_rng(5).normal(size=(plan.num_nodes, k)))
        model.infer(plan, np.ones(plan.num_nodes))
        n, num_edges = plan.num_nodes, toy_batch.num_edges
        attr_width, itemsize = toy_batch.edge_attr.shape[1], np.dtype(plan.dtype).itemsize
        keys = np.unique(np.bincount(toy_batch.edge_index[1], minlength=n)).size   # one per in-degree
        owned = sum(array.nbytes for array in _owned_arrays(plan, {id(model)}))
        edges = num_edges * (2 * 8 + attr_width * itemsize)          # the layout's index and attributes
        nodes = 4 * n * 8                                            # in-degree, indptr, key
        per_block = blocks * ((keys + 9 * d) * d * itemsize + 4 * d * d * 8)  # bias table, folded weights; f64 fold inputs
        # every (n, k, ·) buffer of a sweep — f64 sweeps one column at a time and stages k in and out
        sweep, staging = (k, 0) if precision == "f32" else (1, 2 * n * k * 8)
        workspace = n * sweep * (8 * d + 2) * itemsize + staging
        # the numpy body's own E-row operands exist once per plan, whatever the block count:
        # (sweep + 1) message/term slabs and the two-ones CSR pair (3 ones and 3 indices per edge)
        numpy_body = 0 if plan.kernel == "native" else num_edges * ((sweep + 1) * 2 * d * itemsize + 3 * (itemsize + 8))
        bound = edges + nodes + per_block + workspace + numpy_body
        assert owned < bound, (owned, bound)
        assert blocks * num_edges * 2 * d * itemsize > bound         # (E, 2d) terms per block would not fit
        assert owned + blocks * n * d * itemsize > bound             # nor an (n, d) bias per block beside the rest


    def test_f32_plan_holds_its_edge_attributes_in_f32_only(self, toy_batch):
        """An f32 plan keeps one copy of its edge attributes, in float32: after a run, every float array
        it owns with a row per edge is float32, and the only int64 one is the layout's edge index."""
        model = DSS(DSSConfig(num_iterations=3, latent_dim=4, seed=5))
        plan = model.compile_plan(toy_batch, precision="f32")
        model.infer_columns(plan, np.random.default_rng(5).normal(size=(plan.num_nodes, 2)))
        num_edges, width = toy_batch.num_edges, toy_batch.edge_attr.shape[1]
        per_edge = [array for array in _owned_arrays(plan, {id(model)})
                    if array.ndim and num_edges in array.shape and array.size >= num_edges]
        assert not [array.shape for array in per_edge if array.dtype == np.float64]
        attributes = [array for array in per_edge if array.shape == (num_edges, width)]
        assert len(attributes) == 1 and attributes[0].dtype == np.float32


def _per_node_bias(model, batch):
    """Every block's ψ bias as one ``(n, d)`` array per block, the way the folded forward held it before the
    keyed table: ``np.tile`` of ψ's b₁, plus each direction's ``(deg ⊗ b₂) ψ₁ₐᵀ``, plus the κ channels'
    ``ψ`` term — from the model's weights, in float64."""
    d, ni = model.config.latent_dim, model.config.node_input_dim
    indegree = np.bincount(batch.edge_index[1], minlength=batch.num_nodes).astype(np.float64).reshape(-1, 1)
    node_features = np.asarray(model._prepare_node_input(batch), dtype=np.float64)[:, 1:]
    for k in range(model.config.num_iterations):
        psi1 = model.params[f"block_{k}.psi.layer_0.weight"].data
        bias_node = np.tile(model.params[f"block_{k}.psi.layer_0.bias"].data, (batch.num_nodes, 1))
        for phi, offset in zip(("phi_forward", "phi_backward"), (d + ni, 2 * d + ni)):
            bias_node += (indegree * model.params[f"block_{k}.{phi}.layer_1.bias"].data) @ psi1[:, offset:offset + d].T
        if ni > 1:
            bias_node += node_features @ psi1[:, d + 1:d + ni].T
        yield bias_node


class TestKeyedBias:
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("aware", [False, True], ids=["kappa-blind", "kappa-aware"])
    def test_the_table_at_the_keys_is_the_per_node_fold(self, toy_batch, kappa_batch, precision, aware):
        """``table[b, key]`` is, byte for byte, the per-node ``np.tile`` fold it replaced, in both
        precisions: one row per in-degree for a κ-blind model, one per node when the κ channels make every
        node's fold inputs distinct."""
        model, batch = _model_and_batch(KAPPA_CONFIG if aware else PLAIN_CONFIG, toy_batch, kappa_batch)
        plan = model.compile_plan(batch, precision=precision)
        indegree = np.bincount(batch.edge_index[1], minlength=plan.num_nodes)
        assert plan.key.shape == (batch.num_nodes,)
        assert plan.bias_table.shape[1] == (batch.num_nodes if aware else np.unique(indegree).size)
        for table, full in zip(plan.bias_table, _per_node_bias(model, batch), strict=True):
            assert table[plan.key].tobytes() == full.astype(plan.dtype).tobytes()

    def test_a_fold_that_rounds_equal_inputs_apart_keeps_a_row_per_node(self, toy_batch, monkeypatch):
        """Should the fold give two nodes of one key different bytes (BLAS may pick kernels by row count),
        the plan falls back to one row per node — the per-node fold itself — and runs the same forward."""
        model = DSS(PLAIN_CONFIG)
        source = np.random.default_rng(4).normal(size=(toy_batch.num_nodes, 1))
        expected = model.infer_columns(model.compile_plan(toy_batch), source).copy()
        tile = np.tile

        def perturbed(array, reps):                          # nudge one row of every block's fold by one ulp
            out = tile(array, reps)
            out[7] = np.nextafter(out[7], np.inf)
            return out

        monkeypatch.setattr(engine.np, "tile", perturbed)
        plan = model.compile_plan(toy_batch)
        monkeypatch.undo()
        assert np.array_equal(plan.key, np.arange(toy_batch.num_nodes))
        for table, full in zip(plan.bias_table, _per_node_bias(model, toy_batch), strict=True):
            full[7] = np.nextafter(full[7], np.inf)
            assert table.tobytes() == full.tobytes()
        assert np.allclose(model.infer_columns(plan, source), expected, rtol=1e-12, atol=1e-12)


class TestOneFoldPerSolver:
    @pytest.fixture
    def sessions(self, random_problem, tiny_dss_model, monkeypatch):
        """A ddm-gnn session cut into several inference batches, and its clone."""
        monkeypatch.setattr(ddm_gnn_module, "_AUTO_BATCH_TARGET_NODES", 160)
        config = SolverConfig(preconditioner="ddm-gnn", subdomain_size=60, tolerance=1e-2, max_iterations=5)
        session = prepare(random_problem, config, model=tiny_dss_model)
        return session, session.clone_for_worker()

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_a_solvers_plans_share_one_fold_and_one_workspace(self, sessions, tiny_dss_model, precision):
        """Every plan of a solver reads one fold and runs in one workspace, sized for the largest plan — and
        the apply is byte for byte what plans with a fold and workspace each give."""
        solver = sessions[0].preconditioner.local_solver
        pre = DDMGNNPreconditioner(sessions[0].problem.matrix, sessions[0].problem.mesh,
                                   sessions[0].decomposition, tiny_dss_model, precision=precision)
        plans = pre.local_solver.plans
        assert len(plans) == len(solver.plans) > 2
        assert all(plan.compiled is plans[0].compiled for plan in plans)
        block = np.random.default_rng(6).normal(size=(sessions[0].problem.num_dofs, 3))
        shared = pre.apply_columns(block)
        workspaces = [plan.workspace(3).latent2d for plan in plans]
        assert all(np.shares_memory(workspace, workspaces[0]) for workspace in workspaces)
        largest = max(plans, key=lambda plan: plan.num_nodes)
        assert plans[0].compiled._buffers.nodes == largest.num_nodes
        pre.local_solver.plans = [tiny_dss_model.compile_plan(batch, precision=precision)
                                  for batch in pre.local_solver.inference_batches()]
        assert len({id(plan.compiled) for plan in pre.local_solver.plans}) == len(plans)
        assert np.array_equal(pre.apply_columns(block), shared)

    def test_a_clone_for_worker_shares_no_mutable_array(self, sessions, tiny_dss_model):
        session, clone = sessions
        rhs = session.problem.rhs
        assert np.array_equal(session.solve(rhs).solution, clone.solve(rhs).solution)
        mutable = [list(_owned_arrays((s.preconditioner.local_solver.plans, s.preconditioner.local_solver._scratch),
                                      {id(tiny_dss_model)})) for s in (session, clone)]
        assert len(mutable[0]) == len(mutable[1]) > 10
        assert not any(np.shares_memory(a, b) for a in mutable[0] for b in mutable[1])


# --------------------------------------------------------------------------- #
# the edge pass: one layout, two bodies, the same bytes
# --------------------------------------------------------------------------- #
LEDGER_CHECKPOINT = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "dss_k20_d10.npz"

@pytest.fixture
def native_body():
    """Skip where the kernel cannot load (resolved here, at run time, not at collection)."""
    if _native.edge_kernels() is None:
        pytest.skip("no C compiler here: the numpy body is the only one")


def _random_graph(rng, n=40, edges=200):
    """A seeded multigraph whose last two nodes are isolated (and some others of in-degree 1)."""
    edge_index = rng.integers(0, n - 2, size=(2, edges))
    return GraphProblem(positions=rng.normal(size=(n, 2)), edge_index=edge_index,
                        edge_attr=rng.normal(size=(edges, 3)), source=np.zeros(n),
                        dirichlet_mask=np.zeros(n, dtype=bool))


@pytest.fixture(scope="module")
def edge_cases(toy_batch, kappa_batch):
    """``name -> (model, batch)``: 2D with the frozen ledger weights (|e| = 3), κ-aware 2D and 3D (|e| = 4),
    and degenerate degrees at a generic d and at the instantiated d = 10."""
    from repro.gnn.checkpoint import load_model
    from repro.problems import make_problem

    solid = make_problem("poisson3d", rng=np.random.default_rng(4), target_nodes=216)
    model3d = DSS(DSSConfig(num_iterations=2, latent_dim=4, edge_attr_dim=4, seed=0))
    config = SolverConfig(preconditioner="ddm-gnn", subdomain_size=90)
    (batch3d,) = prepare(solid, config, model=model3d).preconditioner.local_solver.inference_batches()
    # node 0 isolated, node 1 of in-degree 1, node 2 of in-degree 2, node 3 a pure source
    degenerate = GraphProblem(
        positions=np.zeros((4, 2)), edge_index=np.array([[3, 1, 3], [1, 2, 2]]),
        edge_attr=np.random.default_rng(0).normal(size=(3, 3)), source=np.zeros(4),
        dirichlet_mask=np.zeros(4, dtype=bool))
    degenerate_batch = GraphBatch.from_graphs([degenerate, _random_graph(np.random.default_rng(1))])
    return {
        "disk2d": (load_model(str(LEDGER_CHECKPOINT)), toy_batch),
        "kappa2d": (DSS(KAPPA_CONFIG), kappa_batch),
        "poisson3d": (model3d, batch3d),
        "degenerate": (DSS(PLAIN_CONFIG), degenerate_batch),
        "degenerate-d10": (DSS(D10_CONFIG), degenerate_batch),
    }


@pytest.fixture
def numpy_body(monkeypatch):
    """Fail the loader for this test: every plan runs the numpy edge pass."""
    monkeypatch.setattr(_native, "_kernels", None)


@pytest.fixture(params=["default", "numpy"])
def body(request):
    """Run the test on whichever edge-pass body this process resolves, then on the numpy body."""
    if request.param == "numpy":
        request.getfixturevalue("numpy_body")
    return request.param


def _contract_terms(attr, weights, bias):
    """Static edge terms in the order both bodies use: ``((a₀ W₀ + a₁ W₁) + a₂ W₂ …) + b``, each op rounded."""
    terms = attr[:, :1] * weights[0]
    for j in range(1, attr.shape[1]):
        terms += attr[:, j:j + 1] * weights[j]
    return terms + bias


def _edge_section_reference(edge_index, terms, proj):
    """``pre`` of the edge pass from per-edge ``terms`` and the ``(2n, k, 2d)`` projections: messages in the
    given edge order, summed per destination in ascending edge id (``np.add.at`` is sequential)."""
    src, dst = edge_index
    n = proj.shape[0] // 2
    pre = np.zeros_like(proj[:n])
    np.add.at(pre, dst, np.maximum((terms[:, None, :] + proj[dst]) + proj[n + src], 0.0))
    return pre


class TestEdgeKernel:
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("graph", ["disk2d", "kappa2d", "poisson3d", "degenerate", "degenerate-d10"])
    def test_native_is_bitwise_the_numpy_body(self, native_body, monkeypatch, edge_cases, graph, precision, k):
        model, batch = edge_cases[graph]
        sources = np.random.default_rng(k).normal(size=(batch.num_nodes, k))
        plan = model.compile_plan(batch, precision=precision)
        assert plan.kernel == "native" and plan.compiled._buffers is None
        native = model.infer_columns(plan, sources).copy()
        assert plan.compiled._buffers._edge is None   # the message buffer was never allocated
        monkeypatch.setattr(_native, "_kernels", None)
        plan = model.compile_plan(batch, precision=precision)
        assert plan.kernel == "numpy"
        assert np.isfinite(native).all() and np.array_equal(model.infer_columns(plan, sources), native)

    @pytest.mark.parametrize("graph", ["degenerate", "degenerate-d10"])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_the_native_prefill_is_bitwise_the_numpy_body(self, native_body, monkeypatch, edge_cases, graph,
                                                          precision):
        """ψ's prefill ``s w₀ + table[key]`` — product, then sum — inside the block loop, on a batch with
        isolated nodes (whose bias lacks the aggregated output biases), at d = 4 and d = 10, three columns,
        with every block's table rows shuffled (and the key with them), so a loop that read the rows in node
        order would fail: both bodies give the unshuffled plan's forward, bit for bit."""
        model, batch = edge_cases[graph]
        plan = model.compile_plan(batch, precision=precision)
        sources = np.random.default_rng(8).normal(size=(batch.num_nodes, 3))
        expected = model.infer_columns(plan, sources).copy()
        order = np.random.default_rng(8).permutation(plan.bias_table.shape[1])
        key = np.argsort(order)[plan.key]
        assert np.array_equal(plan.bias_table[:, order][:, key], plan.bias_table[:, plan.key])
        assert (key[1:] < key[:-1]).any() and np.bincount(key).max() > 1    # shuffled, with repeats
        assert (plan._edges.indegree == 0).any()                            # isolated nodes
        plan.bias_table[...] = plan.bias_table[:, order]                     # in place: the loop holds its pointer
        plan.key[...] = key
        assert plan.kernel == "native" and np.isfinite(expected).all()
        assert np.array_equal(model.infer_columns(plan, sources), expected)
        monkeypatch.setattr(_native, "_kernels", None)
        assert np.array_equal(model.infer_columns(plan, sources), expected)

    def test_a_native_forward_is_one_loop_call_per_plan(self, native_body, monkeypatch, edge_cases):
        """A native f64 ``infer`` and an f32 ``infer_columns(k=8)`` over the ledger model's 20 blocks each
        enter the C block loop once: no GEMM, edge pass or block ``np.matmul`` runs from Python, and the
        decoder's two ``np.matmul`` are the only ones."""
        model, batch = edge_cases["disk2d"]
        calls = collections.Counter()

        def counted(name, function):
            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return call

        monkeypatch.setattr(_native, "_kernels", {name: counted(name, function)
                                                  for name, function in _native.edge_kernels().items()})
        monkeypatch.setattr(engine, "_gemm_acc", counted("_gemm_acc", engine._gemm_acc))
        monkeypatch.setattr(engine.InferencePlan, "_edge_pass", counted("_edge_pass", engine.InferencePlan._edge_pass))
        monkeypatch.setattr(engine.np, "matmul", counted("np.matmul", np.matmul))
        for precision, k in (("f64", 1), ("f32", 8)):
            plan = model.compile_plan(batch, precision=precision)
            sources = np.random.default_rng(k).normal(size=(batch.num_nodes, k))
            calls.clear()
            if k == 1:
                model.infer(plan, sources[:, 0])
            else:
                model.infer_columns(plan, sources)
            assert calls == {f"dss_blocks_{precision}_3": 1, "np.matmul": 2}, (precision, calls)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_an_uninstantiated_attribute_width_runs_the_numpy_body(self, toy_batch, precision):
        """The kernel exists for |e| = 3 and 4; any other width is served — by the numpy body, compiler or
        not — and says so."""
        model = DSS(DSSConfig(num_iterations=3, latent_dim=4, seed=9, edge_attr_dim=5))
        plan = model.compile_plan(toy_batch, precision=precision)
        assert plan.kernel == "numpy" and plan._edges.attr.shape[1] == 5
        sources = np.random.default_rng(9).normal(size=(toy_batch.num_nodes, 3))
        outputs = model.infer_columns(plan, sources).copy()
        for c in range(3):
            toy_batch.source = sources[:, c]
            tolerance = 1e-12 if precision == "f64" else 1e-4
            assert np.allclose(outputs[:, c], model.predict(toy_batch), rtol=tolerance, atol=tolerance)

    #: sha256[:16] of the edge section's output on the inputs below, under the
    #: arithmetic contract of ``_edge_pass.c``.  Pinned anew when the static term
    #: moved into the pass (PR 23): until then it was a BLAS GEMM, whose K = 3
    #: summation order no C loop reproduces, and the section only added and took
    #: maxima.  Every product, sum and maximum is rounded on its own, so the
    #: bytes do not depend on the BLAS or the machine — unlike a whole forward.
    #: d = 10 (hidden width 20) runs the kernel's instantiated width, d = 5 its
    #: generic loop bound; the d = 10 digests were taken on the generic body.
    EDGE_SECTION_DIGESTS = {(5, "f64", 1): "ec077b4880525297", (5, "f64", 3): "6967402fa612c889",
                            (5, "f32", 1): "c731e9bd238eccc7", (5, "f32", 3): "ca43424bcf812b49",
                            (10, "f64", 1): "9982645f6ee41ec0", (10, "f64", 3): "f427ade54def6bb9",
                            (10, "f32", 1): "ea6cea710cb69784", (10, "f32", 3): "6f71028efe169192",
                            (10, "f32", 8): "52647d7939e7208a"}

    @pytest.mark.parametrize("d,precision,k", sorted(EDGE_SECTION_DIGESTS),
                             ids=[f"{p}-{k}" if d == 5 else f"d{d}-{p}-{k}"
                                  for d, p, k in sorted(EDGE_SECTION_DIGESTS)])
    def test_edge_pass_reproduces_the_pinned_bytes(self, body, d, precision, k):
        rng = np.random.default_rng(2024)
        batch = GraphBatch.from_graphs([_random_graph(rng), _random_graph(rng)])
        plan = DSS(DSSConfig(num_iterations=1, latent_dim=d, seed=0)).compile_plan(batch, precision=precision)
        ws, (block,) = plan.workspace(k), plan.compiled.blocks
        ws.proj_flat[...] = rng.normal(size=ws.proj_flat.shape)
        block.w_attr_T[...] = rng.normal(size=block.w_attr_T.shape)
        block.b_hidden[...] = rng.normal(size=block.b_hidden.shape)
        plan._edge_pass(ws, block)
        assert hashlib.sha256(ws.pre_flat.tobytes()).hexdigest()[:16] == self.EDGE_SECTION_DIGESTS[d, precision, k]
        # and the formulation it replaced — the term as one GEMM — is the same number to rounding
        gemm_terms = plan._edges.attr @ block.w_attr_T + block.b_hidden
        replaced = _edge_section_reference(plan._edges.edge_index, gemm_terms, ws.proj_flat.reshape(-1, k, 2 * d))
        tolerance = (1e-12 if precision == "f64" else 1e-5) * np.abs(replaced).max()
        assert np.allclose(ws.pre_flat, replaced.ravel(), rtol=0.0, atol=tolerance)

    def test_the_edge_pass_does_not_depend_on_row_position(self, random_mesh):
        """An edge's message is a function of its own attribute row, its source
        and its destination, wherever the destination sort put it.  On every
        registry family, from the *unsorted* edges of its sub-domain batches:
        the plan holds exactly the permuted rows (one copy, never the
        edge-ordered one), and one edge pass equals — bit for bit, in both
        precisions — a per-edge reference that walks the batch's own order."""
        from repro.problems import available_problems, make_problem, problem_spec

        model = DSS(DSSConfig(num_iterations=1, latent_dim=10, edge_attr_dim=4, node_input_dim=2, seed=0))
        for name in available_problems():
            if problem_spec(name).dim == 3:
                problem = make_problem(name, rng=np.random.default_rng(1), target_nodes=216)
            else:
                problem = make_problem(name, mesh=random_mesh, rng=np.random.default_rng(1))
            config = SolverConfig(preconditioner="ddm-gnn", krylov="gmres", subdomain_size=90)
            for batch in prepare(problem, config, model=model).preconditioner.local_solver.inference_batches():
                order = np.argsort(batch.edge_index[1], kind="stable")
                assert (np.diff(order) < 0).any(), "the batch is already sorted: nothing checked"
                for precision in ("f64", "f32"):
                    plan = model.compile_plan(batch, precision=precision)
                    attr = np.ascontiguousarray(model._prepare_edge_attr(batch.edge_attr), dtype=plan.dtype)
                    assert np.array_equal(plan._edges.attr, attr[order]), (name, precision)
                    assert np.array_equal(plan._edges.edge_index, batch.edge_index[:, order]), (name, precision)
                    ws, (block,) = plan.workspace(2), plan.compiled.blocks
                    ws.proj_flat[...] = np.random.default_rng(2).normal(size=ws.proj_flat.shape)
                    plan._edge_pass(ws, block)
                    terms = _contract_terms(attr, block.w_attr_T, block.b_hidden)
                    expected = _edge_section_reference(batch.edge_index, terms, ws.proj_flat.reshape(-1, 2, 20))
                    assert np.array_equal(ws.pre_flat, expected.ravel()), (name, precision)

    def test_a_nan_source_ends_the_solve_with_the_typed_reason(self, body, random_problem,
                                                               tiny_dss_model):
        """NaN goes through the ReLU of both bodies (``0 > NaN`` is false, as
        ``np.maximum`` propagates it), so the Krylov guard sees it either way."""
        config = SolverConfig(preconditioner="ddm-gnn", subdomain_size=80)
        session = prepare(random_problem, config, model=tiny_dss_model)
        (plan,) = session.preconditioner.local_solver.plans
        sources = np.zeros((plan.num_nodes, 2))
        sources[5, 1] = np.nan
        outputs = tiny_dss_model.infer_columns(plan, sources)
        assert np.isfinite(outputs[:, 0]).all() and np.isnan(outputs[:, 1]).any()

        class Poisoned:
            """The model on its plan protocol, with row 5 of every source block made NaN."""

            def infer_columns(self, plan, sources):
                sources[5, :] = np.nan
                return tiny_dss_model.infer_columns(plan, sources)

        session.preconditioner.model = Poisoned()
        result = session.solve()
        assert not result.converged and result.iterations == 0
        assert result.failure_reason == "non_finite_preconditioner"
        assert result.info["kernel"] == session.preconditioner.inference_stats()["kernel"] == plan.kernel


class TestNativeLoader:
    """``repro.gnn._native``: compile once into the cache, reuse it, and fall
    back to numpy — silently, for the rest of the process — on any failure."""

    @pytest.fixture
    def fresh(self, monkeypatch, tmp_path):
        """An unresolved loader whose first cache root is an empty directory."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_native, "_kernels", _native._UNRESOLVED)
        return tmp_path

    def test_compiles_once_and_forked_workers_inherit_it(self, native_body, fresh, random_problem, tiny_dss_model):
        from repro.serve import ServeConfig, ShardConfig, ShardedSolveService

        model = DSS(PLAIN_CONFIG)
        assert not list(fresh.rglob("*.so"))
        plan = model.compile_plan(GraphBatch.from_graphs([_random_graph(np.random.default_rng(0))]))
        assert not list(fresh.rglob("*")), "compiling a plan must not run the compiler"
        model.infer(plan, np.ones(plan.num_nodes))
        (library,) = fresh.rglob("*.so")
        assert plan.kernel == "native" and [path.name for path in library.parent.iterdir()] == [library.name]
        published = library.stat().st_mtime_ns

        _native._kernels = _native._UNRESOLVED          # a second process: the cache answers
        assert _native.edge_kernels() is not None and library.stat().st_mtime_ns == published

        config = SolverConfig(preconditioner="ddm-gnn", subdomain_size=80, tolerance=1e-2, max_iterations=3)
        with ShardedSolveService(ServeConfig(workers=1), model=tiny_dss_model,
                                 shard_config=ShardConfig(workers=1)) as service:
            result = service.solve(random_problem, solver_config=config)
        assert result.info["kernel"] == result.info["gnn_stats"]["kernel"] == "native"
        assert [path.name for path in library.parent.iterdir()] == [library.name]
        assert library.stat().st_mtime_ns == published

    @pytest.mark.parametrize("failure", ["CC=false", "no compiler", "wrong answer", "unloadable"])
    def test_any_failure_selects_the_numpy_body_for_good(self, fresh, monkeypatch, failure, toy_batch):
        if failure == "CC=false":
            monkeypatch.setenv("CC", "false")
        elif failure == "no compiler":
            monkeypatch.setenv("CC", str(fresh / "no-such-compiler"))
        elif failure == "wrong answer":                  # compiles and loads, but forgot the ReLU
            wrong = fresh / "wrong.c"
            wrong.write_text(_native.SOURCE.read_text().replace("(T)0 > t ? (T)0 : t", "t"))
            monkeypatch.setattr(_native, "SOURCE", wrong)
        else:
            monkeypatch.setattr(_native.ctypes, "CDLL", lambda path: (_ for _ in ()).throw(OSError(path)))
        model = DSS(PLAIN_CONFIG)
        plan = model.compile_plan(toy_batch)
        source = np.random.default_rng(3).normal(size=toy_batch.num_nodes)
        output = model.infer(plan, source).copy()
        # None, not unresolved: nothing in this process asks the loader again
        assert plan.kernel == "numpy" and _native._kernels is None
        toy_batch.source = source
        assert np.allclose(output, model.predict(toy_batch), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_a_missing_blas_capsule_selects_the_numpy_body_with_the_same_bytes(self, native_body, monkeypatch,
                                                                              toy_batch, precision):
        """The block loop's GEMM is scipy's, from ``cython_blas``'s capsules: without them the library does
        not resolve, and the numpy body — the same BLAS through ``scipy.linalg.blas`` — gives the bytes the
        loop gave."""
        from scipy.linalg import cython_blas

        model = DSS(D10_CONFIG)
        plan = model.compile_plan(toy_batch, precision=precision)
        sources = np.random.default_rng(5).normal(size=(toy_batch.num_nodes, 3))
        native = model.infer_columns(plan, sources).copy()
        assert plan.kernel == "native"
        monkeypatch.setattr(_native, "_kernels", _native._UNRESOLVED)   # the cached build answers: no compile
        monkeypatch.setattr(cython_blas, "__pyx_capi__", {})
        assert plan.kernel == "numpy" and _native._kernels is None
        assert np.array_equal(model.infer_columns(plan, sources), native)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_columns_past_32_bit_gemm_dimensions_run_the_numpy_body(self, native_body, monkeypatch, toy_batch,
                                                                     precision):
        """scipy's Fortran GEMM counts in 32-bit ``int``: the predicate on sizes alone (no such plan is
        allocated), then a plan whose bound is patched to 0 and to 2 columns — the numpy body for every
        ``k`` past it, with the loop's bytes."""
        limit = 2**31 - 1
        assert engine.blas_columns(1, 10) == limit // 20 and engine.blas_columns(2093, 10) == limit // 41860
        assert engine.blas_columns(limit // 20, 10) == 1 and engine.blas_columns(limit // 20 + 1, 10) == 0
        assert engine.blas_columns(limit // 8 + 1, 4) == 0
        model = DSS(PLAIN_CONFIG)
        sources = np.random.default_rng(6).normal(size=(toy_batch.num_nodes, 3))
        expected = model.infer_columns(model.compile_plan(toy_batch, precision=precision), sources).copy()
        numpy_blocks = engine.InferencePlan._blocks_numpy
        sweeps = [1, 1, 1] if precision == "f64" else [3]                  # the numpy body's, at k = 3
        for columns, kernel, numpy_sweeps in ((0, "numpy", sweeps), (2, "native", [k for k in sweeps if k > 2])):
            monkeypatch.setattr(engine, "blas_columns", lambda n, d: columns)
            plan = model.compile_plan(toy_batch, precision=precision)
            ran = []
            monkeypatch.setattr(engine.InferencePlan, "_blocks_numpy",
                                lambda plan, ws: ran.append(ws.k) or numpy_blocks(plan, ws))
            assert plan.kernel == kernel
            assert np.array_equal(model.infer_columns(plan, sources), expected)
            assert ran == numpy_sweeps

    @pytest.mark.parametrize("broken", ["edge", "schwarz"])
    def test_one_failed_library_leaves_the_other_alone(self, native_body, native_schwarz, fresh, monkeypatch,
                                                       broken, random_problem, small_decomposition, toy_batch):
        """Two libraries, resolved independently: the one whose source lost a term (the edge pass its ReLU,
        the Schwarz substitution a partial sum) fails its self-check and runs numpy; the other compiles,
        loads and runs native."""
        module, needle, wrong_text = {
            "edge": (_native, "(T)0 > t ? (T)0 : t", "t"),
            "schwarz": (ddm_native, "(s0 + s1) + (s2 + s3)", "(s0 + s1) + s2"),
        }[broken]
        wrong = fresh / "wrong.c"
        wrong.write_text(module.SOURCE.read_text().replace(needle, wrong_text))
        monkeypatch.setattr(module, "SOURCE", wrong)
        monkeypatch.setattr(ddm_native, "_kernels", ddm_native._UNRESOLVED)
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition)
        asm.apply(np.ones(random_problem.num_dofs))
        plan = DSS(PLAIN_CONFIG).compile_plan(toy_batch)
        assert (plan.kernel, asm.kernel) == (("numpy", "native") if broken == "edge" else ("native", "numpy"))
        assert (asm.local_solver._factor is None) == (broken == "edge")

    @pytest.mark.skipif(os.environ.get("CC") == "false", reason="already running without a compiler")
    def test_this_whole_file_passes_without_a_compiler(self):
        """The fallback is a supported configuration: every test above, on the numpy body."""
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "CC": "false",
               "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", __file__],
                             cwd=root, env=env, capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
        assert " skipped" in run.stdout                  # the native-only cells, and this test


#: the line of ``_edge_pass.c`` that makes every exported function an AVX2 clone and a baseline one
CLONE_MACRO = '#define CLONED __attribute__((target_clones("avx2", "default")))'


class TestBaselineBuild:
    """The kernels the CPU picks at load time (on x86-64 glibc an AVX2 clone) against the baseline build,
    bit for bit: the same source with its clone macro emptied, through the same resolver and self-checks,
    from a cache of its own.  On the ledger operator's two plans with the frozen ledger weights, and the
    VJP at the ledger's training size."""

    @pytest.fixture(scope="class")
    def bodies(self, tmp_path_factory):
        """``(picked, baseline)`` kernel dicts."""
        picked = _native.edge_kernels()
        if picked is None:
            pytest.skip("no C compiler here: the numpy body is the only one")
        text = _native.SOURCE.read_text()
        assert CLONE_MACRO in text
        root = tmp_path_factory.mktemp("baseline")
        source = root / _native.SOURCE.name
        source.write_text(text.replace(CLONE_MACRO, "#define CLONED"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("XDG_CACHE_HOME", str(root))
            baseline = native.resolve(source, _native._checked_library)
        assert baseline is not None and list(root.rglob("*.so"))
        return picked, baseline

    @pytest.fixture(scope="class")
    def ledger(self):
        """The ledger checkpoint's model and ``{precision: its two plans}`` on the ledger's operator."""
        from repro.gnn.checkpoint import load_model
        from repro.serve import build_problem_from_spec

        problem = build_problem_from_spec({"family": "poisson", "target_n": 2400, "element_size": 0.07, "seed": 0})
        model = load_model(str(LEDGER_CHECKPOINT))
        plans = {}
        for precision in ("f64", "f32"):
            config = SolverConfig(preconditioner="ddm-gnn", subdomain_size=110, overlap=2, precision=precision)
            plans[precision] = prepare(problem, config, model=model).preconditioner.local_solver.plans
        return model, plans

    @pytest.mark.parametrize("precision,k", [("f64", 1), ("f32", 1), ("f32", 8)])
    def test_the_forward_kernels_on_the_ledger_plans(self, bodies, ledger, monkeypatch, precision, k):
        """Per plan and block: the block loop run on that block alone from a seeded latent and sources, every
        buffer it writes (projections, edge sums, ψ's hidden layer, the latent); then the whole forward."""
        model, plans = ledger
        assert len(plans[precision]) == 2
        for plan in plans[precision]:
            rng = np.random.default_rng(plan.num_nodes)
            ws = plan.workspace(k)
            n, d, _, keys, *layout, _, _, key = plan._loop_args
            for b in range(len(plan.compiled.blocks)):
                sources, latent = (rng.normal(size=a.shape) for a in (ws.sources, ws.latent2d))
                outputs = []
                for kernels in bodies:
                    ws.sources[...], ws.latent2d[...] = sources, latent
                    kernels[plan._loop_name](k, n, d, 1, keys, *layout, plan.compiled.slab[b].ctypes.data,
                                             plan.bias_table[b].ctypes.data, key, *ws.pointers)
                    outputs.append([a.tobytes() for a in (ws.proj_flat, ws.pre_flat, ws.hidden3, ws.latent2d)])
                assert outputs[0] == outputs[1], b
            sources = rng.normal(size=(plan.num_nodes, k))
            forwards = []
            for kernels in bodies:
                monkeypatch.setattr(_native, "_kernels", kernels)
                forwards.append(model.infer_columns(plan, sources).tobytes())
            assert forwards[0] == forwards[1]

    def test_the_vjp_at_the_training_size(self, bodies, monkeypatch):
        """The float64 VJP on the ledger's 40-graph training batch (6,647 nodes, 32,005 edges) at w = 20."""
        from repro.core.dataset import generate_dataset

        dataset = generate_dataset(4, 0.07, subdomain_size=110, overlap=2, rng=np.random.default_rng(7))
        batch = GraphBatch.from_graphs(dataset.train[:40])
        edges = EdgeLayout(batch.edge_index, batch.edge_attr, batch.num_nodes)
        assert (batch.num_nodes, edges.attr.shape) == (6647, (32005, 3))
        rng = np.random.default_rng(40)
        weights, bias = rng.normal(size=(3, 20)), rng.normal(size=20)
        proj, g_pre = rng.normal(size=(2 * batch.num_nodes, 20)), rng.normal(size=(batch.num_nodes, 20))
        cotangents = []
        for kernels in bodies:
            monkeypatch.setattr(_native, "_kernels", kernels)
            cotangents.append([a.tobytes() for a in edges.edge_vjp(weights, bias, proj, g_pre)])
        assert cotangents[0] == cotangents[1]


class TestPreconditionerApplyColumns:
    """``DDMGNNPreconditioner.apply_columns`` against per-column ``apply``,
    including ragged last inference batches (a batch budget of ``chunk``
    sub-domains, not dividing the sub-domain count)."""

    def _build(self, problem, decomposition, model, chunk=None, monkeypatch=None, **kwargs):
        if chunk is not None:
            average = int(sum(decomposition.sizes())) // decomposition.num_subdomains
            monkeypatch.setattr(ddm_gnn_module, "_AUTO_BATCH_TARGET_NODES", chunk * average)
        return DDMGNNPreconditioner(
            problem.matrix, problem.mesh, decomposition, model, **kwargs
        )

    @pytest.mark.parametrize("chunk", [None, 4])
    def test_f64_apply_columns_bitwise(self, monkeypatch, random_problem, small_decomposition,
                                       tiny_dss_model, chunk):
        pre = self._build(random_problem, small_decomposition, tiny_dss_model, chunk, monkeypatch)
        if chunk is not None:
            # the point of the parametrization: a ragged last inference batch
            assert len({len(m) for m in pre.local_solver.batch_ranges}) > 1
        R = np.random.default_rng(43).normal(size=(random_problem.num_dofs, 5))
        fused = pre.apply_columns(R)
        for j in range(R.shape[1]):
            assert np.array_equal(fused[:, j], pre.apply(R[:, j]))

    @pytest.mark.parametrize("chunk", [None, 4])
    def test_f32_apply_columns_tolerance(self, monkeypatch, random_problem, small_decomposition,
                                         tiny_dss_model, chunk):
        pre = self._build(
            random_problem, small_decomposition, tiny_dss_model, chunk, monkeypatch, precision="f32",
        )
        R = np.random.default_rng(47).normal(size=(random_problem.num_dofs, 5))
        fused = pre.apply_columns(R)
        for j in range(R.shape[1]):
            single = pre.apply(R[:, j])
            scale = np.abs(single).max()
            assert np.allclose(fused[:, j], single, rtol=1e-4, atol=1e-5 * max(scale, 1.0))

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_interleaved_column_counts_leak_no_state(
        self, random_problem, small_decomposition, tiny_dss_model, precision
    ):
        """``apply``, ``apply_columns(k=8)``, ``apply_columns(k=3)``, ``apply``
        on ONE preconditioner: the workspaces of all column counts alias one
        allocation, so every call must restage all the state it reads."""
        pre = self._build(random_problem, small_decomposition, tiny_dss_model, precision=precision)
        rng = np.random.default_rng(59)
        r = rng.normal(size=random_problem.num_dofs)
        R8 = rng.normal(size=(random_problem.num_dofs, 8))
        R3 = rng.normal(size=(random_problem.num_dofs, 3))
        first = pre.apply(r)
        fused8 = pre.apply_columns(R8)
        fused3 = pre.apply_columns(R3)
        assert np.array_equal(pre.apply(r), first)
        assert np.array_equal(pre.apply_columns(R8), fused8)
        for block, fused in ((R8, fused8), (R3, fused3)):
            for j in range(block.shape[1]):
                single = pre.apply(block[:, j])
                if precision == "f64":
                    assert np.array_equal(fused[:, j], single)
                else:
                    scale = np.abs(single).max()
                    assert np.allclose(fused[:, j], single, rtol=1e-4, atol=1e-5 * max(scale, 1.0))

    def test_fused_application_counter(self, random_problem, small_decomposition, tiny_dss_model):
        pre = self._build(random_problem, small_decomposition, tiny_dss_model)
        before = pre.inference_stats()["fused_applications"]
        pre.apply_columns(np.random.default_rng(53).normal(size=(random_problem.num_dofs, 3)))
        assert pre.inference_stats()["fused_applications"] == before + 1


# --------------------------------------------------------------------------- #
# the raw-ndarray CSR kernel
# --------------------------------------------------------------------------- #
class TestRawKernels:
    def test_validated_csr_matvecs_available(self):
        """The import-time self-check must accept the current scipy's kernel
        (if it ever returns None the engine silently falls back — fine for
        correctness, but we want to notice)."""
        assert sparse.validated_kernel("csr_matvecs") is sparse.csr_matvecs or sparse.csr_matvecs is None


# --------------------------------------------------------------------------- #
# stacked restriction operator
# --------------------------------------------------------------------------- #
class TestStackedRestriction:
    def test_extract_matches_loop_bitwise(self, small_decomposition):
        n = small_decomposition.mesh.num_nodes
        stacked = StackedRestriction(small_decomposition.subdomain_nodes, n)
        loops = build_restrictions(small_decomposition.subdomain_nodes, n)
        r = np.random.default_rng(0).normal(size=n)
        parts = stacked.split(stacked.extract(r))
        for part, r_i in zip(parts, loops):
            assert np.array_equal(part, r_i @ r)

    def test_glue_matches_loop_bitwise(self, small_decomposition):
        n = small_decomposition.mesh.num_nodes
        stacked = StackedRestriction(small_decomposition.subdomain_nodes, n)
        loops = build_restrictions(small_decomposition.subdomain_nodes, n)
        rng = np.random.default_rng(1)
        values = [rng.normal(size=len(nodes)) for nodes in small_decomposition.subdomain_nodes]
        glued = stacked.glue(np.concatenate(values))
        reference = np.zeros(n)
        for r_i, v_i in zip(loops, values):
            reference += r_i.T @ v_i
        assert np.array_equal(glued, reference)

    def test_segment_norms(self, small_decomposition):
        n = small_decomposition.mesh.num_nodes
        stacked = StackedRestriction(small_decomposition.subdomain_nodes, n)
        v = np.random.default_rng(2).normal(size=stacked.total_rows)
        norms = segment_norms(v, stacked.offsets)
        for norm, part in zip(norms, stacked.split(v)):
            assert np.isclose(norm, np.linalg.norm(part), rtol=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            StackedRestriction([np.array([0, 5])], 4)

    def test_owner_glue_takes_each_node_from_its_core(self, small_decomposition):
        n = small_decomposition.mesh.num_nodes
        subs, cores = small_decomposition.subdomain_nodes, small_decomposition.core_nodes
        stacked = StackedRestriction(subs, n, core_nodes=cores)
        values = np.random.default_rng(3).normal(size=(stacked.total_rows, 3))
        reference = np.full((n, 3), np.nan)
        for nodes, core, part in zip(subs, cores, stacked.split(values)):
            reference[core] = part[np.searchsorted(nodes, core)]
        assert np.array_equal(stacked.glue(values), reference)
        assert np.array_equal(stacked.glue(values[:, 0]), reference[:, 0])

    def test_without_overlap_owner_glue_is_the_additive_glue(self, random_mesh):
        partition = partition_mesh_target_size(random_mesh, 80, rng=np.random.default_rng(0))
        flat = OverlappingDecomposition(random_mesh, partition, overlap=0)
        n = random_mesh.num_nodes
        owners = StackedRestriction(flat.subdomain_nodes, n, core_nodes=flat.core_nodes)
        additive = StackedRestriction(flat.subdomain_nodes, n)
        values = np.random.default_rng(4).normal(size=(n, 3))
        assert np.array_equal(owners.glue(values), additive.glue(values))
        assert np.array_equal(owners.glue(values[:, 0]), additive.glue(values[:, 0]))

    @pytest.mark.parametrize("cores, message", [
        ([[0, 1], [1, 2, 3]], "node 1 is in 2 cores"),          # cores overlap
        ([[0, 1], [3]], "node 2 is in 0 cores"),                # a node nobody owns
        ([[0, 1, 3], [2]], "core 0 is not a duplicate-free subset of sub-domain 0"),
    ])
    def test_bad_ownership_rejected(self, cores, message):
        """A decomposition is outside input: bad cores raise, they do not index garbage."""
        subdomains = [np.array([0, 1, 2]), np.array([1, 2, 3])]
        with pytest.raises(ValueError, match=message):
            StackedRestriction(subdomains, 4, core_nodes=[np.array(c) for c in cores])


# --------------------------------------------------------------------------- #
# exact solvers stay bit-identical to the classical loops
# --------------------------------------------------------------------------- #
class _ReferenceASM:
    """The seed (pre-stacked) two-level ASM apply, re-implemented verbatim."""

    def __init__(self, asm: AdditiveSchwarzPreconditioner) -> None:
        self._asm = asm
        self.shape = asm.shape
        self._restrictions = build_restrictions(asm.decomposition.subdomain_nodes, asm.shape[0])

    def apply(self, residual: np.ndarray) -> np.ndarray:
        asm = self._asm
        residual = np.asarray(residual, dtype=np.float64)
        local_rhs = [r_i @ residual for r_i in self._restrictions]
        local_solutions = asm.local_solver.solve_all(local_rhs)
        correction = np.zeros_like(residual)
        for r_i, v_i in zip(self._restrictions, local_solutions):
            correction += r_i.T @ v_i
        if asm.coarse_space is not None:
            correction += asm.coarse_space.apply(residual)
        return correction


@pytest.fixture
def numpy_schwarz(monkeypatch):
    """Fail the Schwarz loader for this test: every ASM built in it runs the numpy body."""
    monkeypatch.setattr(ddm_native, "_kernels", None)


@pytest.mark.usefixtures("numpy_schwarz")
class TestExactSolverRegression:
    @pytest.mark.parametrize("levels", [1, 2])
    def test_asm_apply_bit_identical(self, random_problem, small_decomposition, levels):
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=levels)
        reference = _ReferenceASM(asm)
        r = np.random.default_rng(3).normal(size=random_problem.num_dofs)
        assert np.array_equal(asm.apply(r), reference.apply(r))

    def test_ddm_lu_solve_bit_identical(self, random_problem, small_decomposition):
        """Full PCG with DDM-LU: same iterates, bit for bit, as the seed loops."""
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=2)
        new = preconditioned_conjugate_gradient(
            random_problem.matrix, random_problem.rhs, asm, tolerance=1e-10
        )
        old = preconditioned_conjugate_gradient(
            random_problem.matrix, random_problem.rhs, _ReferenceASM(asm), tolerance=1e-10
        )
        assert new.iterations == old.iterations
        assert np.array_equal(new.solution, old.solution)
        assert new.residual_history == old.residual_history

    def test_lu_solve_all_is_a_view_of_the_block_solve(self, random_problem, small_decomposition):
        subdomains = small_decomposition.subdomain_nodes
        matrices = extract_local_matrices(random_problem.matrix, subdomains)
        solver = LULocalSolver().setup(matrices)
        rng = np.random.default_rng(4)
        residuals = [rng.normal(size=m.shape[0]) for m in matrices]
        offsets = np.concatenate([[0], np.cumsum([len(r) for r in residuals])])
        other = rng.normal(size=offsets[-1])
        block = np.stack([np.concatenate(residuals), other], axis=1)
        stacked = solver.solve_stacked_columns(block)
        for i, v in enumerate(solver.solve_all(residuals)):
            assert np.array_equal(stacked[offsets[i]:offsets[i + 1], 0], v)
        # a column's bytes do not depend on what rides along, nor on `out=`
        alone = solver.solve_stacked_columns(block[:, :1], out=np.empty((offsets[-1], 1)))
        assert np.array_equal(alone[:, 0], stacked[:, 0])


# --------------------------------------------------------------------------- #
# the DDM-LU apply: one native call, the numpy pipeline its reference
# --------------------------------------------------------------------------- #
@pytest.fixture
def native_schwarz():
    """Skip where the Schwarz kernel cannot load (resolved here, at run time, not at collection)."""
    if ddm_native.schwarz_kernels() is None:
        pytest.skip("no C compiler here: the numpy Schwarz body is the only one")


def _four_sums(indptr, indices, data, i, x):
    """Row ``i`` dotted with ``x`` as ``_schwarz.c`` adds it: entry m onto partial sum m % 4, each from 0,
    then ``((s0 + s1) + (s2 + s3))``."""
    sums = [0.0, 0.0, 0.0, 0.0]
    for m, e in enumerate(range(indptr[i], indptr[i + 1])):
        sums[m % 4] += data[e] * x[indices[e]]
    return (sums[0] + sums[1]) + (sums[2] + sums[3])


def _substitute(factor, y):
    """Forward then back substitution over a released factor, in place, rows in ``_schwarz.c``'s order."""
    lower = (factor.l_indptr.tolist(), factor.l_indices.tolist(), factor.l_data.tolist())
    upper = (factor.u_indptr.tolist(), factor.u_indices.tolist(), factor.u_data.tolist())
    for i in range(factor.rows):
        y[i] = y[i] - _four_sums(*lower, i, y)
    for i in reversed(range(factor.rows)):
        y[i] = (y[i] - _four_sums(*upper, i, y)) / float(factor.u_diag[i])


def schwarz_loop_reference(asm: AdditiveSchwarzPreconditioner, residual: np.ndarray) -> np.ndarray:
    """One column of the native DDM-LU apply as a Python loop, in the order ``_schwarz.c`` writes down:
    gather into the local factor's row order and substitute; the coarse restriction into the coarse factor's
    row order and the same substitution; then per node its stacked rows (ascending, read through the local
    ``perm_c``) plus its ``R₀ᵀ`` row (ascending, read through the coarse ``perm_c``)."""
    factor = asm.local_solver.release_factor()
    r, nodes = residual.tolist(), asm.stacked_restriction.node_indices.tolist()
    y = [r[nodes[s]] for s in factor.row_source.tolist()]
    _substitute(factor, y)
    coarse = asm.coarse_space
    if coarse is not None:
        coarse_factor = coarse.solver.release_factor()
        r0, r0t = coarse.r0, coarse.r0.T.tocsr()
        r0t.sort_indices()
        e = []
        for q in coarse_factor.row_source.tolist():
            total = 0.0
            for m in range(r0.indptr[q], r0.indptr[q + 1]):
                total += float(r0.data[m]) * r[r0.indices[m]]
            e.append(total)
        _substitute(coarse_factor, e)
        e = [e[j] for j in coarse_factor.perm_c.tolist()]
    glue, perm_c = asm.stacked_restriction._transpose, factor.perm_c.tolist()
    out = []
    for i in range(asm.shape[0]):
        g = 0.0
        for m in range(glue.indptr[i], glue.indptr[i + 1]):
            g += y[perm_c[glue.indices[m]]]
        if coarse is not None:
            h = 0.0
            for m in range(r0t.indptr[i], r0t.indptr[i + 1]):
                h += float(r0t.data[m]) * e[r0t.indices[m]]
            g = g + h
        out.append(g)
    return np.array(out)


@pytest.mark.usefixtures("native_schwarz")
class TestNativeSchwarz:
    """``ddm/_schwarz.c``: DDM-LU's apply in one C call — bitwise its loop reference, the numpy body to
    rounding, the factor held once, run only for an exact-LU ``"asm"`` apply, reported and never keyed."""

    def _pair(self, problem, decomposition, **kwargs):
        """The same ASM on both bodies: ``(native, numpy)``."""
        native = AdditiveSchwarzPreconditioner(problem.matrix, decomposition, **kwargs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ddm_native, "_kernels", None)
            numpy_body = AdditiveSchwarzPreconditioner(problem.matrix, decomposition, **kwargs)
            assert numpy_body.kernel == "numpy"
        assert native.kernel == "native"
        return native, numpy_body

    @pytest.mark.parametrize("levels", [1, 2])
    def test_native_is_bitwise_the_loop_reference(self, random_problem, small_decomposition, levels):
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=levels)
        block = np.random.default_rng(levels).normal(size=(random_problem.num_dofs, 3))
        native = asm.apply_columns(block)
        assert asm.kernel == "native"
        for c in range(3):
            assert np.array_equal(native[:, c], schwarz_loop_reference(asm, block[:, c]))

    @pytest.mark.parametrize("levels", [1, 2])
    def test_native_is_the_numpy_body_to_rounding(self, random_problem, small_decomposition, levels):
        """SuperLU's supernodal order cannot be reproduced: ≤ 1e-13 relative per apply, not bitwise — and
        PCG takes the same iterations on both bodies."""
        native, numpy_body = self._pair(random_problem, small_decomposition, levels=levels)
        block = np.random.default_rng(5).normal(size=(random_problem.num_dofs, 4))
        got, expected = native.apply_columns(block), numpy_body.apply_columns(block)
        assert np.all(np.linalg.norm(got - expected, axis=0) <= 1e-13 * np.linalg.norm(expected, axis=0))
        solves = [preconditioned_conjugate_gradient(random_problem.matrix, random_problem.rhs, pre, tolerance=1e-10)
                  for pre in (native, numpy_body)]
        assert solves[0].iterations == solves[1].iterations
        assert np.linalg.norm(solves[0].solution - solves[1].solution) <= 1e-10 * np.linalg.norm(solves[1].solution)

    def test_the_factor_is_held_once(self, random_problem, small_decomposition):
        """The kernel takes SuperLU's factors over, the local and the coarse one; the local solver's own
        solve then runs the kernel's substitution on it."""
        native, numpy_body = self._pair(random_problem, small_decomposition)
        solver, coarse = native.local_solver, native.coarse_space.solver
        assert solver._factor is None and numpy_body.local_solver._factor is not None
        assert coarse._factor is None and numpy_body.coarse_space.solver._factor is not None
        assert native._native.factor is solver.release_factor()
        assert native._native.coarse is coarse.release_factor()
        held = [*native._native.arrays.values(), *vars(solver.release_factor()).values(),
                *vars(coarse.release_factor()).values()]
        for array in held:                                         # nothing keeps the SuperLU object alive
            while array is not None:
                assert not isinstance(array, spla.SuperLU)
                array = getattr(array, "base", None)
        stacked = np.random.default_rng(6).normal(size=(native.stacked_restriction.total_rows, 2))
        got = solver.solve_stacked_columns(stacked)
        expected = numpy_body.local_solver.solve_stacked_columns(stacked)
        assert np.allclose(got, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())
        assert np.array_equal(solver.solve_stacked_columns(stacked[:, 1:])[:, 0], got[:, 1])

    def test_only_an_exact_lu_asm_runs_native(self, random_problem, small_decomposition):
        from repro.ddm import JacobiLocalSolver

        matrix = random_problem.matrix
        assert AdditiveSchwarzPreconditioner(matrix, small_decomposition, variant="ras").kernel == "numpy"
        jacobi = AdditiveSchwarzPreconditioner(matrix, small_decomposition, local_solver=JacobiLocalSolver())
        assert jacobi.kernel == "numpy"
        assert AdditiveSchwarzPreconditioner(matrix, small_decomposition, levels=1).kernel == "native"

    def test_which_body_ran_is_reported_never_keyed(self, monkeypatch, random_problem):
        config = SolverConfig(preconditioner="ddm-lu", subdomain_size=80)
        results, keys = [], []
        for kernels in (ddm_native.schwarz_kernels(), None):
            monkeypatch.setattr(ddm_native, "_kernels", kernels)
            session = prepare(random_problem, config)
            results.append(session.solve())
            keys.append((session.fingerprint(), config.config_hash()))
        assert [result.info["kernel"] for result in results] == ["native", "numpy"]
        assert keys[0] == keys[1] and results[0].iterations == results[1].iterations
        assert "kernel" not in config.to_dict()

    def test_a_short_residual_is_refused_before_the_kernel_reads_it(self, random_problem, small_decomposition):
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition)
        with pytest.raises(ValueError, match="block"):
            asm.apply_columns(np.zeros((random_problem.num_dofs - 1, 2)))


# --------------------------------------------------------------------------- #
# DDM-GNN fast path
# --------------------------------------------------------------------------- #
def equation_reference(pre: DDMGNNPreconditioner, residual: np.ndarray) -> np.ndarray:
    """The apply as a per-sub-domain loop, written from its equations
    (Eqs. 14–15 per sub-domain, restricted gluing, coarse solve last) — the
    reference the production sweep is pinned against."""
    z = np.zeros(len(residual))
    cores = pre.decomposition.core_nodes
    for geometry, core in zip(pre.geometries, cores):
        local = residual[geometry.nodes]                            # R_i r
        if geometry.equilibration is not None:
            local = geometry.equilibration * local
        norm = np.linalg.norm(local)
        if norm == 0.0:
            continue
        normalise = pre.local_solver.normalize_local_residuals
        source = local / norm if normalise else local              # Eq. 14
        u = pre.model.predict(geometry.make_graph(source))          # Eq. 15
        if normalise:
            u = norm * u
        if geometry.equilibration is not None:
            u = geometry.equilibration * u
        owned = np.isin(geometry.nodes, core)                       # R̃_iᵀ: the core's rows only
        z[geometry.nodes[owned]] = u[owned]
    if pre.coarse_space is not None:                                # Eq. 13 on r − A z₁
        r0 = pre.coarse_space.r0
        left = residual - pre.matrix @ z
        z += r0.T @ np.linalg.solve(pre.coarse_space.coarse_matrix.toarray(), r0 @ left)
    return z


class TestDDMGNNFastPath:
    def _build(self, problem, decomposition, model, **kwargs):
        return DDMGNNPreconditioner(
            problem.matrix, problem.mesh, decomposition, model, **kwargs
        )

    def test_fast_path_compiled_for_dss(self, random_problem, small_decomposition, tiny_dss_model):
        pre = self._build(random_problem, small_decomposition, tiny_dss_model)
        assert len(pre.local_solver.plans) == len(pre.local_solver.batch_ranges) > 0
        assert pre.kernel == pre.local_solver.plans[0].kernel

    def test_duck_typed_model_served_by_the_sweep(self, random_problem, small_decomposition):
        class PlanOnly:
            """A stand-in with nothing but the DSS plan protocol."""

            def __init__(self):
                self.compiled, self.widths = [], []

            def compile_plan(self, batch, precision="f64"):
                self.compiled.append(precision)
                return batch

            def infer_columns(self, plan, sources):
                self.widths.append(sources.shape[1])
                return np.zeros(sources.shape)

        model = PlanOnly()
        pre = self._build(random_problem, small_decomposition, model, levels=1)
        batches = len(pre.local_solver.batch_ranges)
        assert model.compiled == ["f64"] * batches                  # one plan per inference batch, at set-up
        rng = np.random.default_rng(5)
        assert np.allclose(pre.apply(rng.normal(size=random_problem.num_dofs)), 0.0)
        assert model.widths == [1] * batches
        # one model call per inference batch, every column at once, through the same sweep
        block = rng.normal(size=(random_problem.num_dofs, 3))
        assert np.allclose(pre.apply_columns(block), 0.0)
        assert model.widths == [1] * batches + [3] * batches
        f32 = PlanOnly()
        self._build(random_problem, small_decomposition, f32, precision="f32")
        assert f32.compiled == ["f32"] * batches

    @pytest.mark.parametrize("normalize", [True, False])
    def test_fast_apply_matches_reference(self, random_problem, small_decomposition, tiny_dss_model, normalize):
        pre = self._build(
            random_problem, small_decomposition, tiny_dss_model,
            normalize_local_residuals=normalize,
        )
        r = np.random.default_rng(6).normal(size=random_problem.num_dofs)
        fast = pre.apply(r)
        reference = equation_reference(pre, r)
        scale = np.abs(reference).max()
        assert np.allclose(fast, reference, rtol=1e-10, atol=1e-10 * max(scale, 1.0))

    def test_fast_apply_zero_residual(self, random_problem, small_decomposition, tiny_dss_model):
        pre = self._build(random_problem, small_decomposition, tiny_dss_model, levels=1)
        assert np.allclose(pre.apply(np.zeros(random_problem.num_dofs)), 0.0)

    def test_exact_local_model_through_stacked_plumbing(self, random_problem, small_decomposition,
                                                        exact_local_reference):
        """A stand-in exact solver on the plan protocol reproduces restricted, coarse-corrected DDM-LU
        through the production sweep, one column or three — the consistency
        anchor of the plumbing."""

        class ExactLocal:
            def compile_plan(self, batch, precision="f64"):
                return batch.block_diagonal_matrix().tocsc()

            def infer_columns(self, plan, sources):
                return spla.spsolve(plan, sources).reshape(sources.shape)

        gnn = self._build(random_problem, small_decomposition, ExactLocal(), levels=2)
        block = np.random.default_rng(8).normal(size=(random_problem.num_dofs, 3))
        expected = exact_local_reference(random_problem.matrix, small_decomposition, block)
        assert np.allclose(gnn.apply(block[:, 0]), expected[:, 0], atol=1e-8)
        assert np.allclose(gnn.apply_columns(block), expected, atol=1e-8)


# --------------------------------------------------------------------------- #
# timing split surfaced by the result object and the tables helper
# --------------------------------------------------------------------------- #
class TestTimingSplit:
    def test_krylov_time_property(self):
        result = SolveResult(np.zeros(2), True, 1, elapsed_time=2.0, preconditioner_time=1.5)
        assert result.krylov_time == pytest.approx(0.5)
        # never negative, even with measurement jitter
        result = SolveResult(np.zeros(2), True, 1, elapsed_time=1.0, preconditioner_time=1.0000001)
        assert result.krylov_time == 0.0

    def test_pcg_records_split(self, random_problem, small_decomposition):
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=2)
        result = preconditioned_conjugate_gradient(
            random_problem.matrix, random_problem.rhs, asm, tolerance=1e-8
        )
        assert 0.0 < result.preconditioner_time <= result.elapsed_time
        assert result.krylov_time == pytest.approx(
            result.elapsed_time - result.preconditioner_time
        )


# --------------------------------------------------------------------------- #
# precomputed batching dims
# --------------------------------------------------------------------------- #
class TestBatchDims:
    def test_feature_dims(self, toy_batch):
        graphs = toy_batch.graphs
        assert GraphBatch.feature_dims(graphs) == (3, 0)

    def test_precomputed_dims_match_scan(self, toy_batch):
        graphs = toy_batch.graphs
        explicit = GraphBatch.from_graphs(graphs, edge_attr_dim=3, node_attr_dim=0)
        assert np.array_equal(explicit.edge_attr, toy_batch.edge_attr)
        assert explicit.node_attr is None

    def test_wider_dims_pad(self, toy_batch):
        wider = GraphBatch.from_graphs(toy_batch.graphs, edge_attr_dim=5, node_attr_dim=2)
        assert wider.edge_attr.shape[1] == 5
        assert np.array_equal(wider.edge_attr[:, 3:], np.zeros((wider.num_edges, 2)))
        assert wider.node_attr.shape == (wider.num_nodes, 2)
        assert not wider.node_attr.any()

    def test_too_narrow_dims_rejected(self, toy_batch):
        with pytest.raises(ValueError):
            GraphBatch.from_graphs(toy_batch.graphs, edge_attr_dim=2)


# --------------------------------------------------------------------------- #
# randomized lockstep parity: random SPD problems x random column counts
# --------------------------------------------------------------------------- #
class TestRandomizedLockstep:
    """Property-based sweep over the fused multi-RHS path: random Poisson
    problems and random batch widths must match sequential per-RHS solves
    exactly (f64) or to float32 tolerance — the fixed-k parity tests above
    cannot catch column-compaction or stride bugs that only appear at odd
    (problem size, k) combinations."""

    _problems: dict = {}
    _sessions: dict = {}

    @classmethod
    def _problem(cls, seed):
        if seed not in cls._problems:
            from repro.mesh import random_domain_mesh
            from repro.problems import make_problem

            mesh = random_domain_mesh(radius=1.0, element_size=0.2,
                                      rng=np.random.default_rng(seed))
            cls._problems[seed] = make_problem(
                "poisson", mesh=mesh, rng=np.random.default_rng(seed + 1))
        return cls._problems[seed]

    @classmethod
    def _session(cls, seed, precision, mode, model):
        """One session per (problem, precision, mode) — reused across draws so
        the sweep also exercises buffer shrink/regrow between random widths.

        An *untrained* model is unusable here: its random weights make PCG
        breakdown-prone (ρ can underflow to exactly zero through a float32
        apply), so the sweep runs on the trained session-scoped model.
        """
        key = (seed, precision, mode)
        if key not in cls._sessions:
            from repro.solvers import SolverConfig, prepare

            config = SolverConfig(preconditioner="ddm-gnn", subdomain_size=60,
                                  tolerance=1e-4, max_iterations=200,
                                  precision=precision)
            cls._sessions[key] = prepare(cls._problem(seed), config, model=model)
        return cls._sessions[key]

    @given(st.integers(0, 3), st.integers(1, 9), st.integers(0, 1000))
    @settings(max_examples=12, deadline=None)
    def test_fused_matches_sequential(self, trained_dss_model, problem_seed, k,
                                      rhs_seed):
        problem = self._problem(problem_seed)
        B = np.random.default_rng(rhs_seed).normal(size=(k, problem.num_dofs))

        fused = self._session(problem_seed, "f64", "fused",
                              trained_dss_model).solve_many(B, mode="fused")
        sequential = self._session(problem_seed, "f64", "sequential",
                                   trained_dss_model).solve_many(B, mode="sequential")
        for a, b in zip(fused.results, sequential.results):
            assert np.array_equal(a.solution, b.solution)
            assert a.iterations == b.iterations
            assert a.converged == b.converged

        # f32: fused vs sequential run the same float32 forward at different
        # widths (one k-wide sweep vs k single-column sweeps) — tolerance only
        f32_fused = self._session(problem_seed, "f32", "fused",
                                  trained_dss_model).solve_many(B, mode="fused")
        f32_seq = self._session(problem_seed, "f32", "sequential",
                                trained_dss_model).solve_many(B, mode="sequential")
        for a, b in zip(f32_fused.results, f32_seq.results):
            assert a.info["precision"] == "f32"
            scale = np.linalg.norm(b.solution) + 1e-30
            assert np.linalg.norm(a.solution - b.solution) / scale < 1e-3
