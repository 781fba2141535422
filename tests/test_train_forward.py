"""The differentiable DSS forward (one tape primitive per block on the shared
edge pass) against the per-edge formulation it replaced, kept here as the
permanent reference, on both bodies of the edge pass and its VJP."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from test_nn_tensor import finite_difference

from repro.fem import assemble_stiffness
from repro.gnn import DSS, DSSConfig, EdgeLayout, GraphBatch, _native, graph_from_mesh, residual_loss
from repro.gnn.mpnn import DSSBlock
from repro.mesh import structured_rectangle_mesh
from repro.nn import Tensor, no_grad


# --------------------------------------------------------------------------- #
# the per-edge reference: gather ×2 → concatenate → Φ MLP → segment sum, composed
# from the general tape ops (what ``DSSBlock.forward`` was until PR 17)
# --------------------------------------------------------------------------- #
def reference_block(block: DSSBlock, latent: Tensor, node_input: Tensor,
                    edge_index: np.ndarray, edge_attr: np.ndarray) -> Tensor:
    src, dst = edge_index
    num_nodes = latent.shape[0]
    h_src, h_dst = latent.index_select(src), latent.index_select(dst)
    # reversed relative position, same distance, for the "incoming" messages
    reversed_attr = edge_attr.copy()
    reversed_attr[:, :2] *= -1.0
    msg_fwd = block.phi_forward(Tensor.concatenate([h_dst, h_src, Tensor(edge_attr)], axis=1))
    msg_bwd = block.phi_backward(Tensor.concatenate([h_dst, h_src, Tensor(reversed_attr)], axis=1))
    agg_fwd = msg_fwd.index_add(dst, num_nodes)
    agg_bwd = msg_bwd.index_add(dst, num_nodes)
    update = block.psi(Tensor.concatenate([latent, node_input, agg_fwd, agg_bwd], axis=1))
    return latent + block.alpha * update


def reference_forward(model: DSS, problem) -> list:
    """``model.forward(problem, return_intermediate=True)`` on the per-edge block."""
    edge_attr = model._prepare_edge_attr(problem.edge_attr)
    node_input = Tensor(model._prepare_node_input(problem))
    latent = Tensor(np.zeros((problem.num_nodes, model.config.latent_dim)))
    outputs = []
    for block, decoder in zip(model.blocks, model.decoders):
        latent = reference_block(block, latent, node_input, problem.edge_index, edge_attr)
        outputs.append(decoder(latent))
    return outputs


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #
def _graph(nx: int, ny: int, seed: int, config: DSSConfig):
    """A graph problem with an SPD local matrix and exactly the features ``config`` reads."""
    mesh = structured_rectangle_mesh(nx, ny)
    rng = np.random.default_rng(seed)
    matrix = (assemble_stiffness(mesh) + sp.identity(mesh.num_nodes)).tocsr()
    graph = graph_from_mesh(mesh, source=rng.normal(size=mesh.num_nodes), matrix=matrix)
    if config.node_input_dim > 1:
        graph.node_attr = rng.normal(size=(mesh.num_nodes, config.node_input_dim - 1))
    extra = config.edge_attr_dim - graph.edge_attr.shape[1]
    graph.edge_attr = np.hstack([graph.edge_attr, rng.normal(size=(graph.num_edges, extra))])
    return graph


def _model(config: DSSConfig) -> DSS:
    """A model moved off its zero-bias initialisation so every bias path carries signal."""
    model = DSS(config)
    rng = np.random.default_rng(config.seed + 100)
    for p in model.parameters():
        p.data += 0.1 * rng.normal(size=p.data.shape)
    return model


CONFIGS = {
    "k3-d4": DSSConfig(num_iterations=3, latent_dim=4, alpha=0.1, seed=1),
    "k4-d5-kappa": DSSConfig(num_iterations=4, latent_dim=5, alpha=0.1, seed=3, edge_attr_dim=4, node_input_dim=2),
    "k1-d1": DSSConfig(num_iterations=1, latent_dim=1, alpha=0.1, seed=2),   # a seed whose lone units fire
    "k2-d10": DSSConfig(num_iterations=2, latent_dim=10, alpha=0.1, seed=5),  # the width the C instantiates
}


def _views(config: DSSConfig) -> dict:
    """view name -> (what the forward runs on, what the residual loss is taken on)."""
    graphs = [_graph(nx, ny, seed, config) for seed, (nx, ny) in enumerate([(3, 4), (5, 3), (4, 4)])]
    batch = GraphBatch.from_graphs(graphs)
    plan = batch.compile_plan()          # edges re-sorted by destination, nodes unchanged
    plan.load_source(batch.source)
    return {"problem": (graphs[0], graphs[0]), "batch": (batch, batch), "plan": (plan, batch)}


def _loss(outputs, problem) -> Tensor:
    total = residual_loss(outputs[0], problem)
    for out in outputs[1:]:
        total = total + residual_loss(out, problem)
    return total


def _gradients(model: DSS, loss: Tensor) -> dict:
    model.zero_grad()
    loss.backward()
    return {name: p.grad.copy() for name, p in model.named_parameters()}


@pytest.fixture
def native_body():
    """Skip where the kernels cannot load (resolved here, at run time, not at collection)."""
    if _native.edge_kernels() is None:
        pytest.skip("no C compiler here: the numpy body is the only one")


@pytest.fixture(params=["default", "numpy"])
def body(request, monkeypatch):
    """Run the test on whichever edge-pass body this process resolves, then on the numpy body."""
    if request.param == "numpy":
        monkeypatch.setattr(_native, "_kernels", None)
    return request.param


def _assert_matches_reference(model: DSS, forward_on, loss_on, check_training_loss: bool) -> None:
    """Forward within 1e-12 and every parameter gradient within 1e-10 of the per-edge reference."""
    config = model.config
    outputs = model.forward(forward_on, return_intermediate=True)
    reference = reference_forward(model, forward_on)
    assert len(outputs) == len(reference) == config.num_iterations
    for out, ref in zip(outputs, reference):
        assert np.allclose(out.numpy(), ref.numpy(), rtol=1e-12, atol=1e-12)

    loss, reference_loss = _loss(outputs, loss_on), _loss(reference, loss_on)
    assert loss.item() == pytest.approx(reference_loss.item(), rel=1e-12, abs=1e-12)
    if check_training_loss:
        assert model.training_loss(forward_on).item() == pytest.approx(
            reference_loss.item(), rel=1e-12, abs=1e-12)

    grads, reference_grads = _gradients(model, loss), _gradients(model, reference_loss)
    assert set(grads) == {name for name, _ in model.named_parameters()}
    for name, ref in reference_grads.items():
        assert np.abs(ref).max() > 0.0, f"{name}: dead in the reference, nothing compared"
        assert np.abs(grads[name] - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max()), name


# --------------------------------------------------------------------------- #
# the parity matrix
# --------------------------------------------------------------------------- #
class TestParityWithPerEdgeReference:
    @pytest.mark.parametrize("view", ["problem", "batch", "plan"])
    @pytest.mark.parametrize("config_name", list(CONFIGS))
    def test_forward_loss_and_every_gradient(self, body, config_name, view):
        config = CONFIGS[config_name]
        forward_on, loss_on = _views(config)[view]
        # a BatchPlan carries no matrices
        _assert_matches_reference(_model(config), forward_on, loss_on, check_training_loss=view != "plan")

    def test_an_uninstantiated_attribute_width_runs_the_numpy_body(self):
        """The kernels exist for |e| = 3 and 4; a model reading five attribute columns trains on the numpy
        body, compiler or not, and says so."""
        config = DSSConfig(num_iterations=2, latent_dim=3, alpha=0.1, seed=4, edge_attr_dim=5)
        batch, _ = _views(config)["batch"]
        assert EdgeLayout(batch.edge_index, batch.edge_attr, batch.num_nodes).kernel == "numpy"
        _assert_matches_reference(_model(config), batch, batch, check_training_loss=True)

    @pytest.mark.parametrize("config_name", list(CONFIGS))
    def test_one_training_step_is_bitwise_the_same_on_both_bodies(self, native_body, monkeypatch, config_name):
        config = CONFIGS[config_name]
        batch, _ = _views(config)["batch"]
        model = _model(config)
        steps = []
        for kernels in (_native.edge_kernels(), None):
            monkeypatch.setattr(_native, "_kernels", kernels)
            loss = model.training_loss(batch)
            steps.append((loss.item(), _gradients(model, loss)))
        (native_loss, native_grads), (numpy_loss, numpy_grads) = steps
        assert native_loss == numpy_loss and np.isfinite(native_loss)
        for name, grad in native_grads.items():
            assert np.array_equal(grad, numpy_grads[name]), name

    @pytest.mark.parametrize("bad_id", ["n", "-1"])
    def test_an_edge_id_out_of_range_is_refused_before_any_kernel_reads_it(self, body, bad_id):
        config = CONFIGS["k3-d4"]
        graph = _graph(3, 4, 0, config)
        graph.edge_index[0, 5] = graph.num_nodes if bad_id == "n" else -1
        model = _model(config)
        for run in (model.forward, model.training_loss, model.predict):
            with pytest.raises(ValueError, match="node ids"):
                run(graph)


# --------------------------------------------------------------------------- #
# the block primitive on its own
# --------------------------------------------------------------------------- #
def _five_node_block():
    """A 5-node ring with both edge directions less one (E = 9, unlike any
    other array dimension here), a d=2 block and fixed inputs."""
    rng = np.random.default_rng(17)
    ring = np.arange(5)
    edge_index = np.hstack([np.vstack([ring, np.roll(ring, 1)]), np.vstack([np.roll(ring, 1), ring])])[:, :-1]
    block = DSSBlock(latent_dim=2, alpha=0.3, rng=rng, edge_attr_dim=4, node_input_dim=2)
    for p in block.parameters():
        p.data += 0.3 * rng.normal(size=p.data.shape)
    return (block, EdgeLayout(edge_index, rng.normal(size=(edge_index.shape[1], 4)), 5),
            rng.normal(size=(5, 2)), Tensor(rng.normal(size=(5, 2))), rng.normal(size=(5, 2)))


class TestBlockPrimitive:
    def test_vjp_matches_central_finite_differences(self, body):
        block, edges, latent0, node_input, weights = _five_node_block()
        latent = Tensor(latent0.copy(), requires_grad=True)

        def scalar() -> Tensor:
            return (block(latent, node_input, edges) * Tensor(weights)).sum()

        block.zero_grad()
        scalar().backward()
        with no_grad():
            for name, tensor in [("latent", latent), *block.named_parameters()]:
                numeric = finite_difference(lambda _: scalar().item(), tensor.data)
                assert np.allclose(tensor.grad, numeric, rtol=1e-6, atol=1e-8), name

    def test_one_tape_node_that_keeps_no_edge_row_array(self):
        block, edges, latent0, node_input, _ = _five_node_block()
        latent = Tensor(latent0, requires_grad=True)
        out = block(latent, node_input, edges)
        assert out._parents == (latent, *block.parameters()) and out._backward_fns == ()
        kept = [cell.cell_contents for cell in out._vjp.__closure__]
        num_edges = edges.attr.shape[0]
        # the layout's own rows are the forward's input, shared by every block; the block adds none
        assert any(item is edges for item in kept)
        assert not [a for a in kept if isinstance(a, np.ndarray) and a.ndim and a.shape[0] == num_edges]

    def test_no_grad_records_nothing_and_the_native_body_allocates_no_edge_buffer(self, native_body):
        # complete digraph on 300 nodes: E = 299 n, so one float per edge dwarfs
        # every n-row array a block makes (a (E, 2d) bool mask is twice that)
        n, d = 300, 8
        rng = np.random.default_rng(23)
        src, dst = np.nonzero(~np.eye(n, dtype=bool))
        edges = EdgeLayout(np.vstack([src, dst]), rng.normal(size=(src.size, 3)), n)
        block = DSSBlock(latent_dim=d, alpha=0.1, rng=rng)
        latent, node_input = Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, 1)))
        with no_grad():
            block(latent, node_input, edges)                      # warm imports and caches
            tracemalloc.start()
            try:
                out = block(latent, node_input, edges)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out._parents == () and out._vjp is None and not out.requires_grad
        assert peak < src.size * 8, peak
        assert np.array_equal(out.numpy(), block(latent, node_input, edges).numpy())   # same bytes, tape on


# --------------------------------------------------------------------------- #
# the edge VJP: one layout, two bodies, the same bytes
# --------------------------------------------------------------------------- #
def _edge_vjp_reference(edges: EdgeLayout, weights, bias, proj, g_pre):
    """Per edge, in the layout's (destination-sorted) order: the pass's pre-activation, the select through
    the ReLU, and three sums onto zeros in ascending edge id (``np.add.at`` is sequential)."""
    src, dst = edges.edge_index
    n, attr = edges.num_nodes, edges.attr
    terms = attr[:, :1] * weights[0]
    for j in range(1, attr.shape[1]):
        terms += attr[:, j:j + 1] * weights[j]
    t = ((terms + bias) + proj[dst]) + proj[n + src]
    g_edge = np.where(t > 0.0, g_pre[dst], 0.0)
    g_proj, g_weights = np.zeros_like(proj), np.zeros((1, *weights.shape))
    np.add.at(g_proj, dst, g_edge)
    np.add.at(g_proj, n + src, g_edge)
    np.add.at(g_weights, np.zeros(len(src), dtype=np.intp), attr[:, :, None] * g_edge[:, None, :])
    return t, g_proj, g_weights[0]


class TestEdgeVJP:
    @pytest.mark.parametrize("attr_width,width", [(3, 6), (4, 6), (3, 20), (4, 20)],
                             ids=["3", "4", "3-w20", "4-w20"])
    def test_native_is_bitwise_the_numpy_body(self, native_body, monkeypatch, attr_width, width):
        """Node 0 isolated, node 1 of in-degree 1, node 2 a pure source, then a seeded multigraph; one edge's
        pre-activation is exactly 0 in unit 0 (zero attributes and bias, opposite projections).  At a
        generic hidden width and at 2d = 20, the one the C instantiates."""
        rng = np.random.default_rng(attr_width)
        n = 40
        edge_index = np.hstack([[[2], [1]], rng.integers(3, n, size=(2, 300))])
        attr = rng.normal(size=(edge_index.shape[1], attr_width))
        attr[0] = 0.0
        edges = EdgeLayout(edge_index, attr, n)
        weights, bias = rng.normal(size=(attr_width, width)), rng.normal(size=width)
        proj, g_pre = rng.normal(size=(2 * n, width)), rng.normal(size=(n, width))
        bias[0], proj[1, 0], proj[n + 2, 0] = 0.0, 1.5, -1.5

        t, g_proj, g_weights = _edge_vjp_reference(edges, weights, bias, proj, g_pre)
        assert t[0, 0] == 0.0 and (t > 0).any() and (t < 0).any()
        assert edges.kernel == "native"
        native = edges.edge_vjp(weights, bias, proj, g_pre)
        monkeypatch.setattr(_native, "_kernels", None)
        assert edges.kernel == "numpy"
        numpy_body = edges.edge_vjp(weights, bias, proj, g_pre)
        for expected, got_native, got_numpy in zip((g_proj, g_weights), native, numpy_body):
            assert np.array_equal(got_native, expected) and np.array_equal(got_numpy, expected)
        assert not g_proj[0].any() and not g_proj[n + 1].any()      # isolated: nothing in, nothing out
        assert np.array_equal(g_proj[1], np.where(t[0] > 0.0, g_pre[1], 0.0))   # in-degree 1


# --------------------------------------------------------------------------- #
# what a training step retains per block
# --------------------------------------------------------------------------- #
def _step_peak(config: DSSConfig, batch: GraphBatch) -> int:
    model = DSS(config)
    model.training_loss(batch).backward()                         # warm: block matrix cached on the batch
    model.zero_grad()
    tracemalloc.start()
    try:
        model.training_loss(batch).backward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tape_growth_per_block_has_no_float_edge_array():
    """Ten more blocks may cost ten blocks' n-row arrays (≈ 13 n·d floats each
    measured) — a float ``(E, 2d)`` array back on the tape (E ≈ 3.8 n here:
    7.7 n·d floats per block) fails this; the closure test catches any dtype."""
    batch = GraphBatch.from_graphs([_graph(9, 9, seed, DSSConfig()) for seed in range(4)])
    n, d = batch.num_nodes, 10
    peaks = {k: _step_peak(DSSConfig(num_iterations=k, latent_dim=d, alpha=0.1), batch) for k in (2, 12)}
    assert (peaks[12] - peaks[2]) / 10 <= 16 * n * d * 8
