"""The differentiable DSS forward (one tape primitive per block) against the
per-edge formulation it replaced, kept here as the permanent reference."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from test_nn_tensor import finite_difference

from repro.fem import assemble_stiffness
from repro.gnn import DSS, DSSConfig, GraphBatch, graph_from_mesh, residual_loss
from repro.gnn.batch import message_operators
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
def _graph(nx: int, ny: int, seed: int, kappa: bool = False):
    """A graph problem with an SPD local matrix, optionally carrying κ features."""
    mesh = structured_rectangle_mesh(nx, ny)
    rng = np.random.default_rng(seed)
    matrix = (assemble_stiffness(mesh) + sp.identity(mesh.num_nodes)).tocsr()
    graph = graph_from_mesh(mesh, source=rng.normal(size=mesh.num_nodes), matrix=matrix)
    if kappa:
        graph.node_attr = rng.normal(size=(mesh.num_nodes, 1))
        graph.edge_attr = np.hstack([graph.edge_attr, rng.normal(size=(graph.num_edges, 1))])
    return graph


def _model(config: DSSConfig) -> DSS:
    """A model moved off its zero-bias initialisation so every bias path carries signal."""
    model = DSS(config)
    rng = np.random.default_rng(config.seed + 100)
    for p in model.parameters():
        p.data += 0.1 * rng.normal(size=p.data.shape)
    return model


CONFIGS = {
    "k3-d4": (DSSConfig(num_iterations=3, latent_dim=4, alpha=0.1, seed=1), False),
    "k4-d5-kappa": (DSSConfig(num_iterations=4, latent_dim=5, alpha=0.1, seed=3,
                              edge_attr_dim=4, node_input_dim=2), True),
    "k1-d1": (DSSConfig(num_iterations=1, latent_dim=1, alpha=0.1, seed=2), False),   # a seed whose lone units fire
}


def _views(kappa: bool) -> dict:
    """view name -> (what the forward runs on, what the residual loss is taken on)."""
    graphs = [_graph(nx, ny, seed, kappa) for seed, (nx, ny) in enumerate([(3, 4), (5, 3), (4, 4)])]
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


# --------------------------------------------------------------------------- #
# the parity matrix
# --------------------------------------------------------------------------- #
class TestParityWithPerEdgeReference:
    @pytest.mark.parametrize("view", ["problem", "batch", "plan"])
    @pytest.mark.parametrize("config_name", list(CONFIGS))
    def test_forward_loss_and_every_gradient(self, config_name, view):
        config, kappa = CONFIGS[config_name]
        model = _model(config)
        forward_on, loss_on = _views(kappa)[view]

        outputs = model.forward(forward_on, return_intermediate=True)
        reference = reference_forward(model, forward_on)
        assert len(outputs) == len(reference) == config.num_iterations
        for out, ref in zip(outputs, reference):
            assert np.allclose(out.numpy(), ref.numpy(), rtol=1e-12, atol=1e-12)

        loss, reference_loss = _loss(outputs, loss_on), _loss(reference, loss_on)
        assert loss.item() == pytest.approx(reference_loss.item(), rel=1e-12, abs=1e-12)
        if view != "plan":               # a BatchPlan carries no matrices
            assert model.training_loss(forward_on).item() == pytest.approx(
                reference_loss.item(), rel=1e-12, abs=1e-12)

        grads, reference_grads = _gradients(model, loss), _gradients(model, reference_loss)
        assert set(grads) == {name for name, _ in model.named_parameters()}
        for name, ref in reference_grads.items():
            assert np.abs(ref).max() > 0.0, f"{name}: dead in the reference, nothing compared"
            assert np.abs(grads[name] - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max()), name


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
    return (block, message_operators(edge_index, 5), rng.normal(size=(edge_index.shape[1], 4)),
            rng.normal(size=(5, 2)), Tensor(rng.normal(size=(5, 2))), rng.normal(size=(5, 2)))


class TestBlockPrimitive:
    def test_vjp_matches_central_finite_differences(self):
        block, operators, edge_attr, latent0, node_input, weights = _five_node_block()
        latent = Tensor(latent0.copy(), requires_grad=True)

        def scalar() -> Tensor:
            return (block(latent, node_input, operators, edge_attr) * Tensor(weights)).sum()

        block.zero_grad()
        scalar().backward()
        with no_grad():
            for name, tensor in [("latent", latent), *block.named_parameters()]:
                numeric = finite_difference(lambda _: scalar().item(), tensor.data)
                assert np.allclose(tensor.grad, numeric, rtol=1e-6, atol=1e-8), name

    def test_one_tape_node_whose_only_edge_row_array_is_the_mask(self):
        block, operators, edge_attr, latent0, node_input, _ = _five_node_block()
        latent = Tensor(latent0, requires_grad=True)
        out = block(latent, node_input, operators, edge_attr)
        assert out._parents == (latent, *block.parameters()) and out._backward_fns == ()
        num_edges = edge_attr.shape[0]
        kept = [cell.cell_contents for cell in out._vjp.__closure__]
        edge_rows = [a for a in kept if isinstance(a, np.ndarray) and a.ndim == 2
                     and a.shape[0] == num_edges and a is not edge_attr]
        assert [a.dtype for a in edge_rows] == [np.dtype(bool)]

    def test_no_grad_records_nothing_and_allocates_no_mask(self):
        # complete digraph on 200 nodes: E = 199 n, so the (E, 2d) edge buffer
        # dwarfs every n-row array and a mask (an eighth of it) would show
        n, d = 200, 8
        rng = np.random.default_rng(23)
        src, dst = np.nonzero(~np.eye(n, dtype=bool))
        operators = message_operators(np.vstack([src, dst]), n)
        block = DSSBlock(latent_dim=d, alpha=0.1, rng=rng)
        edge_attr = rng.normal(size=(src.size, 3))
        latent, node_input = Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, 1)))
        edge_buffer = src.size * 2 * d * 8
        with no_grad():
            block(latent, node_input, operators, edge_attr)       # warm imports and caches
            tracemalloc.start()
            try:
                out = block(latent, node_input, operators, edge_attr)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out._parents == () and out._vjp is None and not out.requires_grad
        assert edge_buffer <= peak < edge_buffer + src.size * 2 * d // 2
        assert np.allclose(out.numpy(), block(latent, node_input, operators, edge_attr).numpy(),
                           rtol=1e-12, atol=1e-12)                # same values with the tape on


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
    """Ten more blocks may cost ten boolean masks plus n-row arrays — a float
    ``(E, ·)`` array back on the tape (E·2d·8 bytes per block) fails this."""
    batch = GraphBatch.from_graphs([_graph(9, 9, seed) for seed in range(4)])
    n, num_edges, d = batch.num_nodes, batch.num_edges, 10
    peaks = {k: _step_peak(DSSConfig(num_iterations=k, latent_dim=d, alpha=0.1), batch) for k in (2, 12)}
    assert (peaks[12] - peaks[2]) / 10 <= num_edges * 2 * d + 16 * n * d * 8
