"""The training forward and its hand-written backward (one VJP per block on
the shared edge pass, one per decoder, the Eq. 11 gradient) against the
per-edge formulation the block replaced, kept here as the permanent
reference in plain numpy, on both bodies of the edge pass and its VJP."""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import dst_sorted

from repro.fem import assemble_stiffness
from repro.gnn import DSS, DSSConfig, EdgeLayout, GraphBatch, _native, graph_from_mesh
from repro.gnn.mpnn import block_forward
from repro.mesh import structured_rectangle_mesh


# --------------------------------------------------------------------------- #
# the per-edge reference: gather ×2 → concatenate → Φ MLP → segment sum, in
# plain numpy on a name -> array dict of the weights (real, or complex for the
# complex-step derivative); the formulation the fused block replaced
# --------------------------------------------------------------------------- #
def _mlp(weights: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    z = x @ weights[f"{prefix}.layer_0.weight"].T + weights[f"{prefix}.layer_0.bias"]
    hidden = np.where(z.real > 0.0, z, 0.0)            # ReLU, analytic in the imaginary part
    return hidden @ weights[f"{prefix}.layer_1.weight"].T + weights[f"{prefix}.layer_1.bias"]


def reference_forward(model: DSS, problem, weights: dict) -> list:
    """``model.forward(problem, return_intermediate=True)`` on the per-edge block."""
    src, dst = problem.edge_index
    n, num_edges = problem.num_nodes, src.size
    edge_attr = model._prepare_edge_attr(problem.edge_attr)
    # reversed relative position, same distance, for the "incoming" messages
    reversed_attr = edge_attr.copy()
    reversed_attr[:, :2] *= -1.0
    node_input = model._prepare_node_input(problem)
    segment_sum = sp.csr_matrix((np.ones(num_edges), (dst, np.arange(num_edges))), shape=(n, num_edges))
    latent = np.zeros((n, model.config.latent_dim))
    outputs = []
    for k in range(model.config.num_iterations):
        block = f"block_{k}"
        msg_fwd = _mlp(weights, f"{block}.phi_forward", np.hstack([latent[dst], latent[src], edge_attr]))
        msg_bwd = _mlp(weights, f"{block}.phi_backward", np.hstack([latent[dst], latent[src], reversed_attr]))
        update = _mlp(weights, f"{block}.psi",
                      np.hstack([latent, node_input, segment_sum @ msg_fwd, segment_sum @ msg_bwd]))
        latent = latent + model.config.alpha * update
        outputs.append(_mlp(weights, f"decoder_{k}.mlp", latent))
    return outputs


def reference_loss(outputs: list, matrix, target: np.ndarray):
    """Eq. 23: the sum over decoded states of ``mean(r²)``, ``r = A u − c`` (``r·r``, not ``|r|²``)."""
    residuals = [matrix @ out[:, 0] - target for out in outputs]
    return sum((r * r).mean() for r in residuals)


def complex_step_gradients(model: DSS, problem, matrix, target, entries: dict) -> dict:
    """``∂L/∂w`` of the reference at ``entries`` (name -> index list): ``Im L(w + ih e) / h``, ``h = 1e-30``,
    exact to rounding — no subtraction, so no cancellation."""
    weights = {name: p.data.astype(complex) for name, p in model.params.items()}
    step, grads = 1e-30, {}
    for name, indices in entries.items():
        grads[name] = []
        for index in indices:
            weights[name][index] += step * 1j
            grads[name].append(reference_loss(reference_forward(model, problem, weights), matrix, target).imag / step)
            weights[name][index] -= step * 1j
    return {name: np.array(values) for name, values in grads.items()}


def finite_difference(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f(x)
        x[idx] = orig - eps
        fm = f(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


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
    for p in model.params.values():
        p.data += 0.1 * rng.normal(size=p.data.shape)
    return model


CONFIGS = {
    "k3-d4": DSSConfig(num_iterations=3, latent_dim=4, alpha=0.1, seed=1),
    "k4-d5-kappa": DSSConfig(num_iterations=4, latent_dim=5, alpha=0.1, seed=3, edge_attr_dim=4, node_input_dim=2),
    "k1-d1": DSSConfig(num_iterations=1, latent_dim=1, alpha=0.1, seed=2),   # a seed whose lone units fire
    "k2-d10": DSSConfig(num_iterations=2, latent_dim=10, alpha=0.1, seed=5),  # the width the C instantiates
}
#: plus five attribute columns: no kernel is instantiated for it, so the numpy body runs, compiler or not
EVERY_CONFIG = {**CONFIGS, "k2-d3-e5": DSSConfig(num_iterations=2, latent_dim=3, alpha=0.1, seed=4, edge_attr_dim=5)}


def _views(config: DSSConfig) -> dict:
    """view name -> what the forward and the residual loss run on: one graph, a batch, and the batch with its
    edges already in the order an edge layout sorts them to (by destination, stably; nodes unchanged)."""
    graphs = [_graph(nx, ny, seed, config) for seed, (nx, ny) in enumerate([(3, 4), (5, 3), (4, 4)])]
    batch = GraphBatch.from_graphs(graphs)
    return {"problem": graphs[0], "batch": batch, "plan": dst_sorted(batch)}


def _gradients(model: DSS, loss) -> dict:
    for p in model.params.values():
        p.zero_grad()
    loss.backward()
    return {name: p.grad.copy() for name, p in model.params.items()}


#: complex-step entries per parameter array: its largest gradient plus a few seeded others
ENTRIES_PER_ARRAY = 4


@functools.lru_cache(maxsize=None)
def _reference(config_name: str, view: str, entries: tuple) -> tuple:
    """(decoded states, loss, complex-step gradients at ``entries``) of the reference, once per body pair."""
    config = EVERY_CONFIG[config_name]
    model, problem = _model(config), _views(config)[view]
    weights = {name: p.data for name, p in model.params.items()}
    outputs = reference_forward(model, problem, weights)
    matrix = problem.block_diagonal_matrix() if isinstance(problem, GraphBatch) else problem.matrix
    target = problem.source
    gradients = complex_step_gradients(model, problem, matrix, target, dict(entries))
    return outputs, reference_loss(outputs, matrix, target), gradients


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


def _assert_matches_reference(config_name: str, view: str) -> None:
    """Forward within 1e-12, loss within 1e-12 and every parameter array's gradient within 1e-10 of the
    per-edge reference (at ``ENTRIES_PER_ARRAY`` entries each, by complex step)."""
    config = EVERY_CONFIG[config_name]
    model, problem = _model(config), _views(config)[view]
    outputs = model.forward(problem, return_intermediate=True)
    loss = model.training_loss(problem)
    grads = _gradients(model, loss)
    assert set(grads) == {name for name, _ in model.params.items()}

    rng = np.random.default_rng(0)
    entries = []
    for name, grad in grads.items():
        picks = {np.unravel_index(np.argmax(np.abs(grad)), grad.shape)}
        while len(picks) < min(ENTRIES_PER_ARRAY, grad.size):
            picks.add(tuple(int(rng.integers(size)) for size in grad.shape))
        entries.append((name, tuple(sorted(picks))))
    reference, reference_loss_value, reference_grads = _reference(config_name, view, tuple(entries))

    assert len(outputs) == len(reference) == config.num_iterations
    for out, ref in zip(outputs, reference):
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)
    assert loss.item() == pytest.approx(reference_loss_value, rel=1e-12, abs=1e-12)
    for name, indices in entries:
        got, ref = np.array([grads[name][index] for index in indices]), reference_grads[name]
        assert np.abs(ref).max() > 0.0, f"{name}: dead in the reference, nothing compared"
        assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max()), name


# --------------------------------------------------------------------------- #
# the parity matrix
# --------------------------------------------------------------------------- #
class TestParityWithPerEdgeReference:
    @pytest.mark.parametrize("view", ["problem", "batch", "plan"])
    @pytest.mark.parametrize("config_name", list(CONFIGS))
    def test_forward_loss_and_every_gradient(self, body, config_name, view):
        _assert_matches_reference(config_name, view)

    def test_an_uninstantiated_attribute_width_runs_the_numpy_body(self):
        """The kernels exist for |e| = 3 and 4; a model reading five attribute columns trains on the numpy
        body, compiler or not, and says so."""
        batch = _views(EVERY_CONFIG["k2-d3-e5"])["batch"]
        assert EdgeLayout(batch.edge_index, batch.edge_attr, batch.num_nodes).kernel == "numpy"
        _assert_matches_reference("k2-d3-e5", "batch")

    @pytest.mark.parametrize("config_name", list(CONFIGS))
    def test_one_training_step_is_bitwise_the_same_on_both_bodies(self, native_body, monkeypatch, config_name):
        config = CONFIGS[config_name]
        batch = _views(config)["batch"]
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
def _block(config: DSSConfig):
    """Block 0 of a ``config`` model: ``(block(latent, node_input, edges), its twelve parameters by key)``."""
    params = DSS(config).params
    return (functools.partial(block_forward, params, 0, config.alpha),
            {name: p for name, p in params.items() if name.startswith("block_0.")})


def _five_node_block():
    """A 5-node ring with both edge directions less one (E = 9, unlike any
    other array dimension here), a d=2 block and fixed inputs."""
    rng = np.random.default_rng(17)
    ring = np.arange(5)
    edge_index = np.hstack([np.vstack([ring, np.roll(ring, 1)]), np.vstack([np.roll(ring, 1), ring])])[:, :-1]
    block, params = _block(DSSConfig(num_iterations=1, latent_dim=2, alpha=0.3, seed=17, edge_attr_dim=4,
                                     node_input_dim=2))
    for p in params.values():
        p.data += 0.3 * rng.normal(size=p.data.shape)
    return (block, params, EdgeLayout(edge_index, rng.normal(size=(edge_index.shape[1], 4)), 5),
            rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))


class TestBlockPrimitive:
    def test_vjp_matches_central_finite_differences(self, body):
        block, params, edges, latent, node_input, weights = _five_node_block()

        def scalar(_=None) -> float:
            return float((block(latent, node_input, edges)[0] * weights).sum())

        g_latent = block(latent, node_input, edges)[1](weights)
        for name, value, grad in [("latent", latent, g_latent),
                                  *((name, p.data, p.grad) for name, p in params.items())]:
            assert np.allclose(grad, finite_difference(scalar, value), rtol=1e-6, atol=1e-8), name

    def test_the_backward_keeps_no_edge_row_array(self):
        block, _, edges, latent, node_input, _ = _five_node_block()
        _, backward = block(latent, node_input, edges)
        kept = [cell.cell_contents for cell in backward.__closure__]
        num_edges = edges.attr.shape[0]
        # the layout's own rows are the forward's input, shared by every block; the block adds none
        assert any(item is edges for item in kept)
        assert not [a for a in kept if isinstance(a, np.ndarray) and a.ndim and a.shape[0] == num_edges]

    def test_the_native_body_allocates_no_edge_buffer(self, native_body):
        # complete digraph on 300 nodes: E = 299 n, so one float per edge dwarfs
        # every n-row array a block makes (a (E, 2d) bool mask is twice that)
        n, d = 300, 8
        rng = np.random.default_rng(23)
        src, dst = np.nonzero(~np.eye(n, dtype=bool))
        edges = EdgeLayout(np.vstack([src, dst]), rng.normal(size=(src.size, 3)), n)
        block, _ = _block(DSSConfig(num_iterations=1, latent_dim=d, alpha=0.1, seed=23))
        latent, node_input = rng.normal(size=(n, d)), rng.normal(size=(n, 1))
        block(latent, node_input, edges)                          # warm imports and caches
        tracemalloc.start()
        try:
            out, backward = block(latent, node_input, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < src.size * 8, peak
        assert np.array_equal(out, block(latent, node_input, edges)[0])


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
    for p in model.params.values():
        p.zero_grad()
    tracemalloc.start()
    try:
        model.training_loss(batch).backward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_backward_cache_growth_per_block_has_no_float_edge_array():
    """Ten more blocks may cost ten blocks' n-row arrays (≈ 13 n·d floats each
    measured) — a float ``(E, 2d)`` array back in a block's cache (E ≈ 3.8 n
    here: 7.7 n·d floats per block) fails this; the closure test catches any dtype."""
    batch = GraphBatch.from_graphs([_graph(9, 9, seed, DSSConfig()) for seed in range(4)])
    n, d = batch.num_nodes, 10
    peaks = {k: _step_peak(DSSConfig(num_iterations=k, latent_dim=d, alpha=0.1), batch) for k in (2, 12)}
    assert (peaks[12] - peaks[2]) / 10 <= 16 * n * d * 8
