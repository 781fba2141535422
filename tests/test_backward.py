"""The hand-written backward on plain arrays, piece by piece: ``Parameter``
accumulation, the decoder's backward, the Eq. 11 gradient and the chain
:class:`~repro.gnn.loss.TrainingLoss` walks over one forward, and the
optimiser, clipping and scheduler that consume the gradients.

``test_train_forward.py`` checks the whole DSS gradient against the per-edge
reference; the tests here pin each link of the chain on its own."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from test_train_forward import finite_difference

from repro.fem import assemble_stiffness
from repro.gnn import DSS, DSSConfig, DSSTrainer, GraphBatch, TrainingConfig, graph_from_mesh, residual_loss
from repro.gnn.infer import relu_
from repro.gnn.loss import TrainingLoss
from repro.gnn.mpnn import decoder_forward, init_params
from repro.mesh import structured_rectangle_mesh
from repro.nn import Adam, Parameter, ReduceLROnPlateau, clip_grad_norm

TINY = DSSConfig(num_iterations=3, latent_dim=4, alpha=0.1, seed=2)


def _graph(nx: int = 2, ny: int = 3, seed: int = 0, with_matrix: bool = True):
    """A small graph problem with an SPD local matrix (stiffness + identity)."""
    mesh = structured_rectangle_mesh(nx, ny)
    source = np.random.default_rng(seed).normal(size=mesh.num_nodes)
    matrix = (assemble_stiffness(mesh) + sp.identity(mesh.num_nodes)).tocsr() if with_matrix else None
    return graph_from_mesh(mesh, source=source, matrix=matrix)


def _views():
    graphs = [_graph(2, 3, seed=0), _graph(3, 2, seed=1)]
    return {"graph": graphs[0], "batch": GraphBatch.from_graphs(graphs)}


class _Recorder:
    """A stand-in backward that records the cotangent it got and returns a fixed one."""

    def __init__(self, name: str, log: list, returns=None) -> None:
        self.name, self.log, self.returns, self.received = name, log, returns, None

    def __call__(self, g: np.ndarray):
        self.log.append(self.name)
        self.received = g.copy()
        return None if self.returns is None else self.returns.copy()


# --------------------------------------------------------------------------- #
# Parameter and the parameter dict
# --------------------------------------------------------------------------- #
class TestParameter:
    def test_grad_is_none_until_a_backward_adds_one(self):
        assert Parameter(np.ones(3)).grad is None

    def test_accumulate_allocates_then_adds(self):
        p = Parameter(np.zeros((2, 2)))
        p.accumulate(np.full((2, 2), 1.5))
        p.accumulate(np.full((2, 2), 0.25))
        assert np.array_equal(p.grad, np.full((2, 2), 1.75))

    def test_accumulate_copies_the_first_gradient(self):
        """``.grad`` never aliases the caller's array: a later in-place edit of it cannot leak in."""
        p, g = Parameter(np.zeros(3)), np.ones(3)
        p.accumulate(g)
        g[:] = 7.0
        assert np.array_equal(p.grad, np.ones(3))

    def test_data_is_stored_as_float64(self):
        p = Parameter(np.arange(4, dtype=np.int32))
        assert p.data.dtype == np.float64 and p.data.size == 4

    def test_zero_grad_drops_the_gradient(self):
        p = Parameter(np.zeros(2))
        p.accumulate(np.ones(2))
        p.zero_grad()
        assert p.grad is None


class TestInitParams:
    def test_every_weight_is_within_its_xavier_bound_and_every_bias_is_zero(self):
        config = DSSConfig(num_iterations=2, latent_dim=5, edge_attr_dim=4, node_input_dim=2)
        for name, p in init_params(config).items():
            if name.endswith(".bias"):
                assert p.data.ndim == 1 and not p.data.any(), name
            else:
                fan_out, fan_in = p.data.shape
                assert np.abs(p.data).max() <= np.sqrt(6.0 / (fan_in + fan_out)), name

    def test_weights_are_drawn_from_one_seeded_stream_in_key_order(self):
        """The draw order seeded models and checkpoints depend on: block k's six weights, then decoder k's two."""
        params = init_params(TINY)
        rng = np.random.default_rng(TINY.seed)
        for name, p in params.items():
            if name.endswith(".weight"):
                bound = np.sqrt(6.0 / sum(p.data.shape))
                assert np.array_equal(p.data, rng.uniform(-bound, bound, size=p.data.shape)), name

    def test_num_parameters_sums_every_array(self):
        model = DSS(TINY)
        assert model.num_parameters() == sum(p.data.size for p in model.params.values())


# --------------------------------------------------------------------------- #
# the decoder
# --------------------------------------------------------------------------- #
def _decoder(d: int, seed: int):
    """Decoder 0 of a fresh model of width ``d``: ``(decoder(latent), its four parameters in key order)``."""
    params = DSS(DSSConfig(num_iterations=1, latent_dim=d, seed=seed)).params
    decoder = [p for name, p in params.items() if name.startswith("decoder_0.")]
    return (lambda latent: decoder_forward(params, 0, latent)), decoder


def _zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


class TestDecoderBackward:
    @pytest.mark.parametrize("rows, width", [(1, 1), (7, 3), (33, 5)])
    def test_every_gradient_has_the_shape_of_its_array(self, rows, width):
        decoder, params = _decoder(width, rows)
        x = np.random.default_rng(1).normal(size=(rows, width))
        y, backward = decoder(x)
        assert y.shape == (rows, 1)
        assert backward(np.ones_like(y)).shape == x.shape
        assert all(p.grad.shape == p.data.shape for p in params)

    def test_vjp_matches_central_finite_differences(self):
        rng = np.random.default_rng(4)
        decoder, params = _decoder(4, 4)
        for p in params:
            p.data += 0.3 * rng.normal(size=p.data.shape)
        x, weights = rng.normal(size=(7, 4)), rng.normal(size=(7, 1))

        def scalar(_=None) -> float:
            return float((decoder(x)[0] * weights).sum())

        g_x = decoder(x)[1](weights)
        names = ("layer_0.weight", "layer_0.bias", "layer_1.weight", "layer_1.bias")
        for name, value, grad in [("x", x, g_x), *((name, p.data, p.grad) for name, p in zip(names, params))]:
            assert np.allclose(grad, finite_difference(scalar, value), rtol=1e-6, atol=1e-8), name

    def test_backward_is_linear_in_the_cotangent(self):
        rng = np.random.default_rng(5)
        decoder, params = _decoder(3, 5)
        x, g1, g2 = rng.normal(size=(6, 3)), rng.normal(size=(6, 1)), rng.normal(size=(6, 1))

        def grads(g):
            _zero_grads(params)
            g_x = decoder(x)[1](g)
            return [g_x] + [p.grad.copy() for p in params]

        for both, first, second in zip(grads(2.0 * g1 - 3.0 * g2), grads(g1), grads(g2)):
            assert np.allclose(both, 2.0 * first - 3.0 * second, rtol=1e-12, atol=1e-12)

    def test_backward_accumulates_into_grad(self):
        decoder, params = _decoder(2, 0)
        x, g = np.ones((4, 2)), np.ones((4, 1))
        decoder(x)[1](g)
        once = [p.grad.copy() for p in params]
        decoder(x)[1](g)
        assert all(np.array_equal(p.grad, 2.0 * first) for p, first in zip(params, once))

    def test_a_dead_hidden_layer_passes_only_the_output_bias_gradient(self):
        """With every hidden pre-activation negative the ReLU blocks the gradient to ``layer_0`` and the input."""
        decoder, (w1, b1, w2, b2) = _decoder(2, 0)
        b1.data[:] = -1e3
        g = np.full((3, 1), 0.5)
        g_x = decoder(np.ones((3, 2)))[1](g)
        assert not g_x.any()
        assert not w1.grad.any() and not b1.grad.any()
        assert not w2.grad.any()
        assert np.array_equal(b2.grad, [1.5])

    def test_forward_leaves_its_input_unchanged(self):
        x = np.random.default_rng(2).normal(size=(4, 3))
        kept = x.copy()
        decoder, _ = _decoder(3, 0)
        _, backward = decoder(x)
        backward(np.ones((4, 1)))
        assert np.array_equal(x, kept)

    def test_a_backward_still_uses_its_own_forward_after_a_later_one(self):
        """Each forward's closure keeps its own input and hidden layer, not a buffer a later call overwrites."""
        rng = np.random.default_rng(6)
        decoder, params = _decoder(3, 6)
        x1, x2, g = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 1))
        _, backward = decoder(x1)
        decoder(x2)
        late = backward(g)
        late_grads = [p.grad.copy() for p in params]
        _zero_grads(params)
        assert np.array_equal(late, decoder(x1)[1](g))
        assert all(np.array_equal(a, p.grad) for a, p in zip(late_grads, params))


# --------------------------------------------------------------------------- #
# TrainingLoss: the Eq. 11 gradient and the chain over the blocks
# --------------------------------------------------------------------------- #
class TestTrainingLossChain:
    def test_the_eq11_gradient_matches_central_finite_differences(self):
        problem = _graph(seed=4)
        u = np.random.default_rng(4).normal(size=(problem.num_nodes, 1))
        decoder = _Recorder("decoder", [])
        loss = TrainingLoss(problem)
        loss.add(u, decoder, lambda g: None)
        loss.backward()
        expected = finite_difference(lambda v: residual_loss(v, problem), u.copy())
        assert decoder.received.shape == u.shape
        assert np.allclose(decoder.received, expected, rtol=1e-6, atol=1e-9)

    def test_item_is_the_sum_of_the_added_states_losses(self):
        problem = _graph(seed=5)
        states = np.random.default_rng(5).normal(size=(3, problem.num_nodes, 1))
        loss = TrainingLoss(problem)
        for u in states:
            loss.add(u, lambda g: g, lambda g: None)
        assert loss.item() == pytest.approx(sum(residual_loss(u, problem) for u in states), rel=1e-14)

    def test_backward_walks_back_and_adds_the_next_blocks_cotangent(self):
        """Block k's cotangent is decoder k's plus block k+1's; the last block gets its decoder's alone."""
        problem = _graph(seed=6)
        n, log = problem.num_nodes, []
        rng = np.random.default_rng(6)
        from_dec = [rng.normal(size=(n, 4)) for _ in range(3)]
        from_blk = [rng.normal(size=(n, 4)) for _ in range(3)]
        decoders = [_Recorder(f"decoder_{k}", log, from_dec[k]) for k in range(3)]
        blocks = [_Recorder(f"block_{k}", log, from_blk[k]) for k in range(3)]
        loss = TrainingLoss(problem)
        for k in range(3):
            loss.add(rng.normal(size=(n, 1)), decoders[k], blocks[k])
        loss.backward()
        assert log == ["decoder_2", "block_2", "decoder_1", "block_1", "decoder_0", "block_0"]
        assert np.array_equal(blocks[2].received, from_dec[2])
        for k in range(2):
            assert np.array_equal(blocks[k].received, from_dec[k] + from_blk[k + 1])

    def test_a_problem_without_a_matrix_is_refused(self):
        with pytest.raises(ValueError, match="no matrix"):
            TrainingLoss(_graph(with_matrix=False))

    def test_a_batch_weights_each_graph_by_its_share_of_the_nodes(self):
        """Eq. 11 on a batch is one mean over all its nodes: ``Σ_i n_i/n · L_i``."""
        graphs = [_graph(2, 3, seed=7), _graph(3, 3, seed=8)]
        batch = GraphBatch.from_graphs(graphs)
        u = np.random.default_rng(7).normal(size=(batch.num_nodes, 1))
        loss = TrainingLoss(batch)
        loss.add(u, lambda g: g, lambda g: None)
        parts = np.split(u, batch.node_offsets[1:-1])
        expected = sum(g.num_nodes / batch.num_nodes * residual_loss(p, g) for p, g in zip(parts, graphs))
        assert loss.item() == pytest.approx(expected, rel=1e-13)

    def test_the_exact_solution_has_zero_loss_and_zero_gradient(self):
        problem = _graph(seed=9)
        exact = sp.linalg.spsolve(problem.matrix.tocsc(), problem.source).reshape(-1, 1)
        decoder = _Recorder("decoder", [])
        loss = TrainingLoss(problem)
        loss.add(exact, decoder, lambda g: None)
        loss.backward()
        assert loss.item() < 1e-28
        assert np.abs(decoder.received).max() < 1e-13


class TestTrainingLossOnDSS:
    def test_item_is_the_sum_of_the_intermediate_residual_losses(self):
        model, problem = DSS(TINY), _graph(seed=10)
        states = model.forward(problem, return_intermediate=True)
        assert model.training_loss(problem).item() == sum(residual_loss(u, problem) for u in states)

    def test_a_second_backward_of_a_new_loss_adds_the_same_gradient_again(self):
        model, problem = DSS(TINY), _graph(seed=11)
        model.training_loss(problem).backward()
        once = [p.grad.copy() for p in model.params.values()]
        model.training_loss(problem).backward()
        assert all(np.array_equal(p.grad, 2.0 * g) for p, g in zip(model.params.values(), once))

    @pytest.mark.parametrize("view", ["graph", "batch"])
    def test_every_parameter_gets_a_finite_gradient(self, view):
        model = DSS(TINY)
        model.training_loss(_views()[view]).backward()
        for name, p in model.params.items():
            assert p.grad is not None and p.grad.shape == p.data.shape, name
            assert np.all(np.isfinite(p.grad)), name

    @pytest.mark.parametrize("view", ["graph", "batch"])
    def test_the_gradient_matches_a_directional_finite_difference(self, view):
        """``∇L · v`` against ``(L(θ + εv) − L(θ − εv)) / 2ε`` along one random direction over all weights.

        The zero initial biases put some ReLU inputs exactly on the kink, where
        the loss has no derivative; the weights are jittered off it first.
        """
        model, problem = DSS(TINY), _views()[view]
        rng = np.random.default_rng(12)
        for p in model.params.values():
            p.data += 0.1 * rng.normal(size=p.data.shape)
        model.training_loss(problem).backward()
        directions = [rng.normal(size=p.data.shape) for p in model.params.values()]
        predicted = sum(float((p.grad * v).sum()) for p, v in zip(model.params.values(), directions))

        def loss_at(step: float) -> float:
            for p, v in zip(model.params.values(), directions):
                p.data += step * v
            value = model.training_loss(problem).item()
            for p, v in zip(model.params.values(), directions):
                p.data -= step * v
            return value

        eps = 1e-6
        assert predicted == pytest.approx((loss_at(eps) - loss_at(-eps)) / (2 * eps), rel=1e-5)


# --------------------------------------------------------------------------- #
# optimiser, clipping, scheduler
# --------------------------------------------------------------------------- #
class TestAdam:
    def test_the_first_step_moves_every_weight_by_lr_against_its_gradient(self):
        """Bias correction makes step 1 ``lr · g / (|g| + ε)``: ``lr`` per weight, against the sign of ``g``."""
        p = Parameter(np.zeros(4))
        p.grad = np.array([3.0, -0.2, 40.0, -1e-3])
        Adam([p], lr=0.05).step()
        assert np.allclose(p.data, -0.05 * np.sign(p.grad), rtol=1e-4)

    def test_a_parameter_without_gradient_is_left_untouched(self):
        p, q = Parameter(np.ones(2)), Parameter(np.ones(3))
        p.grad = np.ones(2)
        optimizer = Adam([p, q], lr=0.1)
        optimizer.step()
        assert np.array_equal(q.data, np.ones(3))
        assert not optimizer.state_dict()["slots"]["m"][1].any()

    def test_zero_grad_clears_every_parameter(self):
        params = [Parameter(np.ones(2)), Parameter(np.ones(3))]
        for p in params:
            p.grad = np.ones_like(p.data)
        Adam(params).zero_grad()
        assert all(p.grad is None for p in params)

    def test_state_from_a_different_parameter_count_is_refused(self):
        state = Adam([Parameter(np.ones(2)), Parameter(np.ones(2))]).state_dict()
        with pytest.raises(ValueError, match="parameter list"):
            Adam([Parameter(np.ones(2))]).load_state_dict(state)

    def test_state_dict_holds_copies_of_the_moments(self):
        p = Parameter(np.ones(2))
        p.grad = np.ones(2)
        optimizer = Adam([p])
        optimizer.step()
        state = optimizer.state_dict()
        state["slots"]["m"][0][:] = 99.0
        assert not np.any(optimizer.state_dict()["slots"]["m"][0] == 99.0)


class TestClipGradNorm:
    def test_a_norm_below_the_bound_is_left_alone(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        assert clip_grad_norm([p], max_norm=1.0) == pytest.approx(0.5)
        assert np.array_equal(p.grad, [0.3, 0.4])

    def test_the_norm_spans_every_parameter(self):
        p, q = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        p.grad, q.grad = np.array([3.0]), np.array([4.0])
        assert clip_grad_norm([p, q], max_norm=1.0) == pytest.approx(5.0)
        assert p.grad[0] == pytest.approx(0.6) and q.grad[0] == pytest.approx(0.8)

    def test_parameters_without_gradient_are_skipped(self):
        p, q = Parameter(np.zeros(2)), Parameter(np.zeros(2))
        p.grad = np.array([6.0, 8.0])
        assert clip_grad_norm([p, q], max_norm=5.0) == pytest.approx(10.0)
        assert q.grad is None
        assert np.allclose(p.grad, [3.0, 4.0])


class TestReduceLROnPlateau:
    def _scheduler(self, **kwargs):
        return ReduceLROnPlateau(Adam([Parameter(np.zeros(1))], lr=1.0), **kwargs)

    def test_an_improvement_within_the_threshold_counts_as_a_bad_epoch(self):
        scheduler = self._scheduler(threshold=0.1, patience=5)
        scheduler.step(1.0)
        scheduler.step(0.95)          # better, but by less than 10 %
        assert scheduler.best == 1.0 and scheduler.num_bad_epochs == 1

    def test_a_reduction_resets_the_bad_epoch_count(self):
        scheduler = self._scheduler(factor=0.5, patience=1)
        for metric in (1.0, 1.0, 1.0):
            scheduler.step(metric)
        assert scheduler.optimizer.lr == 0.5
        assert scheduler.num_reductions == 1 and scheduler.num_bad_epochs == 0

    def test_no_reduction_is_counted_at_the_floor(self):
        scheduler = self._scheduler(factor=0.5, patience=0, min_lr=1.0)
        for metric in (1.0, 1.0, 1.0):
            scheduler.step(metric)
        assert scheduler.optimizer.lr == 1.0 and scheduler.num_reductions == 0


# --------------------------------------------------------------------------- #
# training configuration, ReLU
# --------------------------------------------------------------------------- #
class TestTrainingSteps:
    @pytest.mark.parametrize("batch_size, steps", [(1, 3), (2, 2), (5, 1)])
    def test_an_epoch_takes_one_step_per_batch(self, batch_size, steps):
        trainer = DSSTrainer(DSS(TINY), TrainingConfig(epochs=1, batch_size=batch_size, shuffle=False))
        trainer.train_epoch([_graph(seed=s) for s in range(3)], np.random.default_rng(0))
        assert trainer.optimizer.state_dict()["step_count"] == steps

    def test_the_smallest_valid_config_is_accepted(self):
        config = TrainingConfig(batch_size=1, log_every=1)
        assert (config.batch_size, config.log_every) == (1, 1)


def test_relu_in_place_zeroes_negatives_and_returns_its_argument():
    x = np.array([[-2.0, 0.0, 3.0], [1e-300, -1e-300, -0.0]])
    out = relu_(x)
    assert out is x
    assert np.array_equal(x, [[0.0, 0.0, 3.0], [1e-300, 0.0, 0.0]])
