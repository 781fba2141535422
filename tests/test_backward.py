"""The hand-written backward on plain arrays, piece by piece: ``Parameter``
accumulation, the MLP's backward, the Eq. 11 gradient and the chain
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
from repro.mesh import structured_rectangle_mesh
from repro.nn import MLP, Adam, Linear, Module, Parameter, ReduceLROnPlateau, clip_grad_norm
from repro.nn import init as init_schemes

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
# Parameter and Module
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
        assert p.data.dtype == np.float64 and p.size == 4

    def test_zero_grad_drops_the_gradient(self):
        p = Parameter(np.zeros(2))
        p.accumulate(np.ones(2))
        p.zero_grad()
        assert p.grad is None


class _Pair(Module):
    def __init__(self) -> None:
        super().__init__()
        self.scale = Parameter(np.ones(2))
        self.body = MLP(2, 3, 1, rng=np.random.default_rng(0))


class TestModuleTraversal:
    def test_nested_parameters_are_found_in_assignment_order(self):
        names = [name for name, _ in _Pair().named_parameters()]
        assert names == ["scale", "body.layer_0.weight", "body.layer_0.bias", "body.layer_1.weight", "body.layer_1.bias"]

    def test_num_parameters_sums_every_array(self):
        assert _Pair().num_parameters() == 2 + (2 * 3 + 3) + (3 * 1 + 1)


# --------------------------------------------------------------------------- #
# Linear and MLP
# --------------------------------------------------------------------------- #
class TestLinear:
    def test_forward_is_the_affine_map(self):
        rng = np.random.default_rng(3)
        layer = Linear(3, 2, rng=rng)
        layer.bias.data[:] = rng.normal(size=2)
        x = rng.normal(size=(5, 3))
        assert np.array_equal(layer(x), x @ layer.weight.data.T + layer.bias.data)

    def test_weight_is_xavier_uniform_and_bias_is_zero(self):
        layer = Linear(30, 50, rng=np.random.default_rng(0))
        assert layer.weight.data.shape == (50, 30)
        assert np.all(np.abs(layer.weight.data) <= np.sqrt(6.0 / 80.0))
        assert np.array_equal(layer.bias.data, np.zeros(50))


class TestMLPBackward:
    @pytest.mark.parametrize("rows, width_in, hidden, width_out", [(1, 2, 3, 1), (7, 3, 6, 2), (33, 5, 4, 5)])
    def test_every_gradient_has_the_shape_of_its_array(self, rows, width_in, hidden, width_out):
        mlp = MLP(width_in, hidden, width_out, rng=np.random.default_rng(rows))
        x = np.random.default_rng(1).normal(size=(rows, width_in))
        y, backward = mlp(x)
        assert y.shape == (rows, width_out)
        assert backward(np.ones_like(y)).shape == x.shape
        assert all(p.grad.shape == p.data.shape for p in mlp.parameters())

    def test_backward_is_linear_in_the_cotangent(self):
        rng = np.random.default_rng(5)
        mlp = MLP(3, 8, 2, rng=rng)
        x, g1, g2 = rng.normal(size=(6, 3)), rng.normal(size=(6, 2)), rng.normal(size=(6, 2))

        def grads(g):
            mlp.zero_grad()
            g_x = mlp(x)[1](g)
            return [g_x] + [p.grad.copy() for p in mlp.parameters()]

        for both, first, second in zip(grads(2.0 * g1 - 3.0 * g2), grads(g1), grads(g2)):
            assert np.allclose(both, 2.0 * first - 3.0 * second, rtol=1e-12, atol=1e-12)

    def test_a_dead_hidden_layer_passes_only_the_output_bias_gradient(self):
        """With every hidden pre-activation negative the ReLU blocks the gradient to ``layer_0`` and the input."""
        mlp = MLP(2, 4, 1, rng=np.random.default_rng(0))
        mlp.layer_0.bias.data[:] = -1e3
        g = np.full((3, 1), 0.5)
        g_x = mlp(np.ones((3, 2)))[1](g)
        assert not g_x.any()
        assert not mlp.layer_0.weight.grad.any() and not mlp.layer_0.bias.grad.any()
        assert not mlp.layer_1.weight.grad.any()
        assert np.array_equal(mlp.layer_1.bias.grad, [1.5])

    def test_forward_leaves_its_input_unchanged(self):
        x = np.random.default_rng(2).normal(size=(4, 3))
        kept = x.copy()
        _, backward = MLP(3, 5, 2, rng=np.random.default_rng(0))(x)
        backward(np.ones((4, 2)))
        assert np.array_equal(x, kept)

    def test_a_backward_still_uses_its_own_forward_after_a_later_one(self):
        """Each forward's closure keeps its own input and hidden layer, not a buffer a later call overwrites."""
        rng = np.random.default_rng(6)
        mlp = MLP(3, 5, 2, rng=rng)
        x1, x2, g = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        _, backward = mlp(x1)
        mlp(x2)
        late = backward(g)
        late_grads = [p.grad.copy() for p in mlp.parameters()]
        mlp.zero_grad()
        assert np.array_equal(late, mlp(x1)[1](g))
        assert all(np.array_equal(a, p.grad) for a, p in zip(late_grads, mlp.parameters()))

    def test_seeded_construction_draws_layer_0_before_layer_1(self):
        """The Xavier draw order seeded models and checkpoints depend on."""
        mlp = MLP(3, 5, 2, rng=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        assert np.array_equal(mlp.layer_0.weight.data, init_schemes.xavier_uniform((5, 3), rng=rng))
        assert np.array_equal(mlp.layer_1.weight.data, init_schemes.xavier_uniform((2, 5), rng=rng))


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
        once = [p.grad.copy() for p in model.parameters()]
        model.training_loss(problem).backward()
        assert all(np.array_equal(p.grad, 2.0 * g) for p, g in zip(model.parameters(), once))

    @pytest.mark.parametrize("view", ["graph", "batch"])
    def test_every_parameter_gets_a_finite_gradient(self, view):
        model = DSS(TINY)
        model.training_loss(_views()[view]).backward()
        for name, p in model.named_parameters():
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
        for p in model.parameters():
            p.data += 0.1 * rng.normal(size=p.data.shape)
        model.training_loss(problem).backward()
        directions = [rng.normal(size=p.data.shape) for p in model.parameters()]
        predicted = sum(float((p.grad * v).sum()) for p, v in zip(model.parameters(), directions))

        def loss_at(step: float) -> float:
            for p, v in zip(model.parameters(), directions):
                p.data += step * v
            value = model.training_loss(problem).item()
            for p, v in zip(model.parameters(), directions):
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

    def test_weight_decay_is_added_to_the_gradient(self):
        data, grad = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.1, -0.4])
        decayed, plain = Parameter(data.copy()), Parameter(data.copy())
        decayed.grad, plain.grad = grad.copy(), grad + 0.1 * data
        Adam([decayed], lr=0.01, weight_decay=0.1).step()
        Adam([plain], lr=0.01).step()
        assert np.array_equal(decayed.data, plain.data)

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
# training configuration, ReLU, initialisers
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


class TestInit:
    def test_xavier_uniform_gain_scales_the_bound(self):
        w = init_schemes.xavier_uniform((40, 60), gain=2.0, rng=np.random.default_rng(0))
        bound = 2.0 * np.sqrt(6.0 / 100.0)
        assert np.abs(w).max() <= bound and np.abs(w).max() > 0.9 * bound

    def test_xavier_uniform_is_reproducible_from_a_seed(self):
        draw = lambda: init_schemes.xavier_uniform((3, 4), rng=np.random.default_rng(8))  # noqa: E731
        assert np.array_equal(draw(), draw())
