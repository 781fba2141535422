"""Tests of the module system, optimisers and schedulers (repro.nn)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_train_forward import finite_difference

from repro.nn import MLP, Adam, Linear, Parameter, ReduceLROnPlateau, clip_grad_norm
from repro.nn import init as init_schemes


class TestLinearAndMLP:
    def test_linear_shapes(self):
        layer = Linear(3, 5)
        out = layer(np.ones((7, 3)))
        assert out.shape == (7, 5)

    def test_mlp_forward_shapes(self):
        mlp = MLP(4, 8, 2)
        out, _ = mlp(np.zeros((5, 4)))
        assert out.shape == (5, 2)

    def test_mlp_parameter_count_single_hidden(self):
        # one hidden layer of width h: (in*h + h) + (h*out + out)
        mlp = MLP(23, 10, 10)
        assert mlp.num_parameters() == 23 * 10 + 10 + 10 * 10 + 10

    def test_mlp_backward_matches_central_finite_differences(self):
        rng = np.random.default_rng(4)
        mlp = MLP(3, 6, 2, rng=rng)
        for p in mlp.parameters():
            p.data += 0.3 * rng.normal(size=p.data.shape)
        x, weights = rng.normal(size=(7, 3)), rng.normal(size=(7, 2))

        def scalar(_=None) -> float:
            return float((mlp(x)[0] * weights).sum())

        g_x = mlp(x)[1](weights)
        for name, value, grad in [("x", x, g_x), *((name, p.data, p.grad) for name, p in mlp.named_parameters())]:
            assert np.allclose(grad, finite_difference(scalar, value), rtol=1e-6, atol=1e-8), name

    def test_backward_accumulates_into_grad(self):
        mlp = MLP(2, 3, 1, rng=np.random.default_rng(0))
        x, g = np.ones((4, 2)), np.ones((4, 1))
        mlp(x)[1](g)
        once = [p.grad.copy() for p in mlp.parameters()]
        mlp(x)[1](g)
        assert all(np.array_equal(p.grad, 2.0 * first) for p, first in zip(mlp.parameters(), once))
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())

    def test_state_dict_roundtrip(self):
        mlp = MLP(3, 5, 2, rng=np.random.default_rng(0))
        other = MLP(3, 5, 2, rng=np.random.default_rng(99))
        x = np.random.default_rng(1).normal(size=(4, 3))
        assert not np.allclose(mlp(x)[0], other(x)[0])
        other.load_state_dict(mlp.state_dict())
        assert np.allclose(mlp(x)[0], other(x)[0])

    def test_load_state_dict_shape_mismatch(self):
        mlp = MLP(3, 5, 2)
        state = mlp.state_dict()
        state[next(iter(state))] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)

    def test_load_state_dict_missing_key(self):
        mlp = MLP(3, 5, 2)
        state = mlp.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_named_parameters_unique(self):
        mlp = MLP(3, 5, 2)
        names = [name for name, _ in mlp.named_parameters()]
        assert names == ["layer_0.weight", "layer_0.bias", "layer_1.weight", "layer_1.bias"]

    def test_train_eval_flags_propagate(self):
        model = MLP(2, 2, 1)
        model.eval()
        assert model.training is False
        assert model.layer_1.training is False
        model.train()
        assert model.layer_1.training is True


class TestInit:
    def test_xavier_uniform_bounds(self):
        rng = np.random.default_rng(0)
        w = init_schemes.xavier_uniform((50, 30), rng=rng)
        bound = np.sqrt(6.0 / 80.0)
        assert np.all(np.abs(w) <= bound + 1e-12)

    def test_zeros(self):
        assert np.all(init_schemes.zeros((3, 3)) == 0.0)


class TestOptimisers:
    def test_adam_reduces_loss(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 2))
        y = (x @ np.array([[1.5], [-0.7]])) + 0.3
        model = MLP(2, 8, 1, rng=rng)
        opt = Adam(model.parameters(), lr=0.01)
        for _ in range(200):
            opt.zero_grad()
            pred, backward = model(x)
            backward(2.0 * (pred - y) / y.size)          # ∂ mean((pred − y)²) / ∂pred
            opt.step()
        assert np.mean((model(x)[0] - y) ** 2) < 5e-2

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm_before = clip_grad_norm([p], max_norm=1.0)
        assert norm_before == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_without_gradients(self):
        p = Parameter(np.zeros(4))
        assert clip_grad_norm([p], 1.0) == 0.0


class TestSchedulers:
    def test_reduce_on_plateau_reduces(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1.0)
        sched = ReduceLROnPlateau(opt, factor=0.1, patience=2)
        sched.step(1.0)
        for _ in range(4):
            sched.step(1.0)  # no improvement
        assert opt.lr == pytest.approx(0.1)

    def test_reduce_on_plateau_keeps_lr_on_improvement(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1.0)
        sched = ReduceLROnPlateau(opt, factor=0.1, patience=2)
        for metric in [1.0, 0.9, 0.8, 0.7, 0.6]:
            sched.step(metric)
        assert opt.lr == pytest.approx(1.0)

    def test_reduce_on_plateau_min_lr(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1.0)
        sched = ReduceLROnPlateau(opt, factor=0.01, patience=0, min_lr=0.5)
        sched.step(1.0)
        sched.step(1.0)
        sched.step(1.0)
        assert opt.lr >= 0.5

    def test_reduce_on_plateau_invalid_factor(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            ReduceLROnPlateau(Adam([p], lr=1.0), factor=1.5)


class TestAdamProperty:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_adam_step_is_bounded_by_lr(self, seed):
        """A single Adam update never moves a weight by much more than lr."""
        rng = np.random.default_rng(seed)
        p = Parameter(rng.normal(size=(5,)))
        before = p.data.copy()
        p.grad = rng.normal(size=(5,)) * 100.0
        Adam([p], lr=1e-2).step()
        assert np.all(np.abs(p.data - before) <= 1.5e-2)
