"""Tests of the module system, optimisers and schedulers (repro.nn)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    MLP,
    Adam,
    Linear,
    Parameter,
    ReduceLROnPlateau,
    SGD,
    Sequential,
    StepLR,
    Tensor,
    clip_grad_norm,
)
from repro.nn import init as init_schemes


class TestLinearAndMLP:
    def test_linear_shapes(self):
        layer = Linear(3, 5)
        out = layer(Tensor(np.ones((7, 3))))
        assert out.shape == (7, 5)

    def test_linear_no_bias(self):
        layer = Linear(3, 5, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_mlp_forward_shapes(self):
        mlp = MLP(4, [8, 8], 2)
        out = mlp(Tensor(np.zeros((5, 4))))
        assert out.shape == (5, 2)

    def test_mlp_parameter_count_single_hidden(self):
        # one hidden layer of width h: (in*h + h) + (h*out + out)
        mlp = MLP(23, [10], 10)
        assert mlp.num_parameters() == 23 * 10 + 10 + 10 * 10 + 10

    def test_mlp_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            MLP(2, [2], 1, activation="swish")

    def test_sequential(self):
        model = Sequential(Linear(3, 4), Linear(4, 2))
        assert len(model) == 2
        assert model(Tensor(np.ones((1, 3)))).shape == (1, 2)
        assert isinstance(model[0], Linear)

    def test_state_dict_roundtrip(self):
        mlp = MLP(3, [5], 2, rng=np.random.default_rng(0))
        other = MLP(3, [5], 2, rng=np.random.default_rng(99))
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        assert not np.allclose(mlp(x).numpy(), other(x).numpy())
        other.load_state_dict(mlp.state_dict())
        assert np.allclose(mlp(x).numpy(), other(x).numpy())

    def test_load_state_dict_shape_mismatch(self):
        mlp = MLP(3, [5], 2)
        state = mlp.state_dict()
        state[next(iter(state))] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)

    def test_load_state_dict_missing_key(self):
        mlp = MLP(3, [5], 2)
        state = mlp.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_named_parameters_unique(self):
        mlp = MLP(3, [5, 5], 2)
        names = [name for name, _ in mlp.named_parameters()]
        assert len(names) == len(set(names))

    def test_train_eval_flags_propagate(self):
        model = Sequential(Linear(2, 2), MLP(2, [2], 1))
        model.eval()
        assert model.training is False
        assert model[1].training is False
        model.train()
        assert model[1].training is True


class TestInit:
    def test_xavier_uniform_bounds(self):
        rng = np.random.default_rng(0)
        w = init_schemes.xavier_uniform((50, 30), rng=rng)
        bound = np.sqrt(6.0 / 80.0)
        assert np.all(np.abs(w) <= bound + 1e-12)

    def test_xavier_normal_std(self):
        rng = np.random.default_rng(0)
        w = init_schemes.xavier_normal((400, 400), rng=rng)
        assert abs(w.std() - np.sqrt(2.0 / 800.0)) < 5e-4

    def test_zeros_and_constant(self):
        assert np.all(init_schemes.zeros((3, 3)) == 0.0)
        assert np.all(init_schemes.constant((2,), 4.5) == 4.5)


def _quadratic_loss(model: MLP, x: np.ndarray, y: np.ndarray) -> Tensor:
    pred = model(Tensor(x))
    diff = pred - Tensor(y)
    return (diff * diff).mean()


class TestOptimisers:
    def _fit(self, optimiser_cls, **kwargs) -> float:
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 2))
        y = (x @ np.array([[1.5], [-0.7]])) + 0.3
        model = MLP(2, [8], 1, rng=rng)
        opt = optimiser_cls(model.parameters(), **kwargs)
        for _ in range(200):
            opt.zero_grad()
            loss = _quadratic_loss(model, x, y)
            loss.backward()
            opt.step()
        return _quadratic_loss(model, x, y).item()

    def test_sgd_reduces_loss(self):
        assert self._fit(SGD, lr=0.05) < 1e-2

    def test_sgd_momentum_reduces_loss(self):
        assert self._fit(SGD, lr=0.02, momentum=0.9) < 1e-2

    def test_adam_reduces_loss(self):
        assert self._fit(Adam, lr=0.01) < 5e-2

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm_before = clip_grad_norm([p], max_norm=1.0)
        assert norm_before == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_no_grads(self):
        p = Parameter(np.zeros(4))
        assert clip_grad_norm([p], 1.0) == 0.0


class TestSchedulers:
    def test_reduce_on_plateau_reduces(self):
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=1.0)
        sched = ReduceLROnPlateau(opt, factor=0.1, patience=2)
        sched.step(1.0)
        for _ in range(4):
            sched.step(1.0)  # no improvement
        assert opt.lr == pytest.approx(0.1)

    def test_reduce_on_plateau_keeps_lr_on_improvement(self):
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=1.0)
        sched = ReduceLROnPlateau(opt, factor=0.1, patience=2)
        for metric in [1.0, 0.9, 0.8, 0.7, 0.6]:
            sched.step(metric)
        assert opt.lr == pytest.approx(1.0)

    def test_reduce_on_plateau_min_lr(self):
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=1.0)
        sched = ReduceLROnPlateau(opt, factor=0.01, patience=0, min_lr=0.5)
        sched.step(1.0)
        sched.step(1.0)
        sched.step(1.0)
        assert opt.lr >= 0.5

    def test_reduce_on_plateau_invalid_factor(self):
        p = Parameter(np.zeros(1))
        with pytest.raises(ValueError):
            ReduceLROnPlateau(SGD([p], lr=1.0), factor=1.5)

    def test_step_lr(self):
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.5)
        sched.step()
        assert opt.lr == pytest.approx(1.0)
        sched.step()
        assert opt.lr == pytest.approx(0.5)


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
