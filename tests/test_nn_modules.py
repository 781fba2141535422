"""Tests of the optimiser, gradient clipping and the scheduler (repro.nn)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Adam, Parameter, ReduceLROnPlateau, clip_grad_norm


class TestOptimisers:
    def test_adam_reduces_loss(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 2))
        y = (x @ np.array([[1.5], [-0.7]])) + 0.3
        weight, bias = Parameter(rng.normal(size=(1, 2))), Parameter(np.zeros(1))
        opt = Adam([weight, bias], lr=0.05)
        for _ in range(200):
            opt.zero_grad()
            g = 2.0 * (x @ weight.data.T + bias.data - y) / y.size   # ∂ mean((pred − y)²) / ∂pred
            weight.accumulate(g.T @ x)
            bias.accumulate(g.sum(axis=0))
            opt.step()
        assert np.mean((x @ weight.data.T + bias.data - y) ** 2) < 5e-2

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
