"""Unit and property-based tests of the autodiff engine (repro.nn.tensor)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import Tensor, no_grad
from repro.nn.functional import gather, segment_sum, sparse_matvec
import scipy.sparse as sp


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
# basic forward behaviour
# --------------------------------------------------------------------------- #
class TestForward:
    def test_add_matches_numpy(self):
        a, b = np.arange(6.0).reshape(2, 3), np.ones((2, 3))
        assert np.allclose((Tensor(a) + Tensor(b)).numpy(), a + b)

    def test_scalar_broadcast(self):
        a = np.arange(4.0)
        assert np.allclose((Tensor(a) * 2.5).numpy(), a * 2.5)
        assert np.allclose((1.0 - Tensor(a)).numpy(), 1.0 - a)

    def test_matmul(self):
        a = np.random.default_rng(0).normal(size=(3, 4))
        b = np.random.default_rng(1).normal(size=(4, 2))
        assert np.allclose((Tensor(a) @ Tensor(b)).numpy(), a @ b)

    def test_relu_and_tanh(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(Tensor(x).relu().numpy(), [0.0, 0.0, 2.0])
        assert np.allclose(Tensor(x).tanh().numpy(), np.tanh(x))

    def test_sum_mean_axis(self):
        x = np.arange(12.0).reshape(3, 4)
        assert np.allclose(Tensor(x).sum(axis=0).numpy(), x.sum(axis=0))
        assert np.allclose(Tensor(x).mean(axis=1).numpy(), x.mean(axis=1))
        assert np.isclose(Tensor(x).mean().item(), x.mean())

    def test_reshape_transpose_getitem(self):
        x = np.arange(6.0).reshape(2, 3)
        assert Tensor(x).reshape(3, 2).shape == (3, 2)
        assert np.allclose(Tensor(x).T.numpy(), x.T)
        assert np.allclose(Tensor(x)[0].numpy(), x[0])

    def test_concatenate(self):
        a, b = np.ones((2, 2)), np.zeros((2, 3))
        out = Tensor.concatenate([Tensor(a), Tensor(b)], axis=1)
        assert out.shape == (2, 5)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 3).sum()
        assert y.requires_grad is False


# --------------------------------------------------------------------------- #
# gradients against finite differences
# --------------------------------------------------------------------------- #
class TestGradients:
    def _check(self, build, x0: np.ndarray, tol: float = 1e-5):
        """build(tensor) -> scalar Tensor; compares autodiff grad with FD."""
        x = Tensor(x0.copy(), requires_grad=True)
        out = build(x)
        out.backward()
        fd = finite_difference(lambda arr: build(Tensor(arr)).item(), x0.copy())
        assert np.allclose(x.grad, fd, atol=tol, rtol=1e-4)

    def test_grad_add_mul(self):
        x0 = np.random.default_rng(0).normal(size=(3, 2))
        self._check(lambda x: ((x * 3.0 + 1.0) * x).sum(), x0)

    def test_grad_div_pow(self):
        x0 = np.random.default_rng(1).normal(size=(4,)) + 3.0
        self._check(lambda x: ((x ** 2) / (x + 5.0)).sum(), x0)

    def test_grad_matmul(self):
        x0 = np.random.default_rng(2).normal(size=(3, 4))
        w = np.random.default_rng(3).normal(size=(4, 2))
        self._check(lambda x: (x @ Tensor(w)).sum(), x0)

    def test_grad_relu_tanh(self):
        x0 = np.random.default_rng(4).normal(size=(5,))
        self._check(lambda x: (x.relu() + x.tanh()).sum(), x0)

    def test_grad_mean_axis(self):
        x0 = np.random.default_rng(5).normal(size=(3, 3))
        self._check(lambda x: (x.mean(axis=0) ** 2).sum(), x0)

    def test_grad_getitem(self):
        x0 = np.random.default_rng(6).normal(size=(6,))
        self._check(lambda x: (x[2:5] * x[2:5]).sum(), x0)

    def test_grad_concatenate(self):
        x0 = np.random.default_rng(7).normal(size=(3, 2))
        self._check(lambda x: (Tensor.concatenate([x, x * 2.0], axis=1) ** 2).sum(), x0)

    def test_grad_gather_segment_sum(self):
        x0 = np.random.default_rng(8).normal(size=(5, 3))
        idx = np.array([0, 2, 2, 4, 1, 0])
        seg = np.array([0, 0, 1, 1, 2, 2])

        def build(x):
            g = gather(x, idx)
            s = segment_sum(g, seg, 3)
            return (s * s).sum()

        self._check(build, x0)

    def test_grad_sparse_matvec(self):
        rng = np.random.default_rng(9)
        dense = rng.normal(size=(6, 6))
        matrix = sp.csr_matrix(dense * (np.abs(dense) > 0.5))
        x0 = rng.normal(size=(6,))
        self._check(lambda x: (sparse_matvec(matrix, x) ** 2).sum(), x0)

    def test_grad_accumulates_over_multiple_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0
        y.sum().backward()
        assert np.isclose(x.grad[0], 2 * 2.0 + 3.0)

    def test_node_with_one_vjp_for_all_parents(self):
        """A primitive may register a single VJP returning every parent's
        cotangent; ``None`` entries and parents without grad are skipped."""
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 2)))                       # constant parent
        calls = []

        def vjp(g):
            calls.append(g)
            return g * b.data * c.data, g * a.data * c.data, g * a.data * b.data

        fused = Tensor._make(a.data * b.data * c.data, (a, b, c), vjp=vjp)
        (fused * fused).sum().backward()
        fused_grads = a.grad.copy(), b.grad.copy()
        a.zero_grad(), b.zero_grad()
        composed = a * b * c
        (composed * composed).sum().backward()
        assert len(calls) == 1 and c.grad is None
        assert np.allclose(fused_grads[0], a.grad) and np.allclose(fused_grads[1], b.grad)

        a.zero_grad(), b.zero_grad()
        Tensor._make(a.data + b.data, (a, b), vjp=lambda g: (g, None)).sum().backward()
        assert np.array_equal(a.grad, np.ones((3, 2))) and b.grad is None
        with no_grad():
            assert Tensor._make(a.data, (a,), vjp=lambda g: (g,))._vjp is None

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * x).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None


# --------------------------------------------------------------------------- #
# property-based tests
# --------------------------------------------------------------------------- #
float_arrays = arrays(
    dtype=np.float64,
    shape=array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


class TestProperties:
    @given(float_arrays)
    @settings(max_examples=40, deadline=None)
    def test_sum_linearity(self, data):
        """sum(a + a) == 2 * sum(a) in both value and gradient."""
        x = Tensor(data, requires_grad=True)
        y = (x + x).sum()
        y.backward()
        assert np.isclose(y.item(), 2.0 * data.sum(), rtol=1e-9, atol=1e-9)
        assert np.allclose(x.grad, 2.0 * np.ones_like(data))

    @given(float_arrays)
    @settings(max_examples=40, deadline=None)
    def test_relu_idempotent(self, data):
        """relu(relu(x)) == relu(x)."""
        once = Tensor(data).relu().numpy()
        twice = Tensor(once).relu().numpy()
        assert np.allclose(once, twice)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_segment_sum_conserves_total(self, rows, segments, seed):
        """Scatter-add never loses mass: total sum is preserved."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(rows, 3))
        ids = rng.integers(0, segments, size=rows)
        out = segment_sum(Tensor(data), ids, segments).numpy()
        assert np.allclose(out.sum(axis=0), data.sum(axis=0))

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_matmul_gradient_shape(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == a.shape
        assert b.grad.shape == b.shape
