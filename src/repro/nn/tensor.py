"""Minimal reverse-mode automatic differentiation engine on NumPy arrays.

This module is the substitute for PyTorch in the reproduction (see DESIGN.md,
substitution table).  It provides a :class:`Tensor` wrapper around a
``numpy.ndarray`` together with a dynamically built computation graph and a
reverse-mode :meth:`Tensor.backward` pass.

Only the operations required by the Deep Statistical Solver architecture are
implemented, but they are implemented generally (broadcasting, arbitrary
shapes) so the engine is reusable:

* elementwise arithmetic (``+ - * / **``), negation
* ``matmul`` (2-D), ``relu``, ``tanh``, ``exp``, ``log``, ``abs``
* reductions: ``sum``, ``mean`` (with ``axis`` / ``keepdims``)
* shape ops: ``reshape``, ``transpose``, ``concatenate``, slicing
* gather / scatter-add over the leading axis (``index_select`` /
  ``index_add``) — the primitives behind message passing aggregation.

The design follows the classic tape-based approach: every non-leaf tensor
stores its parent tensors and the rule mapping the output gradient to the
parents' gradients — one closure per parent for the elementary ops here, or a
single vector-Jacobian product returning every parent's cotangent at once for
a fused primitive (the DSS message-passing block, :mod:`repro.gnn.mpnn`).
Gradients are accumulated in topological order.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, "Tensor"]

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]


# --------------------------------------------------------------------------- #
# global autograd switch (mirrors torch.no_grad)
# --------------------------------------------------------------------------- #
_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Return whether autograd graph recording is currently enabled."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that its shape matches ``shape`` (inverse of broadcast)."""
    if grad.shape == shape:
        return grad
    # sum over extra leading dimensions
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum over broadcast dimensions (size 1 in original shape)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _scatter_add_rows(values: np.ndarray, index: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum rows of ``values`` into ``num_rows`` bins given by ``index``.

    ``np.add.at`` is correct but slow; per-column ``np.bincount`` is an order
    of magnitude faster for the (rows, few-columns) arrays used by message
    passing, and falls back to ``np.add.at`` for higher-dimensional data.
    """
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=num_rows)
    if values.ndim == 2:
        out = np.empty((num_rows, values.shape[1]))
        for col in range(values.shape[1]):
            out[:, col] = np.bincount(index, weights=values[:, col], minlength=num_rows)
        return out
    result = np.zeros((num_rows,) + values.shape[1:])
    np.add.at(result, index, values)
    return result


class Tensor:
    """A NumPy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like holding the value.  Stored as ``float64``.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` for this tensor
        during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fns", "_vjp", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = "") -> None:
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: Tuple["Tensor", ...] = ()
        self._backward_fns: Tuple[Callable[[np.ndarray], np.ndarray], ...] = ()
        self._vjp: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None
        self.name = name

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(shape: Sequence[int], requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape: Sequence[int], requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def from_numpy(array: np.ndarray, requires_grad: bool = False) -> "Tensor":
        return Tensor(array, requires_grad=requires_grad)

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing the same data, cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------------ #
    # graph construction
    # ------------------------------------------------------------------ #
    def _needs_graph(self, *others: "Tensor") -> bool:
        if not _GRAD_ENABLED:
            return False
        return self.requires_grad or any(o.requires_grad for o in others)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fns: Sequence[Callable[[np.ndarray], np.ndarray]] = (),
        vjp: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None,
    ) -> "Tensor":
        """Create a non-leaf tensor recording its parents and backward rules.

        The rules are either one closure per parent (``backward_fns``) or a
        single ``vjp`` mapping the output gradient to the cotangents of *all*
        parents in order (``None`` where a parent needs none) — a primitive
        with many parents then costs one backward call sharing its
        intermediates, not one closure per parent recomputing them.
        """
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fns = tuple(backward_fns)
            out._vjp = vjp
        return out

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data
        return Tensor._make(
            data,
            (self, other_t),
            (
                lambda g, s=self.shape: _unbroadcast(g, s),
                lambda g, s=other_t.shape: _unbroadcast(g, s),
            ),
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), (lambda g: -g,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data
        return Tensor._make(
            data,
            (self, other_t),
            (
                lambda g, s=self.shape: _unbroadcast(g, s),
                lambda g, s=other_t.shape: _unbroadcast(-g, s),
            ),
        )

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data
        return Tensor._make(
            data,
            (self, other_t),
            (
                lambda g, o=other_t.data, s=self.shape: _unbroadcast(g * o, s),
                lambda g, o=self.data, s=other_t.shape: _unbroadcast(g * o, s),
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data
        return Tensor._make(
            data,
            (self, other_t),
            (
                lambda g, o=other_t.data, s=self.shape: _unbroadcast(g / o, s),
                lambda g, a=self.data, o=other_t.data, s=other_t.shape: _unbroadcast(
                    -g * a / (o * o), s
                ),
            ),
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data ** exponent
        return Tensor._make(
            data,
            (self,),
            (lambda g, a=self.data, p=exponent: g * p * a ** (p - 1),),
        )

    def matmul(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data
        return Tensor._make(
            data,
            (self, other_t),
            (
                lambda g, b=other_t.data: g @ b.T,
                lambda g, a=self.data: a.T @ g,
            ),
        )

    __matmul__ = matmul

    # ------------------------------------------------------------------ #
    # nonlinearities
    # ------------------------------------------------------------------ #
    def relu(self) -> "Tensor":
        mask = self.data > 0.0
        return Tensor._make(self.data * mask, (self,), (lambda g, m=mask: g * m,))

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        return Tensor._make(out, (self,), (lambda g, o=out: g * (1.0 - o * o),))

    def sigmoid(self) -> "Tensor":
        out = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._make(out, (self,), (lambda g, o=out: g * o * (1.0 - o),))

    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        return Tensor._make(out, (self,), (lambda g, o=out: g * o,))

    def log(self) -> "Tensor":
        return Tensor._make(np.log(self.data), (self,), (lambda g, a=self.data: g / a,))

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        return Tensor._make(np.abs(self.data), (self,), (lambda g, s=sign: g * s,))

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)
        return Tensor._make(out, (self,), (lambda g, o=out: g * 0.5 / o,))

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray, a_shape=self.shape, ax=axis, kd=keepdims) -> np.ndarray:
            g = np.asarray(g)
            if ax is not None and not kd:
                g = np.expand_dims(g, ax)
            return np.broadcast_to(g, a_shape).copy()

        return Tensor._make(data, (self,), (backward,))

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        return Tensor._make(data, (self,), (lambda g, s=self.shape: g.reshape(s),))

    def transpose(self) -> "Tensor":
        return Tensor._make(self.data.T, (self,), (lambda g: g.T,))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def backward(g: np.ndarray, k=key, shape=self.shape) -> np.ndarray:
            full = np.zeros(shape)
            np.add.at(full, k, g)
            return full

        return Tensor._make(data, (self,), (backward,))

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        arrays = [t.data for t in tensors]
        data = np.concatenate(arrays, axis=axis)
        # compute split points to route gradient slices back to parents
        sizes = [a.shape[axis] for a in arrays]
        offsets = np.cumsum([0] + sizes)

        def make_backward(i: int) -> Callable[[np.ndarray], np.ndarray]:
            def backward(g: np.ndarray) -> np.ndarray:
                slicer = [slice(None)] * g.ndim
                slicer[axis] = slice(offsets[i], offsets[i + 1])
                return g[tuple(slicer)]

            return backward

        return Tensor._make(data, tuple(tensors), tuple(make_backward(i) for i in range(len(tensors))))

    # ------------------------------------------------------------------ #
    # gather / scatter (message-passing primitives)
    # ------------------------------------------------------------------ #
    def index_select(self, index: np.ndarray) -> "Tensor":
        """Gather rows of a 2-D (or 1-D) tensor along the leading axis."""
        index = np.asarray(index, dtype=np.int64)
        data = self.data[index]
        num_rows = self.data.shape[0]

        def backward(g: np.ndarray, idx=index, n=num_rows, shape=self.shape) -> np.ndarray:
            return _scatter_add_rows(g, idx, n).reshape(shape)

        return Tensor._make(data, (self,), (backward,))

    def index_add(self, index: np.ndarray, num_segments: int) -> "Tensor":
        """Scatter-add rows into ``num_segments`` bins along the leading axis.

        Equivalent to PyG's ``scatter(src, index, dim=0, reduce='sum')`` with a
        known output size: ``out[s] = sum_{j : index[j] == s} self[j]``.
        """
        index = np.asarray(index, dtype=np.int64)
        data = _scatter_add_rows(self.data, index, num_segments)

        def backward(g: np.ndarray, idx=index) -> np.ndarray:
            return g[idx]

        return Tensor._make(data, (self,), (backward,))

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to 1 for scalar outputs (the usual loss case).
        Gradients are accumulated into ``.grad`` of every reachable leaf with
        ``requires_grad=True``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient only valid for scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # topological ordering of the graph (iterative DFS to avoid recursion limits)
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and not node._parents:
                # leaf: accumulate
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += node_grad
            if node._vjp is not None:
                contributions = node._vjp(node_grad)
            else:
                contributions = [
                    fn(node_grad) if parent.requires_grad else None
                    for parent, fn in zip(node._parents, node._backward_fns)
                ]
            for parent, contribution in zip(node._parents, contributions):
                if contribution is None or not parent.requires_grad:
                    continue
                existing = grads.get(id(parent))
                if existing is None:
                    grads[id(parent)] = contribution
                else:
                    grads[id(parent)] = existing + contribution

    def zero_grad(self) -> None:
        self.grad = None
