"""Neural-network module system (substitute for ``torch.nn``).

Provides a :class:`Module` base class with recursive parameter discovery,
:class:`Parameter` (a learnable array and its gradient), :class:`Linear`
layers and the model's one perceptron, :class:`MLP` — everything required by
the DSS architecture of the paper (Sec. III-B: all MLPs have one hidden layer
with ReLU).  Everything computes on plain ``numpy`` arrays: a forward returns
its output and a closure, the backward, that adds the parameter cotangents to
``Parameter.grad`` and returns the input's.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import init as init_schemes

__all__ = ["Parameter", "Module", "Linear", "MLP"]


class Parameter:
    """A learnable array ``data`` and its gradient ``grad`` (``None`` until a backward adds one)."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray) -> None:
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return self.data.size

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``.grad`` (allocated as zeros on the first call)."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None


class Module:
    """Base class for all neural-network modules.

    Sub-modules and parameters assigned as attributes are discovered
    automatically (like ``torch.nn.Module``), enabling generic optimisers,
    checkpointing and parameter counting.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- attribute bookkeeping ------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # -- parameter traversal --------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module and its sub-modules."""
        params: List[Parameter] = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def num_parameters(self) -> int:
        """Total number of scalar weights (paper Table II column 'Nb Weights')."""
        return int(sum(p.size for p in self.parameters()))

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- train / eval ----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- state dict (checkpointing) -------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping name -> array copy of every parameter."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values in place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for '{name}': {value.shape} vs {param.data.shape}")
            param.data[...] = value

    # -- call protocol ----------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine layer ``y = x Wᵀ + b`` with Xavier-uniform weights and a zero bias."""

    def __init__(self, in_features: int, out_features: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.weight = Parameter(init_schemes.xavier_uniform((out_features, in_features), rng=rng))
        self.bias = Parameter(init_schemes.zeros((out_features,)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.data.T + self.bias.data


class MLP(Module):
    """The model's one perceptron: a hidden ReLU layer ``layer_0`` and a linear output ``layer_1``.

    The paper's DSS uses exactly this MLP everywhere (Sec. III-B), with the
    hidden width equal to the latent dimension.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.layer_0 = Linear(in_features, hidden_features, rng=rng)
        self.layer_1 = Linear(hidden_features, out_features, rng=rng)
        self.layers = (self.layer_0, self.layer_1)

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """``(y, backward)``: the output and its backward, which adds the four
        parameter cotangents to ``.grad`` and returns ``∂L/∂x`` given ``g = ∂L/∂y``.

        The backward keeps ``x`` and the hidden layer ``h``; it needs nothing
        else (the ReLU's derivative is the sign of ``h``).
        """
        hidden = self.layer_0(x)
        np.maximum(hidden, 0.0, out=hidden)

        def backward(g: np.ndarray) -> np.ndarray:
            # weight cotangents as (aᵀ g)ᵀ, not gᵀ a: BLAS may round the two apart,
            # and this order is the one every training run so far was made with
            (w1, b1), (w2, b2) = ((layer.weight, layer.bias) for layer in self.layers)
            b2.accumulate(g.sum(axis=0))
            w2.accumulate((hidden.T @ g).T)
            g_hidden = g @ w2.data
            g_hidden *= hidden > 0.0
            b1.accumulate(g_hidden.sum(axis=0))
            w1.accumulate((x.T @ g_hidden).T)
            return g_hidden @ w1.data

        return self.layer_1(hidden), backward
