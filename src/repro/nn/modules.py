"""Neural-network module system (substitute for ``torch.nn``).

Provides a :class:`Module` base class with recursive parameter discovery,
:class:`Linear` layers, multi-layer perceptrons (:class:`MLP`) and a
:class:`Sequential` container — everything required by the DSS architecture
of the paper (Sec. III-B: all MLPs have one hidden layer with ReLU).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import init as init_schemes
from .functional import linear, relu, tanh
from .tensor import Tensor

__all__ = ["Parameter", "Module", "Linear", "MLP", "Sequential", "Identity"]


class Parameter(Tensor):
    """A tensor flagged as a learnable parameter (``requires_grad=True``)."""

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


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


class Identity(Module):
    """A no-op module, occasionally useful as a placeholder."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with Xavier-uniform initialised weights."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = rng if rng is not None else np.random.default_rng()
        self.weight = Parameter(init_schemes.xavier_uniform((out_features, in_features), rng=rng), name="weight")
        if bias:
            self.bias: Optional[Parameter] = Parameter(init_schemes.zeros((out_features,)), name="bias")
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


_ACTIVATIONS = {
    "relu": relu,
    "tanh": tanh,
    "none": lambda x: x,
}


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    The paper's DSS uses MLPs with exactly one hidden layer of width equal to
    the latent dimension and ReLU activations; this class supports an
    arbitrary list of hidden widths so the same code serves ablations.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: Sequence[int],
        out_features: int,
        activation: str = "relu",
        final_activation: str = "none",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if activation not in _ACTIVATIONS or final_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation; choose from {sorted(_ACTIVATIONS)}")
        self.activation = activation
        self.final_activation = final_activation
        rng = rng if rng is not None else np.random.default_rng()

        dims = [in_features, *hidden_features, out_features]
        self.layers: List[Linear] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layer = Linear(d_in, d_out, rng=rng)
            setattr(self, f"layer_{i}", layer)
            self.layers.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        act = _ACTIVATIONS[self.activation]
        final_act = _ACTIVATIONS[self.final_activation]
        for layer in self.layers[:-1]:
            x = act(layer(x))
        return final_act(self.layers[-1](x))


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._sequence: List[Module] = []
        for i, module in enumerate(modules):
            setattr(self, f"module_{i}", module)
            self._sequence.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._sequence:
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self._sequence)

    def __getitem__(self, index: int) -> Module:
        return self._sequence[index]
