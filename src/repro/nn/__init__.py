"""NumPy-based neural-network substrate (PyTorch substitute).

Public surface:

* :class:`~repro.nn.tensor.Tensor`, :class:`~repro.nn.tensor.no_grad` —
  reverse-mode autodiff on NumPy arrays: general ops with one backward
  closure per parent, and fused primitives that register a single
  vector-Jacobian product for all their parents (the DSS block in
  :mod:`repro.gnn.mpnn`).
* :class:`~repro.nn.modules.Module`, :class:`~repro.nn.modules.Linear`,
  :class:`~repro.nn.modules.MLP`, :class:`~repro.nn.modules.Sequential`,
  :class:`~repro.nn.modules.Parameter` — module system.
* :class:`~repro.nn.optim.Adam`, :class:`~repro.nn.optim.SGD`,
  :func:`~repro.nn.optim.clip_grad_norm` — optimisers.
* :class:`~repro.nn.schedulers.ReduceLROnPlateau` — LR scheduling.
* :mod:`repro.nn.functional` — functional ops (segment_sum, gather,
  sparse_matvec, ...) and the in-place raw-array ``relu_``.
* :mod:`repro.nn.init` — Xavier & co.
"""

from . import functional, init
from .modules import MLP, Identity, Linear, Module, Parameter, Sequential
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .schedulers import ReduceLROnPlateau, StepLR
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Sequential",
    "Identity",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "ReduceLROnPlateau",
    "StepLR",
    "functional",
    "init",
]
