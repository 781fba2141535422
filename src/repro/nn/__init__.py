"""NumPy neural-network substrate (PyTorch substitute), on plain arrays.

Public surface:

* :class:`~repro.nn.modules.Module`, :class:`~repro.nn.modules.Parameter`,
  :class:`~repro.nn.modules.Linear`, :class:`~repro.nn.modules.MLP` — the
  module system and the model's one perceptron (one hidden ReLU layer),
  whose forward returns its output and a hand-written backward.
* :class:`~repro.nn.optim.Adam`, :func:`~repro.nn.optim.clip_grad_norm` —
  the optimiser.
* :class:`~repro.nn.schedulers.ReduceLROnPlateau` — LR scheduling.
* :mod:`repro.nn.init` — Xavier-uniform weights, zero biases.

There is no autodiff engine: the DSS writes its own backward
(:mod:`repro.gnn.mpnn`, :meth:`repro.gnn.dss.DSS.training_loss`).
"""

from . import init
from .modules import MLP, Linear, Module, Parameter
from .optim import Adam, clip_grad_norm
from .schedulers import ReduceLROnPlateau

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Adam",
    "clip_grad_norm",
    "ReduceLROnPlateau",
    "init",
]
