"""What training a DSS needs beside its hand-written backward (PyTorch substitute).

:class:`~repro.nn.optim.Parameter` (an array and its gradient),
:class:`~repro.nn.optim.Adam`, :func:`~repro.nn.optim.clip_grad_norm` and
:class:`~repro.nn.optim.ReduceLROnPlateau`.  There is no module system and no
autodiff engine: a DSS is its config plus one keyed parameter dict
(:attr:`repro.gnn.dss.DSS.params`), and its forward returns its own backward
(:mod:`repro.gnn.mpnn`, :meth:`repro.gnn.dss.DSS.training_loss`).
"""

from .optim import Adam, Parameter, ReduceLROnPlateau, clip_grad_norm

__all__ = ["Parameter", "Adam", "clip_grad_norm", "ReduceLROnPlateau"]
