"""Parameters, the optimiser, gradient clipping and LR scheduling (substitute for ``torch.optim``).

The paper trains DSS with Adam (lr=1e-2), gradient clipping at 1e-2 and a
``ReduceLROnPlateau`` scheduler with a reduction factor of 0.1.  A state to
load comes from a checkpoint, from outside the program: ``prepare_load``
checks all of it and returns the call that writes it, so that a restore of
several objects checks them all before its first write.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["Parameter", "Adam", "clip_grad_norm", "ReduceLROnPlateau"]


class Parameter:
    """A learnable array ``data`` and its gradient ``grad`` (``None`` until a backward adds one)."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray) -> None:
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``.grad`` (allocated as zeros on the first call)."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Clip the global L2 norm of all gradients to ``max_norm`` (in place).

    Returns the norm before clipping (useful for logging), mirroring
    ``torch.nn.utils.clip_grad_norm_``.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total_norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if total_norm > max_norm and total_norm > 0.0:
        scale = max_norm / total_norm
        for g in grads:
            g *= scale
    return total_norm


class Adam:
    """Adam optimiser (Kingma & Ba, 2015) with bias correction: ``zero_grad`` + ``step``."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-2,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimiser received no parameters")
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias_c1 = 1.0 - self.beta1 ** t
        bias_c2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            m_hat = m / bias_c1
            v_hat = v / bias_c2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    # -- state dict (checkpointing) -----------------------------------------
    def state_dict(self) -> Dict:
        """Serialisable optimiser state: scalars + per-parameter moment arrays.

        The moment arrays are listed in the order of ``self.parameters``,
        which matches ``DSS.params`` when the optimiser was built from
        ``model.params.values()``.
        """
        return {
            "type": type(self).__name__,
            "lr": self.lr,
            "slots": {"m": [m.copy() for m in self._m], "v": [v.copy() for v in self._v]},
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "step_count": self._step_count,
        }

    def prepare_load(self, state: Dict) -> Callable[[], None]:
        """Check ``state`` (from :meth:`state_dict`) in full and return the call that writes it.

        Refused with ``ValueError``: another optimiser's ``type``, a non-zero
        ``weight_decay`` (a state written with weight decay cannot resume
        here), slots other than exactly ``m`` and ``v``, and a slot whose
        count or shapes do not match the parameter list.
        """
        if state.get("type") != type(self).__name__:
            raise ValueError(f"optimizer state is for '{state.get('type')}', not '{type(self).__name__}'")
        if float(state.get("weight_decay", 0.0)) != 0.0:
            raise ValueError(f"optimizer state has weight_decay={state['weight_decay']}; this Adam has no weight decay")
        if sorted(state.get("slots", {})) != ["m", "v"]:
            raise ValueError(f"optimizer slots {sorted(state.get('slots', {}))} are not ['m', 'v']")
        slots: Dict[str, List[np.ndarray]] = {}
        for name, arrays in state["slots"].items():
            if len(arrays) != len(self.parameters):
                raise ValueError(f"optimizer slot '{name}' does not match the parameter list")
            slots[name] = [np.asarray(value, dtype=np.float64) for value in arrays]
            for value, p in zip(slots[name], self.parameters):
                if value.shape != p.data.shape:
                    raise ValueError(f"optimizer slot '{name}' shape mismatch: {value.shape} vs {p.data.shape}")
        scalars = (float(state["lr"]), float(state["beta1"]), float(state["beta2"]),
                   float(state["eps"]), int(state["step_count"]))

        def commit() -> None:
            self.lr, self.beta1, self.beta2, self.eps, self._step_count = scalars
            for name, arrays in slots.items():
                for buf, value in zip(getattr(self, f"_{name}"), arrays):
                    buf[...] = value

        return commit

    def load_state_dict(self, state: Dict) -> None:
        """Restore state produced by :meth:`state_dict`: all of it, or, when any of it is refused, none."""
        self.prepare_load(state)()


class ReduceLROnPlateau:
    """Reduce the learning rate when a monitored metric stops improving.

    Parameters
    ----------
    optimizer:
        The optimiser whose ``lr`` is adjusted in place.
    factor:
        Multiplicative factor applied to the learning rate on plateau.
    patience:
        Number of epochs with no improvement before reducing.
    threshold:
        Minimum relative improvement to count as an improvement.
    min_lr:
        Lower bound on the learning rate.
    """

    def __init__(
        self,
        optimizer: Adam,
        factor: float = 0.1,
        patience: int = 10,
        threshold: float = 1e-4,
        min_lr: float = 0.0,
    ) -> None:
        if not (0.0 < factor < 1.0):
            raise ValueError("factor must lie in (0, 1)")
        self.optimizer = optimizer
        self.factor = factor
        self.patience = patience
        self.threshold = threshold
        self.min_lr = min_lr
        self.best = float("inf")
        self.num_bad_epochs = 0
        self.num_reductions = 0

    def step(self, metric: float) -> None:
        """Record the latest value of the monitored metric (lower is better)."""
        if metric < self.best * (1.0 - self.threshold):
            self.best = metric
            self.num_bad_epochs = 0
        else:
            self.num_bad_epochs += 1
            if self.num_bad_epochs > self.patience:
                new_lr = max(self.optimizer.lr * self.factor, self.min_lr)
                if new_lr < self.optimizer.lr:
                    self.optimizer.lr = new_lr
                    self.num_reductions += 1
                self.num_bad_epochs = 0

    # -- state dict (checkpointing) -----------------------------------------
    def state_dict(self) -> Dict:
        """Serialisable scheduler state (the monitored-metric bookkeeping)."""
        return {
            "type": type(self).__name__,
            "factor": self.factor,
            "patience": self.patience,
            "threshold": self.threshold,
            "min_lr": self.min_lr,
            "best": self.best,
            "num_bad_epochs": self.num_bad_epochs,
            "num_reductions": self.num_reductions,
        }

    def prepare_load(self, state: Dict) -> Callable[[], None]:
        """Check ``state`` (from :meth:`state_dict`) in full and return the call that writes it."""
        if state.get("type") != type(self).__name__:
            raise ValueError(f"scheduler state is for '{state.get('type')}', not '{type(self).__name__}'")
        values = (float(state["factor"]), int(state["patience"]), float(state["threshold"]),
                  float(state["min_lr"]), float(state["best"]), int(state["num_bad_epochs"]),
                  int(state["num_reductions"]))

        def commit() -> None:
            (self.factor, self.patience, self.threshold, self.min_lr, self.best,
             self.num_bad_epochs, self.num_reductions) = values

        return commit

    def load_state_dict(self, state: Dict) -> None:
        self.prepare_load(state)()
