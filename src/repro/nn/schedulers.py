"""Learning-rate scheduling.

The paper uses PyTorch's ``ReduceLROnPlateau`` with a reduction factor of 0.1.
"""

from __future__ import annotations

from typing import Dict

from .optim import Adam

__all__ = ["ReduceLROnPlateau"]


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

    def load_state_dict(self, state: Dict) -> None:
        if state.get("type") != type(self).__name__:
            raise ValueError(f"scheduler state is for '{state.get('type')}', not '{type(self).__name__}'")
        self.factor = float(state["factor"])
        self.patience = int(state["patience"])
        self.threshold = float(state["threshold"])
        self.min_lr = float(state["min_lr"])
        self.best = float(state["best"])
        self.num_bad_epochs = int(state["num_bad_epochs"])
        self.num_reductions = int(state["num_reductions"])

