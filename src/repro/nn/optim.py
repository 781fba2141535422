"""Optimiser and gradient clipping (substitute for ``torch.optim``).

The paper trains DSS with Adam (lr=1e-2), gradient clipping at 1e-2 and a
``ReduceLROnPlateau`` scheduler (:mod:`repro.nn.schedulers`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from .modules import Parameter

__all__ = ["Adam", "clip_grad_norm"]


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
        weight_decay: float = 0.0,
    ) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimiser received no parameters")
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
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
            grad = p.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias_c1
            v_hat = v / bias_c2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    # -- state dict (checkpointing) -----------------------------------------
    def state_dict(self) -> Dict:
        """Serialisable optimiser state: scalars + per-parameter moment arrays.

        The moment arrays are listed in the order of ``self.parameters``,
        which matches ``Module.named_parameters`` when the optimiser was built
        from ``model.parameters()``.
        """
        return {
            "type": type(self).__name__,
            "lr": self.lr,
            "slots": {"m": [m.copy() for m in self._m], "v": [v.copy() for v in self._v]},
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "step_count": self._step_count,
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore state produced by :meth:`state_dict` (type and shapes must match).

        The state comes from a checkpoint file, i.e. from outside the program,
        so its ``type`` is checked before anything is read.
        """
        if state.get("type") != type(self).__name__:
            raise ValueError(
                f"optimizer state is for '{state.get('type')}', not '{type(self).__name__}'"
            )
        self.lr = float(state["lr"])
        for name, arrays in state.get("slots", {}).items():
            target = getattr(self, f"_{name}", None)
            if target is None or len(arrays) != len(self.parameters):
                raise ValueError(f"optimizer slot '{name}' does not match the parameter list")
            for buf, value, p in zip(target, arrays, self.parameters):
                value = np.asarray(value, dtype=np.float64)
                if value.shape != p.data.shape:
                    raise ValueError(
                        f"optimizer slot '{name}' shape mismatch: {value.shape} vs {p.data.shape}"
                    )
                buf[...] = value
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self._step_count = int(state["step_count"])
