"""Message-passing building blocks of the DSS architecture (paper Eqs. 18–20).

Each :class:`DSSBlock` holds three MLPs with their own weights:

* ``Φ→`` and ``Φ←`` compute messages on directed edges from the latent states
  of the two endpoints and the geometric edge attributes (relative position
  vector and its norm); messages are summed onto the destination node.
* ``Ψ`` updates the latent state in a ResNet fashion from the current latent,
  the node input ``c`` (the normalised residual) and both aggregated messages,
  scaled by the damping coefficient ``α`` (1e-3 in the paper).

All MLPs have a single hidden layer whose width equals the latent dimension
``d``; this reproduces exactly the parameter counts of the paper's Table II
(e.g. k̄=30, d=10 → 37 530 weights).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.functional import concatenate, gather, segment_sum
from ..nn.modules import MLP, Module
from ..nn.tensor import Tensor

__all__ = ["DSSBlock", "Decoder"]


class DSSBlock(Module):
    """One message-passing + update block ``M_θ^{k}`` (paper Eq. 21)."""

    def __init__(
        self,
        latent_dim: int,
        alpha: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
        edge_attr_dim: int = 3,
        node_input_dim: int = 1,
    ) -> None:
        super().__init__()
        if latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if edge_attr_dim < 3 or node_input_dim < 1:
            raise ValueError("edge_attr_dim must be >= 3 and node_input_dim >= 1")
        self.latent_dim = int(latent_dim)
        self.alpha = float(alpha)
        self.edge_attr_dim = int(edge_attr_dim)
        self.node_input_dim = int(node_input_dim)
        d = self.latent_dim
        edge_in = 2 * d + self.edge_attr_dim      # h_dst, h_src, (dx, dy, ||d||, extras)
        update_in = 3 * d + self.node_input_dim   # h, c (+ node extras), phi_fwd, phi_bwd
        self.phi_forward = MLP(edge_in, [d], d, activation="relu", rng=rng)
        self.phi_backward = MLP(edge_in, [d], d, activation="relu", rng=rng)
        self.psi = MLP(update_in, [d], d, activation="relu", rng=rng)

    def forward(
        self,
        latent: Tensor,
        node_input: Tensor,
        edge_index: np.ndarray,
        edge_attr: np.ndarray,
    ) -> Tensor:
        """Advance the latent state by one message-passing iteration.

        Parameters
        ----------
        latent:
            (n, d) latent node states ``H^k``.
        node_input:
            (n, node_input_dim) node inputs — the normalised residual ``c``,
            plus extra per-node features (e.g. log κ) when configured.
        edge_index:
            (2, E) directed edges ``src → dst``.
        edge_attr:
            (E, edge_attr_dim) attributes: ``(dx, dy, ‖d‖)`` of the vector
            from source to destination node, plus optional extra columns.
        """
        num_nodes = latent.shape[0]
        src, dst = edge_index[0], edge_index[1]

        h_src = gather(latent, src)
        h_dst = gather(latent, dst)

        attr_fwd = Tensor(edge_attr)
        # reversed relative position, same distance, for the "incoming" messages
        reversed_attr = edge_attr.copy()
        reversed_attr[:, :2] *= -1.0
        attr_bwd = Tensor(reversed_attr)

        msg_fwd = self.phi_forward(concatenate([h_dst, h_src, attr_fwd], axis=1))
        msg_bwd = self.phi_backward(concatenate([h_dst, h_src, attr_bwd], axis=1))

        agg_fwd = segment_sum(msg_fwd, dst, num_nodes)
        agg_bwd = segment_sum(msg_bwd, dst, num_nodes)

        update = self.psi(concatenate([latent, node_input, agg_fwd, agg_bwd], axis=1))
        return latent + self.alpha * update


class Decoder(Module):
    """Per-iteration decoder ``D_θ^{k}`` mapping the latent state to a scalar field."""

    def __init__(self, latent_dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        d = int(latent_dim)
        self.mlp = MLP(d, [d], 1, activation="relu", rng=rng)

    def forward(self, latent: Tensor) -> Tensor:
        return self.mlp(latent)
