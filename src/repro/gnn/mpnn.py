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

**One block is one tape primitive.**  :meth:`DSSBlock.forward` evaluates the
block on raw arrays in the order the inference engine uses before its
compile-time folds (:mod:`repro.gnn.infer`) and records a single tape node
whose hand-written vector-Jacobian product returns the cotangents of the
latent state and all twelve parameters in one call:

* the hidden edge layer ``W₁ [h_dst | h_src | e] + b₁`` is split along its
  weight column blocks, both directions stacked ``[fwd | bwd]``: two ``n``-row
  projection GEMMs, the attribute term ``e W₁ₑᵀ + b₁`` (the backward
  direction's sign-reversed relative positions folded into its weights,
  ``(−a)·w = a·(−w)``), and the two-ones gather SpMM accumulating
  ``proj_dst[dst] + proj_src[src]`` on top of it;
* one ReLU, one aggregation SpMM; aggregation is linear, so each direction's
  output layer is applied *after* it on ``n`` rows —
  ``S (M W₂ᵀ + 1 ⊗ b₂) = (S M) W₂ᵀ + deg ⊗ b₂`` — and the post-ReLU messages
  are never needed again: the only ``E``-row array the VJP keeps is the
  boolean mask ``Z > 0``;
* ``Ψ`` and the damped ResNet update on ``n`` rows.

The VJP runs the same operators transposed: ``Gᵀ`` is the free CSC view of
``G``, and ``Sᵀ`` — one unit entry per row — is a row gather by destination.
Under ``no_grad`` nothing is recorded or retained.  DESIGN.md ("The training
forward") writes both passes out.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import block_diag

from ..nn.functional import relu_
from ..nn.modules import MLP, Module
from ..nn.tensor import Tensor
from .batch import MessageOperators
from .infer import _check_compilable, _spmm_acc

__all__ = ["DSSBlock", "Decoder"]


def _column_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=0)`` of a tall C-ordered array as one BLAS GEMV (~7× faster)."""
    return np.ones(x.shape[0]) @ x


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
        operators: MessageOperators,
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
            Treated as data: no gradient flows to it.
        operators:
            :func:`~repro.gnn.batch.message_operators` of the graph's directed
            edges ``src → dst``, built once per problem and shared by all
            blocks.
        edge_attr:
            (E, edge_attr_dim) attributes: ``(dx, dy, ‖d‖)`` of the vector
            from source to destination node, plus optional extra columns.

        A graph of two nodes joined by the edges ``0 → 1`` and ``1 → 0``, with
        weights set so that a message is its source's latent state and ``Ψ``
        passes the aggregated forward messages through — each node ends with
        its own state plus ``α`` times the other's:

        >>> from repro.gnn.batch import message_operators
        >>> block = DSSBlock(latent_dim=1, alpha=0.5)
        >>> for p in block.parameters():
        ...     p.data[...] = 0.0
        >>> block.phi_forward.layers[0].weight.data[0, 1] = 1.0   # hidden = h_src
        >>> block.phi_forward.layers[1].weight.data[0, 0] = 1.0   # message = hidden
        >>> block.psi.layers[0].weight.data[0, 2] = 1.0           # ψ reads agg_fwd
        >>> block.psi.layers[1].weight.data[0, 0] = 1.0
        >>> operators = message_operators(np.array([[0, 1], [1, 0]]), num_nodes=2)
        >>> latent = Tensor(np.array([[2.0], [5.0]]))
        >>> block(latent, Tensor(np.zeros((2, 1))), operators, np.zeros((2, 3))).numpy()
        array([[4.5],
               [6. ]])
        """
        mlps = (self.phi_forward, self.phi_backward, self.psi)
        for mlp in mlps:
            _check_compilable(mlp)
        params = [p for mlp in mlps for layer in mlp.layers for p in (layer.weight, layer.bias)]
        w1_fwd, b1_fwd, w2_fwd, b2_fwd, w1_bwd, b1_bwd, w2_bwd, b2_bwd, p1, pb1, p2, pb2 = (
            p.data for p in params
        )
        gather, aggregate, gather_T, destination, indegree = operators
        h = latent.data
        n, d, ni, alpha = h.shape[0], self.latent_dim, self.node_input_dim, self.alpha
        record = latent._needs_graph(*params)

        # both directions' layers stacked [fwd ; bwd]; the backward direction
        # sees sign-reversed relative positions, folded into its weights so
        # both read the same attribute array
        flip = np.ones(2 * d + self.edge_attr_dim)
        flip[2 * d:2 * d + 2] = -1.0
        w1 = np.vstack([w1_fwd, w1_bwd * flip])                  # (2d, 2d+|e|)
        w2 = block_diag(w2_fwd, w2_bwd)                          # (2d, 2d)
        proj = np.empty((2 * n, 2 * d))                          # [proj_dst ; proj_src]
        np.matmul(h, w1[:, :d].T, out=proj[:n])
        np.matmul(h, w1[:, d:2 * d].T, out=proj[n:])
        # every edge gathers exactly one proj_dst row, so the hidden bias
        # rides on those n rows instead of costing a pass over E rows
        proj[:n] += np.concatenate([b1_fwd, b1_bwd])
        edge_hidden = edge_attr @ w1[:, 2 * d:].T                # (E, 2d) static attribute term
        _spmm_acc(gather, proj.reshape(-1), edge_hidden.reshape(-1), 2 * d)
        mask = edge_hidden > 0.0 if record else None
        agg = aggregate @ relu_(edge_hidden)                     # (n, 2d) raw [fwd | bwd] sums
        messages = agg @ w2.T
        messages += np.outer(indegree, np.concatenate([b2_fwd, b2_bwd]))
        psi_in = np.hstack([h, node_input.data, messages])
        hidden = relu_(psi_in @ p1.T + pb1)
        out = h + alpha * (hidden @ p2.T + pb2)
        if not record:
            return Tensor(out)

        def vjp(g: np.ndarray):
            """Cotangents of ``(latent, *params)``: the forward's operators, transposed."""
            g_update = alpha * g
            g_hidden = (g_update @ p2) * (hidden > 0.0)
            g_psi_in = g_hidden @ p1
            g_messages = g_psi_in[:, d + ni:]
            g_edge = np.take(g_messages @ w2, destination, axis=0)   # aggregateᵀ @ ·
            np.multiply(g_edge, mask, out=g_edge)                # through the ReLU
            g_proj = gather_T @ g_edge                           # (2n, 2d)
            g_w1 = np.vstack([h.T @ g_proj[:n], h.T @ g_proj[n:], edge_attr.T @ g_edge]).T
            g_b1 = _column_sums(g_proj[:n])
            g_w2 = g_messages.T @ agg                            # its diagonal blocks are the two directions'
            g_b2 = indegree @ g_messages
            g_latent = g + g_psi_in[:, :d] + g_proj[:n] @ w1[:, :d] + g_proj[n:] @ w1[:, d:2 * d]
            return (
                g_latent,
                g_w1[:d], g_b1[:d], g_w2[:d, :d], g_b2[:d],
                g_w1[d:] * flip, g_b1[d:], g_w2[d:, d:], g_b2[d:],
                g_hidden.T @ psi_in, _column_sums(g_hidden), g_update.T @ hidden, _column_sums(g_update),
            )

        return Tensor._make(out, (latent, *params), vjp=vjp)


class Decoder(Module):
    """Per-iteration decoder ``D_θ^{k}`` mapping the latent state to a scalar field."""

    def __init__(self, latent_dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        d = int(latent_dim)
        self.mlp = MLP(d, [d], 1, activation="relu", rng=rng)

    def forward(self, latent: Tensor) -> Tensor:
        return self.mlp(latent)
