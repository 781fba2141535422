"""Message-passing building blocks of the DSS architecture (paper Eqs. 18–20).

Block ``k`` reads three one-hidden-layer MLPs from the model's parameter dict
(:func:`init_params`), under the checkpoint's keys ``block_{k}.phi_forward``,
``block_{k}.phi_backward`` and ``block_{k}.psi``:

* ``Φ→`` and ``Φ←`` compute messages on directed edges from the latent states
  of the two endpoints and the geometric edge attributes (relative position
  vector and its norm); messages are summed onto the destination node.
* ``Ψ`` updates the latent state in a ResNet fashion from the current latent,
  the node input ``c`` (the normalised residual) and both aggregated messages,
  scaled by the damping coefficient ``α`` (1e-3 in the paper).

All MLPs have a single hidden layer whose width equals the latent dimension
``d``; this reproduces exactly the parameter counts of the paper's Table II
(e.g. k̄=30, d=10 → 37 530 weights).

**One block, one hand-written backward.**  :func:`block_forward` evaluates
the block on raw arrays with the operators of the inference engine
(:mod:`repro.gnn.infer`) and returns, beside the new latent state, its
vector-Jacobian product: one call that adds the cotangents of all twelve
parameters to their ``.grad`` and returns the latent state's.  The forward:

* the hidden edge layer ``W₁ [h_dst | h_src | e] + b₁`` is split along its
  weight column blocks, both directions stacked ``[fwd | bwd]``: two ``n``-row
  projection GEMMs, then the edge pass of :class:`~repro.gnn.infer.EdgeLayout`
  — the one :class:`~repro.gnn.infer.InferencePlan` runs, at ``k = 1`` in
  float64 — forms each edge's attribute term ``e W₁ₑᵀ + b₁`` (the backward
  direction's sign-reversed relative positions folded into its weights,
  ``(−a)·w = a·(−w)``), adds both projections, applies the ReLU and sums onto
  the destination: ``A`` ``(n, 2d)``, with no edge-row array of any dtype;
* aggregation is linear, so each direction's output layer commutes with it
  and folds into ``ψ``'s first layer — ``ψ``'s hidden pre-activation is
  ``A Mᵀ + H Ψ₁ₕᵀ + c Ψ₁꜀ᵀ + deg ⊗ v + ψb₁`` with
  ``M = [Ψ₁→ W₂→ │ Ψ₁← W₂←]`` and ``v = Ψ₁→ b₂→ + Ψ₁← b₂←``, the fold the
  inference engine applies at compile time;
* the damped ResNet update on ``n`` rows.

The VJP maps ``g_M`` and ``g_v`` back to ``Ψ₁``, ``W₂`` and ``b₂`` through
``d × 2d`` products and hands ``g_A`` to :meth:`EdgeLayout.edge_vjp`, one
sweep over the same edges that recomputes each pre-activation.  Between the
two passes a block keeps ``H``, the projections ``P``, ``A`` and ``ψ``'s
hidden layer ``h`` — ``n``-row arrays only, referenced by the backward and
freed with it: prediction drops it at once.  DESIGN.md ("The training
forward") writes both passes out.

Decoder ``k`` is one more such MLP, ``decoder_{k}.mlp``, mapping the latent
state to the scalar field (:func:`decoder_forward`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ..nn.optim import Parameter
from .infer import EdgeLayout, relu_

#: what a forward returns: the output and its backward (output cotangent -> input cotangent)
Forward = Tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]
#: a model's weights: checkpoint key -> parameter, in checkpoint order
Params = Dict[str, Parameter]

__all__ = ["init_params", "block_keys", "decoder_keys", "block_forward", "decoder_forward"]

_BLOCK_MLPS = ("phi_forward", "phi_backward", "psi")


def _mlp_keys(prefix: str, mlps: Tuple[str, ...]) -> List[str]:
    return [f"{prefix}.{mlp}.layer_{i}.{kind}" for mlp in mlps for i in (0, 1) for kind in ("weight", "bias")]


def block_keys(k: int) -> List[str]:
    """Block ``k``'s twelve keys: ``Φ→``, ``Φ←``, ``Ψ``, each ``layer_0`` then ``layer_1``, weight then bias."""
    return _mlp_keys(f"block_{k}", _BLOCK_MLPS)


def decoder_keys(k: int) -> List[str]:
    """Decoder ``k``'s four keys: ``layer_0`` then ``layer_1``, weight then bias."""
    return _mlp_keys(f"decoder_{k}", ("mlp",))


def init_params(config) -> Params:
    """A fresh DSS's weights (``config`` a :class:`~repro.gnn.dss.DSSConfig`), keyed and ordered as a checkpoint.

    For k = 0 … k̄−1: block k's twelve arrays, then decoder k's four.  Every
    weight of shape ``(fan_out, fan_in)`` is Xavier-uniform,
    ``U(−a, a)`` with ``a = √(6 / (fan_in + fan_out))``, drawn in that order
    from one ``default_rng(config.seed)`` stream; every bias is zero and
    draws nothing.  A seed therefore always gives the same bytes.
    """
    d = config.latent_dim
    edge_in, update_in = 2 * d + config.edge_attr_dim, 3 * d + config.node_input_dim
    #: (fan_in, fan_out) of each MLP's layer_0 and layer_1; every hidden layer is d wide
    shapes = {"phi_forward": ((edge_in, d), (d, d)), "phi_backward": ((edge_in, d), (d, d)),
              "psi": ((update_in, d), (d, d)), "mlp": ((d, d), (d, 1))}
    rng = np.random.default_rng(config.seed)
    params: Params = {}
    for k in range(config.num_iterations):
        for key in block_keys(k) + decoder_keys(k):
            _, mlp, layer, kind = key.split(".")
            fan_in, fan_out = shapes[mlp][layer == "layer_1"]
            if kind == "bias":
                params[key] = Parameter(np.zeros(fan_out))
            else:
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                params[key] = Parameter(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
    return params


def _column_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=0)`` of a tall C-ordered array as one BLAS GEMV (~7× faster)."""
    return np.ones(x.shape[0]) @ x


def block_forward(params: Params, k: int, alpha: float, latent: np.ndarray, node_input: np.ndarray,
                  edges: EdgeLayout) -> Forward:
    """Advance the latent state by block ``k`` (paper Eq. 21): ``(H', backward)``.

    Parameters
    ----------
    params:
        The model's parameter dict; the block reads its twelve
        :func:`block_keys`.
    alpha:
        The damping coefficient ``α`` of the ResNet update.
    latent:
        (n, d) latent node states ``H^k``.
    node_input:
        (n, node_input_dim) node inputs — the normalised residual ``c``,
        plus extra per-node features (e.g. log κ) when configured.
        Treated as data: no gradient flows to it.
    edges:
        float64 :class:`~repro.gnn.infer.EdgeLayout` of the graph's
        directed edges ``src → dst`` with their ``(E, edge_attr_dim)``
        attributes — ``(dx, dy, ‖d‖)`` of the vector from source to
        destination node, plus optional extra columns — built once per
        problem and shared by all blocks.

    ``backward(g)`` takes ``g = ∂L/∂H'``, adds the twelve parameter
    cotangents to their ``.grad`` and returns ``∂L/∂H``.

    A graph of two nodes joined by the edges ``0 → 1`` and ``1 → 0``, with
    weights set so that a message is its source's latent state and ``Ψ``
    passes the aggregated forward messages through — each node ends with
    its own state plus ``α`` times the other's:

    >>> from repro.gnn import DSS, DSSConfig
    >>> params = DSS(DSSConfig(num_iterations=1, latent_dim=1, alpha=0.5)).params
    >>> for p in params.values():
    ...     p.data[...] = 0.0
    >>> params["block_0.phi_forward.layer_0.weight"].data[0, 1] = 1.0   # hidden = h_src
    >>> params["block_0.phi_forward.layer_1.weight"].data[0, 0] = 1.0   # message = hidden
    >>> params["block_0.psi.layer_0.weight"].data[0, 2] = 1.0           # ψ reads agg_fwd
    >>> params["block_0.psi.layer_1.weight"].data[0, 0] = 1.0
    >>> edges = EdgeLayout(np.array([[0, 1], [1, 0]]), np.zeros((2, 3)), num_nodes=2)
    >>> out, backward = block_forward(params, 0, 0.5, np.array([[2.0], [5.0]]), np.zeros((2, 1)), edges)
    >>> out
    array([[4.5],
           [6. ]])
    >>> backward(np.array([[1.0], [0.0]]))                                # ∂H'₀/∂H: itself, and α of node 1
    array([[1. ],
           [0.5]])
    >>> float(params["block_0.psi.layer_0.weight"].grad[0, 2])          # ∂H'₀/∂Ψ₁ = α · agg_fwd₀ = 0.5 · 5
    2.5
    """
    block = [params[key] for key in block_keys(k)]
    w1_fwd, b1_fwd, w2_fwd, b2_fwd, w1_bwd, b1_bwd, w2_bwd, b2_bwd, p1, pb1, p2, pb2 = (p.data for p in block)
    h, c, deg = latent, node_input, edges.indegree
    n, d, ni = h.shape[0], w2_fwd.shape[0], c.shape[1]

    # both directions' hidden layers stacked [fwd ; bwd]; the backward
    # direction sees sign-reversed relative positions, folded into its
    # weights so both read the same attributes
    flip = np.ones(w1_fwd.shape[1])
    flip[2 * d:2 * d + 2] = -1.0
    w1 = np.vstack([w1_fwd, w1_bwd * flip])                  # (2d, 2d+|e|)
    w_attr = np.ascontiguousarray(w1[:, 2 * d:].T)           # (|e|, 2d)
    b1 = np.concatenate([b1_fwd, b1_bwd])
    proj = np.empty((2 * n, 2 * d))                          # [proj_dst ; proj_src]
    np.matmul(h, w1[:, :d].T, out=proj[:n])
    np.matmul(h, w1[:, d:2 * d].T, out=proj[n:])
    agg = np.empty((n, 2 * d))                               # raw [fwd | bwd] sums
    edges.edge_pass(w_attr, b1, proj, agg)
    # ψ with both output layers folded in: M = [Ψ₁→ W₂→ │ Ψ₁← W₂←], v = Ψ₁→ b₂→ + Ψ₁← b₂←
    psi_fwd, psi_bwd = p1[:, d + ni:2 * d + ni], p1[:, 2 * d + ni:]
    fold = np.hstack([psi_fwd @ w2_fwd, psi_bwd @ w2_bwd])   # (d, 2d)
    v = psi_fwd @ b2_fwd + psi_bwd @ b2_bwd
    # numpy's BLAS only: interleaved with scipy's (the inference engine's
    # beta=1 GEMMs), two OpenBLAS thread pools contend for the cores
    hidden = agg @ fold.T
    hidden += h @ p1[:, :d].T
    hidden += c @ p1[:, d:d + ni].T
    hidden += deg[:, None] * v
    hidden += pb1
    relu_(hidden)
    out = hidden @ (alpha * p2).T                            # the damped ResNet update
    out += h
    out += alpha * pb2

    def backward(g: np.ndarray) -> np.ndarray:
        """The forward's operators, transposed: parameter cotangents into ``.grad``, the latent's returned."""
        g_update = alpha * g
        g_hidden = (g_update @ p2) * (hidden > 0.0)
        g_fold, g_v = g_hidden.T @ agg, deg @ g_hidden       # (d, 2d), (d,)
        g_proj, g_w_attr = edges.edge_vjp(w_attr, b1, proj, g_hidden @ fold)
        g_w1 = np.vstack([h.T @ g_proj[:n], h.T @ g_proj[n:], g_w_attr]).T
        g_b1 = _column_sums(g_proj[:n])
        g_latent = g_hidden @ p1[:, :d]
        g_latent += g_proj[:n] @ w1[:, :d]
        g_latent += g_proj[n:] @ w1[:, d:2 * d]
        g_latent += g
        g_psi_fwd = g_fold[:, :d] @ w2_fwd.T + np.outer(g_v, b2_fwd)
        g_psi_bwd = g_fold[:, d:] @ w2_bwd.T + np.outer(g_v, b2_bwd)
        grads = (
            g_w1[:d], g_b1[:d], psi_fwd.T @ g_fold[:, :d], psi_fwd.T @ g_v,
            g_w1[d:] * flip, g_b1[d:], psi_bwd.T @ g_fold[:, d:], psi_bwd.T @ g_v,
            np.hstack([g_hidden.T @ h, g_hidden.T @ c, g_psi_fwd, g_psi_bwd]), _column_sums(g_hidden),
            g_update.T @ hidden, _column_sums(g_update),
        )
        for p, grad in zip(block, grads):
            p.accumulate(grad)
        return g_latent

    return out, backward


def decoder_forward(params: Params, k: int, latent: np.ndarray) -> Forward:
    """Decoder ``k`` (``D_θ^{k}``, its four :func:`decoder_keys`): ``(u, backward)``.

    ``u`` is the decoded ``(n, 1)`` state ``relu(H W₁ᵀ + b₁) W₂ᵀ + b₂``.
    ``backward(g)`` takes ``g = ∂L/∂u``, adds the four parameter cotangents
    to their ``.grad`` and returns ``∂L/∂H``; it keeps ``H`` and the hidden
    layer, nothing else (the ReLU's derivative is the sign of the hidden layer).
    """
    w1, b1, w2, b2 = (params[key] for key in decoder_keys(k))
    hidden = latent @ w1.data.T + b1.data
    np.maximum(hidden, 0.0, out=hidden)

    def backward(g: np.ndarray) -> np.ndarray:
        # weight cotangents as (aᵀ g)ᵀ, not gᵀ a: BLAS may round the two apart,
        # and this order is the one every training run so far was made with
        b2.accumulate(g.sum(axis=0))
        w2.accumulate((hidden.T @ g).T)
        g_hidden = g @ w2.data
        g_hidden *= hidden > 0.0
        b1.accumulate(g_hidden.sum(axis=0))
        w1.accumulate((latent.T @ g_hidden).T)
        return g_hidden @ w1.data

    return hidden @ w2.data.T + b2.data, backward
