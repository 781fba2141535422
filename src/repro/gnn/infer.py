"""Allocation-free DSS inference engine: one folded forward for every plan.

``DSS.forward`` — what ``DSS.predict`` and ``DSS.training_loss`` run —
evaluates each block on fresh arrays from the current weights.  Inside a
Krylov solve the same sub-domain graphs are evaluated hundreds of times with
only the per-node source changing, so every allocation, every weight-only
product and every term of the fixed edge attributes alone is invariant.

:class:`CompiledDSS` folds a model's weights once per precision, stages them
in one slab and owns one workspace; an :class:`InferencePlan` compiles a
:class:`~repro.gnn.batch.GraphBatch` against a fold — the batch's edge layout
and node keys, nothing else — and runs **one** forward
(:meth:`InferencePlan._forward`) for both precisions and every column count.
The forward is memory-bound (a few FLOPs per byte streamed over the
``E``-row edge arrays); everything below is fixed at compile time:

* **per-node projections** — ``W₁ [h_dst | h_src | e]`` splits along its
  weight column blocks: the latent parts are ``n``-row GEMMs *before* the
  gather to edges, not an ``E``-row GEMM after;
* **direction stacking** — both message directions side by side (``[fwd |
  bwd]``, width ``2d``): one pair of projection GEMMs and one edge pass serve
  both, and the aggregation is already the contiguous ``ψ`` GEMM operand;
* **static edge terms** — ``e W₁ₑᵀ + b₁`` is never stored: the edge pass
  forms it from the plan's one ``(E, |e|)`` attribute array as it reaches an
  edge, once for all ``k`` columns (the backward direction's sign-reversed
  relative positions folded into its weights, ``(−a)·w = a·(−w)`` exactly);
* **folded output layers** — aggregation is linear, so each direction's
  output layer merges into ``ψ``'s first: ``(S H) W₂ᵀ ψ₁ₐᵀ = (S H)
  (ψ₁ₐ W₂)ᵀ``; the aggregated output biases, ``ψ``'s bias and the κ
  channels' term collapse into one per-node bias, and ``α`` folds into
  ``ψ``'s second layer;
* **keyed bias** — that bias depends on a node's in-degree and κ channels
  only: a plan keeps one ``key`` per node and a ``(blocks, keys, d)`` table
  of the distinct rows, checked byte for byte against the per-node fold.

Per block: the two projection GEMMs; the edge pass ``pre[i] = Σ_{e → i}
relu(static[e] + proj_dst[i] + proj_src[src_e])`` over one
:class:`EdgeLayout` (stable-sorted by destination); ``ψ``'s hidden layer as
the prefill ``s w₀ + table[key]`` and two ``beta=1`` GEMMs onto it; its
ReLU; the update GEMM onto the latent, and its bias.  Two bodies run them:
the *native* one, every block in one C call (``_edge_pass.c``, ``|e|`` = 3
and 4; its edge pass one sweep that never writes the ``(E, k, 2d)``
messages), and the *numpy* one — the reference, and what runs without a C
compiler — with SpMMs over a message buffer.  Both take every GEMM from
scipy's BLAS and round the same operations in the same order: they agree
**bit for bit** in both precisions and for every ``k``
(``InferencePlan.kernel`` says which ran).  The decoder is numpy's in both.

Plan memory is ``O(E + n + blocks·keys·d)``; the weights and the workspace
are the fold's, which a DSS local solver's plans share.

The training forward (:func:`repro.gnn.mpnn.block_forward`) builds the same
projections, calls the same :meth:`EdgeLayout.edge_pass` (``k = 1``, float64;
its VJP is :meth:`EdgeLayout.edge_vjp`) and folds the output layers in the
same algebra, from the current weights on every call.  The folds are computed
in float64 (cast once for f32 plans) and only re-associate dot products and
commutative sums: the f64 forward agrees with ``DSS.predict`` to a few ulp
(the parity tests pin 1e-12).  A fold captures the parameters *at compile
time*: recompile after further training or ``load_state_dict``.

**Columns.**  Buffers are laid out ``(rows, k, ·)``: GEMMs run on
``(rows·k, ·)`` reshape views, the edge pass carries the columns as a loop
bound, and the workspace of any ``k <= k_max`` is a view of the same flat
allocations, so a lockstep solve whose active set shrinks allocates nothing.
**f32** plans (cast at the plan boundary) sweep all ``k`` columns at once,
pinned against ``k`` single-column sweeps by tolerance.  **f64** plans run
the columns *one at a time* through the ``k = 1`` forward: a fused
``(n·k, d)`` GEMM is not bit-stable against the ``(n, d)`` one (BLAS picks
row-count-dependent kernels), and the lockstep CG needs column ``c`` of
``infer_columns`` bit-identical to ``infer`` on column ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..utils import sparse
from ._native import edge_kernels
from .batch import GraphBatch, MessageOperators, message_operators

__all__ = ["CompiledDSS", "EdgeLayout", "InferencePlan"]

#: dtypes of the supported plan precisions
PRECISION_DTYPES = {"f64": np.float64, "f32": np.float32}


def relu_(x: np.ndarray) -> np.ndarray:
    """In-place rectified linear unit on a raw array (this engine's and the block's ReLU)."""
    np.maximum(x, 0.0, out=x)
    return x


try:
    from scipy.linalg.blas import dgemm, sgemm

    _BLAS_GEMM = {np.dtype(np.float64): dgemm, np.dtype(np.float32): sgemm}
except ImportError:  # pragma: no cover - scipy built without BLAS wrappers
    _BLAS_GEMM = {}


def _gemm_acc(a: np.ndarray, b: np.ndarray, c: np.ndarray, scratch: Optional[np.ndarray], beta: float = 1.0) -> None:
    """``c = a @ b + beta·c`` (``beta`` 1 or 0) for C-contiguous operands of one dtype, allocation-free: scipy's
    BLAS, the C block loop's, on the F-contiguous transposes (``cᵀ = bᵀ aᵀ + beta·cᵀ``, ``c``'s in place), else
    ``np.matmul`` (a ``beta=1`` product landing in ``scratch``, shaped like ``c``, first)."""
    gemm = _BLAS_GEMM.get(c.dtype)
    if gemm is not None:
        gemm(1.0, b.T, a.T, beta=beta, c=c.T, overwrite_c=1)
    elif beta:
        np.matmul(a, b, out=scratch)
        c += scratch
    else:
        np.matmul(a, b, out=c)


def blas_columns(n: int, d: int) -> int:
    """The most columns of an ``n``-node plan the C block loop takes: its GEMM's dimensions are Fortran ``int``."""
    return (2**31 - 1) // max(n * 2 * d, 1)


def _spmm_acc(matrix: sp.csr_matrix, x_flat: np.ndarray, y_flat: np.ndarray, n_vecs: int) -> None:
    """``Y += A @ X`` on the flat views of C-contiguous ``(·, n_vecs)`` arrays."""
    rows, cols = matrix.shape
    if sparse.csr_matvecs is not None:
        sparse.csr_matvecs(rows, cols, n_vecs, matrix.indptr, matrix.indices, matrix.data, x_flat, y_flat)
    else:
        y = y_flat.reshape(rows, n_vecs)
        y += matrix @ x_flat.reshape(cols, n_vecs)


class EdgeLayout:
    """The directed edges ``src → dst`` of a graph, stable-sorted by destination:
    the one layout both bodies of the edge pass, and its VJP, read.

    ``indptr`` bounds the edges arriving at each node (every destination then
    sums in ascending edge id), ``edge_index`` and ``attr`` are the permuted
    rows, contiguous, at the layout's precision (kept, not copied, when
    already sorted and so).  The ids are checked here, before any pointer goes
    to C.  :class:`InferencePlan` builds one per plan, ``DSS.forward`` one per
    forward (float64, ``k = 1``); the numpy body's CSR operators are built on
    its first use only.

    >>> edges = EdgeLayout(np.array([[0, 2, 1], [1, 0, 0]]), np.arange(6.0).reshape(3, 2), num_nodes=3)
    >>> edges.edge_index, edges.indptr          # node 0 receives edges 2 → 0 and 1 → 0, node 1 receives 0 → 1
    (array([[2, 1, 0],
           [0, 0, 1]]), array([0, 2, 3, 3]))
    """

    def __init__(self, edge_index: np.ndarray, edge_attr: np.ndarray, num_nodes: int,
                 precision: str = "f64") -> None:
        n = int(num_nodes)
        edge_index = np.asarray(edge_index)
        if edge_index.size and not (0 <= edge_index.min() and edge_index.max() < n):
            raise ValueError(f"edge_index must hold node ids in [0, {n})")
        # cast first: an f32 layout permutes float32 rows, never a float64 copy
        edge_attr = np.asarray(edge_attr, dtype=PRECISION_DTYPES[precision])
        if (edge_index[1, 1:] < edge_index[1, :-1]).any():
            order = np.argsort(edge_index[1], kind="stable")
            edge_index, edge_attr = edge_index[:, order], edge_attr[order]
        self.num_nodes = n
        self.precision = precision
        self.edge_index = np.ascontiguousarray(edge_index, dtype=np.int64)
        self.attr = np.ascontiguousarray(edge_attr)
        indegree = np.bincount(self.edge_index[1], minlength=n)
        self.indptr = np.concatenate(([0], np.cumsum(indegree)), dtype=np.int64)
        self.indegree = indegree.astype(np.float64)
        self._pointers = (self.indptr.ctypes.data, self.edge_index[0].ctypes.data, self.attr.ctypes.data)
        self._operators: Optional[MessageOperators] = None

    def _native(self, kind: str):
        """The C ``edge_{kind}`` for this precision and attribute width, if it loaded."""
        kernels = edge_kernels()  # resolved (compiled, loaded, self-checked) once per process
        return None if kernels is None else kernels.get(f"edge_{kind}_{self.precision}_{self.attr.shape[1]}")

    @property
    def kernel(self) -> str:
        """Which body the edge pass (and, in float64, its VJP) runs: ``"native"`` or ``"numpy"`` (same bytes)."""
        return "numpy" if self._native("pass") is None else "native"

    def _operators_for_numpy(self) -> MessageOperators:
        if self._operators is None:
            self._operators = message_operators(self.edge_index, self.num_nodes, dtype=self.attr.dtype)
        return self._operators

    def _pre_activations(self, weights, bias, proj, k: int, scratch: np.ndarray) -> np.ndarray:
        """The numpy body's ``(E, k, w)`` pre-activations ``(static + proj_dst) + proj_src``, in the head of
        ``scratch`` (``E·(k+1)·w`` items; the ``(w, E)`` terms are built in its tail)."""
        (num_edges, attr_width), width = self.attr.shape, bias.size
        messages = scratch[:num_edges * k * width]
        # terms and products unit-major, (w, E): numpy's inner loops then run over E, not w
        static = scratch[scratch.size - num_edges * width:].reshape(width, num_edges)
        product = messages[:num_edges * width].reshape(width, num_edges)  # dead before the prefill
        np.multiply(weights[0][:, None], self.attr[:, 0], out=static)
        for j in range(1, attr_width):
            np.multiply(weights[j][:, None], self.attr[:, j], out=product)
            static += product
        static += bias[:, None]
        np.copyto(messages.reshape(num_edges, k, width), static.T[:, None, :])
        _spmm_acc(self._operators_for_numpy().gather, proj.reshape(-1), messages, k * width)
        return messages

    def edge_pass(self, weights: np.ndarray, bias: np.ndarray, proj: np.ndarray, pre: np.ndarray,
                  k: int = 1, scratch: Optional[Callable[[], np.ndarray]] = None) -> None:
        """``pre[i] = Σ_{e → i} relu(static[e] + proj_dst[i] + proj_src[src_e])`` for ``k`` columns,
        ``static[e] = ((a₀ W₀ + a₁ W₁) + a₂ W₂ …) + b`` from the attribute row of edge ``e``.

        ``weights`` ``(|e|, w)``, ``bias`` ``(w,)``, ``proj`` ``(2n, k, w)`` and ``pre`` ``(n, k, w)`` are
        C-contiguous at the layout's precision; ``pre`` is overwritten.  One C sweep if the kernel loaded;
        else (and as its bitwise reference) terms → prefill → two-ones gather SpMM → ReLU → aggregation SpMM,
        in the flat buffer ``scratch()`` returns (allocated here when None).
        """
        native = self._native("pass")
        if native is not None:
            native(self.num_nodes, k, bias.size, *self._pointers, weights.ctypes.data, bias.ctypes.data,
                   proj.ctypes.data, pre.ctypes.data)
            return
        size = self.attr.shape[0] * (k + 1) * bias.size
        messages = self._pre_activations(weights, bias, proj, k,
                                         np.empty(size, dtype=self.attr.dtype) if scratch is None else scratch())
        relu_(messages)
        pre = pre.reshape(-1)
        pre.fill(0.0)
        _spmm_acc(self._operators_for_numpy().aggregate, messages, pre, k * bias.size)

    def edge_vjp(self, weights: np.ndarray, bias: np.ndarray, proj: np.ndarray,
                 g_pre: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Cotangents ``(g_proj (2n, w), g_weights (|e|, w))`` of the ``k = 1`` :meth:`edge_pass`, given
        ``g_pre`` ``(n, w)``; the bias cotangent is ``1ᵀ g_proj[:n]``.

        Each edge's pre-activation is recomputed in the pass's association,
        ``g_t[e] = t[e] > 0 ? g_pre[dst_e] : 0`` is summed by destination into
        ``g_proj[:n]``, by source into ``g_proj[n:]`` and, times the attribute
        row, over every edge into ``g_weights`` — each sum in ascending edge
        id onto zeros.  One C sweep in float64 if the kernel loaded; else the
        numpy body, bit for bit: the ``Gᵀ`` SpMM (the free CSC view of the
        gather) and a ones-row SpMM per attribute over the products, both
        sequential in edge order with exact unit coefficients.
        """
        n, (num_edges, attr_width), width = self.num_nodes, self.attr.shape, bias.size
        native = self._native("vjp")
        if native is not None:
            g_proj, g_weights = np.empty((2 * n, width)), np.empty((attr_width, width))
            native(n, width, *self._pointers, weights.ctypes.data, bias.ctypes.data, proj.ctypes.data,
                   g_pre.ctypes.data, g_proj.ctypes.data, g_weights.ctypes.data)
            return g_proj, g_weights
        scratch = np.empty(num_edges * 2 * width, dtype=self.attr.dtype)
        t = self._pre_activations(weights, bias, proj, 1, scratch).reshape(num_edges, width)
        g_edge = np.where(t > 0.0, np.take(g_pre, self.edge_index[1], axis=0), 0.0)
        every_edge = sp.csr_matrix((np.ones(num_edges), np.arange(num_edges), [0, num_edges]), shape=(1, num_edges))
        g_weights, product = np.zeros((attr_width, width)), t          # t is dead now
        for j in range(attr_width):
            np.multiply(self.attr[:, j:j + 1], g_edge, out=product)
            _spmm_acc(every_edge, product.reshape(-1), g_weights[j], width)
        return self._operators_for_numpy().gather.T @ g_edge, g_weights


@dataclass
class _CompiledBlock:
    """One message-passing block's weights, staged for the folded forward.

    ``[fwd | bwd]`` marks arrays that stack both message directions along
    their last axis; see the module docstring for the folds.  The first nine
    are views of the block's row of ``CompiledDSS.slab``, in the C loop's
    order; node ``i``'s ψ bias, ``bias_table[b, key[i]]``, folds the last three.
    """

    w_dst_T: np.ndarray         # (d, 2d) — [fwd | bwd] latent-of-destination projections
    w_src_T: np.ndarray         # (d, 2d) — [fwd | bwd] latent-of-source projections
    w_attr_T: np.ndarray        # (|e|, 2d) — [fwd | bwd] attribute weights, bwd sign-folded
    b_hidden: np.ndarray        # (2d,) — [fwd | bwd] hidden-layer biases
    w_psi_agg_T: np.ndarray     # (2d, d) — ψ agg columns with each direction's W₂ folded in
    w_psi_latent_T: np.ndarray  # (d, d)
    w_source: np.ndarray        # (d,) — ψ weight column of the residual input
    w2_alpha_T: np.ndarray      # (d, d) — α · ψ W₂ᵀ
    b2_alpha: np.ndarray        # (d,) — α · ψ b₂
    psi1: np.ndarray            # (d, 3d + ni) float64 — ψ W₁
    b_psi1: np.ndarray          # (d,) float64 — ψ b₁
    b_out: Tuple[np.ndarray, ...]  # (d,) float64 — fwd, bwd output biases


@dataclass
class _Workspace:
    """Reshape views of one :class:`_Buffers` allocation for ``n`` nodes and ``k`` columns.

    Views for different ``(n, k)`` alias each other, harmlessly: after
    the compile-time folds the only per-call input is the residual sources,
    staged fresh by every ``load_source_columns``.  The ``*2d`` fields are
    the ``(rows·k, ·)`` GEMM views, the ``*_flat`` fields the 1-D views the
    edge pass consumes.
    """

    k: int
    latent2d: np.ndarray     # (n·k, d)
    sources: np.ndarray      # (n, k) — the residual inputs, one per column
    proj_dst2d: np.ndarray   # (n·k, 2d) — rows [0, n) of the (2n, k, 2d) projections
    proj_src2d: np.ndarray   # (n·k, 2d) — rows [n, 2n)
    proj_flat: np.ndarray
    pre2d: np.ndarray        # (n·k, 2d) — raw [fwd | bwd] aggregation sums
    pre_flat: np.ndarray
    hidden2d: np.ndarray     # (n·k, d)
    hidden3: np.ndarray      # (n, k, d)
    scratch2d: np.ndarray    # (n·k, d) — _gemm_acc fallback scratch (aliases proj)
    output2d: np.ndarray     # (n·k, 1)
    output: np.ndarray       # (n, k)
    pointers: Tuple[int, ...]  # sources, latent, proj, pre, hidden: the block loop's buffers


class _Buffers:
    """Forward-pass scratch: flat allocations for ``k_max`` columns of plans up to ``nodes`` and ``edges``."""

    def __init__(self, nodes: int, edges: int, d: int, dtype, k_max: int) -> None:
        n, k = nodes, int(k_max)
        self.nodes, self.edges, self.latent_dim, self.k_max = nodes, edges, d, k
        self._latent = np.empty(n * k * d, dtype=dtype)
        self._input = np.empty(n * k, dtype=dtype)
        self._proj = np.empty(2 * n * k * 2 * d, dtype=dtype)
        # the numpy edge pass only: (E, k_max, 2d) messages, then the (E, 2d) static terms in flight
        self._edge: Optional[np.ndarray] = None
        self._pre = np.empty(n * k * 2 * d, dtype=dtype)
        self._hidden = np.empty(n * k * d, dtype=dtype)
        self._output = np.empty(n * k, dtype=dtype)
        self._views: Dict[Tuple[int, int], _Workspace] = {}

    def view(self, n: int, k: int) -> _Workspace:
        workspace = self._views.get((n, k))
        if workspace is not None:
            return workspace
        d = self.latent_dim
        proj = self._proj[:2 * n * k * 2 * d].reshape(2 * n, k, 2 * d)
        hidden = self._hidden[:n * k * d].reshape(n * k, d)
        output = self._output[:n * k].reshape(n * k, 1)
        workspace = _Workspace(
            k=k,
            latent2d=self._latent[:n * k * d].reshape(n * k, d),
            sources=self._input[:n * k].reshape(n, k),
            proj_dst2d=proj[:n].reshape(n * k, 2 * d),
            proj_src2d=proj[n:].reshape(n * k, 2 * d),
            proj_flat=proj.reshape(-1),
            pre2d=self._pre[:n * k * 2 * d].reshape(n * k, 2 * d),
            pre_flat=self._pre[:n * k * 2 * d],
            hidden2d=hidden,
            hidden3=hidden.reshape(n, k, d),
            # the projections are dead between the edge pass and the next
            # block's projection GEMMs — exactly where _gemm_acc runs
            scratch2d=self._proj[:n * k * d].reshape(n * k, d),
            output2d=output,
            output=output.reshape(n, k),
            pointers=tuple(a.ctypes.data for a in (self._input, self._latent, self._proj, self._pre, self._hidden)),
        )
        self._views[n, k] = workspace
        return workspace

    def edge_scratch(self) -> np.ndarray:
        """The numpy edge pass's ``(E, k_max, 2d)`` messages and ``(2d, E)`` terms, allocated on its first use."""
        if self._edge is None:
            self._edge = np.empty(self.edges * (self.k_max + 1) * 2 * self.latent_dim, dtype=self._pre.dtype)
        return self._edge


class CompiledDSS:
    """A DSS folded once at one precision, and the one workspace of the plans compiled against it.

    ``DSS.compile_plan`` makes one per plan; a DSS local solver compiles its
    batches against its first plan's.  The plans run in turn in the workspace,
    sized for the largest: copy each output out before the next run.
    """

    def __init__(self, model, precision: str = "f64") -> None:
        if precision not in PRECISION_DTYPES:
            raise ValueError(f"precision must be one of {sorted(PRECISION_DTYPES)}, got {precision!r}")
        self.model = model
        self.precision = precision
        self.dtype = PRECISION_DTYPES[precision]
        self.latent_dim = model.config.latent_dim
        self.node_input_dim = model.config.node_input_dim
        from .mpnn import block_keys, decoder_keys  # local import: mpnn imports this module

        d = self.latent_dim
        blocks, alpha = model.config.num_iterations, float(model.config.alpha)
        #: every block's staged weights, one contiguous row each, in the order _edge_pass.c reads them
        self.slab = np.empty((blocks, 8 * d * d + 2 * d * model.config.edge_attr_dim + 4 * d), self.dtype)
        self.blocks: List[_CompiledBlock] = [
            self._compile_block([model.params[key].data for key in block_keys(k)], alpha, row)
            for k, row in enumerate(self.slab)]
        #: the last decoder's (W₁ᵀ, b₁, W₂ᵀ, b₂)
        w1, b1, w2, b2 = (model.params[key].data for key in decoder_keys(blocks - 1))
        self.decoder = tuple(np.array(array, dtype=self.dtype, order="C") for array in (w1.T, b1, w2.T, b2))
        # forward-pass buffers for the largest plan compiled and column count seen
        # (f64 plans sweep k = 1 only and stage k columns in column_io)
        self._largest = (0, 0)  # (nodes, edges)
        self._buffers: Optional[_Buffers] = None
        self._io = np.empty(0)

    def _compile_block(self, arrays: List[np.ndarray], alpha: float, row: np.ndarray) -> _CompiledBlock:
        """Fold one block's twelve arrays (``block_keys`` order) in float64, cast into consecutive views of
        its slab ``row`` in field order."""
        d, ni, at = self.latent_dim, self.node_input_dim, 0

        def stage(array: np.ndarray) -> np.ndarray:
            nonlocal at
            view = row[at:at + array.size].reshape(array.shape)
            view[...], at = array, at + array.size
            return view

        w1_fwd, b1_fwd, w2_fwd, b2_fwd, w1_bwd, b1_bwd, w2_bwd, b2_bwd, psi1, b_psi1, psi2, b_psi2 = arrays
        hidden = (w1_fwd, w1_bwd)                                  # (d, 2d+|e|) each
        # the backward direction sees sign-reversed relative positions
        attr_sign = np.ones(hidden[0].shape[1] - 2 * d)
        attr_sign[:2] = -1.0
        # fold each direction's output layer into ψ's agg columns:
        # (S H) W₂ᵀ ψ₁ₐᵀ = (S H) (ψ₁ₐ W₂)ᵀ
        psi_agg_T = [(psi1[:, offset:offset + d] @ w2).T for w2, offset in ((w2_fwd, d + ni), (w2_bwd, 2 * d + ni))]
        return _CompiledBlock(
            w_dst_T=stage(np.hstack([w[:, :d].T for w in hidden])),
            w_src_T=stage(np.hstack([w[:, d:2 * d].T for w in hidden])),
            w_attr_T=stage(np.hstack([hidden[0][:, 2 * d:].T, (hidden[1][:, 2 * d:] * attr_sign).T])),
            b_hidden=stage(np.concatenate([b1_fwd, b1_bwd])),
            w_psi_agg_T=stage(np.vstack(psi_agg_T)),
            w_psi_latent_T=stage(psi1[:, :d].T),
            w_source=stage(psi1[:, d]),
            w2_alpha_T=stage(alpha * psi2.T),
            b2_alpha=stage(alpha * b_psi2),
            psi1=np.array(psi1),
            b_psi1=np.array(b_psi1),
            b_out=(np.array(b2_fwd), np.array(b2_bwd)),
        )

    def bias_table(self, indegree: np.ndarray, node_features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(key, table)``: ``table[b, key[i]]`` is, in bytes, node ``i``'s ψ bias in block ``b`` (ψ b₁ +
        ``deg ⊗ b₂`` through ψ₁ₐ + the κ term), equal inputs sharing a key — unless BLAS rounds them apart."""
        n, d, ni = indegree.shape[0], self.latent_dim, self.node_input_dim
        features = np.ascontiguousarray(np.hstack([indegree, node_features]))
        rows = features.view(np.dtype((np.void, features.shape[1] * features.itemsize))).ravel()
        shared = np.unique(rows, return_index=True, return_inverse=True)[1:]
        for first, key in (shared, (np.arange(n), np.arange(n))):
            table = np.empty((len(self.blocks), first.size, d), dtype=self.dtype)
            for b, block in enumerate(self.blocks):
                full = np.tile(block.b_psi1, (n, 1))
                for b_out, offset in zip(block.b_out, (d + ni, 2 * d + ni)):
                    full += (indegree * b_out) @ block.psi1[:, offset:offset + d].T
                if ni > 1:
                    full += node_features @ block.psi1[:, d + 1:d + ni].T
                if full[first][key].tobytes() != full.tobytes():
                    break
                table[b] = full[first]
            else:
                break       # all blocks agree (per node, always)
        return np.ascontiguousarray(key, dtype=np.int64), table

    # ------------------------------------------------------------------ #
    def workspace(self, n: int, k: int) -> _Workspace:
        """The ``k``-column views of an ``n``-node plan, reallocated when ``k`` or the largest plan grew."""
        if k < 1:
            raise ValueError(f"column count must be >= 1, got {k}")
        buffers = self._buffers
        if buffers is None or k > buffers.k_max or (buffers.nodes, buffers.edges) != self._largest:
            buffers = _Buffers(*self._largest, self.latent_dim, self.dtype,
                               k if buffers is None else max(k, buffers.k_max))
            self._buffers = buffers
        return buffers.view(n, k)

    def column_io(self, n: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """f64 staging: the ``(n, k)`` sources and outputs around the k=1 sweeps."""
        size = n * k
        if self._io.size < 2 * size:
            self._io = np.empty(2 * size)
        return (self._io[:size].reshape(-1, k), self._io[size:2 * size].reshape(-1, k))


class InferencePlan:
    """A :class:`~repro.gnn.batch.GraphBatch` compiled against a :class:`CompiledDSS`: the batch's edge
    layout, node count, node keys and keyed ψ bias table.

    Build one via ``model.compile_plan(batch)`` (its own fold) or
    ``InferencePlan(compiled, batch)``; run it via ``model.infer(plan,
    source)`` / ``model.infer_columns(plan, sources)``, whose output is a view
    of the workspace, valid until the next run of a plan on the same fold.

    **Thread safety.**  One thread at a time drives the plans of a fold: a
    preconditioner owns its plans, a session (whose lock serialises solves) its
    preconditioner.  For parallelism, ``session.clone_for_worker()``.
    """

    def __init__(self, compiled: CompiledDSS, batch: GraphBatch) -> None:
        model = compiled.model
        self.compiled = compiled
        self.num_nodes = n = batch.num_nodes
        # the layout sorts the batch's edges by destination; κ channels (all node input columns
        # but the residual) and in-degrees feed the bias fold
        self._edges = EdgeLayout(batch.edge_index, model._prepare_edge_attr(batch.edge_attr), n, compiled.precision)
        node_features = np.asarray(model._prepare_node_input(batch), dtype=np.float64)[:, 1:]
        #: (n,) row of each node in the (blocks, keys, d) ψ biases
        self.key, self.bias_table = compiled.bias_table(self._edges.indegree.reshape(-1, 1), node_features)
        compiled._largest = (max(compiled._largest[0], n), max(compiled._largest[1], batch.num_edges))
        self._loop_name = f"dss_blocks_{compiled.precision}_{self._edges.attr.shape[1]}"
        self._loop_columns = blas_columns(n, compiled.latent_dim)   # 0: the numpy body for every k
        self._loop_args = (n, compiled.latent_dim, len(compiled.blocks), self.bias_table.shape[1],
                           *self._edges._pointers, compiled.slab.ctypes.data, self.bias_table.ctypes.data,
                           self.key.ctypes.data)

    # ------------------------------------------------------------------ #
    @property
    def dtype(self):
        return self.compiled.dtype

    # ------------------------------------------------------------------ #
    def workspace(self, k: int) -> _Workspace:
        """This plan's ``k``-column views of its fold's workspace."""
        return self.compiled.workspace(self.num_nodes, k)

    def load_source_columns(self, sources: np.ndarray) -> int:
        """Stage ``k`` per-node source columns; returns ``k``.

        ``sources`` is ``(n, k)``, one column per right-hand side.  Casting to
        the plan dtype happens here (the f32 boundary).
        """
        sources = np.asarray(sources)
        if sources.ndim != 2 or sources.shape[0] != self.num_nodes:
            raise ValueError(
                f"sources must be (num_nodes, k) = ({self.num_nodes}, k), "
                f"got shape {sources.shape}"
            )
        k = sources.shape[1]
        if self.dtype == np.float32:
            self.workspace(k).sources[...] = sources
        else:
            self.compiled.column_io(self.num_nodes, k)[0][...] = sources
        return k

    def run_columns(self, k: int) -> np.ndarray:
        """Execute the forward pass for the ``k`` staged source columns.

        Returns the ``(n, k)`` per-node outputs — a view of the workspace,
        overwritten by the next run; in f64 column ``c`` is bit-identical to
        ``run_columns(1)`` on column ``c`` alone (see the module docstring).
        """
        if self.dtype == np.float32:
            return self._forward(self.workspace(k))
        staged, outputs = self.compiled.column_io(self.num_nodes, k)
        single = self.workspace(1)
        for c in range(k):
            single.sources[:, 0] = staged[:, c]
            outputs[:, c] = self._forward(single)[:, 0]
        return outputs

    def _loop(self, k: int = 1):
        """The C block loop for ``k`` columns of this plan, if it loaded and their GEMMs fit in ``int``."""
        kernels = edge_kernels() if k <= self._loop_columns else None  # resolved once per process
        return None if kernels is None else kernels.get(self._loop_name)

    @property
    def kernel(self) -> str:
        """Which body this plan's forward runs: ``"native"`` (the C block loop) or ``"numpy"`` (same bytes)."""
        return "numpy" if self._loop() is None else "native"

    def _edge_pass(self, ws: _Workspace, block: _CompiledBlock) -> None:
        """:meth:`EdgeLayout.edge_pass` of one block into ``ws.pre2d``, numpy scratch from the buffers."""
        self._edges.edge_pass(block.w_attr_T, block.b_hidden, ws.proj_flat, ws.pre_flat, ws.k,
                              self.compiled._buffers.edge_scratch)

    def _forward(self, ws: _Workspace) -> np.ndarray:
        """The folded k̄-iteration forward on workspace ``ws``; returns ``ws.output``: every block in one
        call of the C loop, else :meth:`_blocks_numpy` (the same bytes), then the decoder."""
        ws.latent2d.fill(0.0)
        loop = self._loop(ws.k)
        if loop is None:
            self._blocks_numpy(ws)
        else:
            loop(ws.k, *self._loop_args, *ws.pointers)
        w1_T, b1, w2_T, b2 = self.compiled.decoder
        np.matmul(ws.latent2d, w1_T, out=ws.hidden2d)
        ws.hidden2d += b1
        relu_(ws.hidden2d)
        np.matmul(ws.hidden2d, w2_T, out=ws.output2d)
        ws.output2d += b2
        return ws.output

    def _blocks_numpy(self, ws: _Workspace) -> None:
        """The k̄ blocks in numpy, the C loop's reference (see the module docstring)."""
        for block, table in zip(self.compiled.blocks, self.bias_table):
            _gemm_acc(ws.latent2d, block.w_dst_T, ws.proj_dst2d, None, beta=0.0)
            _gemm_acc(ws.latent2d, block.w_src_T, ws.proj_src2d, None, beta=0.0)
            self._edge_pass(ws, block)
            # ψ hidden = (sources w₀ + bias) + pre W_agg + latent Wₗ: the
            # rank-1 source term and the keyed bias in one prefill — product,
            # then sum — the two products GEMM-accumulated (beta=1) onto it
            np.multiply(ws.sources[..., None], block.w_source, out=ws.hidden3)
            ws.hidden3 += table[self.key][:, None, :]
            _gemm_acc(ws.pre2d, block.w_psi_agg_T, ws.hidden2d, ws.scratch2d)
            _gemm_acc(ws.latent2d, block.w_psi_latent_T, ws.hidden2d, ws.scratch2d)
            relu_(ws.hidden2d)
            # damped ResNet update, accumulated directly into the latent
            _gemm_acc(ws.hidden2d, block.w2_alpha_T, ws.latent2d, ws.scratch2d)
            ws.latent2d += block.b2_alpha
