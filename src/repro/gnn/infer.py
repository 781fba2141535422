"""Allocation-free DSS inference engine: one folded forward for every plan.

``DSS.forward`` — the differentiable forward, also what ``DSS.predict`` runs
under ``no_grad`` — evaluates each block on freshly allocated arrays from the
model's current weights.  Inside a Krylov solve the same batch of sub-domain
graphs is evaluated hundreds of times with only the per-node source changing
and the weights frozen, so every allocation, every weight-only product and
every term that depends on the fixed edge attributes alone is invariant.

:class:`InferencePlan` binds a structural :class:`~repro.gnn.batch.BatchPlan`
to one model and runs **one** forward (:meth:`InferencePlan._forward`) for
both precisions and every column count.  The forward is memory-bound (a few
FLOPs per byte streamed over the ``E``-row edge arrays), so everything below
exists to move fewer bytes per sweep; all of it is fixed at compile time:

* **per-node projections** — the hidden edge layer ``W₁ [h_dst | h_src | e]``
  is split along its disjoint weight column blocks; the latent parts become
  ``n``-row GEMMs *before* gathering to edges instead of an
  ``E``-row × ``2d+|e|``-column GEMM after;
* **direction stacking** — both message directions live side by side along
  the last axis (``[fwd | bwd]``, width ``2d``): one pair of double-width
  projection GEMMs and one edge pass serve both, and the aggregation result
  is already the contiguous ``ψ`` GEMM operand;
* **static edge terms** — the attribute contribution ``e W₁ₑᵀ + b₁`` depends
  only on the fixed edge attributes, and is never stored: a plan holds its one
  ``(E, |e|)`` attribute array and each block its ``(|e|, 2d)`` weights and
  ``(2d,)`` bias (the backward direction's sign-reversed relative positions
  folded into the weights, ``(−a)·w = a·(−w)`` exactly, so both directions
  read the same attributes), and the edge pass forms an edge's term as it gets
  there, once for all ``k`` columns — plan memory is ``O(E + n·d·k̄)``;
* **one edge pass** — ``pre[i] = Σ_{e → i} relu(static[e] + proj_dst[i] +
  proj_src[src_e])``, ``static[e] = ((a₀ W₀ + a₁ W₁) + a₂ W₂ …) + b``, over
  edges stable-sorted by destination at compile time, in two bodies on that
  one layout.  The *native* body (``_edge_pass.c``, compiled on first use by
  :mod:`repro.gnn._native` for ``|e|`` = 3 and 4) is a single sweep that never
  materialises the ``(E, k, 2d)`` messages.  The *numpy* body — the reference,
  and what runs without a C compiler or at another ``|e|`` — builds the terms
  column by column in a scratch, prefills a message buffer with them,
  accumulates the projections through a two-ones CSR operator (row ``e`` =
  ``[dst_e, n + src_e]``), applies the ReLU and aggregates with a second SpMM.
  Same products and sums in the same order, each rounded on its own: they
  agree **bit for bit** in both precisions and for every ``k``, so which one
  ran (``InferencePlan.kernel``) never changes a result;
* **folded output layers** — aggregation is linear, so each direction's
  output layer commutes with it and then merges into ``ψ``'s first layer:
  ``(S H) W₂ᵀ ψ₁ₐᵀ = (S H) (ψ₁ₐ W₂)ᵀ``.  The per-direction output GEMMs and
  bias passes disappear; both aggregated output biases (``deg ⊗ b₂`` pushed
  through ``ψ₁ₐ``), ``ψ``'s own bias and the ``ψ`` contribution of the
  column-invariant κ channels collapse into one per-node ``bias_node``, and
  the damping ``α`` is folded into ``ψ``'s second layer.  ``ψ``'s hidden layer
  is three ``beta=1`` GEMMs accumulated onto the prefilled bias, and the
  ResNet update is a ``beta=1`` GEMM straight onto the latent state.

The first three are shared with the differentiable forward
(:meth:`repro.gnn.mpnn.DSSBlock.forward` runs the same operators in the same
order, with the output layers applied after aggregation but not merged into
``ψ``); the folds are the inference-only step, applied to trained weights.
They are computed in float64 from the model weights (and cast once for f32
plans), so they re-associate the forward's dot products and commutative sums
and nothing else: the f64 forward agrees with ``DSS.predict`` to a few ulp
(~1e-15 relative observed; the parity tests pin 1e-12), orders of magnitude
tighter than anything visible to the preconditioned solver.

Because the weights are prestaged, a plan captures the model parameters *at
compile time*: recompile after any further training or ``load_state_dict``.

**Columns.**  Buffers are laid out ``(rows, k, ·)`` with the column axis
inside each row block: GEMMs run on ``(rows·k, ·)`` reshape views, the edge
pass carries the columns as a loop bound (the numpy body's SpMMs in their
dense dimension, ``n_vecs = k·2d``: every row moves one contiguous block), and
the workspace for any ``k <= k_max`` is a reshape view of the same flat
allocations, so a lockstep solve whose active set shrinks allocates nothing.
``run()`` is the ``k = 1`` case of ``run_columns(k)``.

* **f32** plans sweep all ``k`` columns at once (one BLAS call per layer).
  f32 carries no bit-identity contract — the preconditioner only has to stay
  a fixed function of the residual (see DESIGN.md) — and the
  k-wide sweep is pinned against ``k`` single-column sweeps by tolerance.
* **f64** plans run the ``k`` columns *one at a time* through the ``k = 1``
  kernel and the same workspace.  A fused ``(n·k, d)`` GEMM is not bit-stable
  against the ``(n, d)`` single-column call (BLAS picks row-count-dependent
  kernels — the same reason the Nicolaides coarse space applies its K×K
  inverse one column at a time), and the lockstep CG needs column ``c`` of
  ``infer_columns`` bit-identical to ``infer`` on column ``c``.  Running the
  identical kernel on identical buffers gives that by construction.

**Precision.**  ``precision="f32"`` stages weights, edge attributes and
every buffer in float32; sources and outputs are cast at the plan boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..nn.functional import relu_
from ._native import edge_kernels
from .batch import BatchPlan, GraphBatch, message_operators

__all__ = ["InferencePlan"]

#: dtypes of the supported plan precisions
PRECISION_DTYPES = {"f64": np.float64, "f32": np.float32}


def _validated_csr_matvecs():
    """The private scipy kernel for allocation-free CSR SpMM (``Y += A @ X``).

    ``scipy.sparse._sparsetools.csr_matvecs`` has been stable for many years,
    but it is private: guard not just against it disappearing but against a
    signature/semantics change, by checking it once against the public
    operator on a tiny fixed matrix.  Returns None (public ``@`` fallback)
    when anything is off.
    """
    try:
        from scipy.sparse import _sparsetools

        kernel = _sparsetools.csr_matvecs
        matrix = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
        x = np.arange(6.0).reshape(3, 2)
        y = np.zeros((2, 2))
        kernel(
            matrix.shape[0], matrix.shape[1], x.shape[1],
            matrix.indptr, matrix.indices, matrix.data,
            x.ravel(), y.ravel(),
        )
        if not np.array_equal(y, matrix @ x):
            return None
        return kernel
    except Exception:  # pragma: no cover - old/exotic scipy
        return None


_csr_matvecs = _validated_csr_matvecs()

try:
    from scipy.linalg.blas import dgemm, sgemm

    _BLAS_GEMM = {np.dtype(np.float64): dgemm, np.dtype(np.float32): sgemm}
except ImportError:  # pragma: no cover - scipy built without BLAS wrappers
    _BLAS_GEMM = {}


def _gemm_acc(a: np.ndarray, b: np.ndarray, c: np.ndarray, scratch: np.ndarray) -> None:
    """``c += a @ b`` for C-contiguous operands of one dtype, allocation-free.

    BLAS GEMM's ``beta=1`` accumulation fuses the product and the addition
    into one sweep over ``c``; the C-ordered arrays are handed over as their
    F-contiguous transpose views (``cᵀ = bᵀ aᵀ + cᵀ``), which ``overwrite_c``
    updates in place.  Without the scipy BLAS wrappers the product lands in
    ``scratch`` (same shape as ``c``) first.
    """
    gemm = _BLAS_GEMM.get(c.dtype)
    if gemm is not None:
        gemm(1.0, b.T, a.T, beta=1.0, c=c.T, overwrite_c=1)
    else:
        np.matmul(a, b, out=scratch)
        c += scratch


def _spmm_acc(matrix: sp.csr_matrix, x_flat: np.ndarray, y_flat: np.ndarray, n_vecs: int) -> None:
    """``Y += A @ X`` on the flat views of C-contiguous ``(·, n_vecs)`` arrays."""
    rows, cols = matrix.shape
    if _csr_matvecs is not None:
        _csr_matvecs(rows, cols, n_vecs, matrix.indptr, matrix.indices, matrix.data, x_flat, y_flat)
    else:
        y = y_flat.reshape(rows, n_vecs)
        y += matrix @ x_flat.reshape(cols, n_vecs)


@dataclass
class _CompiledBlock:
    """One message-passing block, staged for the folded forward.

    ``[fwd | bwd]`` marks arrays that stack both message directions along
    their last axis; see the module docstring for the folds.
    """

    w_dst_T: np.ndarray         # (d, 2d) — [fwd | bwd] latent-of-destination projections
    w_src_T: np.ndarray         # (d, 2d) — [fwd | bwd] latent-of-source projections
    w_attr_T: np.ndarray        # (|e|, 2d) — [fwd | bwd] attribute weights, bwd sign-folded
    b_hidden: np.ndarray        # (2d,) — [fwd | bwd] hidden-layer biases
    w_psi_agg_T: np.ndarray     # (2d, d) — ψ agg columns with each direction's W₂ folded in
    w_psi_latent_T: np.ndarray  # (d, d)
    w_source_T: np.ndarray      # (1, d) — ψ weight column of the residual input
    bias_node: np.ndarray       # (n, d) — ψ b₁ + aggregated output biases + κ-channel terms
    w2_alpha_T: np.ndarray      # (d, d) — α · ψ W₂ᵀ
    b2_alpha: np.ndarray        # (d,) — α · ψ b₂


@dataclass
class _CompiledDecoder:
    w1_T: np.ndarray
    b1: np.ndarray
    w2_T: np.ndarray
    b2: np.ndarray


@dataclass
class _Workspace:
    """Reshape views of one :class:`_Buffers` allocation for ``k`` columns.

    Views for different ``k`` alias each other, which is harmless: after the
    compile-time folds the only per-call input is the residual sources,
    staged fresh by every ``load_source_columns``.  The ``*2d`` fields are
    the ``(rows·k, ·)`` GEMM views, the ``*_flat`` fields the 1-D views the
    edge pass consumes.
    """

    k: int
    latent2d: np.ndarray     # (n·k, d)
    sources: np.ndarray      # (n, k) — the residual inputs, one per column
    input2d: np.ndarray      # (n·k, 1)
    proj_dst2d: np.ndarray   # (n·k, 2d) — rows [0, n) of the (2n, k, 2d) projections
    proj_src2d: np.ndarray   # (n·k, 2d) — rows [n, 2n)
    proj_flat: np.ndarray
    proj_pointer: int        # address of proj_flat, for the native edge pass
    pre2d: np.ndarray        # (n·k, 2d) — raw [fwd | bwd] aggregation sums
    pre_flat: np.ndarray
    pre_pointer: int
    hidden2d: np.ndarray     # (n·k, d)
    hidden3: np.ndarray      # (n, k, d)
    scratch2d: np.ndarray    # (n·k, d) — _gemm_acc fallback scratch (aliases proj)
    output2d: np.ndarray     # (n·k, 1)
    output: np.ndarray       # (n, k)


class _Buffers:
    """Forward-pass scratch: flat allocations sized for ``k_max`` columns."""

    def __init__(self, plan: "InferencePlan", k_max: int) -> None:
        n, num_edges, d = plan.num_nodes, plan.plan.num_edges, plan.latent_dim
        dtype = plan.dtype
        k = int(k_max)
        self.k_max = k
        self._latent = np.empty(n * k * d, dtype=dtype)
        self._input = np.empty(n * k, dtype=dtype)
        self._proj = np.empty(2 * n * k * 2 * d, dtype=dtype)
        # the numpy edge pass only: (E, k_max, 2d) messages, then the (E, 2d) static terms in flight
        self._edge: Optional[np.ndarray] = None
        self._pre = np.empty(n * k * 2 * d, dtype=dtype)
        self._hidden = np.empty(n * k * d, dtype=dtype)
        self._output = np.empty(n * k, dtype=dtype)
        self._dims = (n, num_edges, d)
        self._views: Dict[int, _Workspace] = {}

    def view(self, k: int) -> _Workspace:
        workspace = self._views.get(k)
        if workspace is not None:
            return workspace
        n, num_edges, d = self._dims
        proj = self._proj[:2 * n * k * 2 * d].reshape(2 * n, k, 2 * d)
        hidden = self._hidden[:n * k * d].reshape(n * k, d)
        output = self._output[:n * k].reshape(n * k, 1)
        workspace = _Workspace(
            k=k,
            latent2d=self._latent[:n * k * d].reshape(n * k, d),
            sources=self._input[:n * k].reshape(n, k),
            input2d=self._input[:n * k].reshape(n * k, 1),
            proj_dst2d=proj[:n].reshape(n * k, 2 * d),
            proj_src2d=proj[n:].reshape(n * k, 2 * d),
            proj_flat=proj.reshape(-1),
            proj_pointer=proj.ctypes.data,
            pre2d=self._pre[:n * k * 2 * d].reshape(n * k, 2 * d),
            pre_flat=self._pre[:n * k * 2 * d],
            pre_pointer=self._pre.ctypes.data,
            hidden2d=hidden,
            hidden3=hidden.reshape(n, k, d),
            # the projections are dead between the edge pass and the next
            # block's projection GEMMs — exactly where _gemm_acc runs
            scratch2d=self._proj[:n * k * d].reshape(n * k, d),
            output2d=output,
            output=output.reshape(n, k),
        )
        self._views[k] = workspace
        return workspace


def _check_compilable(mlp) -> None:
    """The model's one architecture check: single-hidden-layer ReLU MLPs.

    The paper's architecture (Sec. III-B) and the only one the block
    primitive of :mod:`repro.gnn.mpnn` and the folds below are written for.
    """
    if len(mlp.layers) != 2 or mlp.activation != "relu" or mlp.final_activation != "none":
        raise NotImplementedError(
            "the DSS forward (differentiable and compiled alike) supports the paper's "
            "single-hidden-layer ReLU MLPs only (Sec. III-B)"
        )


def _weight(layer) -> np.ndarray:
    return np.asarray(layer.weight.data, dtype=np.float64)


def _bias(layer) -> np.ndarray:
    if layer.bias is None:
        return np.zeros(layer.weight.data.shape[0])
    return np.asarray(layer.bias.data, dtype=np.float64)


class InferencePlan:
    """A :class:`BatchPlan` bound to one DSS model, with reusable scratch buffers.

    Build one via ``model.compile_plan(batch)``; run it via
    ``model.infer(plan, source)`` / ``model.infer_columns(plan, sources)``.
    The returned output array is a view of an internal buffer, valid until
    the next run on the same plan.  Weights are captured at compile time —
    recompile after training.

    **Ownership / thread safety.**  A plan is single-flight mutable state:
    every run writes through the same scratch GEMM buffers, so a plan
    must only ever be driven by one thread at a time.  The repository's
    concurrency model keeps this implicit invariant explicit — plans are
    owned by the preconditioner that compiled them, the preconditioner by
    its :class:`~repro.solvers.session.SolverSession` (whose lock serialises
    solves), and in the serve layer each session is pinned to a single
    worker thread.  For true intra-problem parallelism, clone the session
    (``session.clone_for_worker()``), which recompiles fresh plans.
    """

    def __init__(
        self, model, batch: Union[GraphBatch, BatchPlan], precision: str = "f64"
    ) -> None:
        plan = batch.compile_plan() if isinstance(batch, GraphBatch) else batch
        if precision not in PRECISION_DTYPES:
            raise ValueError(
                f"precision must be one of {sorted(PRECISION_DTYPES)}, got {precision!r}"
            )
        self.model = model
        self.plan = plan
        self.precision = precision
        self.dtype = PRECISION_DTYPES[precision]
        dtype = self.dtype
        cfg = model.config
        n, num_edges = plan.num_nodes, plan.num_edges
        d = cfg.latent_dim
        self.latent_dim = d
        self.node_input_dim = cfg.node_input_dim

        # one edge layout for both edge-pass bodies: stable-sorted by destination
        # (the identity after ``BatchPlan.from_batch``), so the aggregation is an
        # ``indptr`` and every destination sums in ascending edge id
        if num_edges and not (0 <= plan.edge_index.min() and plan.edge_index.max() < n):
            raise ValueError(f"edge_index must hold node ids in [0, {n})")
        order = np.argsort(plan.edge_index[1], kind="stable")
        self._edge_index = np.ascontiguousarray(plan.edge_index[:, order], dtype=np.int64)
        indegree = np.bincount(self._edge_index[1], minlength=n)
        self._indptr = np.concatenate(([0], np.cumsum(indegree)), dtype=np.int64)
        self._operators = None  # the numpy body's CSR pair, built on its first use

        # edge attributes at the model's width, in that order; static node
        # features (κ channels — everything except the residual column 0) and
        # in-degrees feed the compile-time folds only
        self._edge_attr = np.ascontiguousarray(
            model._prepare_edge_attr(plan.edge_attr)[order], dtype=dtype)
        self._edge_pointers = (
            self._indptr.ctypes.data, self._edge_index[0].ctypes.data, self._edge_attr.ctypes.data)
        node_features = np.asarray(model._prepare_node_input(plan), dtype=np.float64)[:, 1:]
        indegree = indegree.astype(np.float64).reshape(-1, 1)

        self.compiled_blocks: List[_CompiledBlock] = [
            self._compile_block(block, node_features, indegree) for block in model.blocks
        ]
        decoder = model.decoders[-1].mlp
        _check_compilable(decoder)
        self.compiled_decoder = _CompiledDecoder(
            w1_T=self._stage(_weight(decoder.layers[0]).T),
            b1=self._stage(_bias(decoder.layers[0])),
            w2_T=self._stage(_weight(decoder.layers[1]).T),
            b2=self._stage(_bias(decoder.layers[1])),
        )

        # forward-pass buffers, allocated lazily at the largest column count
        # seen and view-sliced for smaller ones (lockstep solves shrink their
        # active set as columns converge); f64 plans only ever sweep k = 1
        # and stage multi-column sources/outputs in _column_io
        self._buffers: Optional[_Buffers] = None
        self._io = np.empty(0)

    def _stage(self, array: np.ndarray) -> np.ndarray:
        """A float64 fold result as a contiguous array at the plan precision."""
        return np.ascontiguousarray(array, dtype=self.dtype)

    def _compile_block(self, block, node_features: np.ndarray, indegree: np.ndarray) -> _CompiledBlock:
        """Fold one block's weights (in float64, cast once) — see the module docstring."""
        d, ni = self.latent_dim, self.node_input_dim
        phis = (block.phi_forward, block.phi_backward)
        for mlp in (*phis, block.psi):
            _check_compilable(mlp)
        hidden = [_weight(phi.layers[0]) for phi in phis]          # (d, 2d+|e|) each
        # the backward direction sees sign-reversed relative positions
        attr_sign = np.ones(hidden[0].shape[1] - 2 * d)
        attr_sign[:2] = -1.0
        psi1 = _weight(block.psi.layers[0])                        # (d, 3d+ni)
        bias_node = np.tile(_bias(block.psi.layers[0]), (self.num_nodes, 1))
        psi_agg_T = []
        for phi, offset in zip(phis, (d + ni, 2 * d + ni)):
            psi1_cols = psi1[:, offset:offset + d]
            # fold the direction's output layer into ψ's agg columns:
            # (S H) W₂ᵀ ψ₁ₐᵀ = (S H) (ψ₁ₐ W₂)ᵀ, bias: S (1 ⊗ b₂) = deg ⊗ b₂
            psi_agg_T.append((psi1_cols @ _weight(phi.layers[1])).T)
            bias_node += (indegree * _bias(phi.layers[1])) @ psi1_cols.T
        # the κ channels never change between applications, so their ψ
        # contribution is a fixed per-node vector, leaving the residual
        # sources as the only per-column input
        if ni > 1:
            bias_node += node_features @ psi1[:, d + 1:d + ni].T
        alpha = float(block.alpha)
        return _CompiledBlock(
            w_dst_T=self._stage(np.hstack([w[:, :d].T for w in hidden])),
            w_src_T=self._stage(np.hstack([w[:, d:2 * d].T for w in hidden])),
            w_attr_T=self._stage(np.hstack([hidden[0][:, 2 * d:].T, (hidden[1][:, 2 * d:] * attr_sign).T])),
            b_hidden=self._stage(np.concatenate([_bias(phi.layers[0]) for phi in phis])),
            w_psi_agg_T=self._stage(np.vstack(psi_agg_T)),
            w_psi_latent_T=self._stage(psi1[:, :d].T),
            w_source_T=self._stage(psi1[:, d:d + 1].T),
            bias_node=self._stage(bias_node),
            w2_alpha_T=self._stage(alpha * _weight(block.psi.layers[1]).T),
            b2_alpha=self._stage(alpha * _bias(block.psi.layers[1])),
        )

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self.plan.num_nodes

    @property
    def num_graphs(self) -> int:
        return self.plan.num_graphs

    def load_source(self, values: np.ndarray) -> None:
        """Copy the current per-node inputs into the structural plan's buffer.

        The plan's ``source`` is what :meth:`run` stages, and keeping it
        current lets ``DSS.forward`` run on the very same plan (the parity
        tests rely on this).
        """
        self.plan.load_source(values)

    def split_node_values(self, values: np.ndarray):
        return self.plan.split_node_values(values)

    # ------------------------------------------------------------------ #
    def workspace(self, k: int) -> _Workspace:
        """The cached ``k``-column workspace (flat-backed reshape views).

        Allocation happens on the first call and again only when ``k`` grows
        past every previously seen value; shrinking column counts (lockstep
        compaction) reuse the same arrays.
        """
        if k < 1:
            raise ValueError(f"column count must be >= 1, got {k}")
        buffers = self._buffers
        if buffers is None or k > buffers.k_max:
            buffers = _Buffers(self, k)
            self._buffers = buffers
        return buffers.view(k)

    def _column_io(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """f64 staging: the ``(n, k)`` sources and outputs around the k=1 sweeps.

        Views of one flat allocation grown to the largest ``k`` seen.
        """
        size = self.num_nodes * k
        if self._io.size < 2 * size:
            self._io = np.empty(2 * size)
        return (self._io[:size].reshape(-1, k), self._io[size:2 * size].reshape(-1, k))

    def load_source_columns(self, sources: np.ndarray) -> int:
        """Stage ``k`` per-node source columns; returns ``k``.

        ``sources`` is ``(n, k)`` — column ``c`` is what ``load_source`` would
        receive for the corresponding single-column run.  Casting to the plan
        dtype happens here (the f32 boundary).
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
            self._column_io(k)[0][...] = sources
        return k

    def run_columns(self, k: int) -> np.ndarray:
        """Execute the forward pass for the ``k`` staged source columns.

        Returns the ``(n, k)`` per-node outputs — a view of plan buffers,
        overwritten by the next run.  f32 plans sweep all columns at once;
        f64 plans run them one at a time through the ``k = 1`` kernel, so
        column ``c`` is bit-identical to ``run()`` on column ``c`` (see the
        module docstring).
        """
        if self.dtype == np.float32:
            return self._forward(self.workspace(k))
        staged, outputs = self._column_io(k)
        single = self.workspace(1)
        for c in range(k):
            single.sources[:, 0] = staged[:, c]
            outputs[:, c] = self._forward(single)[:, 0]
        return outputs

    def run(self) -> np.ndarray:
        """``run_columns(1)`` on the plan's current source, as a flat array."""
        self.load_source_columns(self.plan.source[:, None])
        return self.run_columns(1)[:, 0]

    def _native_pass(self):
        """The C edge pass for this plan's precision and attribute width, if it loaded."""
        kernels = edge_kernels()  # resolved (compiled, loaded, self-checked) once per process
        return None if kernels is None else kernels.get((self.precision, self._edge_attr.shape[1]))

    @property
    def kernel(self) -> str:
        """Which edge-pass body this plan runs: ``"native"`` or ``"numpy"`` (same bytes)."""
        return "numpy" if self._native_pass() is None else "native"

    def _edge_pass(self, ws: _Workspace, block: _CompiledBlock) -> None:
        """``pre[i] = Σ_{e → i} relu(static[e] + proj_dst[i] + proj_src[src_e])`` into ``ws.pre2d``,
        ``static[e] = ((a₀ W₀ + a₁ W₁) + a₂ W₂ …) + b`` from the attribute row of edge ``e``.

        One C sweep if the kernel loaded; else (and as its bitwise reference)
        terms → prefill → two-ones gather SpMM → ReLU → aggregation SpMM in numpy/scipy.
        """
        attr, weights, bias = self._edge_attr, block.w_attr_T, block.b_hidden
        (num_edges, attr_width), width = attr.shape, bias.size
        native = self._native_pass()
        if native is not None:
            native(self.num_nodes, ws.k, width, *self._edge_pointers, weights.ctypes.data,
                   bias.ctypes.data, ws.proj_pointer, ws.pre_pointer)
            return
        buffers, n_vecs = self._buffers, ws.k * width
        if self._operators is None:
            self._operators = message_operators(self._edge_index, self.num_nodes, dtype=self.dtype)
        if buffers._edge is None:
            buffers._edge = np.empty(num_edges * (buffers.k_max + 1) * width, dtype=self.dtype)
        messages = buffers._edge[:num_edges * n_vecs]
        # terms and products unit-major, (2d, E): numpy's inner loops then run over E, not 2d
        static = buffers._edge[num_edges * buffers.k_max * width:].reshape(width, num_edges)
        product = messages[:num_edges * width].reshape(width, num_edges)  # dead before the prefill
        np.multiply(weights[0][:, None], attr[:, 0], out=static)
        for j in range(1, attr_width):
            np.multiply(weights[j][:, None], attr[:, j], out=product)
            static += product
        static += bias[:, None]
        np.copyto(messages.reshape(num_edges, ws.k, width), static.T[:, None, :])
        _spmm_acc(self._operators.gather, ws.proj_flat, messages, n_vecs)
        relu_(messages)
        ws.pre_flat.fill(0.0)
        _spmm_acc(self._operators.aggregate, messages, ws.pre_flat, n_vecs)

    def _forward(self, ws: _Workspace) -> np.ndarray:
        """The folded k̄-iteration forward on workspace ``ws``; returns ``ws.output``.

        Per block: two double-width projection GEMMs and one edge pass serve
        *both* message directions; ``ψ``'s hidden layer reads the raw
        aggregation sums through the folded weights of :class:`_CompiledBlock`.
        """
        ws.latent2d.fill(0.0)
        for block in self.compiled_blocks:
            np.matmul(ws.latent2d, block.w_dst_T, out=ws.proj_dst2d)
            np.matmul(ws.latent2d, block.w_src_T, out=ws.proj_src2d)
            self._edge_pass(ws, block)
            # ψ hidden = bias_node + pre W_agg + latent Wₗ + sources w₀, the
            # products GEMM-accumulated (beta=1) straight onto the prefilled
            # bias — no separate addition passes
            np.copyto(ws.hidden3, block.bias_node[:, None, :])
            _gemm_acc(ws.pre2d, block.w_psi_agg_T, ws.hidden2d, ws.scratch2d)
            _gemm_acc(ws.latent2d, block.w_psi_latent_T, ws.hidden2d, ws.scratch2d)
            _gemm_acc(ws.input2d, block.w_source_T, ws.hidden2d, ws.scratch2d)
            relu_(ws.hidden2d)
            # damped ResNet update, accumulated directly into the latent
            _gemm_acc(ws.hidden2d, block.w2_alpha_T, ws.latent2d, ws.scratch2d)
            ws.latent2d += block.b2_alpha
        decoder = self.compiled_decoder
        np.matmul(ws.latent2d, decoder.w1_T, out=ws.hidden2d)
        ws.hidden2d += decoder.b1
        relu_(ws.hidden2d)
        np.matmul(ws.hidden2d, decoder.w2_T, out=ws.output2d)
        ws.output2d += decoder.b2
        return ws.output
