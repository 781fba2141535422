"""The DDM-GNN preconditioner — the paper's primary contribution (Sec. III-A).

DDM-GNN follows the two-level Additive Schwarz preconditioner but solves the
local sub-domain problems with a trained Deep Statistical Solver instead of a
sparse LU factorisation.  Applying it to a global residual ``r``:

1. **Local problems** (Eqs. 14–15): every local residual (on the full overlapping
   sub-domain) is *normalised* (``R_i r / ‖R_i r‖``) — this keeps the inputs inside
   the DSS training distribution even as PCG drives the residual to zero — and
   all K local problems are solved in a few batched DSS inferences.
2. **Restricted gluing**: ``z₁ = Σ_i R̃_iᵀ ‖R_i r‖ ũ_i`` — a node's correction
   is taken only from the sub-domain whose non-overlapping core owns it, not
   from the rows next to an artificial interface, where a local solve is worst.
3. **Coarse solve, last**: ``z = z₁ + R_0ᵀ (R_0 A R_0ᵀ)⁻¹ R_0 (r − A z₁)`` by
   LU, on the residual the local sweep leaves, so ``R_0 (r − A z) = 0``.

The paper's Eqs. 13 and 16 are the additive, symmetric form of steps 2–3
(``z = Q r + Σ_i R_iᵀ ‖R_i r‖ ũ_i``).  The GNN is a nonlinear map, so the
preconditioner is not symmetric either way, and it says so: ``linear =
False``.  The Krylov layer reads that flag and runs its flexible recurrences
(FCG / FGMRES, :mod:`repro.krylov.flexible`), which assume nothing about
``M``; that frees steps 2–3: on the ledger operator the frozen DSS needs 9
iterations, about DDM-LU's count, where the additive form needed ~24
(DESIGN.md, "The apply after the flexible recurrence").  Each application is
still a fixed function of the residual, so solves are deterministic and
converge to any tolerance.

Everything that is invariant across a Krylov solve is compiled once at
construction: the stacked restriction operator ``R = [R_1; …; R_K]``, the
per-batch :class:`~repro.gnn.infer.InferencePlan` of the DSS model, and the
stacked equilibration vector.  There is **one** application,
:meth:`DDMGNNPreconditioner.apply_columns`, on ``(n, k)`` residual blocks —
``apply(r)`` is its one-column case, a lockstep Krylov block its wide one.
The sweep is loop-free: one gather, segmented norms via ``reduceat``, one
model call per inference batch, and one owner gather, all on preallocated
``(total_rows, k)`` scratch.  Duck-typed models that only provide ``predict``
(the test doubles, custom local solvers) are served by the very same sweep;
the duck-typing lives only at the model call.
"""

from __future__ import annotations

import time
from typing import List, Literal, Optional

import numpy as np
import scipy.sparse as sp

from ..ddm.asm import Preconditioner
from ..ddm.coarse import NicolaidesCoarseSpace
from ..ddm.restriction import ColumnScratch, StackedRestriction
from ..gnn.batch import GraphBatch
from ..gnn.dss import DSS
from ..mesh.mesh import TriangularMesh
from ..obs import trace as obs_trace
from ..partition.overlap import OverlappingDecomposition
from .dataset import SubdomainGeometry, build_subdomain_geometries

__all__ = ["DDMGNNPreconditioner"]

#: stacked-node budget per inference batch (the paper's Nb batching): a
#: constant, every chunk of ≥ 2 sub-domains measured alike (DESIGN.md)
_AUTO_BATCH_TARGET_NODES = 2048


class DDMGNNPreconditioner(Preconditioner):
    """Multi-level GNN preconditioner (DDM-GNN).

    Parameters
    ----------
    matrix:
        Global SPD system matrix A.
    mesh:
        The global mesh (needed for sub-mesh geometry fed to the GNN).
    decomposition:
        Overlapping decomposition into K sub-domains (its ``core_nodes`` own the nodes).
    model:
        A (trained) :class:`~repro.gnn.dss.DSS` model.  Duck-typed objects
        exposing only ``predict(batch)`` are accepted: the same sweep calls
        ``predict`` per inference batch and column instead of a compiled plan.
    levels:
        2 (default) ends the apply with the Nicolaides coarse solve; 1 drops
        it (one-level ablation).
    normalize_local_residuals:
        The paper's residual normalisation.  Disabling it (ablation) shows the
        stagnation the paper describes in Sec. III-A.
    global_dirichlet_mask:
        Physical Dirichlet node mask of the problem (defaults to the whole
        mesh boundary; mixed-BC problems pass their own).
    node_diffusion:
        Per-node κ values of a heterogeneous problem; when given, the
        sub-domain graphs carry κ-aware node/edge features.
    equilibrate:
        Diagonal equilibration of the local solves (see
        :class:`~repro.core.dataset.SubdomainGeometry`); None (default)
        enables it exactly when ``node_diffusion`` is present.
    precision:
        Staging precision of the compiled DSS inference plans: ``"f64"``
        (default) or ``"f32"``.  In float32 mode the residual normalisation,
        scaling and gluing stay in float64 — only the network forward runs in
        float32, with casts at the source/output boundary — so the
        preconditioner remains a fixed function of the residual and the
        flexible recurrence converges with a small, gated iteration drift.
        Requires compiled plans (a real DSS model).
    """

    #: the DSS is a nonlinear map of the residual — Krylov goes flexible
    linear = False

    def __init__(
        self,
        matrix: sp.spmatrix,
        mesh: TriangularMesh,
        decomposition: OverlappingDecomposition,
        model: DSS,
        levels: Literal[1, 2] = 2,
        normalize_local_residuals: bool = True,
        global_dirichlet_mask: Optional[np.ndarray] = None,
        node_diffusion: Optional[np.ndarray] = None,
        equilibrate: Optional[bool] = None,
        precision: str = "f64",
    ) -> None:
        if levels not in (1, 2):
            raise ValueError("levels must be 1 or 2")
        if precision not in ("f64", "f32"):
            raise ValueError(f"precision must be 'f64' or 'f32', got {precision!r}")
        self.matrix = matrix.tocsr()
        self.mesh = mesh
        self.decomposition = decomposition
        self.model = model
        self.levels = int(levels)
        self.normalize_local_residuals = bool(normalize_local_residuals)
        self.precision = precision

        n = self.matrix.shape[0]
        subdomains = decomposition.subdomain_nodes
        self.stacked_restriction = StackedRestriction(subdomains, n, core_nodes=decomposition.core_nodes)
        self.geometries: List[SubdomainGeometry] = build_subdomain_geometries(
            mesh,
            self.matrix,
            decomposition,
            global_dirichlet_mask=global_dirichlet_mask,
            node_diffusion=node_diffusion,
            equilibrate=equilibrate,
        )
        self.coarse_space: Optional[NicolaidesCoarseSpace] = None
        if self.levels == 2:
            self.coarse_space = NicolaidesCoarseSpace(subdomains, n).factorize(self.matrix)

        # Pre-build the batched graph structures once; only the per-node source
        # changes between preconditioner applications.  Feature widths are
        # scanned once over the geometries instead of once per batch.
        k = len(self.geometries)
        edge_dim, node_dim = GraphBatch.feature_dims(self.geometries)
        self._batches: List[GraphBatch] = []
        self._batch_membership: List[List[int]] = []
        average_size = max(1, self.stacked_restriction.total_rows // k)
        chunk = max(1, _AUTO_BATCH_TARGET_NODES // average_size)
        for start in range(0, k, chunk):
            members = list(range(start, min(start + chunk, k)))
            graphs = [self.geometries[i].make_graph(np.zeros(len(self.geometries[i].positions))) for i in members]
            self._batches.append(
                GraphBatch.from_graphs(graphs, edge_attr_dim=edge_dim, node_attr_dim=node_dim)
            )
            self._batch_membership.append(members)

        # Compile an inference plan per batch when the model supports it (a
        # real DSS); duck-typed `predict`-only models get the batch itself.
        if hasattr(model, "compile_plan") and hasattr(model, "infer_columns"):
            if self.precision == "f64":
                self._plans = [model.compile_plan(batch) for batch in self._batches]
            else:
                self._plans = [
                    model.compile_plan(batch, precision=self.precision)
                    for batch in self._batches
                ]
        else:
            if self.precision != "f64":
                raise ValueError(
                    "precision='f32' requires compiled inference plans (a model "
                    "with compile_plan/infer_columns); duck-typed predict-only "
                    "models run in float64"
                )
            self._plans = None

        # Stacked residual-independent vectors and per-application scratch:
        # segment layout follows the stacked restriction (sub-domain order).
        total = self.stacked_restriction.total_rows
        if any(g.equilibration is not None for g in self.geometries):
            self._equilibration: Optional[np.ndarray] = np.concatenate([
                g.equilibration if g.equilibration is not None else np.ones(len(g.positions))
                for g in self.geometries
            ])[:, None]
        else:
            self._equilibration = None
        self._segment_ids = self.stacked_restriction.segment_ids
        self._offsets = self.stacked_restriction.offsets
        self._scratch = ColumnScratch(
            local=total,        # stacked (equilibrated) local residuals
            squares=total,
            source=total,       # stacked normalised DSS inputs
            outputs=total,      # stacked DSS outputs
            per_row=total,      # per-row norm/scale expansion
            norms=self.num_subdomains,
            denominators=self.num_subdomains,
            scales=self.num_subdomains,
        )

        # bookkeeping for the performance tables
        self.num_applications = 0
        self.num_fused_applications = 0
        self.total_inference_time = 0.0
        self.total_coarse_time = 0.0

    # ------------------------------------------------------------------ #
    @classmethod
    def from_checkpoint(
        cls,
        matrix: sp.spmatrix,
        mesh: TriangularMesh,
        decomposition: OverlappingDecomposition,
        checkpoint_path: str,
        **kwargs,
    ) -> "DDMGNNPreconditioner":
        """Build the preconditioner around a model loaded from a checkpoint.

        The checkpoint (see :mod:`repro.gnn.checkpoint`) carries the full
        :class:`~repro.gnn.dss.DSSConfig`, so the DSS is reconstructed
        exactly as trained; remaining keyword arguments are forwarded to the
        constructor unchanged.
        """
        from ..gnn.checkpoint import load_model

        return cls(matrix, mesh, decomposition, load_model(checkpoint_path), **kwargs)

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        return self.matrix.shape

    @property
    def num_subdomains(self) -> int:
        return len(self.geometries)

    # ------------------------------------------------------------------ #
    def apply_columns(self, residuals: np.ndarray) -> np.ndarray:
        """Apply DDM-GNN to all ``k`` columns of an ``(n, k)`` residual block.

        The one application (:meth:`apply` is its ``k = 1`` case): one
        gather → normalise → model call → rescale → owner gather sweep over
        the ``(total_rows, k)`` stacked residuals, then the coarse solve on
        the residual that sweep leaves.  In f64 a
        column's bytes do not depend on ``k`` — the contract
        :func:`repro.krylov.block.lockstep_pcg` relies on: every kernel
        around the model accumulates each column in the one-column order,
        and ``infer_columns`` runs f64 columns one at a time through a single
        kernel.  In f32 the DSS forward is one k-wide sweep, which is what
        stops lockstep CG from serializing on the GNN; ``k = 1`` is then
        bitwise the single-column result and ``k > 1`` matches it to float32
        tolerance.
        """
        # a buffered leaf on the enclosing span, as in the ASM preconditioner
        parent = obs_trace.current_span()
        start = time.perf_counter() if parent is not None else 0.0
        residuals = np.asarray(residuals, dtype=np.float64)
        if residuals.ndim != 2:
            raise ValueError(f"apply_columns expects an (n, k) block, got shape {residuals.shape}")
        k = residuals.shape[1]
        self.num_applications += k
        self.num_fused_applications += 1

        # 1. + 2. batched local GNN solves, rescaled and glued by ownership
        t0 = time.perf_counter()
        correction = self._local_correction(residuals)
        self.total_inference_time += time.perf_counter() - t0
        # 3. coarse solve (exact, LU) on the residual the local sweep leaves
        if self.coarse_space is not None:
            t0 = time.perf_counter()
            correction += self.coarse_space.apply_columns(residuals - self.matrix @ correction)
            self.total_coarse_time += time.perf_counter() - t0
        if parent is not None:
            parent.record_leaf("precond.apply", start, time.perf_counter(), {"k": k})
        return np.asfortranarray(correction)

    # ------------------------------------------------------------------ #
    def _local_correction(self, residuals: np.ndarray) -> np.ndarray:
        """Loop-free local corrections of a block: gather → normalise → model → owner gather.

        Works entirely on stacked ``(total_rows, k)`` arrays in preallocated
        buffers; the only allocation is the glued result.  Every step is
        column-parallel — row gathers, per-column ``reduceat`` norms,
        elementwise broadcasts — and accumulates each column in the
        one-column order.
        """
        scratch = self._scratch.views(residuals.shape[1])
        stacked = self.stacked_restriction.extract(residuals, out=scratch["local"])
        if self._equilibration is not None:
            np.multiply(stacked, self._equilibration, out=stacked)

        # ‖R_i r_j‖ for every sub-domain × column, one reduceat over the rows
        norms = self.stacked_restriction.segment_norms(
            stacked, out=scratch["norms"], squares=scratch["squares"]
        )

        # normalised sources (zero-norm segments are zero vectors already)
        denominators, per_row, source = scratch["denominators"], scratch["per_row"], scratch["source"]
        np.copyto(denominators, norms)
        denominators[denominators == 0.0] = 1.0
        np.take(denominators, self._segment_ids, axis=0, out=per_row)
        np.divide(stacked, per_row, out=source)
        if not self.normalize_local_residuals:
            # ablation: undo the normalisation, feed raw (equilibrated) residuals
            np.take(norms, self._segment_ids, axis=0, out=per_row)
            np.multiply(source, per_row, out=source)

        # all local problems × all columns in a few model calls
        outputs = scratch["outputs"]
        for index, members in enumerate(self._batch_membership):
            lo = self._offsets[members[0]]
            hi = self._offsets[members[-1] + 1]
            outputs[lo:hi, :] = self._solve_batch(index, source[lo:hi, :])

        # rescale by ‖R_i r_j‖ (zero-norm segments contribute nothing), undo
        # the equilibration, and take every node from the sub-domain owning it
        scales = scratch["scales"]
        if self.normalize_local_residuals:
            np.copyto(scales, norms)
        else:
            np.sign(norms, out=scales)  # 1 where ‖R_i r_j‖ > 0, else 0
        np.take(scales, self._segment_ids, axis=0, out=per_row)
        np.multiply(outputs, per_row, out=outputs)
        if self._equilibration is not None:
            np.multiply(outputs, self._equilibration, out=outputs)
        return self.stacked_restriction.glue(outputs)

    def _solve_batch(self, index: int, sources: np.ndarray) -> np.ndarray:
        """The model call: inference batch ``index`` on ``(batch_nodes, k)`` sources.

        The only place that knows which kind of model it serves.  A compiled
        plan takes all columns at once (the f32 boundary lives inside it;
        outputs upcast on store); a ``predict``-only model sees the pre-built
        batch once per column, its node inputs refreshed in place.
        """
        if self._plans is not None:
            return self.model.infer_columns(self._plans[index], sources)
        batch = self._batches[index]
        outputs = np.empty(sources.shape)
        for c in range(sources.shape[1]):
            batch.source = sources[:, c].copy()  # its own array, not a view of the scratch
            outputs[:, c] = self.model.predict(batch)
        return outputs

    # ------------------------------------------------------------------ #
    def inference_stats(self) -> dict:
        """Timing counters accumulated over all applications (Table III columns).

        ``applications`` counts residual columns, ``fused_applications`` the
        sweeps that served them (one per :meth:`apply_columns` call, whatever
        its width).  ``total_coarse_time`` is step 3 whole: the residual
        product ``r − A z₁`` and the coarse solve on it.  ``kernel`` is the
        plans' edge-pass body (``"native"`` / ``"numpy"``; None without plans).
        """
        return {
            "kernel": self._plans[0].kernel if self._plans else None,
            "applications": self.num_applications,
            "fused_applications": self.num_fused_applications,
            "total_inference_time": self.total_inference_time,
            "total_coarse_time": self.total_coarse_time,
            "mean_inference_time": self.total_inference_time / max(self.num_applications, 1),
        }
