"""The DDM-GNN preconditioner — the paper's primary contribution (Sec. III-A).

DDM-GNN is the two-level Schwarz preconditioner with one change: a trained
Deep Statistical Solver replaces the LU local solves.  So this module adds a
local solver, :class:`DSSLocalSolver`, and nothing else: gathering, gluing
and the coarse correction are :class:`~repro.ddm.asm.AdditiveSchwarzPreconditioner`'s,
in its ``"ras"`` skeleton.  Applying DDM-GNN to a global residual ``r``:

1. **Local problems** (Eqs. 14–15, :class:`DSSLocalSolver`): every local
   residual (on the full overlapping sub-domain) is *normalised*
   (``R_i r / ‖R_i r‖``) — this keeps the inputs inside the DSS training
   distribution even as the Krylov solve drives the residual to zero — and
   all K local problems are solved in a few batched DSS inferences.
2. **Restricted gluing**: ``z₁ = Σ_i R̃_iᵀ ‖R_i r‖ ũ_i`` — a node's correction
   is taken only from the sub-domain whose non-overlapping core owns it, not
   from the rows next to an artificial interface, where a local solve is worst.
3. **Coarse solve, last**: ``z = z₁ + R_0ᵀ (R_0 A R_0ᵀ)⁻¹ R_0 (r − A z₁)`` by
   LU, on the residual the local sweep leaves, so ``R_0 (r − A z) = 0``.

The paper's Eqs. 13 and 16 are the additive, symmetric form of steps 2–3
(``z = Q r + Σ_i R_iᵀ ‖R_i r‖ ũ_i``).  The GNN is a nonlinear map, so the
preconditioner is not symmetric either way, and its ``"ras"`` skeleton says
so: ``linear`` is False.  The Krylov layer reads that flag and runs its
flexible recurrences (FCG / FGMRES, :mod:`repro.krylov.flexible`), which
assume nothing about ``M``; that frees steps 2–3: on the ledger operator the
frozen DSS needs 9 iterations, about DDM-LU's count, where the additive form
needed ~24 (DESIGN.md, "The apply after the flexible recurrence").  Each
application is still a fixed function of the residual, so solves are
deterministic and converge to any tolerance.

The DSS is called through its two-method plan protocol only —
``compile_plan(batch, precision=)`` at set-up and ``infer_columns(plan,
sources)`` per apply — so a stand-in model (a test double, an exact solver)
implements those two methods.  A stand-in is asked for a plan per inference
batch; a DSS for the first only, whose fold
(:class:`~repro.gnn.infer.CompiledDSS`) compiles the rest.
"""

from __future__ import annotations

from typing import Iterator, List, Literal, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..ddm.asm import AdditiveSchwarzPreconditioner
from ..ddm.local_solvers import LocalSolver
from ..ddm.restriction import ColumnScratch, segment_norms
from ..gnn.batch import GraphBatch
from ..gnn.dss import DSS
from ..gnn.infer import InferencePlan
from ..mesh.mesh import SimplexMesh
from ..partition.overlap import OverlappingDecomposition
from .dataset import SubdomainGeometry, build_subdomain_geometries

__all__ = ["DDMGNNPreconditioner", "DSSLocalSolver"]

#: stacked-node budget per inference batch (the paper's Nb batching): a
#: constant, every chunk of ≥ 2 sub-domains measured alike (DESIGN.md)
_AUTO_BATCH_TARGET_NODES = 2048


class DSSLocalSolver(LocalSolver):
    """All K local problems solved by batched DSS inference (paper Eqs. 14–15).

    The stacked block is equilibrated, normalised per sub-domain segment and
    column, run through one plan forward per inference batch, rescaled by
    the segment norms and un-equilibrated — every step column-parallel on
    preallocated ``(total_rows, k)`` scratch, accumulating each column in the
    one-column order.  In f64 a column's bytes therefore do not depend on
    ``k``: ``infer_columns`` runs f64 columns one at a time through a single
    kernel.  In f32 the DSS forward is one k-wide sweep, which is what stops
    lockstep CG from serializing on the GNN; ``k = 1`` is then bitwise the
    single-column result and ``k > 1`` matches it to float32 tolerance.

    Parameters
    ----------
    model:
        The (trained) DSS, or any object with ``compile_plan(batch,
        precision=)`` and ``infer_columns(plan, sources)``.  Read at every
        solve, so assigning a wrapper to ``model`` reaches the model call.
    geometries:
        The sub-domains' static data, in the order of the local matrices
        :meth:`setup` receives.
    precision:
        Staging precision of the compiled plans: ``"f64"`` or ``"f32"``.
        Normalisation, scaling and gluing stay in float64 either way.
    normalize_local_residuals:
        The paper's residual normalisation.  Disabling it (ablation) shows the
        stagnation the paper describes in Sec. III-A.
    """

    def __init__(
        self,
        model: DSS,
        geometries: Sequence[SubdomainGeometry],
        precision: str = "f64",
        normalize_local_residuals: bool = True,
    ) -> None:
        if precision not in ("f64", "f32"):
            raise ValueError(f"precision must be 'f64' or 'f32', got {precision!r}")
        super().__init__()
        self.model = model
        self.geometries = list(geometries)
        self.precision = precision
        self.normalize_local_residuals = bool(normalize_local_residuals)
        #: one compiled plan per inference batch, and the batches' sub-domain ranges
        self.plans: list = []
        self.batch_ranges: List[range] = []
        #: residual columns served, and the solves that served them
        self.num_applications = 0
        self.num_fused_applications = 0

    def setup(self, local_matrices: Sequence[sp.spmatrix]) -> "DSSLocalSolver":
        sizes = self._record_layout(local_matrices)
        if sizes.tolist() != [len(g.positions) for g in self.geometries]:
            raise ValueError("local matrices do not match the sub-domain geometries")
        k, total = len(sizes), int(self._offsets[-1])
        self._segment_ids = np.repeat(np.arange(k), sizes)

        # Compile a plan per inference batch once; only the per-node source
        # changes between applications.  A DSS plan carries its fold: every
        # further batch compiles against the first plan's, so the solver folds
        # the weights once and its plans run in turn in one workspace.
        chunk = max(1, _AUTO_BATCH_TARGET_NODES // max(1, total // k))
        self.batch_ranges = [range(start, min(start + chunk, k)) for start in range(0, k, chunk)]
        self.plans = []
        for batch in self.inference_batches():
            if self.plans and isinstance(self.plans[0], InferencePlan):
                self.plans.append(InferencePlan(self.plans[0].compiled, batch))
            else:
                self.plans.append(self.model.compile_plan(batch, precision=self.precision))

        self._equilibration: Optional[np.ndarray] = None
        if any(g.equilibration is not None for g in self.geometries):
            self._equilibration = np.concatenate([
                g.equilibration if g.equilibration is not None else np.ones(len(g.positions))
                for g in self.geometries
            ])[:, None]
        self._scratch = ColumnScratch(
            squares=total,
            source=total,       # stacked (equilibrated, normalised) DSS inputs
            per_row=total,      # per-row norm/scale expansion
            norms=k,
            denominators=k,
            scales=k,
        )
        return self

    def inference_batches(self) -> Iterator[GraphBatch]:
        """The graph batch of every inference batch, built anew from the geometries, one at a time.

        Set-up compiles each into a plan and keeps only the plan.  Feature
        widths are scanned once over the geometries instead of once per batch.
        """
        edge_dim, node_dim = GraphBatch.feature_dims(self.geometries)
        for members in self.batch_ranges:
            graphs = [self.geometries[i].make_graph(np.zeros(len(self.geometries[i].positions))) for i in members]
            yield GraphBatch.from_graphs(graphs, edge_attr_dim=edge_dim, node_attr_dim=node_dim)

    @property
    def kernel(self) -> str:
        """The plans' edge-pass body: ``"native"`` or ``"numpy"``."""
        return self.plans[0].kernel

    def solve_stacked_columns(
        self, stacked_columns: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Equilibrate → normalise → one plan forward per inference batch → rescale → un-equilibrate."""
        stacked = self._stacked_block(stacked_columns)
        if out is None:
            out = np.empty_like(stacked)
        self.num_applications += stacked.shape[1]
        self.num_fused_applications += 1
        scratch = self._scratch.views(stacked.shape[1])
        source, per_row = scratch["source"], scratch["per_row"]
        if self._equilibration is not None:
            stacked = np.multiply(stacked, self._equilibration, out=source)

        # ‖R_i r_j‖ for every sub-domain × column, one reduceat over the rows
        norms = segment_norms(stacked, self._offsets, out=scratch["norms"], squares=scratch["squares"])

        # normalised sources (zero-norm segments are zero vectors already)
        denominators = scratch["denominators"]
        np.copyto(denominators, norms)
        denominators[denominators == 0.0] = 1.0
        np.take(denominators, self._segment_ids, axis=0, out=per_row)
        np.divide(stacked, per_row, out=source)
        if not self.normalize_local_residuals:
            # ablation: undo the normalisation, feed raw (equilibrated) residuals
            np.take(norms, self._segment_ids, axis=0, out=per_row)
            np.multiply(source, per_row, out=source)

        # all local problems × all columns in a few model calls (f32 outputs upcast on store); each
        # output is copied out before the next plan overwrites the workspace the plans share
        for plan, members in zip(self.plans, self.batch_ranges):
            rows = slice(self._offsets[members.start], self._offsets[members.stop])
            out[rows, :] = self.model.infer_columns(plan, source[rows, :])

        # rescale by ‖R_i r_j‖ (zero-norm segments contribute nothing) and undo the equilibration
        if self.normalize_local_residuals:
            scales = norms
        else:
            scales = np.sign(norms, out=scratch["scales"])  # 1 where ‖R_i r_j‖ > 0, else 0
        np.take(scales, self._segment_ids, axis=0, out=per_row)
        np.multiply(out, per_row, out=out)
        if self._equilibration is not None:
            np.multiply(out, self._equilibration, out=out)
        return out


class DDMGNNPreconditioner(AdditiveSchwarzPreconditioner):
    """Multi-level GNN preconditioner (DDM-GNN): the ``"ras"`` Schwarz apply with DSS local solves.

    Parameters
    ----------
    matrix:
        Global SPD system matrix A.
    mesh:
        The global mesh (needed for sub-mesh geometry fed to the GNN).
    decomposition:
        Overlapping decomposition into K sub-domains (its ``core_nodes`` own the nodes).
    model:
        A (trained) :class:`~repro.gnn.dss.DSS` model, or any object with its
        plan protocol (see :class:`DSSLocalSolver`).
    levels:
        2 (default) ends the apply with the Nicolaides coarse solve; 1 drops
        it (one-level ablation).
    normalize_local_residuals:
        The paper's residual normalisation (see :class:`DSSLocalSolver`).
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
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        mesh: SimplexMesh,
        decomposition: OverlappingDecomposition,
        model: DSS,
        levels: Literal[1, 2] = 2,
        normalize_local_residuals: bool = True,
        global_dirichlet_mask: Optional[np.ndarray] = None,
        node_diffusion: Optional[np.ndarray] = None,
        equilibrate: Optional[bool] = None,
        precision: str = "f64",
    ) -> None:
        matrix = matrix.tocsr()
        self.mesh = mesh
        self.geometries: List[SubdomainGeometry] = build_subdomain_geometries(
            mesh,
            matrix,
            decomposition,
            global_dirichlet_mask=global_dirichlet_mask,
            node_diffusion=node_diffusion,
            equilibrate=equilibrate,
        )
        local_solver = DSSLocalSolver(model, self.geometries, precision, normalize_local_residuals)
        super().__init__(matrix, decomposition, local_solver, levels=levels, variant="ras")

    # ------------------------------------------------------------------ #
    @property
    def model(self) -> DSS:
        """The DSS the local solver calls; assigning one (or a wrapper) replaces it there."""
        return self.local_solver.model

    @model.setter
    def model(self, model: DSS) -> None:
        self.local_solver.model = model

    @property
    def kernel(self) -> str:
        """The DSS plans' edge-pass body (``"native"`` / ``"numpy"``); the Schwarz steps run numpy."""
        return self.local_solver.kernel

    def inference_stats(self) -> dict:
        """Timing counters accumulated over all applications (Table III columns).

        ``applications`` counts residual columns, ``fused_applications`` the
        sweeps that served them (one per :meth:`apply_columns` call, whatever
        its width).  The times are reads of the apply's lifetime record
        (``self.steps``): ``total_inference_time`` sums its ``ddm.local``
        leaves — gather, DSS solves, glue — and ``total_coarse_time`` its
        ``ddm.coarse`` leaves, the coarse step whole: the residual product
        ``r − A z₁`` and the coarse solve on it.
        """
        solver = self.local_solver
        local = self.steps.total("ddm.local")
        return {
            "kernel": self.kernel,
            "applications": solver.num_applications,
            "fused_applications": solver.num_fused_applications,
            "total_inference_time": local,
            "total_coarse_time": self.steps.total("ddm.coarse"),
            "mean_inference_time": local / max(solver.num_applications, 1),
        }
