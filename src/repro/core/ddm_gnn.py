"""The DDM-GNN preconditioner — the paper's primary contribution (Sec. III-A).

DDM-GNN mirrors the two-level Additive Schwarz preconditioner but solves the
local sub-domain problems with a trained Deep Statistical Solver instead of a
sparse LU factorisation.  Applying it to a global residual ``r`` performs the
paper's three steps:

1. **Coarse problem** (Eq. 13): ``r_c = R_0ᵀ (R_0 A R_0ᵀ)⁻¹ R_0 r`` by LU.
2. **Local problems** (Eqs. 14–15): every local residual is *normalised*
   (``R_i r / ‖R_i r‖``) — this keeps the inputs inside the DSS training
   distribution even as PCG drives the residual to zero — and all K local
   problems are solved in a few batched DSS inferences.
3. **Gluing** (Eq. 16): ``z = r_c + Σ_i R_iᵀ ‖R_i r‖ ũ_i``.

The preconditioner is deliberately *not* exactly symmetric (the GNN is a
nonlinear map), and it says so: ``linear = False``.  The Krylov layer reads
that flag and runs its flexible recurrences (FCG / FGMRES,
:mod:`repro.krylov.flexible`) instead of the short ones that are only optimal
for a fixed linear SPD ``M`` — under Algorithm 1's Fletcher–Reeves update the
DSS needed ~30 iterations where ~24 suffice on the ledger operator (DESIGN.md,
"Krylov recurrence").  Each application is still a fixed function of the
residual, so solves are deterministic and converge to any tolerance, in more
iterations than DDM-LU.

Everything that is invariant across a Krylov solve is compiled once at
construction: the stacked restriction operator ``R = [R_1; …; R_K]``, the
per-batch :class:`~repro.gnn.infer.InferencePlan` of the DSS model, and the
stacked equilibration/normalisation vectors.  Each ``apply`` is then
loop-free — one gather, segmented norms via ``reduceat``, a few ``infer``
calls on preallocated plans, and one gluing SpMV.  Duck-typed models that
only provide ``predict`` (the test doubles, custom local solvers) fall back
to the classical batched path, which is also kept available as
:meth:`apply_reference` so benchmarks can measure the fast-path speedup
against the original implementation.
"""

from __future__ import annotations

import time
from typing import Dict, List, Literal, Optional

import numpy as np
import scipy.sparse as sp

from ..ddm.asm import Preconditioner
from ..ddm.coarse import NicolaidesCoarseSpace
from ..ddm.restriction import StackedRestriction, build_restrictions
from ..gnn.batch import GraphBatch
from ..gnn.dss import DSS
from ..mesh.mesh import TriangularMesh
from ..partition.overlap import OverlappingDecomposition
from .dataset import SubdomainGeometry, build_subdomain_geometries

__all__ = ["DDMGNNPreconditioner"]

#: stacked-node budget per automatic inference batch (``batch_size=None``)
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
        Overlapping decomposition into K sub-domains.
    model:
        A (trained) :class:`~repro.gnn.dss.DSS` model.  Duck-typed objects
        exposing only ``predict(batch)`` are accepted and served by the
        classical batched path.
    levels:
        2 (default) adds the Nicolaides coarse correction; 1 disables it
        (one-level ablation).
    batch_size:
        Maximum number of sub-domain graphs solved per DSS inference call
        (the paper's Nb batching).  None (default) picks a chunk size that
        keeps each batch's edge buffers cache-resident (~2k stacked nodes
        per inference), which measured faster than one monolithic batch on
        large decompositions when it was introduced (PR 2's per-edge
        kernels).  With the folded forward it no longer matters at ledger
        scale: on the K=19 operator the edge buffer fits L2 at every chunk
        size, and every chunk of ≥ 2 sub-domains — the default included —
        applies within noise of every other (f64 ≈ 26–29 ms; DESIGN.md,
        "Measured floor of the apply").  Results are batching-invariant
        either way.
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
        Requires the compiled fast path (a real DSS model).
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
        batch_size: Optional[int] = None,
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
        self.batch_size = batch_size
        self.normalize_local_residuals = bool(normalize_local_residuals)
        self.precision = precision

        n = self.matrix.shape[0]
        subdomains = decomposition.subdomain_nodes
        self.restrictions = build_restrictions(subdomains, n)
        self.stacked_restriction = StackedRestriction(subdomains, n)
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
        if self.batch_size is not None:
            chunk = self.batch_size
        else:
            # automatic Nb: target ~2k stacked nodes per inference call so the
            # engine's edge buffers stay cache-resident
            average_size = max(1, self.stacked_restriction.total_rows // k)
            chunk = max(1, _AUTO_BATCH_TARGET_NODES // average_size)
        chunk = max(1, int(chunk))
        for start in range(0, k, chunk):
            members = list(range(start, min(start + chunk, k)))
            graphs = [self.geometries[i].make_graph(np.zeros(len(self.geometries[i].positions))) for i in members]
            self._batches.append(
                GraphBatch.from_graphs(graphs, edge_attr_dim=edge_dim, node_attr_dim=node_dim)
            )
            self._batch_membership.append(members)

        # Compile the inference fast path when the model supports it (a real
        # DSS); duck-typed `predict`-only models use the batched path.
        if hasattr(model, "compile_plan") and hasattr(model, "infer"):
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
                    "precision='f32' requires the compiled inference fast path "
                    "(a model with compile_plan/infer); duck-typed predict-only "
                    "models run the float64 batched path"
                )
            self._plans = None

        # Stacked residual-independent vectors and per-application scratch:
        # segment layout follows the stacked restriction (sub-domain order).
        total = self.stacked_restriction.total_rows
        if any(g.equilibration is not None for g in self.geometries):
            self._equilibration: Optional[np.ndarray] = np.concatenate([
                g.equilibration if g.equilibration is not None else np.ones(len(g.positions))
                for g in self.geometries
            ])
        else:
            self._equilibration = None
        self._segment_ids = self.stacked_restriction.segment_ids
        self._offsets = self.stacked_restriction.offsets
        self._local = np.empty(total)       # stacked (equilibrated) local residuals
        self._squares = np.empty(total)
        self._source = np.empty(total)      # stacked normalised DSS inputs
        self._outputs = np.empty(total)     # stacked DSS outputs
        self._per_row = np.empty(total)     # per-row norm/scale expansion
        k = len(self.geometries)
        self._norms = np.empty(k)
        self._denominators = np.empty(k)
        self._scales = np.empty(k)

        # multi-column scratch, cached per column count (lockstep active sets
        # shrink as right-hand sides converge, so a few k values recur)
        self._column_scratch: Dict[int, Dict[str, np.ndarray]] = {}

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
    def apply(self, residual: np.ndarray) -> np.ndarray:
        """Apply DDM-GNN to a global residual and return the correction z."""
        residual = np.asarray(residual, dtype=np.float64)
        correction = np.zeros_like(residual)
        self.num_applications += 1

        # 1. coarse correction (exact, LU)
        if self.coarse_space is not None:
            t0 = time.perf_counter()
            correction += self.coarse_space.apply(residual)
            self.total_coarse_time += time.perf_counter() - t0

        # 2. + 3. batched local GNN solves, rescaled and glued back
        t0 = time.perf_counter()
        if self._plans is not None:
            correction += self._local_correction_fast(residual)
        else:
            correction += self._local_correction_batched(residual)
        self.total_inference_time += time.perf_counter() - t0
        return correction

    def apply_columns(self, residuals: np.ndarray) -> np.ndarray:
        """Apply DDM-GNN to all ``k`` columns of an ``(n, k)`` residual block.

        One sweep serves every column: a single gather/normalisation pass
        over the ``(total, k)`` stacked residuals, one ``infer_columns`` per
        inference batch and one gluing SpMM.  In f64, column ``i`` of the
        result is bit-identical to ``apply(residuals[:, i])`` — the contract
        :func:`repro.krylov.block.lockstep_pcg` relies on: the surrounding
        kernels accumulate each column in exactly the single-column order,
        and ``infer_columns`` runs the f64 columns one at a time through the
        very kernel ``infer`` runs.  In f32 the DSS forward is one k-wide
        sweep, which is what stops lockstep CG from serializing on the GNN.
        """
        residuals = np.asarray(residuals, dtype=np.float64)
        if residuals.ndim != 2:
            raise ValueError(f"apply_columns expects an (n, k) block, got shape {residuals.shape}")
        if self._plans is None or not hasattr(self.model, "infer_columns"):
            # batched / duck-typed path: the trivially-correct per-column loop
            return super().apply_columns(residuals)
        k = residuals.shape[1]
        correction = np.zeros(residuals.shape)
        self.num_applications += k
        self.num_fused_applications += 1

        if self.coarse_space is not None:
            t0 = time.perf_counter()
            correction += self.coarse_space.apply_columns(residuals)
            self.total_coarse_time += time.perf_counter() - t0

        t0 = time.perf_counter()
        correction += self._local_correction_fast_columns(residuals)
        self.total_inference_time += time.perf_counter() - t0
        return np.asfortranarray(correction)

    def apply_reference(self, residual: np.ndarray) -> np.ndarray:
        """The pre-fast-path implementation (per-sub-domain loops, ``DSS.predict_batched``).

        Kept verbatim so benchmarks can measure the fast-path speedup and the
        regression tests can pin the two paths against each other.  Does not
        update the timing counters.
        """
        residual = np.asarray(residual, dtype=np.float64)
        correction = np.zeros_like(residual)
        if self.coarse_space is not None:
            correction += self.coarse_space.apply(residual)
        correction += self._local_correction_batched(residual)
        return correction

    # ------------------------------------------------------------------ #
    def _local_correction_fast(self, residual: np.ndarray) -> np.ndarray:
        """Loop-free local corrections: gather → normalise → infer → glue.

        Works entirely on stacked vectors in preallocated buffers; the only
        allocations are the glued result and whatever the SpMV produces.
        """
        stacked = self.stacked_restriction.extract(residual, out=self._local)
        if self._equilibration is not None:
            np.multiply(stacked, self._equilibration, out=stacked)

        # ‖R_i r‖ for every sub-domain, one reduceat over the stacked squares
        self.stacked_restriction.segment_norms(stacked, out=self._norms, squares=self._squares)

        # normalised sources (zero-norm segments are zero vectors already)
        np.copyto(self._denominators, self._norms)
        self._denominators[self._denominators == 0.0] = 1.0
        np.take(self._denominators, self._segment_ids, out=self._per_row)
        np.divide(stacked, self._per_row, out=self._source)
        if not self.normalize_local_residuals:
            # ablation: undo the normalisation, feed raw (equilibrated) residuals
            np.take(self._norms, self._segment_ids, out=self._per_row)
            np.multiply(self._source, self._per_row, out=self._source)

        # all local problems in a few allocation-free DSS inferences
        for plan, members in zip(self._plans, self._batch_membership):
            lo = self._offsets[members[0]]
            hi = self._offsets[members[-1] + 1]
            self._outputs[lo:hi] = self.model.infer(plan, source=self._source[lo:hi])

        # rescale by ‖R_i r‖ (zero-norm segments contribute nothing), undo the
        # equilibration, and glue all extensions with one SpMV
        if self.normalize_local_residuals:
            np.copyto(self._scales, self._norms)
        else:
            np.sign(self._norms, out=self._scales)  # 1 where ‖R_i r‖ > 0, else 0
        np.take(self._scales, self._segment_ids, out=self._per_row)
        np.multiply(self._outputs, self._per_row, out=self._outputs)
        if self._equilibration is not None:
            np.multiply(self._outputs, self._equilibration, out=self._outputs)
        return self.stacked_restriction.glue(self._outputs)

    def _columns_scratch(self, k: int) -> Dict[str, np.ndarray]:
        """Preallocated ``(total, k)`` / ``(K, k)`` buffers for ``k`` columns."""
        scratch = self._column_scratch.get(k)
        if scratch is None:
            total = self.stacked_restriction.total_rows
            num_subdomains = len(self.geometries)
            scratch = {
                "local": np.empty((total, k)),
                "squares": np.empty((total, k)),
                "source": np.empty((total, k)),
                "outputs": np.empty((total, k)),
                "per_row": np.empty((total, k)),
                "norms": np.empty((num_subdomains, k)),
                "denominators": np.empty((num_subdomains, k)),
                "scales": np.empty((num_subdomains, k)),
            }
            self._column_scratch[k] = scratch
        return scratch

    def _local_correction_fast_columns(self, residuals: np.ndarray) -> np.ndarray:
        """Multi-column :meth:`_local_correction_fast`: one fused sweep for all k.

        Every step is the column-parallel form of the single-column op —
        row gathers, per-column ``reduceat`` norms, elementwise broadcasts,
        one ``infer_columns`` per inference batch, one gluing SpMM — and each
        accumulates per column in the single-column order, so in f64 column
        ``i`` is bit-identical to ``_local_correction_fast(residuals[:, i])``.
        """
        scratch = self._columns_scratch(residuals.shape[1])
        stacked = scratch["local"]
        np.take(residuals, self.stacked_restriction.node_indices, axis=0, out=stacked)
        if self._equilibration is not None:
            stacked *= self._equilibration[:, None]

        # ‖R_i r_j‖ for every sub-domain × column, one reduceat over the rows
        norms = scratch["norms"]
        np.multiply(stacked, stacked, out=scratch["squares"])
        np.add.reduceat(scratch["squares"], self._offsets[:-1], axis=0, out=norms)
        np.sqrt(norms, out=norms)

        denominators = scratch["denominators"]
        np.copyto(denominators, norms)
        denominators[denominators == 0.0] = 1.0
        np.take(denominators, self._segment_ids, axis=0, out=scratch["per_row"])
        np.divide(stacked, scratch["per_row"], out=scratch["source"])
        if not self.normalize_local_residuals:
            np.take(norms, self._segment_ids, axis=0, out=scratch["per_row"])
            np.multiply(scratch["source"], scratch["per_row"], out=scratch["source"])

        # all local problems × all columns: one infer_columns per batch (the
        # f32 boundary lives inside it; outputs upcast on store)
        outputs = scratch["outputs"]
        for plan, members in zip(self._plans, self._batch_membership):
            lo = self._offsets[members[0]]
            hi = self._offsets[members[-1] + 1]
            outputs[lo:hi, :] = self.model.infer_columns(plan, scratch["source"][lo:hi, :])

        if self.normalize_local_residuals:
            np.copyto(scratch["scales"], norms)
        else:
            np.sign(norms, out=scratch["scales"])  # 1 where ‖R_i r_j‖ > 0, else 0
        np.take(scratch["scales"], self._segment_ids, axis=0, out=scratch["per_row"])
        np.multiply(outputs, scratch["per_row"], out=outputs)
        if self._equilibration is not None:
            outputs *= self._equilibration[:, None]
        return self.stacked_restriction.glue(outputs)

    def _local_correction_batched(self, residual: np.ndarray) -> np.ndarray:
        """Classical batched path (per-sub-domain loops through ``model.predict``)."""
        correction = np.zeros_like(residual)
        local_residuals: List[np.ndarray] = [r_i @ residual for r_i in self.restrictions]
        # equilibrated residuals and their norms (identity transform when κ ≡ 1)
        sources_and_norms = [
            self.geometries[i].source_from_residual(lr) for i, lr in enumerate(local_residuals)
        ]
        norms = np.array([norm for _, norm in sources_and_norms])

        for batch, members in zip(self._batches, self._batch_membership):
            # refresh the node inputs of the pre-built batch in place
            sources = []
            for i in members:
                normalised, norm = sources_and_norms[i]
                if self.normalize_local_residuals and norm > 0.0:
                    sources.append(normalised)
                else:
                    sources.append(normalised * norm)  # undo the normalisation (ablation)
            batch.source = np.concatenate(sources)
            predictions = self.model.predict(batch)
            per_graph = batch.split_node_values(predictions)
            for i, local_solution in zip(members, per_graph):
                scale = norms[i] if (self.normalize_local_residuals and norms[i] > 0.0) else 1.0
                if norms[i] == 0.0:
                    continue
                correction += self.restrictions[i].T @ self.geometries[i].solution_from_output(
                    local_solution, scale
                )
        return correction

    # ------------------------------------------------------------------ #
    def inference_stats(self) -> dict:
        """Timing counters accumulated over all applications (Table III columns)."""
        return {
            "applications": self.num_applications,
            "fused_applications": self.num_fused_applications,
            "total_inference_time": self.total_inference_time,
            "total_coarse_time": self.total_coarse_time,
            "mean_inference_time": self.total_inference_time / max(self.num_applications, 1),
        }
