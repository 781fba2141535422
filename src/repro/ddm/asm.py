"""Schwarz preconditioners (one- and two-level), paper Eqs. (6)–(7) and 13–16.

:class:`AdditiveSchwarzPreconditioner` is the one Schwarz apply of the repo:
gather every local residual, hand the stacked block to a
:class:`~repro.ddm.local_solvers.LocalSolver`, glue the local corrections and
add the coarse correction.  The local solver is the only thing the paper
varies, and ``variant`` names the rest of the skeleton:

* ``"asm"`` — the symmetric Eq. 7, ``z = Σ_i R_iᵀ v_i + Q r``.  With exact LU
  local solves it is the **DDM-LU** baseline of the paper's experiments;
* ``"ras"`` — restricted glue ``z₁ = Σ_i R̃_iᵀ v_i`` and the coarse solve last,
  ``z = z₁ + Q (r − A z₁)``.  With the DSS local solver
  (:class:`~repro.core.ddm_gnn.DSSLocalSolver`) it is **DDM-GNN**
  (:class:`~repro.core.ddm_gnn.DDMGNNPreconditioner`); flexible Krylov lets
  it be non-symmetric.

All preconditioners expose ``apply(r) -> z`` and its block form
``apply_columns(R) -> Z``, so they plug into any Krylov routine.  A class
implements **one** of the two (:class:`Preconditioner` derives the other);
the Schwarz family implements the block form, so a single residual runs the
``k = 1`` case of the very pipeline a lockstep block runs — gather, local
solves, gluing and coarse correction each exist once.
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np
import scipy.sparse as sp

from ..obs import trace as obs_trace
from ..partition.overlap import OverlappingDecomposition
from ._native import SchwarzApply, schwarz_kernels
from .coarse import NicolaidesCoarseSpace
from .local_solvers import LocalSolver, LULocalSolver, extract_local_matrices
from .restriction import ColumnScratch, StackedRestriction

__all__ = ["AdditiveSchwarzPreconditioner", "Preconditioner", "IdentityPreconditioner"]

_UNRESOLVED = object()


class Preconditioner:
    """Minimal preconditioner interface: ``apply`` a residual, get a correction.

    ``apply`` (one residual) and ``apply_columns`` (an ``(n, k)`` block of
    them) are one operation at two widths, and each defaults to the other: a
    subclass overrides exactly **one**.  Kernels that batch (the Schwarz
    family) implement ``apply_columns`` and get ``apply`` as its one-column
    case; inherently single-vector ones (IC(0), identity) implement ``apply``
    and get the per-column loop.  Either way column ``j`` of
    ``apply_columns(R)`` is ``apply(R[:, j])`` by construction.
    """

    #: whether ``apply`` is a fixed linear SPD map.  The Krylov layer reads it
    #: to pick its recurrence: short (PCG, GMRES) when True, flexible (FCG,
    #: FGMRES) when False — a nonlinear map, or a linear one that is not
    #: symmetric.  Proxies forward it from what they wrap.
    linear = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.apply is Preconditioner.apply and cls.apply_columns is Preconditioner.apply_columns:
            raise TypeError(
                f"{cls.__name__} must override apply or apply_columns "
                "(each defaults to the other)"
            )

    def apply(self, residual: np.ndarray) -> np.ndarray:
        """Apply to one residual: the one-column case of :meth:`apply_columns`."""
        return self.apply_columns(np.asarray(residual, dtype=np.float64)[:, None])[:, 0]

    def apply_columns(self, residuals: np.ndarray) -> np.ndarray:
        """Apply to every column of an ``(n, k)`` residual block.

        Contract (relied on by :func:`repro.krylov.block.lockstep_pcg`):
        column ``i`` of the result is **bit-identical** to
        ``apply(residuals[:, i])``.  This default is a per-column loop over
        an overridden :meth:`apply`, which satisfies the contract trivially
        (and serves duck-typed objects that only have ``apply``).  The result
        is Fortran-ordered so each column stays a contiguous vector.
        """
        residuals = np.asarray(residuals, dtype=np.float64)
        out = np.empty(residuals.shape, order="F")
        for i in range(residuals.shape[1]):
            out[:, i] = self.apply(np.ascontiguousarray(residuals[:, i]))
        return out

    @property
    def shape(self) -> tuple:  # pragma: no cover - interface
        raise NotImplementedError


class IdentityPreconditioner(Preconditioner):
    """No preconditioning (plain CG baseline)."""

    def __init__(self, n: int) -> None:
        self._n = int(n)

    def apply(self, residual: np.ndarray) -> np.ndarray:
        return np.asarray(residual, dtype=np.float64)

    @property
    def shape(self) -> tuple:
        return (self._n, self._n)


class AdditiveSchwarzPreconditioner(Preconditioner):
    """Multi-level Schwarz preconditioner: the one gather → local solve → glue → coarse apply.

    Parameters
    ----------
    matrix:
        The global system matrix A (SPD).
    decomposition:
        Overlapping decomposition of the mesh/graph.
    local_solver:
        How local problems are solved; defaults to exact LU (DDM-LU).
    levels:
        1 → one-level (Eq. 6); 2 → two-level with the Nicolaides coarse space
        (Eq. 7).  The paper always uses two levels.
    variant:
        The skeleton around the local solves.  "asm" (symmetric, Eq. 6/7:
        ``Σ_i R_iᵀ A_i⁻¹ R_i [+ Q]``, the coarse term additive) or "ras"
        (Restricted Additive Schwarz, ``z₁ = Σ_i R̃_iᵀ A_i⁻¹ R_i r``: a
        sub-domain solves on its full overlapping residual but only writes
        the nodes of its own ``decomposition.core_nodes``; at two levels the
        coarse solve comes last, ``z = z₁ + Q (r − A z₁)``, so
        ``R_0 (r − A z) = 0`` — DDM-GNN's skeleton; non-symmetric, so not
        for plain CG).  ``linear`` follows the variant: only "asm" is a
        fixed linear SPD map, so "ras" runs the flexible recurrences.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        decomposition: OverlappingDecomposition,
        local_solver: Optional[LocalSolver] = None,
        levels: Literal[1, 2] = 2,
        variant: Literal["asm", "ras"] = "asm",
    ) -> None:
        if levels not in (1, 2):
            raise ValueError("levels must be 1 or 2")
        if variant not in ("asm", "ras"):
            raise ValueError("variant must be 'asm' or 'ras'")
        self.matrix = matrix.tocsr()
        self.decomposition = decomposition
        self.levels = int(levels)
        self.variant = variant
        self.linear = variant == "asm"
        n = self.matrix.shape[0]
        if n != decomposition.mesh.num_nodes:
            raise ValueError("matrix size does not match the mesh of the decomposition")

        subdomains = decomposition.subdomain_nodes
        self.stacked_restriction = StackedRestriction(
            subdomains, n, core_nodes=decomposition.core_nodes if variant == "ras" else None
        )
        local_matrices = extract_local_matrices(self.matrix, subdomains)
        self.local_solver = (local_solver or LULocalSolver()).setup(local_matrices)
        # per-application scratch (reused; an application allocates nothing
        # beyond the glued result and the coarse correction)
        total = self.stacked_restriction.total_rows
        self._scratch = ColumnScratch(residual=total, solution=total)

        self.coarse_space: Optional[NicolaidesCoarseSpace] = None
        if self.levels == 2:
            self.coarse_space = NicolaidesCoarseSpace(subdomains, n).factorize(self.matrix)
        self._native = _UNRESOLVED  # the native body: decided on the first apply, never here
        #: the numpy body's lifetime record, never exported: one ``ddm.local``
        #: leaf (gather → solve → glue) and one ``ddm.coarse`` leaf (for "ras"
        #: with its ``r − A z₁``) per apply; ``inference_stats()`` reads its totals
        self.steps = obs_trace.detached("schwarz.steps")

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        return self.matrix.shape

    @property
    def kernel(self) -> str:
        """Which body :meth:`apply_columns` runs: ``"native"`` (``ddm/_schwarz.c``) or ``"numpy"``.

        Reported (``SolveResult.info["kernel"]``), never an input.  Reading it
        before the first apply makes the decision that apply would make.
        """
        return "numpy" if self._native_body() is None else "native"

    def _native_body(self) -> Optional[SchwarzApply]:
        """The native apply, or None for the numpy body; decided once, on first use.

        Only DDM-LU has one — ``variant="asm"`` with exact LU local solves, at
        one or two levels — and only where the kernel loaded.  Building it
        hands both LU factors, the local and the coarse one, over to the
        kernel's arrays and drops SuperLU's objects, so an instance that went
        native stays native.
        """
        if self._native is _UNRESOLVED:
            self._native = None
            exact_lu = self.variant == "asm" and type(self.local_solver) is LULocalSolver
            kernels = schwarz_kernels() if exact_lu else None
            if kernels is not None:
                coarse = self.coarse_space
                self._native = SchwarzApply(
                    kernels["schwarz_apply"], self.local_solver.release_factor(),
                    self.stacked_restriction.node_indices, self.stacked_restriction._transpose,
                    None if coarse is None else coarse.r0, None if coarse is None else coarse.solver.release_factor())
        return self._native

    @property
    def num_subdomains(self) -> int:
        return self.decomposition.num_subdomains

    # ------------------------------------------------------------------ #
    def apply_columns(self, residuals: np.ndarray) -> np.ndarray:
        """Apply the preconditioner, ``Z = M⁻¹ R``, to an ``(n, k)`` block.

        The one Schwarz pipeline — :meth:`apply` is its ``k = 1`` case and
        the lockstep multi-RHS CG (:func:`repro.krylov.block.lockstep_pcg`)
        its wide one, where the fixed per-call cost is amortised over the
        block.  It is loop-free: one stacked gather extracts every local
        residual, the local solver fills one stacked solution buffer, and one
        ``glue`` combines all sub-domain corrections — the CSR product
        ``Rᵀ W``, bit-identical to the classical per-sub-domain loop ("asm"),
        or the owner gather ``Σ_i R̃_iᵀ W_i`` ("ras").  The coarse correction
        is added on ``R`` ("asm") or on the residual the local sweep leaves,
        ``R − A Z₁`` ("ras").  No step lets a column's bytes depend on ``k``
        unless the local solver does: the gather copies values, the gluing
        and the sparse and coarse products accumulate each column in SpMV
        order.

        That numpy pipeline is the reference and the body without a C
        compiler.  DDM-LU (``variant="asm"``, exact LU) has a native body too
        (:attr:`kernel`): gather, substitution over the local factor, glue
        and coarse correction — the same substitution over the coarse
        factor — in one C call per block, every column through the
        same arithmetic — so column ``j`` of a k-wide call is still the
        1-wide call bit for bit, and agrees with the numpy body to ~1e-16
        relative (SuperLU's supernodal substitution order is not
        reproducible).
        """
        residuals = np.asarray(residuals, dtype=np.float64)
        if residuals.ndim != 2:
            raise ValueError(f"apply_columns expects an (n, k) block, got shape {residuals.shape}")
        native = self._native_body()
        if native is not None:
            return native.apply_columns(residuals)
        correction = self.steps.measure("ddm.local", self._local_sweep, residuals)
        if self.coarse_space is not None:
            correction += self.steps.measure("ddm.coarse", self._coarse_step, residuals, correction)
        return correction

    def _local_sweep(self, residuals: np.ndarray) -> np.ndarray:
        """Gather → local solves → glue: the one-level correction ``Z₁``."""
        scratch = self._scratch.views(residuals.shape[1])
        stacked = self.stacked_restriction.extract(residuals, out=scratch["residual"])
        solutions = self.local_solver.solve_stacked_columns(stacked, out=scratch["solution"])
        return np.asfortranarray(self.stacked_restriction.glue(solutions))

    def _coarse_step(self, residuals: np.ndarray, correction: np.ndarray) -> np.ndarray:
        """The coarse correction: on ``R`` ("asm"), or on ``R − A Z₁`` ("ras")."""
        left = residuals if self.variant == "asm" else residuals - self.matrix @ correction
        return self.coarse_space.apply_columns(left)

    # ------------------------------------------------------------------ #
    def as_matrix(self) -> np.ndarray:
        """Assemble the dense preconditioner matrix with exact local inverses (tests / small problems only).

        ``Z₁ = Σ_i R_iᵀ (R_i A R_iᵀ)⁻¹ R_i`` glued by the variant's rule
        (``R̃_iᵀ`` for ``R_iᵀ`` under "ras"); at two levels, with
        ``Q = R_0ᵀ (R_0 A R_0ᵀ)⁻¹ R_0``, ``Z₁ + Q`` under "asm" (Eq. 7) and
        the coarse-last ``Z₁ + Q (I − A Z₁)`` under "ras".
        """
        n = self.matrix.shape[0]
        if n > 2000:
            raise ValueError("as_matrix() is meant for small validation problems only")
        local_matrices = extract_local_matrices(self.matrix, self.decomposition.subdomain_nodes)
        inverses = sp.block_diag([np.linalg.inv(a_i.toarray()) for a_i in local_matrices])
        stacked = self.stacked_restriction
        result = stacked.glue(inverses @ stacked.extract(np.eye(n)))
        if self.coarse_space is not None:
            r0 = self.coarse_space.r0.toarray()
            coarse = r0.T @ np.linalg.inv(self.coarse_space.coarse_matrix.toarray()) @ r0
            result += coarse if self.variant == "asm" else coarse @ (np.eye(n) - self.matrix @ result)
        return result
