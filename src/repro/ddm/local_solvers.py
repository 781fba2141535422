"""Local sub-domain solvers for Schwarz preconditioners.

The local solver is the one thing that varies between the paper's
preconditioners; :class:`~repro.ddm.asm.AdditiveSchwarzPreconditioner` owns
everything around it (gather, glue, coarse correction).  The classical
ASM/DDM-LU preconditioner solves every local problem
``(R_i A R_iᵀ) v_i = R_i r`` exactly with a sparse LU factorisation computed
once (:class:`LULocalSolver`; paper Sec. II-A and the DDM-LU baseline of
Sec. IV).  :class:`JacobiLocalSolver` is an inexact baseline, and
:class:`~repro.core.ddm_gnn.DSSLocalSolver` — batched inference of a trained
Deep Statistical Solver — is the paper's contribution.

A solver has **one** solve, on stacked ``(total_rows, k)`` blocks
(:meth:`LocalSolver.solve_stacked_columns`); ``solve_all`` is a derived
per-sub-domain view of it kept for tests and ad-hoc use.  DDM-LU's apply does
not call it where its native body runs: that body performs the LU
substitutions itself, on the factor :class:`LULocalSolver` hands over.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._native import SchwarzApply, TriangularFactor, schwarz_kernels

__all__ = ["LocalSolver", "LULocalSolver", "JacobiLocalSolver", "extract_local_matrices"]


def extract_local_matrices(matrix: sp.spmatrix, subdomain_nodes: Sequence[np.ndarray]) -> List[sp.csr_matrix]:
    """Extract the local Dirichlet matrices ``A_i = R_i A R_iᵀ`` for every sub-domain (of distinct nodes).

    ``csr[idx][:, idx]``, entry for entry, without the n-length column map scipy
    allocates per call (O(K·n) over a decomposition): one map serves every
    sub-domain, only its own entries set and reset.
    """
    csr = matrix.tocsr()
    local_of = np.full(csr.shape[1], -1, dtype=csr.indices.dtype)
    locals_: List[sp.csr_matrix] = []
    for nodes in subdomain_nodes:
        idx = np.asarray(nodes, dtype=np.int64)
        rows = csr[idx]                                   # the sub-domain's rows, every column
        local_of[idx] = np.arange(len(idx), dtype=local_of.dtype)
        columns = local_of[rows.indices]
        local_of[idx] = -1
        keep = columns >= 0
        kept_before = np.concatenate(([0], np.cumsum(keep, dtype=local_of.dtype)))
        locals_.append(sp.csr_matrix((rows.data[keep], columns[keep], kept_before[rows.indptr]),
                                     shape=(len(idx), len(idx))))
    return locals_


class LocalSolver(ABC):
    """Solves all local sub-domain systems for a given decomposition.

    There is one solve: :meth:`solve_stacked_columns`, on ``(total_rows, k)``
    stacked blocks — a single residual is the ``k = 1`` block.  Implementations
    keep every column's arithmetic independent of ``k``, so column ``j`` of a
    k-wide solve is bit-identical to solving that column alone.
    """

    def __init__(self) -> None:
        self._offsets: np.ndarray = np.zeros(1, dtype=np.int64)

    @property
    def num_blocks(self) -> int:
        return len(self._offsets) - 1

    @abstractmethod
    def setup(self, local_matrices: Sequence[sp.spmatrix]) -> "LocalSolver":
        """Prepare (e.g. factorise) the local operators; returns self."""

    @abstractmethod
    def solve_stacked_columns(
        self, stacked_columns: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Solve all local systems for every column of a stacked block.

        ``stacked_columns`` is ``(total_rows, k)``: segment ``i`` of a column
        (in the order and sizes of the matrices given to :meth:`setup`) is
        the residual of sub-domain ``i``.  The corrections ``v_i ≈ A_i⁻¹ r_i``
        come back in the same layout, written into ``out`` when given (the
        preconditioner hot path reuses one buffer across iterations).
        """

    def _record_layout(self, local_matrices: Sequence[sp.spmatrix]) -> np.ndarray:
        """Record the segment layout of the stacked blocks; return the segment sizes."""
        if not len(local_matrices):
            raise ValueError("need at least one local matrix")
        sizes = np.array([m.shape[0] for m in local_matrices], dtype=np.int64)
        self._offsets = np.concatenate([[0], np.cumsum(sizes)])
        return sizes

    def _block_diagonal(self, local_matrices: Sequence[sp.spmatrix], format: str) -> sp.spmatrix:
        """Record the segment layout; return ``block_diag(A_1, …, A_K)`` in ``format``."""
        self._record_layout(local_matrices)
        if len(local_matrices) == 1:
            return local_matrices[0].asformat(format)
        return sp.block_diag(local_matrices, format=format)

    def _stacked_block(self, stacked_columns: np.ndarray) -> np.ndarray:
        """The input as a float64 ``(total_rows, k)`` array, checked against the set-up layout."""
        if not self.num_blocks:
            raise RuntimeError("local solver not set up; call setup(local_matrices) first")
        block = np.asarray(stacked_columns, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != self._offsets[-1]:
            raise ValueError(
                f"expected a ({self._offsets[-1]}, k) stacked block, got shape {block.shape}"
            )
        return block

    def solve_all(self, residuals: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Per-sub-domain view of the one solve: ``v_i ≈ A_i⁻¹ r_i`` for every sub-domain."""
        sizes = [len(residual) for residual in residuals]
        if self.num_blocks and sizes != np.diff(self._offsets).tolist():
            raise ValueError(f"residual lengths {sizes} do not match the sub-domain sizes")
        stacked = np.concatenate([np.asarray(r, dtype=np.float64) for r in residuals])
        solution = self.solve_stacked_columns(stacked[:, None])[:, 0]
        return [solution[self._offsets[i]:self._offsets[i + 1]] for i in range(self.num_blocks)]


class LULocalSolver(LocalSolver):
    """Exact local solves via sparse LU factorisation (the DDM-LU baseline).

    All K local matrices are factorised as **one block-diagonal SuperLU
    factorisation** ``block_diag(A_1, …, A_K)``: the sub-domains are
    uncoupled, so the factor has no cross-block fill-in and one
    substitution per column performs all K local solves — the
    per-sub-domain Python loop (and its K-fold call overhead) disappears
    from the preconditioner hot path.  The coarse level is one more
    instance, set up on the one block ``A_0``
    (:class:`~repro.ddm.coarse.NicolaidesCoarseSpace`).

    The factor is held **once**, in one of two forms.  As set up it is
    SuperLU's object, and a solve is SuperLU's substitution.  The native
    DDM-LU apply (``ddm/_schwarz.c``, which
    :class:`~repro.ddm.asm.AdditiveSchwarzPreconditioner` resolves on its
    first apply) takes it over with :meth:`release_factor`: from then on it
    is that kernel's index and value arrays
    (:class:`~repro.ddm._native.TriangularFactor`), SuperLU's object is
    dropped, and a solve here is the kernel's substitution alone — no
    gather, glue or coarse step.
    """

    def __init__(self) -> None:
        super().__init__()
        self._factor: Optional[spla.SuperLU] = None
        self._triangular: Optional[TriangularFactor] = None
        self._substitution: Optional[SchwarzApply] = None

    def setup(self, local_matrices: Sequence[sp.spmatrix]) -> "LULocalSolver":
        self._factor = spla.splu(self._block_diagonal(local_matrices, "csc"))
        self._triangular = self._substitution = None
        return self

    def release_factor(self) -> TriangularFactor:
        """The factor as the native kernel's arrays, SuperLU's object dropped (idempotent)."""
        if self._triangular is None:
            if self._factor is None:
                raise RuntimeError("local solver not set up; call setup(local_matrices) first")
            factor, self._factor = self._factor, None
            lower, upper = factor.L, factor.U
            perm_r, perm_c = np.array(factor.perm_r), np.array(factor.perm_c)  # views would keep it alive
            del factor  # SuperLU's memory is freed before the kernel's arrays are allocated, which may reuse it
            self._triangular = TriangularFactor(lower, upper, perm_r, perm_c)
        return self._triangular

    def solve_stacked_columns(
        self, stacked_columns: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """One block-diagonal solve per column.

        The substitutions deliberately run **one column at a time** even
        though SuperLU accepts multiple right-hand sides: its multi-RHS path
        accumulates supernode updates in a different order than its
        single-RHS path (observed ~1-ulp drift), which would make a column's
        bytes depend on how many columns ride along.  After
        :meth:`release_factor` the kernel's substitution runs instead, one
        column at a time as well.
        """
        stacked_columns = self._stacked_block(stacked_columns)
        if out is None:
            out = np.empty_like(stacked_columns)
        if self._factor is None:
            if self._substitution is None:
                rows = self._triangular.rows
                self._substitution = SchwarzApply(schwarz_kernels()["schwarz_apply"], self._triangular,
                                                  np.arange(rows), sp.identity(rows, format="csr"))
            out[...] = self._substitution.apply_columns(stacked_columns)
            return out
        for c in range(stacked_columns.shape[1]):
            out[:, c] = self._factor.solve(np.ascontiguousarray(stacked_columns[:, c]))
        return out


class JacobiLocalSolver(LocalSolver):
    """Cheap approximate local solves with a few damped-Jacobi sweeps.

    Not used by the paper, but a useful inexact-smoother baseline: it shows
    how PCG behaves when the local solver is *much* weaker than either LU or
    the DSS model, and it exercises the "approximate local solver" code path
    without requiring a trained network.

    Like :class:`LULocalSolver`, the K local matrices are assembled into one
    block-diagonal operator at setup, so a sweep over *all* sub-domains and
    all columns is a single SpMM — CSR row accumulation within a block is
    bit-identical to the per-sub-domain loop and runs each column in SpMV
    order, and every sweep is otherwise elementwise, which makes the whole
    solver exactly batchable.
    """

    def __init__(self, sweeps: int = 10, damping: float = 0.6) -> None:
        if sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        super().__init__()
        self.sweeps = int(sweeps)
        self.damping = float(damping)
        self._block: Optional[sp.csr_matrix] = None
        self._inv_diagonal: np.ndarray = np.zeros((0, 1))

    def setup(self, local_matrices: Sequence[sp.spmatrix]) -> "JacobiLocalSolver":
        self._block = self._block_diagonal(local_matrices, "csr")
        diag = self._block.diagonal()
        if np.any(diag == 0.0):
            raise ValueError("zero diagonal entry; Jacobi local solver not applicable")
        self._inv_diagonal = (1.0 / diag)[:, None]
        return self

    def solve_stacked_columns(
        self, stacked_columns: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """All sweeps for every column at once: ``sweeps`` SpMMs total."""
        rhs = self._stacked_block(stacked_columns)
        x = np.zeros_like(rhs)
        for _ in range(self.sweeps):
            x = x + self.damping * self._inv_diagonal * (rhs - self._block @ x)
        if out is None:
            return x
        out[...] = x
        return out
