"""Coarse-space correction (second level of the ASM preconditioner).

The paper uses a Nicolaides coarse space: the coarse basis contains one vector
per sub-domain, the partition-of-unity weighting of the constant function
restricted to that sub-domain.  The coarse operator ``A_0 = R_0 A R_0ᵀ`` is
assembled sparse (7–9 entries per row) and solved exactly as one more block:
a one-block :class:`~repro.ddm.local_solvers.LULocalSolver`, the same factor
and the same substitution as the local level.  Every application (paper
Eq. 13) is ``R_0ᵀ A_0⁻¹ R_0 r``, here through that solver or — reading the
same factor, handed over with ``release_factor()`` — inside the native DDM-LU
apply (``ddm/_schwarz.c``).  Set-up and memory are linear in K (DESIGN.md,
"The DDM-LU apply").
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .local_solvers import LULocalSolver

__all__ = ["NicolaidesCoarseSpace"]


class NicolaidesCoarseSpace:
    """Nicolaides coarse space built from an overlapping decomposition.

    Each coarse basis vector is the constant 1 on its sub-domain weighted by
    the inverse node multiplicity, so the basis vectors sum to the global
    constant vector.

    Parameters
    ----------
    subdomain_nodes:
        The K overlapping node sets.
    num_global:
        Global number of degrees of freedom N.
    """

    def __init__(self, subdomain_nodes: Sequence[np.ndarray], num_global: int) -> None:
        self.num_global = int(num_global)
        self.num_subdomains = len(subdomain_nodes)
        nodes = [np.asarray(part, dtype=np.int64) for part in subdomain_nodes]
        multiplicity = np.zeros(num_global)
        for part in nodes:
            multiplicity[part] += 1.0
        rows = np.repeat(np.arange(self.num_subdomains), [len(part) for part in nodes])
        cols = np.concatenate(nodes)
        self.r0 = sp.csr_matrix((1.0 / multiplicity[cols], (rows, cols)), shape=(self.num_subdomains, num_global))
        # R_0ᵀ as scipy's own transposed view, built once: `r0.T` constructs a
        # new matrix object per use (~15 µs, a seventh of a small DDM-LU apply)
        self._r0_transpose = self.r0.T
        self._coarse_matrix: Optional[sp.csc_matrix] = None
        self.solver = LULocalSolver()

    def factorize(self, matrix: sp.spmatrix) -> "NicolaidesCoarseSpace":
        """Assemble the sparse ``A_0 = R_0 A R_0ᵀ`` and factorise it as a one-block local solver."""
        self._coarse_matrix = (self.r0 @ matrix @ self._r0_transpose).tocsc()
        self.solver.setup([self._coarse_matrix])
        return self

    @property
    def coarse_matrix(self) -> sp.csc_matrix:
        """The sparse K×K coarse operator ``A_0``."""
        if self._coarse_matrix is None:
            raise RuntimeError("coarse space not factorised; call factorize(A) first")
        return self._coarse_matrix

    def apply(self, residual: np.ndarray) -> np.ndarray:
        """Coarse correction ``R_0ᵀ (R_0 A R_0ᵀ)⁻¹ R_0 r`` (paper Eq. 13) of one residual."""
        return self.apply_columns(np.asarray(residual, dtype=np.float64)[:, None])[:, 0]

    def apply_columns(self, residuals: np.ndarray) -> np.ndarray:
        """Coarse correction (paper Eq. 13) of every column of an ``(n, k)`` residual block.

        The one implementation; :meth:`apply` is its ``k = 1`` case.  A
        column's bytes do not depend on ``k``: the CSR SpMMs accumulate each
        column in SpMV order, and the solver substitutes one column at a time.
        """
        if self._coarse_matrix is None:
            raise RuntimeError("coarse space not factorised; call factorize(A) first")
        coarse_residuals = self.r0 @ np.asarray(residuals, dtype=np.float64)
        return self._r0_transpose @ self.solver.solve_stacked_columns(coarse_residuals)
