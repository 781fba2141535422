"""Coarse-space correction (second level of the ASM preconditioner).

The paper uses a Nicolaides coarse space: the coarse basis contains one vector
per sub-domain, equal to (a partition-of-unity weighting of) the constant
function restricted to that sub-domain.  The coarse operator
``A_0 = R_0 A R_0ᵀ`` is assembled once, stored as a dense K×K matrix and
inverted outright (``np.linalg.inv``); every application (paper Eq. 13) is then
one K×K GEMV per column, here or — reading the same inverse — inside the
native DDM-LU apply (``ddm/_schwarz.c``).  ``A_0`` is sparse and the dense
inverse costs O(K³) set-up and K² bytes: DESIGN.md, "The DDM-LU apply", has
it measured against a sparse LU through the native substitution.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = ["NicolaidesCoarseSpace"]


class NicolaidesCoarseSpace:
    """Nicolaides coarse space built from an overlapping decomposition.

    Parameters
    ----------
    subdomain_nodes:
        The K overlapping node sets.
    num_global:
        Global number of degrees of freedom N.
    use_partition_of_unity:
        If True (default), each coarse basis vector is the constant 1 on the
        sub-domain weighted by the inverse node multiplicity, so the basis
        vectors sum to the global constant vector.  If False, plain indicator
        vectors are used.
    """

    def __init__(
        self,
        subdomain_nodes: Sequence[np.ndarray],
        num_global: int,
        use_partition_of_unity: bool = True,
    ) -> None:
        self.num_global = int(num_global)
        self.num_subdomains = len(subdomain_nodes)
        multiplicity = np.zeros(num_global)
        for nodes in subdomain_nodes:
            multiplicity[np.asarray(nodes, dtype=np.int64)] += 1.0
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        vals: List[np.ndarray] = []
        for i, nodes in enumerate(subdomain_nodes):
            nodes = np.asarray(nodes, dtype=np.int64)
            rows.append(np.full(len(nodes), i, dtype=np.int64))
            cols.append(nodes)
            if use_partition_of_unity:
                vals.append(1.0 / multiplicity[nodes])
            else:
                vals.append(np.ones(len(nodes)))
        self.r0 = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.num_subdomains, num_global),
        )
        # R_0ᵀ as scipy's own transposed view, built once: `r0.T` constructs a
        # new matrix object per use (~15 µs, a seventh of a small DDM-LU apply)
        self._r0_transpose = self.r0.T
        self._inverse: Optional[np.ndarray] = None
        self._coarse_matrix: Optional[np.ndarray] = None

    def factorize(self, matrix: sp.spmatrix) -> "NicolaidesCoarseSpace":
        """Assemble and invert the coarse operator ``A_0 = R_0 A R_0ᵀ``.

        The inverse is precomputed outright, dense: each application is one
        K×K GEMV per column, ~2 µs at K = 19.  That was chosen over SuperLU
        for its per-call overhead; the native substitution of
        ``ddm/_schwarz.c`` has none, and a sparse LU of ``A_0`` through it
        is 7× faster per column at K = 1,172 and 32× at K = 4,678, with a
        set-up of milliseconds instead of 0.21 / 8.2 s (DESIGN.md, "The
        DDM-LU apply").  Replacing this is ROADMAP's coarse-space item.
        """
        coarse = (self.r0 @ matrix @ self.r0.T).tocsc()
        self._coarse_matrix = coarse.toarray()
        self._inverse = np.linalg.inv(self._coarse_matrix)
        return self

    @property
    def coarse_matrix(self) -> np.ndarray:
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
        column in SpMV order, and the tiny K×K inverse is applied one column
        at a time as a GEMV (a K×k GEMM may block differently).
        """
        if self._inverse is None:
            raise RuntimeError("coarse space not factorised; call factorize(A) first")
        coarse_residuals = self.r0 @ np.asarray(residuals, dtype=np.float64)
        coarse_solutions = np.empty_like(coarse_residuals)
        for c in range(coarse_residuals.shape[1]):
            coarse_solutions[:, c] = self._inverse @ np.ascontiguousarray(coarse_residuals[:, c])
        return self._r0_transpose @ coarse_solutions
