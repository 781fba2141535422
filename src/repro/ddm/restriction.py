"""Restriction / extension operators for domain decomposition.

For an overlapping decomposition into K sub-domains, the boolean restriction
matrix ``R_i`` (paper Sec. II-A) selects the rows of a global vector that
belong to sub-domain ``i``; its transpose extends a local vector by zero.
The restricted extension ``R̃_iᵀ`` (Cai & Sarkis 1999) keeps only the rows of
the sub-domain's non-overlapping core: one owner per node, ``Σ_i R̃_iᵀ R_i = I``.

:class:`StackedRestriction` assembles all K operators into one block matrix
``R = [R_1; …; R_K]`` so the whole restriction step of a Schwarz application
is a single gather and the gluing step a single SpMM (or, restricted, a second
gather) — this replaces the per-sub-domain Python loops on the preconditioner
hot path.  Every operation takes a vector or an ``(·, k)`` block alike; the
preconditioners only ever pass blocks, a single residual being the ``k = 1``
block.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "restriction_matrix",
    "build_restrictions",
    "StackedRestriction",
    "ColumnScratch",
    "segment_norms",
]


def restriction_matrix(nodes: np.ndarray, num_global: int) -> sp.csr_matrix:
    """Boolean restriction matrix ``R`` of shape (len(nodes), num_global).

    ``R @ u`` extracts ``u[nodes]`` and ``R.T @ v`` scatters ``v`` back into a
    zero global vector, exactly the operators of Eq. (6) in the paper.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    k = len(nodes)
    if k and (nodes.min() < 0 or nodes.max() >= num_global):
        raise ValueError("node index out of range for restriction matrix")
    data = np.ones(k)
    rows = np.arange(k)
    return sp.csr_matrix((data, (rows, nodes)), shape=(k, num_global))


def build_restrictions(subdomain_nodes: Sequence[np.ndarray], num_global: int) -> List[sp.csr_matrix]:
    """Build one restriction matrix per sub-domain."""
    return [restriction_matrix(nodes, num_global) for nodes in subdomain_nodes]


class StackedRestriction:
    """All K restriction operators stacked into one block ``R = [R_1; …; R_K]``.

    ``R`` has shape ``(Σ_i k_i, n)``.  Because every row holds a single unit
    entry:

    * ``extract`` (``R @ v``, all local residuals at once) degenerates to a
      pure row gather, so with an ``out=`` buffer it is allocation-free;
    * ``glue`` (``Rᵀ @ w``, the Σ_i R_iᵀ w_i extension) is one CSR product
      whose per-node accumulation order matches the classical
      ascending-sub-domain loop bit for bit (the transpose is stored with
      sorted indices).  Built with the decomposition's ``core_nodes`` it is
      *restricted* instead: ``Σ_i R̃_iᵀ w_i``, a second row gather that takes
      every node from the sub-domain whose core owns it.

    Both take a vector or an ``(·, k)`` block; every column of a block goes
    through exactly the arithmetic a lone vector would (gathers copy values,
    scipy's CSR kernels accumulate each column in SpMV order), which is what
    makes column ``j`` of a k-wide preconditioner application bit-identical
    to the 1-wide one.

    ``offsets`` delimit the per-sub-domain segments of a stacked array:
    segment ``i`` is ``stacked[offsets[i]:offsets[i + 1]]``.
    """

    def __init__(self, subdomain_nodes: Sequence[np.ndarray], num_global: int,
                 core_nodes: Optional[Sequence[np.ndarray]] = None) -> None:
        nodes = [np.asarray(n, dtype=np.int64) for n in subdomain_nodes]
        if not nodes:
            raise ValueError("cannot stack an empty list of sub-domains")
        self.num_global = int(num_global)
        self.sizes = np.array([len(n) for n in nodes], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.total_rows = int(self.offsets[-1])
        self.node_indices = np.concatenate(nodes) if self.total_rows else np.zeros(0, dtype=np.int64)
        if self.total_rows and (self.node_indices.min() < 0 or self.node_indices.max() >= num_global):
            raise ValueError("node index out of range for stacked restriction")
        #: sub-domain id of every stacked row (for per-segment scatter/gather)
        self.segment_ids = np.repeat(np.arange(len(nodes)), self.sizes)
        #: stacked row that owns each global node (restricted gluing), or None
        self.owner_rows = None if core_nodes is None else self._owner_rows(nodes, core_nodes)
        if core_nodes is None:
            # Rᵀ in CSR with sorted indices: row = global node, columns = its
            # stacked positions in ascending sub-domain order (the loop order).
            entries = (np.ones(self.total_rows), (self.node_indices, np.arange(self.total_rows)))
            self._transpose = sp.csr_matrix(entries, shape=(self.num_global, self.total_rows))
            self._transpose.sort_indices()

    def _owner_rows(self, nodes: List[np.ndarray], core_nodes: Sequence[np.ndarray]) -> np.ndarray:
        """Stacked row of every global node in the sub-domain whose core holds it; cores that
        leave their sub-domain, overlap or miss a node raise (a decomposition is outside input)."""
        owned = [np.isin(sub, core) for sub, core in zip(nodes, core_nodes)]
        for i, (mask, core) in enumerate(zip(owned, core_nodes)):
            if np.count_nonzero(mask) != len(core):
                raise ValueError(f"core {i} is not a duplicate-free subset of sub-domain {i}")
        rows = np.flatnonzero(np.concatenate(owned))
        owners = np.bincount(self.node_indices[rows], minlength=self.num_global)
        if np.any(owners != 1):
            bad = int(np.argmax(owners != 1))
            raise ValueError(f"cores must partition the nodes: node {bad} is in {owners[bad]} cores")
        owner_rows = np.empty(self.num_global, dtype=np.int64)
        owner_rows[self.node_indices[rows]] = rows
        return owner_rows

    @property
    def num_subdomains(self) -> int:
        return int(len(self.sizes))

    # ------------------------------------------------------------------ #
    def extract(self, global_values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``R @ v``: every local residual, stacked — of a vector or of each column of a block."""
        v = np.asarray(global_values, dtype=np.float64)
        return np.take(v, self.node_indices, axis=0, out=out)

    def split(self, stacked: np.ndarray) -> List[np.ndarray]:
        """Views of the per-sub-domain segments of a stacked vector or block."""
        return [
            stacked[self.offsets[i]:self.offsets[i + 1]]
            for i in range(self.num_subdomains)
        ]

    def glue(self, stacked_values: np.ndarray) -> np.ndarray:
        """Combine all sub-domain contributions: ``Rᵀ @ w`` (one CSR product), or with
        owners ``Σ_i R̃_iᵀ w_i`` (one row gather of each node from its owner)."""
        w = np.asarray(stacked_values, dtype=np.float64)
        if self.owner_rows is None:
            return self._transpose @ w
        return np.take(w, self.owner_rows, axis=0)


def segment_norms(
    stacked: np.ndarray,
    offsets: np.ndarray,
    out: Optional[np.ndarray] = None,
    squares: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Euclidean norm of every per-sub-domain segment (``‖R_i r‖`` for all i).

    ``stacked`` is a stacked vector or ``(total_rows, k)`` block whose
    segment ``i`` is ``stacked[offsets[i]:offsets[i + 1]]``; the result has
    one row per sub-domain.  ``out`` and ``squares`` (shaped like the result
    and like ``stacked``) are optional scratch buffers; the DSS local solve
    passes both so the per-iteration norm computation allocates nothing.
    """
    stacked = np.asarray(stacked, dtype=np.float64)
    squares = np.multiply(stacked, stacked, out=squares)
    out = np.add.reduceat(squares, offsets[:-1], axis=0, out=out)
    return np.sqrt(out, out=out)


class ColumnScratch:
    """Reusable ``(rows, k)`` work arrays for the block pipelines.

    One flat buffer per named array, sized for the largest ``k`` seen so far;
    :meth:`views` hands out C-ordered ``(rows, k)`` reshape views of their
    leading parts (the idiom of :class:`repro.gnn.infer.InferencePlan`'s
    workspace).  A lockstep block that sheds one column at a time visits
    every ``k`` below its width, so memory is set by the widest block — not
    by the sum over the widths seen — and a call at a ``k`` seen before
    allocates nothing.  Views for different ``k`` alias each other, which is
    harmless: an application overwrites every array it reads.
    """

    def __init__(self, **rows: int) -> None:
        self._rows = rows
        self._k_max = 0
        self._flat: Dict[str, np.ndarray] = {}
        self._views: Dict[int, Dict[str, np.ndarray]] = {}

    @property
    def nbytes(self) -> int:
        """Bytes held by the flat buffers."""
        return sum(flat.nbytes for flat in self._flat.values())

    def views(self, k: int) -> Dict[str, np.ndarray]:
        """The named ``(rows, k)`` arrays for a ``k``-column application."""
        views = self._views.get(k)
        if views is None:
            if k > self._k_max:
                self._k_max = k
                self._flat = {name: np.empty(rows * k) for name, rows in self._rows.items()}
                self._views = {}
            views = self._views[k] = {
                name: self._flat[name][:rows * k].reshape(rows, k)
                for name, rows in self._rows.items()
            }
        return views
