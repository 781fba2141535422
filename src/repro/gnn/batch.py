"""Disjoint-union batching of graph problems (PyTorch Geometric ``Batch`` substitute).

Batching K sub-domain graphs into one big block-diagonal graph lets a single
DSS forward pass solve *all* local problems at once — this is how the paper
exploits GPU parallelism ("all subdomains are solved simultaneously in one
inference of DSSθ", Eq. 14).  Here the same trick turns K small NumPy
computations into one large vectorised computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .graph import GraphProblem

__all__ = ["GraphBatch", "BatchPlan", "MessageOperators", "message_operators"]


def _pad_columns(array: np.ndarray, width: int) -> np.ndarray:
    """Zero-pad a 2-D feature array on the right to ``width`` columns."""
    if array.shape[1] == width:
        return array
    if array.shape[1] > width:
        raise ValueError(f"cannot pad a {array.shape[1]}-column array to {width} columns")
    padded = np.zeros((array.shape[0], width))
    padded[:, : array.shape[1]] = array
    return padded


class MessageOperators(NamedTuple):
    """The sparse operators of the numpy edge pass over a fixed edge list."""

    gather: sp.csr_matrix     # (E, 2n) — row e holds ones at columns dst_e and n + src_e
    aggregate: sp.csr_matrix  # (n, E) — row i holds a one for every edge arriving at node i


def message_operators(edge_index: np.ndarray, num_nodes: int, dtype=np.float64) -> MessageOperators:
    """Build the gather and aggregation operators of the ``(2, E)`` edges ``src → dst``.

    Only the numpy body of the edge pass and its VJP use them
    (:class:`~repro.gnn.infer.EdgeLayout` builds them on that body's first
    use, at the layout's precision); the VJP's ``Gᵀ`` is the free CSC view
    ``gather.T``.

    >>> ops = message_operators(np.array([[0, 1], [1, 0]]), num_nodes=2)
    >>> ops.gather.toarray()       # edge 0 is 0 → 1: columns [dst | n + src] = 1 and 2
    array([[0., 1., 1., 0.],
           [1., 0., 0., 1.]])
    >>> ops.aggregate.toarray()    # node 0 receives edge 1, node 1 receives edge 0
    array([[0., 1.],
           [1., 0.]])
    """
    n = int(num_nodes)
    src, dst = edge_index[0], edge_index[1]
    num_edges = src.shape[0]
    # two-ones gather-add operator: row e sums proj[dst_e] (dst block) and
    # proj[n + src_e] (src block) — all columns at once via the dense
    # dimension (data staged at the caller's precision: the CSR kernel
    # requires dtype-consistent operands)
    gather_indices = np.empty(2 * num_edges, dtype=np.int64)
    gather_indices[0::2] = dst
    gather_indices[1::2] = n + src
    gather = sp.csr_matrix(
        (np.ones(2 * num_edges, dtype=dtype), gather_indices,
         2 * np.arange(num_edges + 1, dtype=np.int64)),
        shape=(num_edges, 2 * n),
    )
    # aggregation operator: out = S @ messages sums every directed edge's
    # message onto its destination node in one SpMM
    incidence = sp.csr_matrix(
        (np.ones(num_edges, dtype=dtype), dst, np.arange(num_edges + 1, dtype=np.int64)),
        shape=(num_edges, n),
    )
    aggregate = incidence.T.tocsr()
    aggregate.sort_indices()
    return MessageOperators(gather, aggregate)


@dataclass
class GraphBatch:
    """A disjoint union of :class:`GraphProblem` objects.

    Node arrays are concatenated; edge indices are shifted by the cumulative
    node offsets so each sub-graph keeps to itself.  ``node_graph_index`` maps
    every node of the batch back to its source graph, allowing the results to
    be split again after inference.
    """

    graphs: List[GraphProblem]
    positions: np.ndarray
    edge_index: np.ndarray
    edge_attr: np.ndarray
    source: np.ndarray
    dirichlet_mask: np.ndarray
    node_offsets: np.ndarray
    node_graph_index: np.ndarray
    node_attr: Optional[np.ndarray] = None

    @classmethod
    def from_graphs(
        cls,
        graphs: Sequence[GraphProblem],
        edge_attr_dim: Optional[int] = None,
        node_attr_dim: Optional[int] = None,
    ) -> "GraphBatch":
        """Concatenate ``graphs`` into one disjoint-union batch.

        ``edge_attr_dim`` / ``node_attr_dim`` let callers that batch the same
        graph population repeatedly (preconditioner setup, the training chunk
        loop) pass the feature widths once instead of re-scanning every graph
        with ``max()`` on each call; ``node_attr_dim=0`` states explicitly
        that no graph carries node attributes.
        """
        if not graphs:
            raise ValueError("cannot batch an empty list of graphs")
        sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        positions = np.vstack([g.positions for g in graphs])
        edge_index = np.hstack(
            [g.edge_index + offsets[i] for i, g in enumerate(graphs)]
        ) if any(g.num_edges for g in graphs) else np.zeros((2, 0), dtype=np.int64)
        # graphs may mix κ-aware (4-column) and plain (3-column) edge
        # attributes; zero-pad to the widest (log10 κ = 0 means κ = 1)
        if edge_attr_dim is None:
            edge_attr_dim = max(g.edge_attr.shape[1] for g in graphs)
        edge_attr = (
            np.vstack([_pad_columns(g.edge_attr, edge_attr_dim) for g in graphs])
            if edge_index.shape[1]
            else np.zeros((0, edge_attr_dim))
        )
        source = np.concatenate([g.source for g in graphs])
        dirichlet = np.concatenate([g.dirichlet_mask for g in graphs])
        node_graph_index = np.repeat(np.arange(len(graphs)), sizes)
        # κ node features: zero-fill graphs that carry none instead of
        # silently dropping the feature for the whole batch
        if node_attr_dim is None:
            node_attr_dim = (
                max(g.node_attr.shape[1] for g in graphs if g.node_attr is not None)
                if any(g.node_attr is not None for g in graphs)
                else 0
            )
        node_attr = None
        if node_attr_dim:
            node_attr = np.vstack([
                _pad_columns(g.node_attr, node_attr_dim)
                if g.node_attr is not None
                else np.zeros((g.num_nodes, node_attr_dim))
                for g in graphs
            ])
        return cls(
            graphs=list(graphs),
            positions=positions,
            edge_index=edge_index,
            edge_attr=edge_attr,
            source=source,
            dirichlet_mask=dirichlet,
            node_offsets=offsets,
            node_graph_index=node_graph_index,
            node_attr=node_attr,
        )

    @staticmethod
    def feature_dims(graphs: Sequence) -> tuple:
        """``(edge_attr_dim, node_attr_dim)`` of a graph population, scanned once.

        Accepts any objects carrying ``edge_attr``/``node_attr`` arrays
        (:class:`GraphProblem`, :class:`~repro.core.dataset.SubdomainGeometry`).
        Feed the result back into :meth:`from_graphs` when batching subsets of
        the same population repeatedly.
        """
        edge_dim = max(g.edge_attr.shape[1] for g in graphs)
        node_dim = (
            max(g.node_attr.shape[1] for g in graphs if g.node_attr is not None)
            if any(g.node_attr is not None for g in graphs)
            else 0
        )
        return edge_dim, node_dim

    # ------------------------------------------------------------------ #
    @property
    def num_graphs(self) -> int:
        return len(self.graphs)

    @property
    def num_nodes(self) -> int:
        return int(self.positions.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])

    # ------------------------------------------------------------------ #
    def split_node_values(self, values: np.ndarray) -> List[np.ndarray]:
        """Split a per-node array of the batch back into per-graph arrays."""
        values = np.asarray(values)
        return [
            values[self.node_offsets[i]:self.node_offsets[i + 1]]
            for i in range(self.num_graphs)
        ]

    def block_diagonal_matrix(self) -> sp.csr_matrix:
        """Block-diagonal operator ``diag(A_1, ..., A_K)`` of the batched graphs.

        Requires every member graph to carry its local matrix; used by the
        physics-informed loss so the whole batch residual is one sparse matvec.
        The assembled operator is cached: the training loss evaluates it once
        per message-passing iteration (Eq. 23) on the same batch.
        """
        cached = getattr(self, "_block_matrix", None)
        if cached is not None:
            return cached
        blocks = []
        for g in self.graphs:
            if g.matrix is None:
                raise ValueError("all graphs in the batch need a matrix for the residual loss")
            blocks.append(g.matrix)
        matrix = sp.block_diag(blocks, format="csr")
        object.__setattr__(self, "_block_matrix", matrix)
        return matrix

    def compile_plan(self) -> "BatchPlan":
        """Freeze this batch into a :class:`BatchPlan` for iteration-time reuse."""
        return BatchPlan.from_batch(self)


@dataclass
class BatchPlan:
    """Precompiled, residual-independent description of a fixed graph batch.

    Everything about a batch that a Krylov solve reuses on every
    preconditioner application — the concatenated edge index, the padded
    node/edge attributes, the Dirichlet mask, the segment offsets, the
    feature widths — is computed once here.  The only mutable piece of state
    is the preallocated ``source`` buffer: :meth:`load_source` scatters the
    current normalised local residuals into it, and no per-iteration
    ``GraphProblem``/``GraphBatch`` construction happens at all.

    The field layout is duck-compatible with :class:`GraphBatch` (``source``,
    ``edge_index``, ``edge_attr``, ``node_attr``, ``num_nodes``), so a plan
    can be fed straight to ``DSS.forward`` — the parity tests pin the
    allocation-free engine against exactly that forward.

    The directed edges are re-sorted by destination node (a stable sort, so
    the graph is unchanged up to summation order of the incoming messages):
    gathers and aggregations indexed by destination then walk memory almost
    sequentially, and the engine's edge pass aggregates over an ``indptr``.
    """

    edge_index: np.ndarray
    edge_attr: np.ndarray
    dirichlet_mask: np.ndarray
    node_offsets: np.ndarray
    node_graph_index: np.ndarray
    source: np.ndarray
    node_attr: Optional[np.ndarray] = None
    edge_attr_dim: int = 0
    node_attr_dim: int = 0

    @classmethod
    def from_batch(cls, batch: GraphBatch) -> "BatchPlan":
        order = np.argsort(batch.edge_index[1], kind="stable")
        return cls(
            edge_index=np.ascontiguousarray(batch.edge_index[:, order]),
            edge_attr=np.ascontiguousarray(batch.edge_attr[order]),
            dirichlet_mask=batch.dirichlet_mask,
            node_offsets=batch.node_offsets,
            node_graph_index=batch.node_graph_index,
            source=np.zeros(batch.num_nodes),
            node_attr=batch.node_attr,
            edge_attr_dim=int(batch.edge_attr.shape[1]),
            node_attr_dim=0 if batch.node_attr is None else int(batch.node_attr.shape[1]),
        )

    @property
    def num_graphs(self) -> int:
        return int(len(self.node_offsets) - 1)

    @property
    def num_nodes(self) -> int:
        return int(self.source.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])

    def load_source(self, values: np.ndarray) -> None:
        """Copy the current per-node inputs into the preallocated buffer."""
        values = np.asarray(values)
        if values.shape != self.source.shape:
            raise ValueError(
                f"source must have shape {self.source.shape} (one value per stacked "
                f"node), got {values.shape}; multi-column sources go through "
                f"InferencePlan.load_source_columns"
            )
        self.source[...] = values

    def split_node_values(self, values: np.ndarray) -> List[np.ndarray]:
        """Split a per-node array of the batch back into per-graph views."""
        values = np.asarray(values)
        return [
            values[self.node_offsets[i]:self.node_offsets[i + 1]]
            for i in range(self.num_graphs)
        ]
