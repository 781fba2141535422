"""Deep Statistical Solver model (paper Sec. II-B and III-B, Fig. 3).

``DSSθ`` maps a graph-structured Poisson problem to an approximate solution:

1. the latent state ``H⁰`` (n × d) is initialised to zero;
2. k̄ *distinct* message-passing blocks update the latent state
   (Eqs. 18–21), each damped by ``α``;
3. after every iteration a per-iteration decoder produces an intermediate
   physical state; the last one is the model output (Eq. 22), and training
   minimises the sum of the residual losses of all intermediate states
   (Eq. 23).

The model is size-agnostic: the same weights apply to graphs of any number of
nodes, which is what allows the DDM-GNN preconditioner to handle sub-domains
of 500–2000 nodes with a model trained on 1000-node sub-domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from .batch import GraphBatch, _pad_columns
from .graph import GraphProblem
from .infer import CompiledDSS, EdgeLayout, InferencePlan
from .loss import TrainingLoss
from .mpnn import Forward, Params, block_forward, decoder_forward, init_params

__all__ = ["DSSConfig", "DSS"]


@dataclass(frozen=True)
class DSSConfig:
    """Hyper-parameters of a DSS model.

    ``num_iterations`` is the paper's k̄ and ``latent_dim`` its d; the paper's
    reference configuration is k̄=30, d=10 with α=1e-3.

    ``edge_attr_dim`` / ``node_input_dim`` size the feature inputs of every
    message-passing block.  The defaults (3 geometric edge attributes, the
    scalar residual as node input) reproduce the paper exactly; κ-aware
    models for heterogeneous problems use ``edge_attr_dim=4`` (adds the log
    harmonic-mean κ of each edge) and ``node_input_dim=2`` (adds log κ per
    node).  Graphs carrying more features than the model consumes are
    truncated, and missing κ features are zero-filled (log κ = 0, i.e. κ = 1),
    so models and graphs mix freely.
    """

    num_iterations: int = 30
    latent_dim: int = 10
    alpha: float = 1e-3
    seed: int = 0
    edge_attr_dim: int = 3
    node_input_dim: int = 1

    def __post_init__(self) -> None:
        if self.num_iterations < 1:
            raise ValueError("num_iterations must be >= 1")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.edge_attr_dim < 3:
            raise ValueError("edge_attr_dim must be >= 3 (dx, dy, distance)")
        if self.node_input_dim < 1:
            raise ValueError("node_input_dim must be >= 1 (the residual channel)")


class DSS:
    """The Deep Statistical Solver graph neural network: its config and one keyed parameter dict.

    ``params`` maps each checkpoint key (``block_3.psi.layer_0.weight``,
    ``decoder_3.mlp.layer_1.bias``) to its :class:`~repro.nn.optim.Parameter`,
    in checkpoint order (:func:`~repro.gnn.mpnn.init_params`); it is the one
    owner of every weight.  An optimiser takes ``params.values()``.
    """

    def __init__(self, config: DSSConfig = DSSConfig()) -> None:
        self.config = config
        self.params: Params = init_params(config)

    # ------------------------------------------------------------------ #
    # weights
    # ------------------------------------------------------------------ #
    def num_parameters(self) -> int:
        """Total number of scalar weights (paper Table II column 'Nb Weights')."""
        return int(sum(p.data.size for p in self.params.values()))

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping key -> array copy of every parameter, in checkpoint order."""
        return {name: p.data.copy() for name, p in self.params.items()}

    def checked_state(self, state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """``state``'s arrays as float64 under this model's keys, or ``KeyError`` (a key missing or
        unexpected) / ``ValueError`` (a shape differs) — it writes nothing."""
        missing, unexpected = set(self.params) - set(state), set(state) - set(self.params)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        arrays = {name: np.asarray(state[name], dtype=np.float64) for name in self.params}
        for name, value in arrays.items():
            if value.shape != self.params[name].data.shape:
                raise ValueError(f"shape mismatch for '{name}': {value.shape} vs {self.params[name].data.shape}")
        return arrays

    def prepare_load(self, state: Dict[str, np.ndarray]) -> Callable[[], None]:
        """Check ``state`` in full (:meth:`checked_state`) and return the call that copies it into the weights."""
        arrays = self.checked_state(state)

        def commit() -> None:
            for name, value in arrays.items():
                self.params[name].data[...] = value

        return commit

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values in place: all of them, or, when any key or shape is refused, none."""
        self.prepare_load(state)()

    # ------------------------------------------------------------------ #
    # forward passes
    # ------------------------------------------------------------------ #
    def _blocks(self, problem: Union[GraphProblem, GraphBatch]) -> Iterator[Forward]:
        """The block chain, one block at a time: yields ``(H_k, backward_k)`` for k = 1 … k̄.

        The edge layout is built once here, and its constructor rejects an
        edge id outside ``[0, n)`` before any kernel reads one.
        """
        num_nodes = problem.num_nodes
        edges = EdgeLayout(problem.edge_index, self._prepare_edge_attr(problem.edge_attr), num_nodes)
        node_input = self._prepare_node_input(problem)
        latent = np.zeros((num_nodes, self.config.latent_dim))
        for k in range(self.config.num_iterations):
            latent, backward = block_forward(self.params, k, self.config.alpha, latent, node_input, edges)
            yield latent, backward

    def forward(
        self,
        problem: Union[GraphProblem, GraphBatch],
        return_intermediate: bool = False,
    ) -> Union[np.ndarray, List[np.ndarray]]:
        """Run the full iterative architecture on a graph (or batch of graphs).

        Returns the final decoded state (n, 1), or the list of all k̄
        intermediate decoded states when ``return_intermediate`` is True.
        This is the one forward: :meth:`training_loss` runs the same blocks
        and decoders and keeps the backward each returns, prediction drops it.
        """
        decoded = [decoder_forward(self.params, k, latent)[0] for k, (latent, _) in enumerate(self._blocks(problem))
                   if return_intermediate or k == self.config.num_iterations - 1]
        return decoded if return_intermediate else decoded[0]

    # ------------------------------------------------------------------ #
    # feature preparation (κ-aware ↔ κ-unaware interoperability)
    # ------------------------------------------------------------------ #
    def _prepare_edge_attr(self, edge_attr: np.ndarray) -> np.ndarray:
        """Truncate or zero-pad edge attributes to the configured width."""
        want = self.config.edge_attr_dim
        if edge_attr.shape[1] >= want:
            return edge_attr[:, :want]
        return _pad_columns(edge_attr, want)

    def _prepare_node_input(self, problem: Union[GraphProblem, GraphBatch]) -> np.ndarray:
        """Stack the residual channel with extra node features (zero-padded)."""
        want = self.config.node_input_dim
        source = problem.source.reshape(-1, 1)
        if want == 1:
            return source
        node_attr = problem.node_attr
        features = source if node_attr is None else np.hstack([source, node_attr])
        if features.shape[1] >= want:
            return features[:, :want]
        return _pad_columns(features, want)

    # ------------------------------------------------------------------ #
    # convenience inference / training helpers
    # ------------------------------------------------------------------ #
    def predict(self, problem: Union[GraphProblem, GraphBatch]) -> np.ndarray:
        """:meth:`forward`'s final decoded state as a flat array."""
        return self.forward(problem).ravel()

    def predict_batched(self, graphs: Sequence[GraphProblem], batch_size: Optional[int] = None) -> List[np.ndarray]:
        """Solve many local problems, batching them ``batch_size`` at a time.

        This mirrors the paper's splitting of the K local problems into Nb
        batches when they do not all fit in one inference call.
        """
        graphs = list(graphs)
        if not graphs:
            return []
        batch_size = batch_size if batch_size is not None else len(graphs)
        # feature widths scanned once for the whole population, not per chunk
        edge_dim, node_dim = GraphBatch.feature_dims(graphs)
        results: List[np.ndarray] = []
        for start in range(0, len(graphs), batch_size):
            chunk = graphs[start:start + batch_size]
            batch = GraphBatch.from_graphs(chunk, edge_attr_dim=edge_dim, node_attr_dim=node_dim)
            values = self.predict(batch)
            results.extend(batch.split_node_values(values))
        return results

    # ------------------------------------------------------------------ #
    # allocation-free inference engine (the solver hot path)
    # ------------------------------------------------------------------ #
    def compile_plan(self, batch: GraphBatch, precision: str = "f64") -> InferencePlan:
        """Precompile a batch into an :class:`~repro.gnn.infer.InferencePlan` with its own fold and workspace.

        Subsequent :meth:`infer` calls only rewrite the per-node source.
        ``precision`` is the plan's staging dtype: ``"f64"`` (default, agreeing
        with :meth:`predict` to 1e-12) or ``"f32"``.  A plan compiled
        as ``InferencePlan(plan.compiled, batch)`` shares its fold and workspace.
        """
        return InferencePlan(CompiledDSS(self, precision), batch)

    def infer(self, plan: InferencePlan, source: np.ndarray) -> np.ndarray:
        """Run the folded forward pass on a precompiled plan for one per-node ``source``.

        Numerically pinned to :meth:`predict` on the same batch (parity at
        1e-12) but allocation- and loop-free per call — the ``k = 1`` case of
        :meth:`infer_columns`.  The returned array is a view of the plan's
        workspace, overwritten by the next call on a plan of its fold.
        """
        return self.infer_columns(plan, np.asarray(source)[:, None])[:, 0]

    def infer_columns(self, plan: InferencePlan, sources: np.ndarray) -> np.ndarray:
        """Run the forward pass for ``k`` source columns on a precompiled plan.

        ``sources`` is ``(num_nodes, k)``; the result is ``(num_nodes, k)``.
        At plan precision ``"f64"`` the columns run one at a time through the
        very kernel :meth:`infer` runs, so column ``c`` is bit-identical to
        ``infer(plan, source=sources[:, c])`` — the contract the lockstep
        multi-RHS solver relies on.  ``"f32"`` plans sweep all ``k`` columns
        at once and match the single-column result to float32 tolerance.  The
        returned array is a view, like :meth:`infer`'s.
        """
        return plan.run_columns(plan.load_source_columns(sources))

    def training_loss(self, problem: Union[GraphProblem, GraphBatch]) -> TrainingLoss:
        """Sum of the residual losses of all intermediate states (paper Eq. 23).

        Runs the forward once, keeping each block's and decoder's backward;
        ``.item()`` is the value, ``.backward()`` adds every parameter's
        gradient to its ``.grad`` (see :class:`~repro.gnn.loss.TrainingLoss`).
        """
        loss = TrainingLoss(problem)
        for k, (latent, block_backward) in enumerate(self._blocks(problem)):
            decoded, decoder_backward = decoder_forward(self.params, k, latent)
            loss.add(decoded, decoder_backward, block_backward)
        return loss

    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        cfg = self.config
        return (
            f"DSS(k̄={cfg.num_iterations}, d={cfg.latent_dim}, α={cfg.alpha}, "
            f"weights={self.num_parameters()})"
        )
