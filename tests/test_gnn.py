"""Tests of the GNN substrate and the DSS model (repro.gnn)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn import (
    DSS,
    DSSConfig,
    DSSTrainer,
    EdgeLayout,
    GraphBatch,
    GraphProblem,
    TrainingConfig,
    evaluate_model,
    graph_from_mesh,
    load_model,
    relative_error,
    residual_loss,
    save_checkpoint,
)
from repro.gnn.mpnn import Decoder, DSSBlock
from repro.mesh import structured_rectangle_mesh


def _toy_graph(n: int = 12, seed: int = 0, with_matrix: bool = True) -> GraphProblem:
    """Small graph problem on a structured mesh with an SPD local matrix."""
    mesh = structured_rectangle_mesh(3, 3) if n == 16 else structured_rectangle_mesh(2, 3)
    rng = np.random.default_rng(seed)
    matrix = None
    if with_matrix:
        from repro.fem import assemble_stiffness

        k = assemble_stiffness(mesh)
        matrix = (k + sp.identity(mesh.num_nodes)).tocsr()
    source = rng.normal(size=mesh.num_nodes)
    source /= np.linalg.norm(source)
    return graph_from_mesh(mesh, source=source, matrix=matrix)


# --------------------------------------------------------------------------- #
# graphs and batching
# --------------------------------------------------------------------------- #
class TestGraphProblem:
    def test_graph_from_mesh_shapes(self, unit_square_mesh):
        g = graph_from_mesh(unit_square_mesh, source=np.zeros(unit_square_mesh.num_nodes))
        assert g.num_nodes == unit_square_mesh.num_nodes
        assert g.edge_attr.shape == (g.num_edges, 3)

    def test_edges_into_dirichlet_removed(self, unit_square_mesh):
        g = graph_from_mesh(unit_square_mesh, source=np.zeros(unit_square_mesh.num_nodes))
        dirichlet = np.flatnonzero(g.dirichlet_mask)
        assert not np.isin(g.edge_index[1], dirichlet).any()

    def test_edges_kept_when_not_dropping(self, unit_square_mesh):
        g = graph_from_mesh(
            unit_square_mesh,
            source=np.zeros(unit_square_mesh.num_nodes),
            drop_edges_into_dirichlet=False,
        )
        assert g.num_edges == unit_square_mesh.directed_edge_index.shape[1]

    def test_edge_attr_distance_consistent(self, unit_square_mesh):
        g = graph_from_mesh(unit_square_mesh, source=np.zeros(unit_square_mesh.num_nodes))
        rel = g.positions[g.edge_index[1]] - g.positions[g.edge_index[0]]
        assert np.allclose(g.edge_attr[:, :2], rel)
        assert np.allclose(g.edge_attr[:, 2], np.linalg.norm(rel, axis=1))

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            GraphProblem(
                positions=np.zeros((3, 2)),
                edge_index=np.zeros((3, 2), dtype=int),
                edge_attr=np.zeros((2, 3)),
                source=np.zeros(3),
                dirichlet_mask=np.zeros(3, dtype=bool),
            )

    def test_residual_norm_requires_matrix(self):
        g = _toy_graph(with_matrix=False)
        with pytest.raises(ValueError):
            g.residual_norm(np.zeros(g.num_nodes))

    def test_residual_norm_of_exact_solution_is_zero(self):
        g = _toy_graph()
        exact = sp.linalg.spsolve(g.matrix.tocsc(), g.source)
        assert g.residual_norm(exact) < 1e-12


class TestGraphBatch:
    def test_batch_offsets_and_sizes(self):
        graphs = [_toy_graph(seed=i) for i in range(3)]
        batch = GraphBatch.from_graphs(graphs)
        assert batch.num_graphs == 3
        assert batch.num_nodes == sum(g.num_nodes for g in graphs)
        assert batch.num_edges == sum(g.num_edges for g in graphs)

    def test_batch_edges_stay_within_blocks(self):
        graphs = [_toy_graph(seed=i) for i in range(3)]
        batch = GraphBatch.from_graphs(graphs)
        membership_src = batch.node_graph_index[batch.edge_index[0]]
        membership_dst = batch.node_graph_index[batch.edge_index[1]]
        assert np.array_equal(membership_src, membership_dst)

    def test_split_node_values_roundtrip(self):
        graphs = [_toy_graph(seed=i) for i in range(4)]
        batch = GraphBatch.from_graphs(graphs)
        values = np.arange(batch.num_nodes, dtype=float)
        parts = batch.split_node_values(values)
        assert np.allclose(np.concatenate(parts), values)
        assert [len(p) for p in parts] == [g.num_nodes for g in graphs]

    def test_block_diagonal_matrix(self):
        graphs = [_toy_graph(seed=i) for i in range(2)]
        batch = GraphBatch.from_graphs(graphs)
        block = batch.block_diagonal_matrix()
        n0 = graphs[0].num_nodes
        assert np.allclose(block[:n0, :n0].toarray(), graphs[0].matrix.toarray())
        assert block[:n0, n0:].nnz == 0

    def test_block_diagonal_matrix_cached(self):
        batch = GraphBatch.from_graphs([_toy_graph(seed=1)])
        assert batch.block_diagonal_matrix() is batch.block_diagonal_matrix()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            GraphBatch.from_graphs([])



# --------------------------------------------------------------------------- #
# building blocks
# --------------------------------------------------------------------------- #
class TestBlocks:
    def test_dss_block_shapes(self):
        g = _toy_graph()
        block = DSSBlock(latent_dim=6, rng=np.random.default_rng(0))
        latent = np.zeros((g.num_nodes, 6))
        edges = EdgeLayout(g.edge_index, g.edge_attr, g.num_nodes)
        out, _ = block(latent, g.source.reshape(-1, 1), edges)
        assert out.shape == (g.num_nodes, 6)

    def test_dss_block_residual_update_small_alpha(self):
        """With a tiny α the block is close to the identity on the latent state."""
        g = _toy_graph()
        block = DSSBlock(latent_dim=4, alpha=1e-8, rng=np.random.default_rng(1))
        latent = np.random.default_rng(2).normal(size=(g.num_nodes, 4))
        edges = EdgeLayout(g.edge_index, g.edge_attr, g.num_nodes)
        out, _ = block(latent, g.source.reshape(-1, 1), edges)
        assert np.allclose(out, latent, atol=1e-5)

    def test_decoder_output_shape(self):
        dec = Decoder(latent_dim=5, rng=np.random.default_rng(0))
        out, _ = dec(np.zeros((7, 5)))
        assert out.shape == (7, 1)

    def test_block_invalid_latent_dim(self):
        with pytest.raises(ValueError):
            DSSBlock(latent_dim=0)


# --------------------------------------------------------------------------- #
# DSS model
# --------------------------------------------------------------------------- #
class TestDSS:
    def test_parameter_counts_match_paper_table2(self):
        """The weight counts of Table II are reproduced exactly."""
        expected = {
            (5, 5): 1755, (5, 10): 6255, (5, 20): 23505,
            (10, 5): 3510, (10, 10): 12510, (10, 20): 47010,
            (20, 5): 7020, (20, 10): 25020, (20, 20): 94020,
            (30, 10): 37530,
        }
        for (k, d), n_weights in expected.items():
            model = DSS(DSSConfig(num_iterations=k, latent_dim=d))
            assert model.num_parameters() == n_weights, (k, d)

    def test_forward_output_shape(self, tiny_dss_model):
        g = _toy_graph()
        out = tiny_dss_model.forward(g)
        assert out.shape == (g.num_nodes, 1)

    def test_intermediate_outputs_count(self, tiny_dss_model):
        g = _toy_graph()
        outs = tiny_dss_model.forward(g, return_intermediate=True)
        assert len(outs) == tiny_dss_model.config.num_iterations

    def test_predict_batched_equals_individual(self, tiny_dss_model):
        """Batched inference must equal per-graph inference (GPU-batching invariant)."""
        graphs = [_toy_graph(seed=i) for i in range(3)]
        individual = [tiny_dss_model.predict(g) for g in graphs]
        batched = tiny_dss_model.predict_batched(graphs)
        for a, b in zip(individual, batched):
            assert np.allclose(a, b, atol=1e-12)

    def test_predict_batched_with_small_batch_size(self, tiny_dss_model):
        graphs = [_toy_graph(seed=i) for i in range(5)]
        all_at_once = tiny_dss_model.predict_batched(graphs)
        chunked = tiny_dss_model.predict_batched(graphs, batch_size=2)
        for a, b in zip(all_at_once, chunked):
            assert np.allclose(a, b, atol=1e-12)

    def test_predict_empty_list(self, tiny_dss_model):
        assert tiny_dss_model.predict_batched([]) == []

    def test_model_is_size_agnostic(self, tiny_dss_model):
        """The same weights run on graphs of different sizes."""
        small = _toy_graph()
        big_mesh = structured_rectangle_mesh(6, 6)
        big = graph_from_mesh(big_mesh, source=np.zeros(big_mesh.num_nodes))
        assert tiny_dss_model.predict(small).shape[0] == small.num_nodes
        assert tiny_dss_model.predict(big).shape[0] == big.num_nodes

    def test_training_loss_positive_scalar(self, tiny_dss_model):
        g = _toy_graph()
        loss = tiny_dss_model.training_loss(g)
        assert isinstance(loss.item(), float)
        assert loss.item() > 0.0

    def test_gradients_flow_to_all_parameters(self, tiny_dss_model):
        g = _toy_graph()
        tiny_dss_model.zero_grad()
        tiny_dss_model.training_loss(g).backward()
        grads = [p.grad for p in tiny_dss_model.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).max() > 0 for g in grads)

    def test_backward_runs_once_per_loss(self, tiny_dss_model):
        """The backward releases the forward's cache: a second call raises instead of adding nothing."""
        loss = tiny_dss_model.training_loss(_toy_graph())
        loss.backward()
        with pytest.raises(RuntimeError, match="already ran"):
            loss.backward()
        assert loss.item() > 0.0

    def test_save_load_roundtrip(self, tiny_dss_model, tmp_path):
        g = _toy_graph()
        path = tmp_path / "dss.npz"
        save_checkpoint(path, tiny_dss_model)
        clone = load_model(path)
        assert np.allclose(clone.predict(g), tiny_dss_model.predict(g))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DSSConfig(num_iterations=0)
        with pytest.raises(ValueError):
            DSSConfig(latent_dim=0)

    def test_summary_mentions_weights(self, tiny_dss_model):
        assert str(tiny_dss_model.num_parameters()) in tiny_dss_model.summary()


# --------------------------------------------------------------------------- #
# loss and metrics
# --------------------------------------------------------------------------- #
class TestLossAndMetrics:
    def test_residual_loss_zero_for_exact_solution(self):
        g = _toy_graph()
        exact = sp.linalg.spsolve(g.matrix.tocsc(), g.source)
        assert residual_loss(exact.reshape(-1, 1), g) < 1e-20

    def test_residual_loss_matches_manual(self):
        g = _toy_graph()
        u = np.random.default_rng(0).normal(size=g.num_nodes)
        manual = np.mean((g.matrix @ u - g.source) ** 2)
        assert residual_loss(u, g) == pytest.approx(manual)

    def test_residual_loss_requires_matrix(self):
        g = _toy_graph(with_matrix=False)
        with pytest.raises(ValueError):
            residual_loss(np.zeros((g.num_nodes, 1)), g)

    def test_relative_error_basic(self):
        assert relative_error(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 0.0
        assert relative_error(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_relative_error_zero_target(self):
        assert relative_error(np.array([1.0]), np.array([0.0])) == pytest.approx(1.0)

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_batched_loss_is_mean_consistent(self, seed):
        """Loss of a 2-graph batch lies between the individual losses."""
        g1, g2 = _toy_graph(seed=seed), _toy_graph(seed=seed + 1)
        rng = np.random.default_rng(seed)
        u1 = rng.normal(size=g1.num_nodes)
        u2 = rng.normal(size=g2.num_nodes)
        l1 = residual_loss(u1, g1)
        l2 = residual_loss(u2, g2)
        batch = GraphBatch.from_graphs([g1, g2])
        lb = residual_loss(np.concatenate([u1, u2]), batch)
        assert min(l1, l2) - 1e-12 <= lb <= max(l1, l2) + 1e-12


# --------------------------------------------------------------------------- #
# training pipeline
# --------------------------------------------------------------------------- #
class TestTraining:
    def test_one_epoch_reduces_loss(self):
        graphs = [_toy_graph(seed=i) for i in range(8)]
        model = DSS(DSSConfig(num_iterations=2, latent_dim=4, alpha=0.1, seed=0))
        trainer = DSSTrainer(model, TrainingConfig(epochs=5, batch_size=4, learning_rate=1e-2))
        history = trainer.fit(graphs, verbose=False)
        assert len(history) == 5
        assert history[-1].train_loss < history[0].train_loss

    def test_validation_metrics_recorded(self):
        graphs = [_toy_graph(seed=i) for i in range(6)]
        model = DSS(DSSConfig(num_iterations=2, latent_dim=3, seed=0))
        trainer = DSSTrainer(model, TrainingConfig(epochs=2, batch_size=3))
        history = trainer.fit(graphs[:4], validation_problems=graphs[4:], verbose=False)
        assert history[0].validation_residual is not None
        assert history[0].validation_relative_error is not None

    @pytest.mark.parametrize("field", ["batch_size", "log_every"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_config_rejects_a_step_below_one(self, field, value):
        """Refused up front: batch size 0 used to train on single graphs, then fail in validation with
        ``range() arg 3 must not be zero``; ``log_every=0`` divided by zero in ``fit(verbose=True)``."""
        with pytest.raises(ValueError, match=field):
            TrainingConfig(**{field: value})

    def test_evaluate_model_metrics(self, tiny_dss_model):
        graphs = [_toy_graph(seed=i) for i in range(4)]
        metrics = evaluate_model(tiny_dss_model, graphs)
        assert metrics.num_samples == 4
        assert metrics.residual_mean > 0.0
        assert 0.0 <= metrics.relative_error_mean

    def test_evaluate_empty_raises(self, tiny_dss_model):
        with pytest.raises(ValueError):
            evaluate_model(tiny_dss_model, [])

    def test_training_is_deterministic_given_seed(self):
        graphs = [_toy_graph(seed=i) for i in range(4)]

        def run():
            model = DSS(DSSConfig(num_iterations=2, latent_dim=3, seed=5))
            DSSTrainer(model, TrainingConfig(epochs=2, batch_size=2, seed=3)).fit(graphs, verbose=False)
            return model.predict(graphs[0])

        assert np.allclose(run(), run())

    def test_two_step_epoch_peaks_like_a_one_step_epoch(self):
        """A step's forward cache is released by its backward, before the next
        batch is built: two steps on the same batch must not hold two at once."""
        import tracemalloc

        from repro.fem import assemble_stiffness

        mesh = structured_rectangle_mesh(10, 10)
        matrix = (assemble_stiffness(mesh) + sp.identity(mesh.num_nodes)).tocsr()
        rng = np.random.default_rng(0)
        graphs = [graph_from_mesh(mesh, source=rng.normal(size=mesh.num_nodes), matrix=matrix)
                  for _ in range(4)]

        def epoch_peak(problems) -> int:
            model = DSS(DSSConfig(num_iterations=8, latent_dim=8, alpha=0.1, seed=0))
            trainer = DSSTrainer(model, TrainingConfig(batch_size=len(graphs), shuffle=False))
            trainer.train_epoch(problems, np.random.default_rng(0))       # warm-up
            tracemalloc.start()
            try:
                trainer.train_epoch(problems, np.random.default_rng(0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert epoch_peak(graphs + graphs) <= 1.1 * epoch_peak(graphs)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_step_raises_and_leaves_model_and_optimizer_untouched(self, tmp_path):
        """One ``inf`` in one sample must not reach the weights, the Adam
        moments or a checkpoint (``nan > max_norm`` is false, so clipping
        alone lets it through)."""
        graphs = [_toy_graph(seed=i) for i in range(4)]
        model = DSS(DSSConfig(num_iterations=2, latent_dim=3, alpha=0.1, seed=5))
        trainer = DSSTrainer(model, TrainingConfig(epochs=3, batch_size=4, seed=3))
        trainer.fit(graphs, epochs=1)                                     # Adam slots are live
        graphs[2].source[1] = np.inf
        weights = model.state_dict()
        optimizer = trainer.optimizer.state_dict()
        checkpoint = tmp_path / "run.npz"

        with pytest.raises(FloatingPointError, match=r"step 1 of epoch 2"):
            trainer.fit(graphs, checkpoint_path=str(checkpoint))

        assert trainer.epochs_done == 1 and len(trainer.history) == 1
        assert not checkpoint.exists()
        for name, value in model.state_dict().items():
            assert np.array_equal(value, weights[name]), name
        after = trainer.optimizer.state_dict()
        assert after["step_count"] == optimizer["step_count"] and after["lr"] == optimizer["lr"]
        for slot in ("m", "v"):
            for before, now in zip(optimizer["slots"][slot], after["slots"][slot]):
                assert np.array_equal(before, now)
