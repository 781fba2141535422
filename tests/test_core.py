"""Integration tests of the core package: dataset generation, the DDM-GNN
preconditioner and the end-to-end hybrid solve (repro.core, repro.solvers)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.core import ddm_gnn as ddm_gnn_module
from repro.core import (
    DDMGNNPreconditioner,
    build_subdomain_geometries,
    generate_dataset,
    harvest_local_problems,
)
from repro.ddm import AdditiveSchwarzPreconditioner, StackedRestriction
from repro.ddm.restriction import segment_norms
from repro.gnn import GraphBatch
from repro.krylov import preconditioned_conjugate_gradient
from repro.solvers import SolverConfig, prepare


class _ExactLocalModel:
    """Stand-in 'DSS' on the plan protocol that solves every local problem exactly with sparse LU.

    Plugging it into :class:`DDMGNNPreconditioner` must make the hybrid
    preconditioner numerically identical to DDM-LU's own pieces composed the
    DDM-GNN way (restricted gluing, coarse solve last) — this is the
    consistency anchor of the whole DDM-GNN plumbing (restriction,
    normalisation, rescaling, owner gather, residual, coarse solve).
    """

    def compile_plan(self, batch: GraphBatch, precision: str = "f64"):
        return batch.block_diagonal_matrix().tocsc()

    def infer_columns(self, plan, sources: np.ndarray) -> np.ndarray:
        return spla.spsolve(plan, sources).reshape(sources.shape)


class _ZeroModel:
    """A 'DSS' that always returns zero corrections (worst-case local solver)."""

    def compile_plan(self, batch: GraphBatch, precision: str = "f64"):
        return batch

    def infer_columns(self, plan, sources: np.ndarray) -> np.ndarray:
        return np.zeros(sources.shape)


# --------------------------------------------------------------------------- #
# sub-domain geometries and dataset harvesting
# --------------------------------------------------------------------------- #
class TestSubdomainGeometries:
    def test_geometries_cover_decomposition(self, random_problem, small_decomposition):
        geoms = build_subdomain_geometries(random_problem.mesh, random_problem.matrix, small_decomposition)
        assert len(geoms) == small_decomposition.num_subdomains
        for geom, nodes in zip(geoms, small_decomposition.subdomain_nodes):
            assert np.array_equal(geom.nodes, np.sort(np.asarray(nodes)))
            assert geom.matrix.shape == (len(nodes), len(nodes))
            assert geom.positions.shape == (len(nodes), 2)

    def test_local_matrix_is_submatrix_of_global(self, random_problem, small_decomposition):
        geoms = build_subdomain_geometries(random_problem.mesh, random_problem.matrix, small_decomposition)
        csr = random_problem.matrix.tocsr()
        geom = geoms[0]
        expected = csr[geom.nodes][:, geom.nodes].toarray()
        assert np.allclose(geom.matrix.toarray(), expected)

    def test_make_graph_uses_source(self, random_problem, small_decomposition):
        geom = build_subdomain_geometries(random_problem.mesh, random_problem.matrix, small_decomposition)[0]
        source = np.random.default_rng(0).normal(size=len(geom.nodes))
        g = geom.make_graph(source, scaling=2.5)
        assert np.allclose(g.source, source)
        assert g.scaling == 2.5


class TestHarvesting:
    def test_harvest_produces_normalised_problems(self, random_problem):
        problems = harvest_local_problems(
            random_problem, subdomain_size=80, overlap=2, tolerance=1e-4, rng=np.random.default_rng(0)
        )
        assert len(problems) > 0
        for g in problems[:10]:
            assert np.isclose(np.linalg.norm(g.source), 1.0)
            assert g.matrix is not None
            assert g.scaling > 0.0

    def test_harvest_count_scales_with_iterations_and_subdomains(self, random_problem):
        """#samples ≈ #PCG applications × #sub-domains."""
        problems = harvest_local_problems(
            random_problem, subdomain_size=80, overlap=2, tolerance=1e-4, rng=np.random.default_rng(0)
        )
        result = prepare(random_problem, SolverConfig(preconditioner="ddm-lu", subdomain_size=80, overlap=2, tolerance=1e-4)).solve()
        k = result.info["num_subdomains"]
        # one application before the loop + one per iteration (minus possibly the converged last)
        assert abs(len(problems) - (result.iterations + 1) * k) <= 2 * k

    def test_generate_dataset_split(self):
        ds = generate_dataset(
            num_global_problems=1,
            mesh_element_size=0.12,
            subdomain_size=60,
            tolerance=1e-3,
            rng=np.random.default_rng(1),
        )
        n_train, n_val, n_test = ds.sizes
        total = n_train + n_val + n_test
        assert total > 0
        assert n_train >= n_val >= 0
        assert n_train >= n_test >= 0

    def test_generate_dataset_invalid_split(self):
        with pytest.raises(ValueError):
            generate_dataset(num_global_problems=1, split=(0.5, 0.2, 0.2), rng=np.random.default_rng(0))


# --------------------------------------------------------------------------- #
# DDM-GNN preconditioner
# --------------------------------------------------------------------------- #
class TestDDMGNNPreconditioner:
    def test_exact_local_model_reproduces_ddm_lu(self, random_problem, small_decomposition, exact_local_reference):
        """With exact local solves DDM-GNN *is* DDM-LU's one-level RAS followed by
        the coarse solve on the residual it leaves (the consistency anchor)."""
        gnn_pre = DDMGNNPreconditioner(
            random_problem.matrix,
            random_problem.mesh,
            small_decomposition,
            model=_ExactLocalModel(),
            levels=2,
        )
        block = np.random.default_rng(0).normal(size=(random_problem.num_dofs, 3))
        expected = exact_local_reference(random_problem.matrix, small_decomposition, block)
        assert np.allclose(gnn_pre.apply(block[:, 0]), expected[:, 0], atol=1e-8)
        assert np.allclose(gnn_pre.apply_columns(block), expected, atol=1e-8)

    def test_exact_local_model_same_pcg_iterations(self, random_problem, small_decomposition):
        """Exact-local DDM-GNN needs no more PCG iterations than two-level ASM."""
        gnn_pre = DDMGNNPreconditioner(
            random_problem.matrix, random_problem.mesh, small_decomposition, model=_ExactLocalModel(), levels=2
        )
        asm_pre = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=2)
        r_gnn = preconditioned_conjugate_gradient(random_problem.matrix, random_problem.rhs, gnn_pre, tolerance=1e-8)
        r_asm = preconditioned_conjugate_gradient(random_problem.matrix, random_problem.rhs, asm_pre, tolerance=1e-8)
        assert r_gnn.converged and r_asm.converged
        assert r_gnn.iterations <= r_asm.iterations

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_result_leaves_no_coarse_residual(self, random_problem, small_decomposition,
                                              trained_dss_model, precision):
        """The coarse solve comes last, so ``R₀ (r − A z) = 0`` whatever the DSS returned."""
        pre = DDMGNNPreconditioner(
            random_problem.matrix, random_problem.mesh, small_decomposition, trained_dss_model,
            precision=precision,
        )
        r = np.random.default_rng(6).normal(size=random_problem.num_dofs)
        left = pre.coarse_space.r0 @ (r - random_problem.matrix @ pre.apply(r))
        assert np.linalg.norm(left) <= 1e-10 * np.linalg.norm(r)

    def test_model_sees_the_normalised_overlapping_residuals(self, random_problem, small_decomposition):
        """The DSS inputs are ``R_i r / ‖R_i r‖`` on the full overlapping
        sub-domains, byte for byte what the additive apply fed it: neither the
        restricted gluing nor the coarse solve reaches them."""

        class Recording(_ZeroModel):
            def __init__(self):
                self.sources = []

            def infer_columns(self, plan, sources):
                self.sources.append(sources.copy())
                return super().infer_columns(plan, sources)

        model = Recording()
        pre = DDMGNNPreconditioner(
            random_problem.matrix, random_problem.mesh, small_decomposition, model
        )
        r = np.random.default_rng(7).normal(size=random_problem.num_dofs)
        pre.apply(r)
        additive = StackedRestriction(small_decomposition.subdomain_nodes, random_problem.num_dofs)
        local = additive.extract(r)
        expected = local / np.repeat(segment_norms(local, additive.offsets), additive.sizes)
        assert np.array_equal(np.concatenate(model.sources)[:, 0], expected)

    def test_assigned_layers_are_the_ones_the_apply_calls(self, random_problem, small_decomposition,
                                                          tiny_dss_model):
        """``model``, ``stacked_restriction`` and ``coarse_space`` are read at call time: a wrapper
        assigned to any of them (a timing proxy, say) is what the next apply calls."""

        class Counting:
            def __init__(self, target, *methods):
                self.target, self.calls = target, dict.fromkeys(methods, 0)

            def __getattr__(self, name):
                attribute = getattr(self.target, name)
                if name not in self.calls:
                    return attribute

                def counted(*args, **kwargs):
                    self.calls[name] += 1
                    return attribute(*args, **kwargs)
                return counted

        pre = DDMGNNPreconditioner(random_problem.matrix, random_problem.mesh, small_decomposition,
                                   tiny_dss_model)
        r = np.random.default_rng(8).normal(size=random_problem.num_dofs)
        expected = pre.apply(r)
        pre.model = Counting(pre.model, "infer_columns")
        pre.stacked_restriction = Counting(pre.stacked_restriction, "extract", "glue")
        pre.coarse_space = Counting(pre.coarse_space, "apply_columns")
        assert np.array_equal(pre.apply_columns(np.stack([r, r], axis=1))[:, 1], expected)
        assert pre.local_solver.model is pre.model
        assert pre.model.calls == {"infer_columns": len(pre.local_solver.plans)}
        assert pre.stacked_restriction.calls == {"extract": 1, "glue": 1}
        assert pre.coarse_space.calls == {"apply_columns": 1}

    def test_zero_model_reduces_to_coarse_only(self, random_problem, small_decomposition):
        """With a zero local solver the correction is exactly the coarse correction."""
        pre = DDMGNNPreconditioner(
            random_problem.matrix, random_problem.mesh, small_decomposition, model=_ZeroModel(), levels=2
        )
        r = np.random.default_rng(1).normal(size=random_problem.num_dofs)
        assert np.allclose(pre.apply(r), pre.coarse_space.apply(r), atol=1e-12)

    def test_one_level_skips_coarse(self, random_problem, small_decomposition):
        pre = DDMGNNPreconditioner(
            random_problem.matrix, random_problem.mesh, small_decomposition, model=_ZeroModel(), levels=1
        )
        assert pre.coarse_space is None
        r = np.random.default_rng(2).normal(size=random_problem.num_dofs)
        assert np.allclose(pre.apply(r), 0.0)

    def test_batch_size_does_not_change_result(self, monkeypatch, random_problem, small_decomposition,
                                               tiny_dss_model):
        """The inference-batch size is a constant of the module, not an
        argument; shrinking it must still not change the result."""
        r = np.random.default_rng(3).normal(size=random_problem.num_dofs)
        full = DDMGNNPreconditioner(
            random_problem.matrix, random_problem.mesh, small_decomposition, tiny_dss_model
        )
        monkeypatch.setattr(ddm_gnn_module, "_AUTO_BATCH_TARGET_NODES", 2 * max(small_decomposition.sizes()))
        chunked = DDMGNNPreconditioner(
            random_problem.matrix, random_problem.mesh, small_decomposition, tiny_dss_model
        )
        assert len(full.local_solver.plans) == 1 < len(chunked.local_solver.plans)
        assert np.allclose(full.apply(r), chunked.apply(r), atol=1e-10)

    def test_zero_residual_gives_zero_correction_from_locals(self, random_problem, small_decomposition, tiny_dss_model):
        pre = DDMGNNPreconditioner(
            random_problem.matrix, random_problem.mesh, small_decomposition, tiny_dss_model, levels=1
        )
        assert np.allclose(pre.apply(np.zeros(random_problem.num_dofs)), 0.0)

    def test_inference_stats_accumulate(self, random_problem, small_decomposition, tiny_dss_model):
        pre = DDMGNNPreconditioner(
            random_problem.matrix, random_problem.mesh, small_decomposition, tiny_dss_model
        )
        r = np.random.default_rng(4).normal(size=random_problem.num_dofs)
        pre.apply(r)
        pre.apply(r)
        stats = pre.inference_stats()
        assert stats["applications"] == 2
        assert stats["total_inference_time"] > 0.0

    def test_invalid_levels(self, random_problem, small_decomposition, tiny_dss_model):
        with pytest.raises(ValueError):
            DDMGNNPreconditioner(
                random_problem.matrix, random_problem.mesh, small_decomposition, tiny_dss_model, levels=3
            )

    def test_normalisation_flag_changes_behaviour(self, random_problem, small_decomposition, tiny_dss_model):
        """The DSS is nonlinear, so normalising the inputs must change the output."""
        r = 1e-6 * np.random.default_rng(5).normal(size=random_problem.num_dofs)
        normalised = DDMGNNPreconditioner(
            random_problem.matrix, random_problem.mesh, small_decomposition, tiny_dss_model, levels=1,
            normalize_local_residuals=True,
        ).apply(r)
        raw = DDMGNNPreconditioner(
            random_problem.matrix, random_problem.mesh, small_decomposition, tiny_dss_model, levels=1,
            normalize_local_residuals=False,
        ).apply(r)
        assert not np.allclose(normalised, raw)


# --------------------------------------------------------------------------- #
# the hybrid solve end to end
# --------------------------------------------------------------------------- #
class TestHybridSolve:
    @pytest.mark.parametrize("kind", ["none", "ic0", "ddm-lu", "ddm-jacobi"])
    def test_all_classical_preconditioners_converge(self, random_problem, kind):
        result = prepare(random_problem, SolverConfig(preconditioner=kind, subdomain_size=80, tolerance=1e-6)).solve()
        assert result.converged
        assert random_problem.relative_residual_norm(result.solution) < 1e-5

    def test_solutions_agree_across_preconditioners(self, random_problem):
        reference = random_problem.solve_direct()
        for kind in ("none", "ddm-lu", "ic0"):
            result = prepare(random_problem, SolverConfig(preconditioner=kind, subdomain_size=80, tolerance=1e-10)).solve()
            assert np.linalg.norm(result.solution - reference) / np.linalg.norm(reference) < 1e-6

    def test_ddm_lu_fewer_iterations_than_cg(self, random_problem):
        cg = prepare(random_problem, SolverConfig(preconditioner="none", tolerance=1e-6)).solve()
        lu = prepare(random_problem, SolverConfig(preconditioner="ddm-lu", subdomain_size=80, tolerance=1e-6)).solve()
        assert lu.iterations < cg.iterations

    def test_ddm_gnn_requires_model(self, random_problem):
        with pytest.raises(ValueError):
            prepare(random_problem, SolverConfig(preconditioner="ddm-gnn"))

    def test_ddm_gnn_with_untrained_model_runs(self, random_problem, tiny_dss_model):
        """Even an untrained DSS yields a runnable (if poor) preconditioner."""
        result = prepare(
            random_problem,
            SolverConfig(preconditioner="ddm-gnn", subdomain_size=80, tolerance=1e-3, max_iterations=50),
            model=tiny_dss_model,
        ).solve()
        assert result.iterations <= 50
        assert "gnn_stats" in result.info

    def test_explicit_num_subdomains(self, random_problem):
        result = prepare(random_problem, SolverConfig(preconditioner="ddm-lu", num_subdomains=4, tolerance=1e-6)).solve()
        assert result.info["num_subdomains"] == 4

    def test_info_contains_decomposition_details(self, random_problem):
        result = prepare(random_problem, SolverConfig(preconditioner="ddm-lu", subdomain_size=80, overlap=3, tolerance=1e-6)).solve()
        assert result.info["overlap"] == 3
        assert len(result.info["subdomain_sizes"]) == result.info["num_subdomains"]

    def test_unknown_preconditioner_rejected(self, random_problem):
        config = SolverConfig(preconditioner="none")
        config.preconditioner = "whatever"
        with pytest.raises(ValueError):
            prepare(random_problem, config)

    def test_larger_overlap_not_slower(self, random_problem):
        """Paper Table I: larger overlap reduces (or keeps) the iteration count."""
        base = prepare(random_problem, SolverConfig(preconditioner="ddm-lu", subdomain_size=80, overlap=1, tolerance=1e-8)).solve()
        wide = prepare(random_problem, SolverConfig(preconditioner="ddm-lu", subdomain_size=80, overlap=4, tolerance=1e-8)).solve()
        assert wide.iterations <= base.iterations


# --------------------------------------------------------------------------- #
# the Krylov layer stops assuming the DSS is linear
# --------------------------------------------------------------------------- #
class TestFlexibleRecurrence:
    """DDM-GNN declares ``linear = False``; PCG and GMRES go flexible over it."""

    TOLERANCE = 1e-3

    @staticmethod
    def _session(problem, model, precision="f64"):
        return prepare(problem, SolverConfig(preconditioner="ddm-gnn", subdomain_size=80,
                                             tolerance=TestFlexibleRecurrence.TOLERANCE,
                                             precision=precision), model=model)

    @staticmethod
    def _staggered_block(problem):
        """Right-hand sides of different smoothness: they converge at different iterations."""
        a, n = problem.matrix, problem.num_dofs
        rng = np.random.default_rng(0)
        return np.stack([problem.rhs, rng.normal(size=n), a @ rng.normal(size=n), a @ np.ones(n)])

    @staticmethod
    def _assert_bitwise(fused, single):
        assert fused.solution.tobytes() == single.solution.tobytes()
        assert fused.iterations == single.iterations
        assert fused.residual_history == single.residual_history
        assert fused.failure_reason == single.failure_reason

    def test_lockstep_bitwise_under_staggered_convergence(self, random_problem, trained_dss_model):
        session = self._session(random_problem, trained_dss_model)
        assert not session.preconditioner.linear
        block = self._staggered_block(random_problem)
        fused = session.solve_many(block, mode="fused").results
        assert len({result.iterations for result in fused}) > 1      # history is compacted
        for b, result in zip(block, fused):
            assert result.converged and result.info["recurrence"] == "flexible"
            self._assert_bitwise(result, session.solve(b))

        # f32: one k-wide sweep vs k single-column sweeps — tolerance only, as before
        session32 = self._session(random_problem, trained_dss_model, precision="f32")
        for b, result in zip(block, session32.solve_many(block, mode="fused").results):
            single = session32.solve(b)
            assert result.converged and single.converged
            assert np.linalg.norm(result.solution - single.solution) < \
                1e-3 * np.linalg.norm(single.solution)

    def test_lockstep_bitwise_with_a_column_poisoned_mid_solve(self, random_problem,
                                                                trained_dss_model):
        from repro.faults import PoisonedPreconditioner
        from repro.krylov import failures
        from repro.krylov.block import lockstep_pcg

        precond = self._session(random_problem, trained_dss_model).preconditioner
        a, block = random_problem.matrix, self._staggered_block(random_problem)
        # call 5 = the apply after iteration 5: five directions are stored when
        # column 1 leaves, so the survivors' history is sliced mid-window
        fused = lockstep_pcg(a, block, tolerance=self.TOLERANCE,
                             preconditioner=PoisonedPreconditioner(precond, columns=(1,), on_call=5))
        assert fused[1].failure_reason == failures.NON_FINITE_PRECONDITIONER
        assert fused[1].iterations == 5
        for j, b in enumerate(block):
            alone = PoisonedPreconditioner(precond, columns=(0,), on_call=5) if j == 1 else precond
            self._assert_bitwise(fused[j], preconditioned_conjugate_gradient(
                a, b, preconditioner=alone, tolerance=self.TOLERANCE))

    @pytest.mark.parametrize("tolerance", [1e-3, 1e-6])
    def test_flexible_needs_no_more_iterations_than_standard(self, random_problem,
                                                             trained_dss_model,
                                                             declare_linearity, tolerance):
        precond = self._session(random_problem, trained_dss_model).preconditioner
        a, b = random_problem.matrix, random_problem.rhs
        flexible = preconditioned_conjugate_gradient(a, b, preconditioner=precond,
                                                     tolerance=tolerance)
        standard = preconditioned_conjugate_gradient(
            a, b, preconditioner=declare_linearity(precond, linear=True), tolerance=tolerance)
        assert (flexible.info["recurrence"], standard.info["recurrence"]) == \
            ("flexible", "standard")
        for result in (flexible, standard):
            assert result.converged
            assert random_problem.relative_residual_norm(result.solution) < tolerance
        assert flexible.iterations <= standard.iterations

    def test_gmres_estimate_is_the_true_residual(self, random_problem, trained_dss_model,
                                                 declare_linearity):
        """FGMRES: the Givens estimate is honest, so one cycle and no extra apply."""
        from repro.krylov import gmres

        precond = self._session(random_problem, trained_dss_model).preconditioner
        a, b = random_problem.matrix, random_problem.rhs
        before = precond.inference_stats()["applications"]
        flexible = gmres(a, b, preconditioner=precond, tolerance=1e-6)
        applies = precond.inference_stats()["applications"] - before
        estimate, recomputed = flexible.residual_history[-2:]
        assert flexible.converged and flexible.info["recurrence"] == "flexible"
        assert abs(estimate - recomputed) <= 1e-8 * recomputed
        assert flexible.iterations <= flexible.info["restart"]          # one cycle
        assert applies == flexible.iterations                            # x += Zᵀy, no M(Vy)
        # the same applies under x += M(Vy): the estimate lies and cycles repeat
        standard = gmres(a, b, preconditioner=declare_linearity(precond, linear=True),
                         tolerance=1e-6)
        assert standard.iterations > flexible.iterations
