"""Tests of the heterogeneous-problem layer: coefficient fields, the
``Problem.from_fields``/BoundaryCondition machinery, the problem registry, the
κ-aware GNN features and the end-to-end hybrid solve of a high-contrast
checkerboard problem (the headline scenario of this layer)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.core import build_subdomain_geometries, generate_dataset
from repro.core.ddm_gnn import DDMGNNPreconditioner
from repro.fem import (
    CheckerboardField,
    ChannelField,
    LognormalField,
    Problem,
    RadialField,
    dirichlet_bc,
    field_contrast,
    neumann_bc,
    node_averaged_diffusion,
    robin_bc,
    split_boundary_edges,
)
from repro.gnn import DSS, DSSConfig, DSSTrainer, GraphBatch, TrainingConfig
from repro.gnn.graph import graph_from_mesh
from repro.mesh import random_domain_mesh, structured_rectangle_mesh
from repro.partition import OverlappingDecomposition, partition_mesh_target_size
from repro.problems import available_problems, make_problem, problem_spec, register_problem
from repro.solvers import SolverConfig, prepare


# --------------------------------------------------------------------------- #
# coefficient fields
# --------------------------------------------------------------------------- #
class TestCoefficientFields:
    def test_checkerboard_values_and_contrast(self):
        kappa = CheckerboardField(contrast=100.0, cell_size=0.5, origin=(0.0, 0.0))
        # cell (0,0) has even parity -> high value; cell (1,0) odd -> 1
        assert kappa(np.array([0.25]), np.array([0.25]))[0] == 100.0
        assert kappa(np.array([0.75]), np.array([0.25]))[0] == 1.0
        mesh = structured_rectangle_mesh(8, 8)
        assert field_contrast(kappa, mesh) == pytest.approx(100.0)

    def test_channel_field_hits_requested_contrast(self):
        kappa = ChannelField(contrast=50.0, num_channels=2, width=0.2, extent=(0.0, 1.0))
        mesh = structured_rectangle_mesh(10, 10)
        assert field_contrast(kappa, mesh) == pytest.approx(50.0)

    def test_lognormal_field_positive_and_deterministic(self):
        kappa_a = LognormalField(sigma=1.5, correlation_length=0.3, seed=42)
        kappa_b = LognormalField(sigma=1.5, correlation_length=0.3, seed=42)
        x = np.linspace(-1.0, 1.0, 50)
        y = np.linspace(-1.0, 1.0, 50)
        assert np.all(kappa_a(x, y) > 0.0)
        assert np.allclose(kappa_a(x, y), kappa_b(x, y))
        assert not np.allclose(kappa_a(x, y), LognormalField(sigma=1.5, seed=7)(x, y))

    def test_radial_field_gradient_matches_finite_differences(self):
        kappa = RadialField(base=1.0, amplitude=4.0, center=(0.2, -0.1), radius=0.6)
        x = np.array([0.3, -0.4, 0.05])
        y = np.array([0.1, 0.2, -0.5])
        gx, gy = kappa.gradient(x, y)
        h = 1e-6
        assert np.allclose(gx, (kappa(x + h, y) - kappa(x - h, y)) / (2 * h), atol=1e-5)
        assert np.allclose(gy, (kappa(x, y + h) - kappa(x, y - h)) / (2 * h), atol=1e-5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CheckerboardField(contrast=-1.0)
        with pytest.raises(ValueError):
            ChannelField(axis="z")
        with pytest.raises(ValueError):
            LognormalField(correlation_length=0.0)
        with pytest.raises(ValueError):
            RadialField(base=1.0, amplitude=-2.0)


# --------------------------------------------------------------------------- #
# boundary conditions and the one steady constructor
# --------------------------------------------------------------------------- #
class TestBoundaryConditions:
    def test_split_assigns_first_match_and_rest(self, unit_square_mesh):
        conditions = [
            dirichlet_bc(0.0, where=lambda x, y: x < 0.5),
            neumann_bc(1.0),
        ]
        left, rest = split_boundary_edges(unit_square_mesh, conditions)
        total = unit_square_mesh.boundary_facets.shape[0]
        assert left.shape[0] + rest.shape[0] == total
        mids = 0.5 * (unit_square_mesh.nodes[left[:, 0]] + unit_square_mesh.nodes[left[:, 1]])
        assert np.all(mids[:, 0] < 0.5)

    def test_pure_neumann_rejected(self, unit_square_mesh):
        with pytest.raises(ValueError, match="singular"):
            Problem.from_fields(
                unit_square_mesh, lambda x, y: np.ones_like(x), [neumann_bc(0.0)], diffusion=1.0
            )

    def test_unknown_kind_rejected(self):
        from repro.fem import BoundaryCondition

        with pytest.raises(ValueError):
            BoundaryCondition(kind="periodic")

    def test_negative_robin_coefficient_rejected(self, unit_square_mesh):
        with pytest.raises(ValueError, match="non-negative"):
            Problem.from_fields(
                unit_square_mesh, lambda x, y: np.ones_like(x), [robin_bc(-1.0, 0.0)], diffusion=1.0
            )

    def test_zero_robin_coefficient_is_still_singular(self, unit_square_mesh):
        """α ≡ 0 makes a 'Robin' condition a pure Neumann one — rejected."""
        with pytest.raises(ValueError, match="singular"):
            Problem.from_fields(
                unit_square_mesh, lambda x, y: np.ones_like(x), [robin_bc(0.0, 1.0)], diffusion=1.0
            )

    def test_robin_recovers_constant_solution(self, unit_square_mesh):
        """f = 0 and κ∂u/∂n + αu = αc on all of ∂Ω force u ≡ c exactly."""
        problem = Problem.from_fields(
            unit_square_mesh, lambda x, y: np.zeros_like(x), [robin_bc(3.0, 3.0 * 1.5)], diffusion=2.0
        )
        u = problem.solve_direct()
        assert np.allclose(u, 1.5, atol=1e-10)
        assert problem.dirichlet_nodes.size == 0

    def test_neumann_linear_solution_exact(self, unit_square_mesh):
        """-Δu = 0, u = x: Dirichlet u=0 at x=0, flux ∂u/∂n = 1 at x=1,
        natural (zero-flux) top and bottom — P1 reproduces u = x exactly."""
        problem = Problem.from_fields(
            unit_square_mesh,
            lambda x, y: np.zeros_like(x),
            [
                dirichlet_bc(0.0, where=lambda x, y: x < 1e-9),
                neumann_bc(1.0, where=lambda x, y: x > 1.0 - 1e-9),
            ],
            diffusion=1.0,
        )
        u = problem.solve_direct()
        assert np.allclose(u, problem.mesh.nodes[:, 0], atol=1e-9)

    def test_robin_linear_solution_exact(self, unit_square_mesh):
        """u = x with α = 1 on the right edge: κ∂u/∂n + u = 1 + 1 = 2 there."""
        problem = Problem.from_fields(
            unit_square_mesh,
            lambda x, y: np.zeros_like(x),
            [
                dirichlet_bc(0.0, where=lambda x, y: x < 1e-9),
                robin_bc(1.0, 2.0, where=lambda x, y: x > 1.0 - 1e-9),
            ],
            diffusion=1.0,
        )
        u = problem.solve_direct()
        assert np.allclose(u, problem.mesh.nodes[:, 0], atol=1e-9)

    def test_mixed_bc_matrix_is_symmetric(self, unit_square_mesh):
        problem = Problem.from_fields(
            unit_square_mesh,
            lambda x, y: np.ones_like(x),
            [
                dirichlet_bc(1.0, where=lambda x, y: x < 0.5),
                neumann_bc(0.5, where=lambda x, y: y > 0.5),
                robin_bc(2.0, 0.0),
            ],
            diffusion=CheckerboardField(contrast=100.0, cell_size=0.25, origin=(0.0, 0.0)),
        )
        assert np.abs((problem.matrix - problem.matrix.T)).max() < 1e-10
        assert problem.relative_residual_norm(problem.solve_direct()) < 1e-10

    def test_dirichlet_mask_reflects_actual_dirichlet_nodes(self, unit_square_mesh):
        problem = Problem.from_fields(
            unit_square_mesh,
            lambda x, y: np.ones_like(x),
            [dirichlet_bc(0.0, where=lambda x, y: x < 0.5), robin_bc(1.0, 0.0)],
            diffusion=1.0,
        )
        mask = problem.dirichlet_mask
        assert mask.sum() == problem.dirichlet_nodes.size
        assert mask.sum() < unit_square_mesh.boundary_nodes.size

    def test_node_averaged_diffusion_constant_field(self, unit_square_mesh):
        values = node_averaged_diffusion(unit_square_mesh, np.full(unit_square_mesh.num_cells, 7.0))
        assert np.allclose(values, 7.0)


class TestDiffusionConvergence:
    def test_manufactured_solution_converges_at_second_order(self):
        """-∇·(κ∇u) = f with smooth κ and u = sin(πx)sin(πy): the relative L2
        error must drop ~4× per mesh refinement (optimal P1 rate)."""
        kappa = RadialField(base=1.0, amplitude=4.0, center=(0.5, 0.5), radius=0.5)

        def u_exact(x, y):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        def forcing(x, y):
            ux = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            uy = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
            gx, gy = kappa.gradient(x, y)
            return kappa(x, y) * 2.0 * np.pi ** 2 * u_exact(x, y) - (gx * ux + gy * uy)

        errors = []
        for n in (8, 16):
            mesh = structured_rectangle_mesh(n, n)
            problem = Problem.from_fields(mesh, forcing, [dirichlet_bc(0.0)], diffusion=kappa)
            errors.append(problem.l2_error(problem.solve_direct(), u_exact))
        assert errors[1] < errors[0]
        assert errors[0] / errors[1] > 2.5  # ~4 expected for O(h²)


# --------------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_expected_families_registered(self):
        names = available_problems()
        for expected in (
            "poisson",
            "diffusion-checkerboard",
            "diffusion-channel",
            "diffusion-lognormal",
            "diffusion-smooth",
            "diffusion-mixed-bc",
            "poisson-robin",
            "convection-diffusion",
        ):
            assert expected in names

    def test_every_family_builds_and_solves(self, unit_square_mesh):
        """Registry round-trip: every registered name yields a solvable problem.

        SPD families go through IC(0)-PCG; nonsymmetric families (where CG
        and the Cholesky-based IC(0) do not apply) go through plain GMRES —
        both via the ``repro.solvers`` session API.  Families registered with
        ``dim=3`` build their own deterministic tetrahedral box mesh.
        """
        from repro.problems import problem_spec
        from repro.solvers import SolverConfig, prepare

        for name in available_problems():
            if problem_spec(name).dim == 3:
                problem = make_problem(name, rng=np.random.default_rng(1), target_nodes=125)
            else:
                problem = make_problem(name, mesh=unit_square_mesh, rng=np.random.default_rng(1))
            u = problem.solve_direct()
            assert problem.relative_residual_norm(u) < 1e-8, name
            if problem.symmetric:
                config = SolverConfig(preconditioner="ic0", tolerance=1e-8, max_iterations=2000)
            else:
                config = SolverConfig(preconditioner="none", krylov="gmres",
                                      tolerance=1e-8, max_iterations=2000)
            result = prepare(problem, config).solve()
            assert result.converged, name
            assert np.allclose(result.solution, u, atol=1e-5), name

    def test_a_mesh_of_the_wrong_dimension_is_a_typed_error(self, unit_square_mesh):
        """Every family, handed a mesh of the other dimension, raises ``MeshDimensionError`` — a
        ``ValueError`` naming the family and both dimensions — before its factory runs, and builds on a
        mesh of its own dimension."""
        from repro.mesh import box_mesh_for_target_size
        from repro.problems import MeshDimensionError

        meshes = {2: unit_square_mesh, 3: box_mesh_for_target_size(125)}
        for name in available_problems():
            dim = problem_spec(name).dim
            wrong = 5 - dim
            with pytest.raises(MeshDimensionError, match=f"'{name}' takes a {dim}D mesh, got a {wrong}D one"):
                make_problem(name, mesh=meshes[wrong], rng=np.random.default_rng(1))
            assert make_problem(name, mesh=meshes[dim], rng=np.random.default_rng(1)).mesh.dim == dim, name
        assert issubclass(MeshDimensionError, ValueError)

    @pytest.mark.parametrize("family", available_problems())
    def test_serve_spec_resolution_is_deterministic(self, family):
        """A spec is ``make_problem`` on the spec's seed and kwargs — on ``mesh_for_target_size`` in 2D, on the
        ``target_n``-node box in 3D: the same fingerprint, matrix and right-hand side, every time, and through
        shared memory; another seed is another problem, and a 3D ``target_n`` below 8 builds the 8-node box."""
        from repro.mesh import mesh_for_target_size
        from repro.serve.problems import DEFAULT_PROBLEM_SPEC, build_problem_from_spec
        from repro.serve.shm import problem_from_shm, problem_to_shm

        kwargs = {"diffusion3d-ball": {"contrast": 10.0}, "heat3d": {"dt": 0.05}}.get(family, {})
        spec = {"family": family, "target_n": 216, "seed": 7, "kwargs": kwargs}
        a = build_problem_from_spec(dict(spec))
        b = build_problem_from_spec(dict(spec))
        rng = np.random.default_rng(7)
        if problem_spec(family).dim == 3:
            direct = make_problem(family, rng=rng, target_nodes=216, **kwargs)
        else:
            mesh = mesh_for_target_size(216, element_size=DEFAULT_PROBLEM_SPEC["element_size"], rng=rng)
            direct = make_problem(family, mesh=mesh, rng=rng, **kwargs)
        assert problem_spec(family).dim == a.mesh.dim
        assert a.fingerprint() == b.fingerprint() == direct.fingerprint()
        assert (a.matrix != direct.matrix).nnz == 0
        assert np.array_equal(a.rhs, direct.rhs)
        bundle = problem_to_shm(a)
        try:
            clone = problem_from_shm(bundle.manifest)
            assert clone.fingerprint() == a.fingerprint()
            clone._shm_bundle.close()
        finally:
            bundle.close()
        other = build_problem_from_spec({**spec, "seed": 8})
        assert other.fingerprint() != a.fingerprint()
        if a.mesh.dim == 3:
            smallest = build_problem_from_spec({**spec, "target_n": 4})
            eight = make_problem(family, rng=np.random.default_rng(7), target_nodes=8, **kwargs)
            assert smallest.fingerprint() == eight.fingerprint()

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="diffusion-checkerboard"):
            make_problem("no-such-family")

    def test_kwargs_override_defaults(self, unit_square_mesh):
        problem = make_problem(
            "diffusion-checkerboard", mesh=unit_square_mesh, rng=np.random.default_rng(0), contrast=1e4
        )
        assert problem.node_diffusion.max() / problem.node_diffusion.min() == pytest.approx(1e4)
        spec = problem_spec("diffusion-checkerboard")
        assert spec.default_kwargs["contrast"] == 100.0

    def test_default_mesh_generation(self):
        problem = make_problem("poisson", rng=np.random.default_rng(4), element_size=0.2)
        assert problem.num_dofs > 20

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_problem("poisson")(lambda mesh, rng: None)


# --------------------------------------------------------------------------- #
# κ-aware graph features and model interop
# --------------------------------------------------------------------------- #
class TestKappaAwareGraphs:
    def test_graph_gains_kappa_features(self, unit_square_mesh):
        kappa = np.full(unit_square_mesh.num_nodes, 100.0)
        g = graph_from_mesh(unit_square_mesh, np.zeros(unit_square_mesh.num_nodes), diffusion=kappa)
        assert g.edge_attr.shape[1] == 4
        assert np.allclose(g.node_attr, 2.0)       # log10(100)
        assert np.allclose(g.edge_attr[:, 3], 2.0)  # harmonic mean of equal values

    def test_kappa_graph_batches_and_feeds_any_model(self, unit_square_mesh):
        kappa = np.linspace(1.0, 10.0, unit_square_mesh.num_nodes)
        graphs = [
            graph_from_mesh(unit_square_mesh, np.ones(unit_square_mesh.num_nodes), diffusion=kappa)
            for _ in range(2)
        ]
        batch = GraphBatch.from_graphs(graphs)
        assert batch.node_attr.shape == (2 * unit_square_mesh.num_nodes, 1)
        for config in (
            DSSConfig(num_iterations=2, latent_dim=3, seed=0),                                   # κ-blind
            DSSConfig(num_iterations=2, latent_dim=3, seed=0, edge_attr_dim=4, node_input_dim=2),  # κ-aware
        ):
            out = DSS(config).predict(batch)
            assert out.shape == (batch.num_nodes,)
            assert np.all(np.isfinite(out))

    def test_mixed_kappa_and_plain_graphs_batch_together(self, unit_square_mesh):
        """A batch mixing κ-aware and plain graphs pads features instead of crashing."""
        kappa = np.linspace(1.0, 10.0, unit_square_mesh.num_nodes)
        aware = graph_from_mesh(unit_square_mesh, np.ones(unit_square_mesh.num_nodes), diffusion=kappa)
        plain = graph_from_mesh(unit_square_mesh, np.ones(unit_square_mesh.num_nodes))
        batch = GraphBatch.from_graphs([aware, plain])
        assert batch.edge_attr.shape[1] == 4
        assert batch.node_attr.shape == (batch.num_nodes, 1)
        # the plain graph's κ features are zero-filled (log10 κ = 0 ⇒ κ = 1)
        assert np.allclose(batch.node_attr[aware.num_nodes:], 0.0)
        assert np.allclose(batch.edge_attr[aware.num_edges:, 3], 0.0)
        out = DSS(DSSConfig(num_iterations=2, latent_dim=3, seed=0, edge_attr_dim=4, node_input_dim=2)).predict(batch)
        assert np.all(np.isfinite(out))

    def test_kappa_aware_model_on_plain_graph_pads(self, unit_square_mesh):
        g = graph_from_mesh(unit_square_mesh, np.ones(unit_square_mesh.num_nodes))
        model = DSS(DSSConfig(num_iterations=2, latent_dim=3, seed=0, edge_attr_dim=4, node_input_dim=2))
        out = model.predict(g)
        assert np.all(np.isfinite(out))

    def test_geometries_carry_node_attr_for_heterogeneous_problem(self, unit_square_mesh):
        problem = make_problem(
            "diffusion-checkerboard", mesh=unit_square_mesh, rng=np.random.default_rng(0), contrast=100.0
        )
        partition = partition_mesh_target_size(unit_square_mesh, 60, rng=np.random.default_rng(0))
        decomposition = OverlappingDecomposition(unit_square_mesh, partition, overlap=2)
        geometries = build_subdomain_geometries(
            unit_square_mesh,
            problem.matrix,
            decomposition,
            global_dirichlet_mask=problem.dirichlet_mask,
            node_diffusion=problem.node_diffusion,
        )
        for geometry in geometries:
            assert geometry.node_attr is not None
            assert geometry.equilibration is not None
            # equilibrated graph operator has unit diagonal
            assert np.allclose(geometry.graph_matrix.diagonal(), 1.0)

    def test_gnn_equilibrate_flag_controls_geometry(self, unit_square_mesh, tiny_dss_model):
        problem = make_problem(
            "diffusion-checkerboard", mesh=unit_square_mesh, rng=np.random.default_rng(0), contrast=100.0
        )
        for flag, expect in ((None, True), (False, False), (True, True)):
            preconditioner = prepare(
                problem,
                SolverConfig(preconditioner="ddm-gnn", subdomain_size=60, gnn_equilibrate=flag),
                model=tiny_dss_model,
            ).preconditioner
            has_equilibration = all(g.equilibration is not None for g in preconditioner.geometries)
            assert has_equilibration is expect, f"gnn_equilibrate={flag}"

    def test_heterogeneous_dataset_carries_node_attr(self):
        dataset = generate_dataset(
            num_global_problems=1,
            mesh_element_size=0.14,
            subdomain_size=50,
            tolerance=1e-2,
            rng=np.random.default_rng(2),
            problem_family="diffusion-checkerboard",
            problem_kwargs={"contrast": 100.0},
        )
        assert all(g.node_attr is not None for g in dataset.train)


# --------------------------------------------------------------------------- #
# equilibration consistency: exact local solves must reproduce classical ASM
# --------------------------------------------------------------------------- #
class _ExactLocalModel:
    """Stand-in 'DSS' on the plan protocol solving every (equilibrated) local problem exactly."""

    def compile_plan(self, batch: GraphBatch, precision: str = "f64"):
        return batch.block_diagonal_matrix().tocsc()

    def infer_columns(self, plan, sources: np.ndarray) -> np.ndarray:
        return spla.spsolve(plan, sources).reshape(sources.shape)


class TestEquilibrationConsistency:
    def test_exact_local_model_reproduces_asm_on_heterogeneous_problem(self, exact_local_reference):
        """R̃_iᵀ S Ã⁻¹ S R_i == R̃_iᵀ A_i⁻¹ R_i: the equilibration is invisible
        to an exact local solver, so DDM-GNN == restricted DDM-LU with the
        coarse solve last, exactly (the anchor of the heterogeneous plumbing)."""
        mesh = random_domain_mesh(radius=1.0, element_size=0.12, rng=np.random.default_rng(9))
        problem = make_problem(
            "diffusion-checkerboard", mesh=mesh, rng=np.random.default_rng(9), contrast=1e4
        )
        partition = partition_mesh_target_size(mesh, 70, rng=np.random.default_rng(0))
        decomposition = OverlappingDecomposition(mesh, partition, overlap=2)
        gnn_pre = DDMGNNPreconditioner(
            problem.matrix,
            mesh,
            decomposition,
            model=_ExactLocalModel(),
            levels=2,
            global_dirichlet_mask=problem.dirichlet_mask,
            node_diffusion=problem.node_diffusion,
        )
        block = np.random.default_rng(0).normal(size=(problem.num_dofs, 3))
        expected = exact_local_reference(problem.matrix, decomposition, block)
        assert np.allclose(gnn_pre.apply(block[:, 0]), expected[:, 0], atol=1e-8)
        assert np.allclose(gnn_pre.apply_columns(block), expected, atol=1e-8)


# --------------------------------------------------------------------------- #
# the headline scenario: checkerboard contrast 1e4 solved end to end
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def heterogeneous_dss_model():
    """DSS trained on equilibrated checkerboard-κ local problems (~1.5 min).

    The recipe mirrors the quickstart scale; it is the smallest training
    budget that reliably drives PCG-DDM-GNN to 1e-6 at contrast 1e4.
    """
    rng = np.random.default_rng(0)
    dataset = generate_dataset(
        num_global_problems=4,
        mesh_element_size=0.08,
        subdomain_size=110,
        overlap=2,
        rng=rng,
        problem_family="diffusion-checkerboard",
        problem_kwargs={"contrast": 1e4},
    )
    model = DSS(DSSConfig(num_iterations=20, latent_dim=10, alpha=0.1, seed=0))
    trainer = DSSTrainer(
        model,
        TrainingConfig(epochs=12, batch_size=40, learning_rate=1e-2, gradient_clip=1e-2, seed=0),
    )
    trainer.fit(dataset.train, dataset.validation[:40], verbose=False)
    return model


class TestHeterogeneousHybridSolve:
    def test_checkerboard_contrast_1e4_to_1e6_with_ddm_gnn_and_ic0(self, heterogeneous_dss_model):
        """Acceptance scenario: a registered diffusion-checkerboard problem at
        κ contrast 10⁴ reaches 1e-6 relative residual under both the DDM-GNN
        and the IC(0) preconditioners."""
        mesh = random_domain_mesh(radius=1.0, element_size=0.08, rng=np.random.default_rng(5))
        problem = make_problem(
            "diffusion-checkerboard", mesh=mesh, rng=np.random.default_rng(5), contrast=1e4
        )
        assert problem.node_diffusion.max() / problem.node_diffusion.min() == pytest.approx(1e4)

        reference = problem.solve_direct()
        iterations = {}
        for kind in ("ddm-gnn", "ic0"):
            result = prepare(
                problem,
                SolverConfig(
                    preconditioner=kind,
                    subdomain_size=110,
                    overlap=2,
                    tolerance=1e-6,
                    max_iterations=600,
                ),
                model=heterogeneous_dss_model if kind == "ddm-gnn" else None,
            ).solve()
            assert result.converged, f"{kind} did not reach 1e-6"
            assert result.final_relative_residual < 1e-6
            assert problem.relative_residual_norm(result.solution) < 2e-6
            assert np.linalg.norm(result.solution - reference) / np.linalg.norm(reference) < 1e-4
            iterations[kind] = result.iterations
        # both converge; the learned preconditioner needs more iterations than
        # exact factorisations but stays far below unpreconditioned CG
        cg = prepare(
            problem, SolverConfig(preconditioner="none", tolerance=1e-6, max_iterations=6000)
        ).solve()
        assert iterations["ddm-gnn"] < cg.iterations
