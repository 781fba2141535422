"""Additional cross-module coverage: Krylov × DDM combinations, and solver
behaviour on alternative geometries."""

from __future__ import annotations

import numpy as np

from repro.ddm import AdditiveSchwarzPreconditioner, JacobiLocalSolver
from repro.fem import Problem, constant_field, dirichlet_bc
from repro.krylov import gmres, preconditioned_conjugate_gradient
from repro.mesh import lshape_mesh, structured_rectangle_mesh
from repro.partition import OverlappingDecomposition, partition_mesh_target_size
from repro.problems import make_problem


class TestKrylovWithDDM:
    def test_gmres_with_asm_preconditioner(self, random_problem, small_decomposition):
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=2)
        result = gmres(random_problem.matrix, random_problem.rhs, preconditioner=asm, tolerance=1e-8, restart=40)
        assert result.converged
        assert random_problem.relative_residual_norm(result.solution) < 1e-6

    def test_gmres_with_ras_preconditioner(self, random_problem, small_decomposition):
        """RAS is a nonsymmetric operator, so GMRES (not CG) is its Krylov method."""
        ras = AdditiveSchwarzPreconditioner(
            random_problem.matrix, small_decomposition, levels=1, variant="ras"
        )
        result = gmres(random_problem.matrix, random_problem.rhs, preconditioner=ras, tolerance=1e-8, restart=40)
        assert result.converged
        assert random_problem.relative_residual_norm(result.solution) < 1e-6

    def test_pcg_with_jacobi_local_solver(self, random_problem, small_decomposition):
        asm = AdditiveSchwarzPreconditioner(
            random_problem.matrix, small_decomposition, levels=2, local_solver=JacobiLocalSolver(sweeps=20)
        )
        result = preconditioned_conjugate_gradient(
            random_problem.matrix, random_problem.rhs, preconditioner=asm, tolerance=1e-6
        )
        assert result.converged


class TestAlternativeGeometries:
    def test_full_pipeline_on_lshape(self):
        mesh = lshape_mesh(size=1.0, element_size=0.07)
        problem = make_problem("poisson", mesh=mesh, rng=np.random.default_rng(0))
        partition = partition_mesh_target_size(mesh, 70, rng=np.random.default_rng(1))
        decomposition = OverlappingDecomposition(mesh, partition, overlap=2)
        asm = AdditiveSchwarzPreconditioner(problem.matrix, decomposition, levels=2)
        result = preconditioned_conjugate_gradient(problem.matrix, problem.rhs, preconditioner=asm, tolerance=1e-8)
        assert result.converged
        direct = problem.solve_direct()
        assert np.linalg.norm(result.solution - direct) / np.linalg.norm(direct) < 1e-5

    def test_constant_forcing_zero_boundary_positive_solution(self):
        """-Δu = 1 with u=0 on ∂Ω has a strictly positive interior solution."""
        mesh = structured_rectangle_mesh(16, 16)
        problem = Problem.from_fields(mesh, constant_field(1.0), [dirichlet_bc(constant_field(0.0))])
        u = problem.solve_direct()
        assert np.all(u[mesh.interior_nodes] > 0.0)
        assert np.allclose(u[mesh.boundary_nodes], 0.0, atol=1e-12)
