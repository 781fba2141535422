"""Tests of the first 3D problem family: the structured tetrahedral mesher
(Kuhn subdivision), O(h²) convergence of the 3D Poisson solve, the ``dim=3``
registry routing, partitioning of tetrahedral meshes and the DDM-GNN
pipeline running a 3D problem.  The mesh and assembly checks that hold in
both dimensions run on 2D and 3D meshes alike in ``test_mesh.py`` and
``test_fem.py``."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.fem import apply_dirichlet, assemble_load, assemble_stiffness
from repro.gnn import DSS, DSSConfig
from repro.mesh import box_mesh_for_target_size, structured_box_mesh
from repro.partition import OverlappingDecomposition, partition_mesh_target_size
from repro.problems import make_problem, problem_spec
from repro.solvers import SolverConfig, prepare


@pytest.fixture(scope="module")
def box_mesh():
    """3×3×3-division unit box: 64 nodes, 162 tets."""
    return structured_box_mesh(3)


# --------------------------------------------------------------------------- #
# the structured tetrahedral mesher
# --------------------------------------------------------------------------- #
class TestTetMesh:
    def test_node_and_cell_counts(self):
        mesh = structured_box_mesh(2)
        assert mesh.num_nodes == 27
        assert mesh.num_cells == 6 * 2 ** 3  # Kuhn: six tets per cube
        assert mesh.dim == 3
        assert mesh.nodes.shape == (27, 3)
        assert mesh.cells.shape == (48, 4)

    def test_kuhn_subdivision_fills_the_box_exactly(self, box_mesh):
        assert np.abs(box_mesh.cell_measures).sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.abs(box_mesh.cell_measures) > 0.0)

    def test_anisotropic_lengths(self):
        mesh = structured_box_mesh(2, 3, 4, lengths=(2.0, 1.0, 0.5))
        assert mesh.num_nodes == 3 * 4 * 5
        assert np.abs(mesh.cell_measures).sum() == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(mesh.nodes.max(axis=0), [2.0, 1.0, 0.5])

    def test_mesh_is_conforming(self, box_mesh):
        """Every triangular face is shared by at most two tets, and the
        boundary faces tile the six box sides (surface area 6)."""
        faces = box_mesh.boundary_facets
        corners = box_mesh.nodes[faces]
        cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        area = 0.5 * np.linalg.norm(cross, axis=1).sum()
        assert area == pytest.approx(6.0, rel=1e-12)

    def test_box_mesh_for_target_size(self):
        mesh = box_mesh_for_target_size(216)
        assert mesh.num_nodes == 216
        with pytest.raises(ValueError):
            box_mesh_for_target_size(4)

    def test_mesher_is_deterministic(self):
        a, b = structured_box_mesh(3), structured_box_mesh(3)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.cells, b.cells)


class TestPoisson3DConvergence:
    @staticmethod
    def _solve_error(divisions):
        mesh = structured_box_mesh(divisions)
        pi = np.pi
        u_exact = lambda x, y, z: np.sin(pi * x) * np.sin(pi * y) * np.sin(pi * z)  # noqa: E731
        forcing = lambda x, y, z: 3.0 * pi ** 2 * u_exact(x, y, z)  # noqa: E731
        K = assemble_stiffness(mesh)
        b = assemble_load(mesh, forcing)
        matrix, rhs = apply_dirichlet(
            K, b, mesh.boundary_nodes, np.zeros(len(mesh.boundary_nodes))
        )
        u = spla.spsolve(matrix.tocsc(), rhs)
        exact = u_exact(*mesh.nodes.T)
        return float(np.max(np.abs(u - exact))) / float(np.max(np.abs(exact)))

    def test_p1_solution_converges_at_second_order(self):
        coarse = self._solve_error(4)
        fine = self._solve_error(8)
        assert fine < coarse
        assert coarse / fine > 3.0  # O(h²): halving h should quarter the error


# --------------------------------------------------------------------------- #
# registry, partitioning, serve and the solver stack in 3D
# --------------------------------------------------------------------------- #
class TestRegistry3D:
    def test_poisson3d_resolves_without_a_mesh(self):
        problem = make_problem("poisson3d", rng=np.random.default_rng(0), target_nodes=216)
        assert problem.mesh.dim == 3
        assert problem.num_dofs == 216
        assert problem_spec("poisson3d").default_kwargs["dim"] == 3

    def test_poisson3d_solves_end_to_end_with_exact_solvers(self):
        problem = make_problem("poisson3d", rng=np.random.default_rng(1), target_nodes=343)
        session = prepare(
            problem,
            SolverConfig(preconditioner="ddm-lu", subdomain_size=90, tolerance=1e-9),
        )
        result = session.solve()
        assert result.converged
        residual = problem.rhs - problem.matrix @ result.solution
        assert np.linalg.norm(residual) < 1e-6 * max(np.linalg.norm(problem.rhs), 1.0)

    def test_diffusion3d_ball_is_kappa_aware(self):
        problem = make_problem(
            "diffusion3d-ball", rng=np.random.default_rng(2), target_nodes=216
        )
        assert problem.node_diffusion is not None
        assert problem.node_diffusion.shape == (problem.num_dofs,)
        assert problem.node_diffusion.min() >= 1.0
        assert problem.node_diffusion.max() > 1.0  # the inclusion is visible
        base = make_problem("poisson3d", rng=np.random.default_rng(2), target_nodes=216)
        assert problem.fingerprint() != base.fingerprint()
        result = prepare(
            problem, SolverConfig(preconditioner="ddm-lu", subdomain_size=90, tolerance=1e-9)
        ).solve()
        assert result.converged

    def test_heat3d_marches_through_a_session(self):
        problem = make_problem(
            "heat3d", rng=np.random.default_rng(3), target_nodes=216, dt=0.05
        )
        session = prepare(
            problem, SolverConfig(preconditioner="ddm-lu", subdomain_size=90, tolerance=1e-9)
        )
        result = session.march(steps=3)
        assert result.converged
        assert np.all(np.isfinite(result.solution))

    def test_tet_mesh_partitions_into_overlapping_subdomains(self):
        mesh = box_mesh_for_target_size(343)
        partition = partition_mesh_target_size(mesh, 90, rng=np.random.default_rng(0))
        decomposition = OverlappingDecomposition(mesh, partition, overlap=1)
        covered = np.zeros(mesh.num_nodes, dtype=bool)
        for nodes in decomposition.subdomain_nodes:
            covered[nodes] = True
        assert covered.all()

    def test_ddm_gnn_runs_a_3d_problem(self):
        """The GNN path at least *runs* in 3D: 4-column geometric edge
        attributes thread through feature building and inference (an untrained
        model won't converge, so the exact Schwarz fallback finishes the solve)."""
        problem = make_problem("poisson3d", rng=np.random.default_rng(4), target_nodes=216)
        model = DSS(DSSConfig(num_iterations=2, latent_dim=4, edge_attr_dim=4, seed=0))
        session = prepare(
            problem,
            SolverConfig(preconditioner="ddm-gnn", subdomain_size=90,
                         tolerance=1e-8, max_iterations=60, fallback=["ddm-lu"]),
            model=model,
        )
        result = session.solve()
        assert np.all(np.isfinite(result.solution))
        assert result.converged  # via ddm-gnn or the ddm-lu fallback
