"""Tests of the P1 finite-element substrate (repro.fem)."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import (
    PolynomialField,
    Problem,
    apply_dirichlet,
    assemble_boundary_load,
    assemble_boundary_mass,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    cell_centroids,
    constant_field,
    dirichlet_bc,
    evaluate_on_cells,
    gradient_operators,
    manufactured_solution,
    neumann_bc,
    random_boundary,
    random_forcing,
    split_boundary_edges,
)
from repro.mesh import SimplexMesh, structured_box_mesh, structured_rectangle_mesh
from repro.problems import make_problem


@pytest.fixture(params=[2, 3], ids=["2d", "3d"])
def unit_mesh(request, unit_square_mesh):
    """A mesh of measure 1 in each dimension: the 12×12 unit square, the 3×3×3-cube unit box."""
    return unit_square_mesh if request.param == 2 else structured_box_mesh(3)


def reference_simplex(dim: int) -> SimplexMesh:
    """The one-cell mesh of the reference simplex: the origin and the unit vectors."""
    return SimplexMesh(np.vstack([np.zeros(dim), np.eye(dim)]), np.arange(dim + 1)[None, :])


def monomial_integral(exponents) -> float:
    """∫ Π x_k^{a_k} over the reference simplex of dimension d = len(exponents): Π a_k! / (Σ a_k + d)!."""
    return math.prod(math.factorial(a) for a in exponents) / math.factorial(sum(exponents) + len(exponents))


def monomial(exponents):
    return lambda *xs: math.prod(x ** a for x, a in zip(xs, exponents)) * np.ones_like(xs[0])


def exponents_up_to(dim: int, degree: int):
    return [a for a in np.ndindex(*(degree + 1,) * dim) if sum(a) <= degree]


# --------------------------------------------------------------------------- #
# quadrature
# --------------------------------------------------------------------------- #
class TestQuadrature:
    """Each dimension's load rule, read through ``assemble_load`` on the reference simplex: the
    entries of ``b`` sum to the rule's ``∫ f`` because the hat functions sum to one."""

    @pytest.mark.parametrize("dim, exponents", [pytest.param(d, a, id=f"{d}d-{''.join(map(str, a))}")
                                                for d in (2, 3) for a in exponents_up_to(d, 2)])
    def test_rule_is_exact_for_quadratics(self, dim, exponents):
        integral = assemble_load(reference_simplex(dim), monomial(exponents)).sum()
        assert integral == pytest.approx(monomial_integral(exponents), rel=1e-12)

    def test_2d_rule_degree_is_its_maximum(self):
        """No cubic monomial is integrated exactly by the edge-midpoint rule, so degree 2 is tight."""
        for a in range(4):
            integral = assemble_load(reference_simplex(2), monomial((a, 3 - a))).sum()
            assert integral != pytest.approx(monomial_integral((a, 3 - a)))


# --------------------------------------------------------------------------- #
# assembly, in 2D and 3D
# --------------------------------------------------------------------------- #
class TestAssembly:
    def test_stiffness_symmetric(self, unit_mesh):
        K = assemble_stiffness(unit_mesh)
        assert abs(K - K.T).max() < 1e-12

    def test_stiffness_zero_row_sum(self, unit_mesh):
        """Constants are in the kernel of the (pre-BC) stiffness matrix."""
        K = assemble_stiffness(unit_mesh)
        assert np.allclose(K @ np.ones(unit_mesh.num_nodes), 0.0, atol=1e-12)

    def test_stiffness_positive_semidefinite(self, unit_mesh):
        K = assemble_stiffness(unit_mesh).toarray()
        assert np.linalg.eigvalsh(K).min() > -1e-10
        interior = unit_mesh.interior_nodes  # SPD once the boundary rows and columns go
        assert np.linalg.eigvalsh(K[np.ix_(interior, interior)]).min() > 0.0

    def test_mass_matrix_integrates_constants(self, unit_mesh):
        """1ᵀ M 1 equals the domain measure."""
        M = assemble_mass(unit_mesh)
        ones = np.ones(unit_mesh.num_nodes)
        assert ones @ (M @ ones) == pytest.approx(1.0)

    def test_lumped_mass_same_total(self, unit_mesh):
        M = assemble_mass(unit_mesh)
        ML = assemble_mass(unit_mesh, lumped=True)
        assert ML.sum() == pytest.approx(M.sum())
        assert (ML - sp.diags(ML.diagonal())).nnz == 0

    def test_mass_row_sums_and_symmetry(self, unit_mesh):
        """Consistent and lumped mass agree row-wise, and both integrate the constant to the measure."""
        consistent = assemble_mass(unit_mesh)
        lumped = assemble_mass(unit_mesh, lumped=True)
        assert abs(consistent - consistent.T).max() < 1e-13
        row_sums = np.asarray(consistent.sum(axis=1)).ravel()
        np.testing.assert_allclose(row_sums, lumped.diagonal(), rtol=1e-12)
        assert lumped.nnz == unit_mesh.num_nodes  # strictly diagonal
        assert row_sums.sum() == pytest.approx(np.abs(unit_mesh.cell_measures).sum(), rel=1e-12)

    def test_load_vector_constant_source(self, unit_mesh):
        """For f = 1 the load vector sums to the measure of the domain."""
        b = assemble_load(unit_mesh, lambda *xs: np.ones_like(xs[0]))
        assert b.sum() == pytest.approx(1.0)

    def test_gradient_operators_shapes(self, unit_mesh):
        grads, measures = gradient_operators(unit_mesh)
        d = unit_mesh.dim
        assert grads.shape == (unit_mesh.num_cells, d + 1, d)
        assert measures.shape == (unit_mesh.num_cells,)
        assert measures.sum() == pytest.approx(1.0, rel=1e-12)
        # gradients of the hat functions sum to zero on every element
        assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-12)

    def test_gradients_reproduce_linear_functions(self, unit_mesh):
        """∇(a·x + b) is recovered exactly on every cell."""
        coeff = np.array([2.0, -1.0, 0.5])[: unit_mesh.dim]
        values = unit_mesh.nodes @ coeff + 3.0
        grads, _ = gradient_operators(unit_mesh)
        per_cell = np.einsum("tid,ti->td", grads, values[unit_mesh.cells])
        np.testing.assert_allclose(per_cell, np.tile(coeff, (unit_mesh.num_cells, 1)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_degenerate_cell_rejected(self, dim):
        flat = np.vstack([np.zeros(dim), np.eye(dim)[:-1], 2.0 * np.eye(dim)[0]])  # all in the plane x_d = 0
        with pytest.raises(ValueError, match="degenerate"):
            gradient_operators(SimplexMesh(flat, np.arange(dim + 1)[None, :]))

    def test_apply_dirichlet_symmetric_keeps_spd(self, unit_square_mesh):
        K = assemble_stiffness(unit_square_mesh)
        b = assemble_load(unit_square_mesh, constant_field(1.0))
        bn = unit_square_mesh.boundary_nodes
        A, rhs = apply_dirichlet(K, b, bn, np.zeros(len(bn)), mode="symmetric")
        assert abs(A - A.T).max() < 1e-12
        eigs = np.linalg.eigvalsh(A.toarray())
        assert eigs.min() > 0.0

    def test_apply_dirichlet_row_mode_identity_rows(self, unit_square_mesh):
        K = assemble_stiffness(unit_square_mesh)
        b = assemble_load(unit_square_mesh, constant_field(1.0))
        bn = unit_square_mesh.boundary_nodes
        values = np.arange(len(bn), dtype=float)
        A, rhs = apply_dirichlet(K, b, bn, values, mode="row")
        for node, val in zip(bn, values):
            row = A.getrow(node)
            assert row.nnz == 1 and row[0, node] == pytest.approx(1.0)
            assert rhs[node] == pytest.approx(val)

    def test_apply_dirichlet_modes_same_solution(self, unit_square_mesh):
        u_exact, f, g = manufactured_solution()
        p_sym = Problem.from_fields(unit_square_mesh, f, [dirichlet_bc(g)], dirichlet_mode="symmetric")
        p_row = Problem.from_fields(unit_square_mesh, f, [dirichlet_bc(g)], dirichlet_mode="row")
        assert np.allclose(p_sym.solve_direct(), p_row.solve_direct(), atol=1e-10)

    def test_apply_dirichlet_validates_input(self, unit_square_mesh):
        K = assemble_stiffness(unit_square_mesh)
        b = np.zeros(unit_square_mesh.num_nodes)
        with pytest.raises(ValueError):
            apply_dirichlet(K, b, np.array([0, 1]), np.array([0.0]))
        with pytest.raises(ValueError):
            apply_dirichlet(K, b, np.array([0]), np.array([0.0]), mode="banana")


# --------------------------------------------------------------------------- #
# Poisson problems
# --------------------------------------------------------------------------- #
class TestPoisson:
    def test_boundary_values_reproduced(self, manufactured_problem):
        problem, u_exact = manufactured_problem
        u = problem.solve_direct()
        bn = problem.mesh.boundary_nodes
        expected = u_exact(problem.mesh.nodes[bn, 0], problem.mesh.nodes[bn, 1])
        assert np.allclose(u[bn], expected, atol=1e-12)

    def test_manufactured_solution_accuracy(self, manufactured_problem):
        problem, u_exact = manufactured_problem
        u = problem.solve_direct()
        assert problem.l2_error(u, u_exact) < 5e-3

    def test_fem_convergence_order(self):
        """Halving h divides the nodal L2 error by about 4 (second order)."""
        u_exact, f, g = manufactured_solution()
        errors = []
        for n in (8, 16, 32):
            mesh = structured_rectangle_mesh(n, n)
            problem = Problem.from_fields(mesh, f, [dirichlet_bc(g)])
            errors.append(problem.l2_error(problem.solve_direct(), u_exact))
        assert errors[0] / errors[1] > 3.0
        assert errors[1] / errors[2] > 3.0

    def test_relative_residual_of_direct_solution(self, random_problem):
        u = random_problem.solve_direct()
        assert random_problem.relative_residual_norm(u) < 1e-10

    def test_residual_definition(self, random_problem):
        u = np.zeros(random_problem.num_dofs)
        assert np.allclose(random_problem.residual(u), random_problem.rhs)

    def test_laplace_problem_maximum_principle(self, unit_square_mesh):
        """With f=0 the discrete solution attains max/min on the boundary."""
        g = PolynomialField(d=1.0, e=-0.5, f=0.2)
        problem = Problem.from_fields(unit_square_mesh, constant_field(0.0), [dirichlet_bc(g)])
        u = problem.solve_direct()
        boundary_vals = u[unit_square_mesh.boundary_nodes]
        interior_vals = u[unit_square_mesh.interior_nodes]
        assert interior_vals.max() <= boundary_vals.max() + 1e-9
        assert interior_vals.min() >= boundary_vals.min() - 1e-9

    def test_whole_boundary_dirichlet_on_a_box_mesh(self):
        """The one constructor takes whole-boundary Dirichlet data ``g(x, y, z)`` on a 3D mesh: each
        boundary node carries its own z, and the interior solves ``-Δu = 1`` around it."""
        box = structured_box_mesh(2)
        problem = Problem.from_fields(box, lambda x, y, z: np.ones_like(x), [dirichlet_bc(lambda x, y, z: z)],
                                      diffusion=1.0)
        assert np.array_equal(problem.dirichlet_nodes, box.boundary_nodes)
        assert np.array_equal(problem.boundary_values, box.nodes[box.boundary_nodes, 2])
        assert np.array_equal(problem.node_diffusion, np.ones(box.num_nodes))
        u = problem.solve_direct()
        assert np.array_equal(u[box.boundary_nodes], box.nodes[box.boundary_nodes, 2])
        assert problem.relative_residual_norm(u) < 1e-12

    def test_random_poisson_fields_on_a_box_mesh_are_poisson3d(self):
        """The paper's random f and g drawn for ``mesh.dim`` build, on a box mesh, what ``poisson3d`` builds."""
        box = structured_box_mesh(2)
        rng = np.random.default_rng(4)
        forcing, boundary = random_forcing(rng, dim=3), random_boundary(rng, dim=3)
        problem = Problem.from_fields(box, forcing, [dirichlet_bc(boundary)])
        assert problem.node_diffusion is None
        reference = make_problem("poisson3d", mesh=box, rng=np.random.default_rng(4))
        assert problem.fingerprint() == reference.fingerprint()


# --------------------------------------------------------------------------- #
# random fields (paper Eqs. 24-25)
# --------------------------------------------------------------------------- #
class TestFields:
    def test_polynomial_field_evaluation(self):
        field = PolynomialField(a=1.0, b=2.0, c=3.0, d=4.0, e=5.0, f=6.0)
        x, y = np.array([2.0]), np.array([0.5])
        expected = 1 * 4 + 2 * 0.25 + 3 * 1.0 + 4 * 2 + 5 * 0.5 + 6
        assert field(x, y)[0] == pytest.approx(expected)

    def test_random_forcing_structure(self):
        """The forcing r1(x-1)² + r2 y² + r3 has no xy, no y-linear term."""
        f = random_forcing(np.random.default_rng(0))
        assert f.c == 0.0 and f.e == 0.0
        # value at x=1,y=0 equals r2*0 + r3 -> equals f.f + f.a + f.d  (consistency of expansion)
        val = f(np.array([1.0]), np.array([0.0]))[0]
        assert val == pytest.approx(f.a + f.d + f.f)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_fields_bounded_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        g = random_boundary(rng)
        assert all(abs(c) <= 10.0 for c in (g.a, g.b, g.c, g.d, g.e, g.f))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("draw", [random_forcing, random_boundary], ids=["forcing", "boundary"])
    def test_scale_divides_the_coordinates(self, draw, dim):
        """In either dimension a field at scale s is the scale-1 field at x / s (paper Sec. IV-A)."""
        s = 2.5
        scaled = draw(np.random.default_rng(8), scale=s, dim=dim)
        unit = draw(np.random.default_rng(8), dim=dim)
        x = np.random.default_rng(9).uniform(-3.0, 3.0, size=(dim, 40))
        assert np.array_equal(scaled(*x), unit(*(x / s)))

    def test_random_fields_take_two_or_three_dimensions(self):
        for draw in (random_forcing, random_boundary):
            with pytest.raises(ValueError, match="2 or 3 dimensions"):
                draw(np.random.default_rng(0), dim=4)

    def test_random_poisson_reproducible(self, unit_square_mesh):
        p1 = make_problem("poisson", mesh=unit_square_mesh, rng=np.random.default_rng(11))
        p2 = make_problem("poisson", mesh=unit_square_mesh, rng=np.random.default_rng(11))
        assert np.allclose(p1.rhs, p2.rhs)
        assert (p1.matrix != p2.matrix).nnz == 0


# --------------------------------------------------------------------------- #
# variable-coefficient (κ-weighted) assembly and boundary terms
# --------------------------------------------------------------------------- #
class TestDiffusionAssembly:
    def test_constant_kappa_scales_stiffness(self, unit_mesh):
        base = assemble_stiffness(unit_mesh)
        scaled = assemble_stiffness(unit_mesh, diffusion=3.5)
        assert abs(scaled - 3.5 * base).max() < 1e-12

    def test_callable_and_array_kappa_agree(self, unit_mesh):
        kappa = lambda *xs: 1.0 + xs[0] + 2.0 * xs[1]
        values = evaluate_on_cells(unit_mesh, kappa)
        by_callable = assemble_stiffness(unit_mesh, diffusion=kappa)
        by_array = assemble_stiffness(unit_mesh, diffusion=values)
        assert np.allclose(by_callable.toarray(), by_array.toarray())

    def test_evaluate_on_cells_accepts_scalars_arrays_callables(self, unit_mesh):
        t = unit_mesh.num_cells
        np.testing.assert_array_equal(evaluate_on_cells(unit_mesh, 3.0), np.full(t, 3.0))
        values = np.linspace(1.0, 2.0, t)
        np.testing.assert_array_equal(evaluate_on_cells(unit_mesh, values), values)
        got = evaluate_on_cells(unit_mesh, lambda *xs: 1.0 + sum(xs))
        np.testing.assert_allclose(got, 1.0 + cell_centroids(unit_mesh).sum(axis=1))

    def test_nonpositive_kappa_rejected(self, unit_mesh):
        with pytest.raises(ValueError, match="strictly positive"):
            assemble_stiffness(unit_mesh, diffusion=0.0)
        with pytest.raises(ValueError, match="strictly positive"):
            assemble_stiffness(unit_mesh, diffusion=lambda *xs: xs[0] - 10.0)

    def test_weighted_stiffness_stays_symmetric_spd_on_interior(self, unit_square_mesh):
        from repro.fem import CheckerboardField

        kappa = CheckerboardField(contrast=1e4, cell_size=0.25, origin=(0.0, 0.0))
        K = assemble_stiffness(unit_square_mesh, diffusion=kappa)
        assert np.abs((K - K.T)).max() < 1e-10
        interior = unit_square_mesh.interior_nodes
        dense = K.toarray()[np.ix_(interior, interior)]
        eigenvalues = np.linalg.eigvalsh(dense)
        assert eigenvalues.min() > 0.0


class TestBoundaryTerms:
    def test_boundary_mass_total_is_perimeter(self, unit_square_mesh):
        B = assemble_boundary_mass(unit_square_mesh)
        assert B.sum() == pytest.approx(4.0)

    def test_boundary_mass_exact_for_linear_data(self, unit_square_mesh):
        """u ↦ ∫ u v ds is exact for P1 data: ∫_∂Ω x·1 ds on the unit square = 2."""
        B = assemble_boundary_mass(unit_square_mesh)
        x = unit_square_mesh.nodes[:, 0]
        ones = np.ones(unit_square_mesh.num_nodes)
        assert ones @ (B @ x) == pytest.approx(2.0)

    def test_boundary_mass_edge_subset_and_coefficient(self, unit_square_mesh):
        edges = unit_square_mesh.boundary_facets
        mids = 0.5 * (unit_square_mesh.nodes[edges[:, 0]] + unit_square_mesh.nodes[edges[:, 1]])
        right = edges[mids[:, 0] > 1.0 - 1e-9]
        B = assemble_boundary_mass(unit_square_mesh, coefficient=2.0, edges=right)
        assert B.sum() == pytest.approx(2.0)  # α · |right edge| = 2 · 1

    def test_boundary_load_total_is_perimeter_integral(self, unit_square_mesh):
        b = assemble_boundary_load(unit_square_mesh, 1.0)
        assert b.sum() == pytest.approx(4.0)
        # linear flux g = x: ∫_∂Ω x ds = 0·1 + 1·1 + 2·(1/2) = 2
        b = assemble_boundary_load(unit_square_mesh, lambda x, y: x)
        assert b.sum() == pytest.approx(2.0)

    def test_empty_edge_subset(self, unit_square_mesh):
        empty = np.zeros((0, 2), dtype=np.int64)
        assert assemble_boundary_mass(unit_square_mesh, edges=empty).nnz == 0
        assert np.allclose(assemble_boundary_load(unit_square_mesh, 1.0, edges=empty), 0.0)

    def test_boundary_terms_refuse_a_3d_mesh(self):
        """Neumann and Robin data live on boundary edges: a tet mesh's (F, 3) faces are not read as edges,
        and the steady constructor refuses boundary regions on a box mesh by its dimension."""
        box = structured_box_mesh(2)
        f = lambda x, y, z: np.ones_like(x)  # noqa: E731
        for call in (lambda: assemble_boundary_mass(box), lambda: assemble_boundary_load(box, 1.0),
                     lambda: split_boundary_edges(box, []),
                     lambda: Problem.from_fields(box, f, [dirichlet_bc(0.0, where=lambda x, y: x < 0.5)]),
                     lambda: Problem.from_fields(box, f, [neumann_bc(1.0), dirichlet_bc(0.0)])):
            with pytest.raises(ValueError, match="got a 3D mesh"):
                call()
