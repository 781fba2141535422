"""Tests of the domain-decomposition substrate (repro.ddm)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.ddm import (
    AdditiveSchwarzPreconditioner,
    IdentityPreconditioner,
    JacobiLocalSolver,
    LULocalSolver,
    NicolaidesCoarseSpace,
    StackedRestriction,
    build_restrictions,
    extract_local_matrices,
    restriction_matrix,
)
from repro.krylov import preconditioned_conjugate_gradient


# --------------------------------------------------------------------------- #
# restriction operators
# --------------------------------------------------------------------------- #
class TestRestriction:
    def test_restriction_selects_rows(self):
        r = restriction_matrix(np.array([1, 3]), 5)
        v = np.arange(5.0)
        assert np.allclose(r @ v, [1.0, 3.0])

    def test_extension_scatters_back(self):
        r = restriction_matrix(np.array([1, 3]), 5)
        local = np.array([10.0, 20.0])
        assert np.allclose(r.T @ local, [0, 10.0, 0, 20.0, 0])

    def test_r_rt_is_identity(self):
        r = restriction_matrix(np.array([0, 2, 4]), 6)
        assert np.allclose((r @ r.T).toarray(), np.eye(3))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            restriction_matrix(np.array([7]), 5)

    def test_build_restrictions(self, small_decomposition):
        n = small_decomposition.mesh.num_nodes
        rs = build_restrictions(small_decomposition.subdomain_nodes, n)
        assert len(rs) == small_decomposition.num_subdomains
        # each R_i is boolean with exactly one 1 per row
        for r in rs:
            assert np.allclose(np.asarray(r.sum(axis=1)).ravel(), 1.0)

    def test_partition_of_unity_sums_to_identity(self, small_decomposition):
        """Core ownership is a Boolean partition of unity: ``Σ_i R̃_iᵀ R_i = I``."""
        n = small_decomposition.mesh.num_nodes
        subs, cores = small_decomposition.subdomain_nodes, small_decomposition.core_nodes
        total = sp.csr_matrix((n, n))
        for r, sub, core in zip(build_restrictions(subs, n), subs, cores):
            total = total + r.T @ sp.diags(np.isin(sub, core).astype(float)) @ r
        assert np.array_equal(total.toarray(), np.eye(n))
        # ... and it is what the stacked operator's restricted gluing applies
        restricted = StackedRestriction(subs, n, core_nodes=cores)
        assert np.array_equal(restricted.glue(restricted.extract(np.eye(n))), np.eye(n))


# --------------------------------------------------------------------------- #
# coarse space
# --------------------------------------------------------------------------- #
class TestCoarseSpace:
    def test_coarse_matrix_shape_and_spd(self, random_problem, small_decomposition):
        cs = NicolaidesCoarseSpace(small_decomposition.subdomain_nodes, random_problem.num_dofs)
        cs.factorize(random_problem.matrix)
        k = small_decomposition.num_subdomains
        assert cs.coarse_matrix.shape == (k, k)
        eigs = np.linalg.eigvalsh(cs.coarse_matrix.toarray())
        assert eigs.min() > 0.0

    def test_apply_before_factorize_raises(self, random_problem, small_decomposition):
        cs = NicolaidesCoarseSpace(small_decomposition.subdomain_nodes, random_problem.num_dofs)
        with pytest.raises(RuntimeError):
            cs.apply(random_problem.rhs)

    def test_coarse_correction_in_coarse_space(self, random_problem, small_decomposition):
        """The coarse correction lies in the span of R_0ᵀ."""
        cs = NicolaidesCoarseSpace(small_decomposition.subdomain_nodes, random_problem.num_dofs)
        cs.factorize(random_problem.matrix)
        z = cs.apply(random_problem.rhs)
        # least-squares projection onto span(R0^T) reproduces z
        basis = cs.r0.T.toarray()
        coeffs, *_ = np.linalg.lstsq(basis, z, rcond=None)
        assert np.allclose(basis @ coeffs, z, atol=1e-8)

    def test_pou_basis_sums_to_one(self, small_decomposition):
        cs = NicolaidesCoarseSpace(small_decomposition.subdomain_nodes, small_decomposition.mesh.num_nodes)
        column_sums = np.asarray(cs.r0.sum(axis=0)).ravel()
        assert np.allclose(column_sums, 1.0)

    def test_set_up_is_sparse_at_two_thousand_subdomains(self):
        """K = 2,025 sub-domains (3 × 3 cores and one layer of overlap on a 135 × 135 grid): factorising
        allocates less than K² bytes, an eighth of one dense K×K float64 array, and holds no K×K array;
        the correction is ``R₀ᵀ A₀⁻¹ R₀ r`` as ``spsolve`` computes it."""
        side, block = 135, 3
        grid = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
        matrix = (sp.kron(grid, sp.identity(side)) + sp.kron(sp.identity(side), grid)).tocsr()
        index = np.arange(side * side).reshape(side, side)
        subdomains = [index[max(i - 1, 0):i + block + 1, max(j - 1, 0):j + block + 1].ravel()
                      for i in range(0, side, block) for j in range(0, side, block)]
        k = len(subdomains)
        cs = NicolaidesCoarseSpace(subdomains, side * side)
        tracemalloc.start()
        try:
            cs.factorize(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k == 2025 and peak < k * k * 8 / 8, peak
        held, seen = [cs], set()
        while held:                                   # every array reachable through attributes
            value = held.pop()
            if id(value) in seen:
                continue
            seen.add(id(value))
            if isinstance(value, np.ndarray):
                assert not (value.ndim == 2 and value.size >= k * k), value.shape
            elif isinstance(value, (list, tuple)):
                held.extend(value)
            elif isinstance(value, dict):
                held.extend(value.values())
            elif hasattr(value, "__dict__"):
                held.extend(vars(value).values())
        residuals = np.random.default_rng(0).normal(size=(side * side, 3))
        coarse = (cs.r0 @ matrix @ cs.r0.T).tocsc()
        expected = cs.r0.T @ spla.spsolve(coarse, cs.r0 @ residuals)
        error = np.linalg.norm(cs.apply_columns(residuals) - expected, axis=0)
        assert np.all(error <= 1e-12 * np.linalg.norm(expected, axis=0))


# --------------------------------------------------------------------------- #
# local solvers
# --------------------------------------------------------------------------- #
class TestLocalSolvers:
    def test_lu_local_solver_exact(self, random_problem, small_decomposition):
        locals_ = extract_local_matrices(random_problem.matrix, small_decomposition.subdomain_nodes)
        solver = LULocalSolver().setup(locals_)
        rhs = [np.random.default_rng(i).normal(size=m.shape[0]) for i, m in enumerate(locals_)]
        sols = solver.solve_all(rhs)
        for m, b, x in zip(locals_, rhs, sols):
            assert np.linalg.norm(m @ x - b) / np.linalg.norm(b) < 1e-10

    def test_lu_solver_wrong_count_raises(self, random_problem, small_decomposition):
        locals_ = extract_local_matrices(random_problem.matrix, small_decomposition.subdomain_nodes)
        solver = LULocalSolver().setup(locals_)
        with pytest.raises(ValueError):
            solver.solve_all([np.zeros(locals_[0].shape[0])])

    def test_jacobi_solver_reduces_residual(self, random_problem, small_decomposition):
        locals_ = extract_local_matrices(random_problem.matrix, small_decomposition.subdomain_nodes)
        solver = JacobiLocalSolver(sweeps=30, damping=0.6).setup(locals_)
        rhs = [np.ones(m.shape[0]) for m in locals_]
        sols = solver.solve_all(rhs)
        for m, b, x in zip(locals_, rhs, sols):
            assert np.linalg.norm(m @ x - b) < np.linalg.norm(b)

    def test_jacobi_invalid_sweeps(self):
        with pytest.raises(ValueError):
            JacobiLocalSolver(sweeps=0)

    def test_extract_local_matrices_shapes(self, random_problem, small_decomposition):
        locals_ = extract_local_matrices(random_problem.matrix, small_decomposition.subdomain_nodes)
        for m, nodes in zip(locals_, small_decomposition.subdomain_nodes):
            assert m.shape == (len(nodes), len(nodes))

    def test_extract_local_matrices_equals_scipy_double_indexing(self, random_mesh):
        """``csr[idx][:, idx]`` entry for entry — ``indptr``, ``indices``, ``data`` and their dtypes — on every
        registry family, for sorted node sets (a decomposition's) and shuffled ones: no LU factor moves."""
        from repro.problems import available_problems, make_problem, problem_spec
        from repro.solvers import SolverConfig, prepare

        for name in available_problems():
            if problem_spec(name).dim == 3:
                problem = make_problem(name, rng=np.random.default_rng(1), target_nodes=216)
            else:
                problem = make_problem(name, mesh=random_mesh, rng=np.random.default_rng(1))
            config = SolverConfig(preconditioner="ddm-lu", krylov="gmres", subdomain_size=90)
            sorted_sets = prepare(problem, config).decomposition.subdomain_nodes
            shuffled = [np.random.default_rng(2).permutation(nodes) for nodes in sorted_sets]
            csr = problem.matrix.tocsr()
            for node_sets in (sorted_sets, shuffled):
                for nodes, local in zip(node_sets, extract_local_matrices(problem.matrix, node_sets)):
                    expected = csr[nodes][:, nodes]
                    assert local.shape == expected.shape
                    for field in ("indptr", "indices", "data"):
                        ours, theirs = getattr(local, field), getattr(expected, field)
                        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), (name, field)


# --------------------------------------------------------------------------- #
# Additive Schwarz preconditioner
# --------------------------------------------------------------------------- #
class TestASM:
    def test_apply_matches_matrix_formula(self, random_problem, small_decomposition):
        """Operator application equals the explicit Eq. (7) matrix."""
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=2)
        dense = asm.as_matrix()
        r = np.random.default_rng(0).normal(size=random_problem.num_dofs)
        assert np.allclose(asm.apply(r), dense @ r, atol=1e-8)

    def test_one_level_matches_eq6(self, random_problem, small_decomposition):
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=1)
        dense = asm.as_matrix()
        r = np.random.default_rng(1).normal(size=random_problem.num_dofs)
        assert np.allclose(asm.apply(r), dense @ r, atol=1e-8)

    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("variant", ["asm", "ras"])
    def test_as_matrix_is_the_apply(self, random_problem, small_decomposition, variant, levels):
        """``as_matrix()`` honours the variant: it is the operator ``apply`` applies."""
        asm = AdditiveSchwarzPreconditioner(
            random_problem.matrix, small_decomposition, levels=levels, variant=variant
        )
        dense = asm.as_matrix()
        r = np.random.default_rng(3).normal(size=random_problem.num_dofs)
        assert np.allclose(dense @ r, asm.apply(r), rtol=0.0, atol=1e-10)
        assert np.allclose(dense, dense.T, atol=1e-10) == (variant == "asm")

    def test_preconditioner_matrix_spd(self, random_problem, small_decomposition):
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=2)
        dense = asm.as_matrix()
        assert np.allclose(dense, dense.T, atol=1e-10)
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() > 0.0

    def test_pcg_with_asm_converges_faster_than_cg(self, random_problem, small_decomposition):
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=2)
        plain = preconditioned_conjugate_gradient(random_problem.matrix, random_problem.rhs, tolerance=1e-8)
        pre = preconditioned_conjugate_gradient(
            random_problem.matrix, random_problem.rhs, preconditioner=asm, tolerance=1e-8
        )
        assert pre.converged and plain.converged
        assert pre.iterations < plain.iterations

    def test_two_level_not_slower_than_one_level(self, random_problem, small_decomposition):
        one = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=1)
        two = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=2)
        r1 = preconditioned_conjugate_gradient(random_problem.matrix, random_problem.rhs, preconditioner=one, tolerance=1e-8)
        r2 = preconditioned_conjugate_gradient(random_problem.matrix, random_problem.rhs, preconditioner=two, tolerance=1e-8)
        assert r2.iterations <= r1.iterations + 2

    def test_solutions_agree_with_direct(self, random_problem, small_decomposition):
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=2)
        result = preconditioned_conjugate_gradient(
            random_problem.matrix, random_problem.rhs, preconditioner=asm, tolerance=1e-10
        )
        direct = random_problem.solve_direct()
        assert np.linalg.norm(result.solution - direct) / np.linalg.norm(direct) < 1e-6

    def test_ras_puts_the_coarse_solve_last(self, random_problem, small_decomposition, exact_local_reference):
        """Two-level "ras" is DDM-GNN's skeleton: owner glue, then the coarse solve on ``r − A z₁`` —
        bit for bit the composition from one-level RAS and the coarse space, so ``R₀ (r − A z) = 0``."""
        ras = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, variant="ras")
        block = np.random.default_rng(4).normal(size=(random_problem.num_dofs, 3))
        result = ras.apply_columns(block)
        assert np.array_equal(result, exact_local_reference(random_problem.matrix, small_decomposition, block))
        left = ras.coarse_space.r0 @ (block - random_problem.matrix @ result)
        assert np.linalg.norm(left) <= 1e-10 * np.linalg.norm(block)

    def test_ras_variant_with_jacobi(self, random_problem, small_decomposition):
        asm = AdditiveSchwarzPreconditioner(
            random_problem.matrix,
            small_decomposition,
            levels=1,
            variant="ras",
            local_solver=LULocalSolver(),
        )
        z = asm.apply(random_problem.rhs)
        assert np.all(np.isfinite(z))

    def test_invalid_levels_and_variant(self, random_problem, small_decomposition):
        with pytest.raises(ValueError):
            AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=3)
        with pytest.raises(ValueError):
            AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, variant="xyz")

    def test_identity_preconditioner(self):
        ident = IdentityPreconditioner(4)
        r = np.arange(4.0)
        assert np.allclose(ident.apply(r), r)
        assert ident.shape == (4, 4)
