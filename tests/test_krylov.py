"""Tests of the Krylov solvers and the IC(0) preconditioner (repro.krylov)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddm import AdditiveSchwarzPreconditioner
from repro.krylov import (
    IncompleteCholeskyPreconditioner,
    SolveResult,
    failures,
    gmres,
    incomplete_cholesky,
    preconditioned_conjugate_gradient,
)
from repro.krylov.block import lockstep_pcg


def _spd_matrix(n: int, seed: int = 0, density: float = 0.2) -> sp.csr_matrix:
    """Random sparse SPD matrix (diagonally dominant)."""
    a = sp.random(n, n, density=density, random_state=np.random.RandomState(seed), format="csr")
    a = a + a.T
    a = a + sp.diags(np.abs(a).sum(axis=1).A1 + 1.0)
    return a.tocsr()


class TestCG:
    def test_cg_solves_spd_system(self):
        a = _spd_matrix(50, 0)
        x_true = np.random.default_rng(1).normal(size=50)
        b = a @ x_true
        result = preconditioned_conjugate_gradient(a, b, tolerance=1e-10)
        assert result.converged
        assert np.linalg.norm(result.solution - x_true) / np.linalg.norm(x_true) < 1e-7

    def test_cg_matches_scipy(self):
        a = _spd_matrix(40, 2)
        b = np.random.default_rng(3).normal(size=40)
        ours = preconditioned_conjugate_gradient(a, b, tolerance=1e-10).solution
        theirs, info = sp.linalg.cg(a, b, rtol=1e-12, atol=0.0)
        assert info == 0
        assert np.allclose(ours, theirs, atol=1e-6)

    def test_residual_history_monotone_overall(self, random_problem):
        """The recorded relative residual ends below the tolerance and starts at 1."""
        result = preconditioned_conjugate_gradient(random_problem.matrix, random_problem.rhs, tolerance=1e-8)
        assert result.residual_history[0] == pytest.approx(1.0)
        assert result.residual_history[-1] < 1e-8
        assert result.iterations + 1 == len(result.residual_history)

    def test_zero_rhs(self):
        a = _spd_matrix(10, 4)
        result = preconditioned_conjugate_gradient(a, np.zeros(10))
        assert result.converged
        assert np.allclose(result.solution, 0.0)

    def test_initial_guess_respected(self):
        a = _spd_matrix(30, 5)
        x_true = np.random.default_rng(6).normal(size=30)
        b = a @ x_true
        warm = preconditioned_conjugate_gradient(a, b, initial_guess=x_true, tolerance=1e-10)
        assert warm.iterations == 0
        assert warm.converged

    def test_max_iterations_cap(self, random_problem):
        result = preconditioned_conjugate_gradient(random_problem.matrix, random_problem.rhs, tolerance=1e-14, max_iterations=3)
        assert result.iterations == 3
        assert not result.converged

    def test_dense_matrix_accepted(self):
        a = _spd_matrix(20, 7).toarray()
        b = np.ones(20)
        result = preconditioned_conjugate_gradient(a, b, tolerance=1e-10)
        assert result.converged

    def test_non_spd_matrix_stops_gracefully(self):
        a = sp.diags([-1.0] * 5).tocsr()
        result = preconditioned_conjugate_gradient(a, np.ones(5), tolerance=1e-10, max_iterations=10)
        assert not result.converged

    def test_callback_invoked(self, random_problem):
        calls = []
        preconditioned_conjugate_gradient(
            random_problem.matrix,
            random_problem.rhs,
            tolerance=1e-6,
            callback=lambda k, res: calls.append((k, res)),
        )
        assert len(calls) > 0
        assert calls[-1][1] < 1e-6

    def test_solve_result_summary(self):
        result = SolveResult(solution=np.zeros(2), converged=True, iterations=3, residual_history=[1.0, 1e-7])
        text = result.summary()
        assert "3 iterations" in text
        assert result.final_relative_residual == pytest.approx(1e-7)

    @given(st.integers(0, 500), st.integers(10, 40))
    @settings(max_examples=15, deadline=None)
    def test_cg_error_decreases_in_a_norm(self, seed, n):
        """Property: the A-norm of the CG error decreases monotonically."""
        a = _spd_matrix(n, seed)
        rng = np.random.default_rng(seed + 1)
        x_true = rng.normal(size=n)
        b = a @ x_true
        errors = []

        # run CG with increasing max_iterations to sample the error trajectory
        for iters in (1, 3, 6):
            result = preconditioned_conjugate_gradient(a, b, tolerance=0.0, max_iterations=iters)
            e = result.solution - x_true
            errors.append(float(e @ (a @ e)))
        assert errors[0] >= errors[1] - 1e-9
        assert errors[1] >= errors[2] - 1e-9


class TestPCG:
    def test_pcg_with_asm_solution_matches_unpreconditioned(self, random_problem, small_decomposition):
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=2)
        with_pre = preconditioned_conjugate_gradient(
            random_problem.matrix, random_problem.rhs, preconditioner=asm, tolerance=1e-10
        )
        without = preconditioned_conjugate_gradient(random_problem.matrix, random_problem.rhs, tolerance=1e-10)
        assert np.allclose(with_pre.solution, without.solution, atol=1e-5)

    def test_preconditioner_time_recorded(self, random_problem, small_decomposition):
        asm = AdditiveSchwarzPreconditioner(random_problem.matrix, small_decomposition, levels=2)
        result = preconditioned_conjugate_gradient(
            random_problem.matrix, random_problem.rhs, preconditioner=asm, tolerance=1e-8
        )
        assert 0.0 < result.preconditioner_time <= result.elapsed_time


class TestIC0:
    def test_factor_has_tril_pattern(self, random_problem):
        L = incomplete_cholesky(random_problem.matrix)
        assert (sp.triu(L, k=1)).nnz == 0
        # pattern included in tril(A)
        pattern_a = sp.tril(random_problem.matrix).astype(bool)
        pattern_l = L.astype(bool)
        assert (pattern_l > pattern_a).nnz == 0

    def test_exact_on_diagonal_matrix(self):
        a = sp.diags([4.0, 9.0, 16.0]).tocsr()
        L = incomplete_cholesky(a)
        assert np.allclose(L.toarray(), np.diag([2.0, 3.0, 4.0]))

    def test_exact_on_tridiagonal(self):
        """IC(0) on a tridiagonal SPD matrix is the exact Cholesky factor."""
        n = 20
        a = sp.diags([-1.0 * np.ones(n - 1), 2.0 * np.ones(n), -1.0 * np.ones(n - 1)], [-1, 0, 1]).tocsr()
        L = incomplete_cholesky(a)
        assert np.allclose((L @ L.T).toarray(), a.toarray(), atol=1e-10)

    def test_rejects_non_positive_diagonal(self):
        a = sp.diags([1.0, -2.0, 3.0]).tocsr()
        with pytest.raises(ValueError):
            incomplete_cholesky(a)

    def test_ic0_preconditioner_accelerates_cg(self, random_problem):
        plain = preconditioned_conjugate_gradient(random_problem.matrix, random_problem.rhs, tolerance=1e-8)
        ic = IncompleteCholeskyPreconditioner(random_problem.matrix)
        pre = preconditioned_conjugate_gradient(
            random_problem.matrix, random_problem.rhs, preconditioner=ic, tolerance=1e-8
        )
        assert pre.converged
        assert pre.iterations < plain.iterations

    def test_ic0_apply_is_spd(self, random_problem):
        """z ↦ M⁻¹z defined by IC(0) is symmetric positive definite (sampled check)."""
        ic = IncompleteCholeskyPreconditioner(random_problem.matrix)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.normal(size=random_problem.num_dofs)
            w = rng.normal(size=random_problem.num_dofs)
            assert v @ ic.apply(w) == pytest.approx(w @ ic.apply(v), rel=1e-8)
            assert v @ ic.apply(v) > 0.0

    @pytest.mark.parametrize("prepared", [True, False], ids=["gstrs", "fallback"])
    def test_apply_is_two_spsolve_triangular_calls_bitwise(self, random_problem, monkeypatch, prepared):
        """The prepared solves give the bytes of the public calls, and so does the fallback."""
        import scipy.sparse.linalg as spla

        from repro.krylov import ic as ic_module
        from repro.solvers import SolverConfig, prepare

        assert ic_module._gstrs is not None  # the private kernel passed its import check here
        if not prepared:
            monkeypatch.setattr(ic_module, "_gstrs", None)
        ic = IncompleteCholeskyPreconditioner(random_problem.matrix)
        lower = ic.factor.tocsr()
        upper = ic.factor.T.tocsr()
        for seed in range(3):
            r = np.random.default_rng(seed).normal(size=random_problem.num_dofs)
            reference = spla.spsolve_triangular(
                upper, spla.spsolve_triangular(lower, r, lower=True), lower=False)
            assert np.array_equal(ic.apply(r), reference)
        # a whole ic0 solve is the same bytes on either path
        config = SolverConfig(preconditioner="ic0", tolerance=1e-8)
        result = prepare(random_problem, config).solve()
        monkeypatch.setattr(ic_module, "_gstrs", None)
        fallback = prepare(random_problem, config).solve()
        assert result.iterations == fallback.iterations
        assert np.array_equal(result.solution, fallback.solution)


class TestOtherKrylov:
    def test_gmres_solves_spd(self, random_problem):
        result = gmres(random_problem.matrix, random_problem.rhs, tolerance=1e-8, restart=60)
        assert result.converged
        assert random_problem.relative_residual_norm(result.solution) < 1e-6

    def test_gmres_nonsymmetric(self):
        rng = np.random.default_rng(0)
        a = sp.csr_matrix(np.diag(np.arange(1.0, 21.0)) + 0.1 * rng.normal(size=(20, 20)))
        x_true = rng.normal(size=20)
        result = gmres(a, a @ x_true, tolerance=1e-10, restart=20)
        assert result.converged
        assert np.allclose(result.solution, x_true, atol=1e-5)

    def test_gmres_zero_rhs(self):
        a = _spd_matrix(10, 9)
        assert gmres(a, np.zeros(10)).converged


# --------------------------------------------------------------------------- #
# failure taxonomy: breakdown detection stamps machine-readable reasons
# --------------------------------------------------------------------------- #
class _DiagPrecond:
    """Deterministic diagonal preconditioner whose column path is the exact
    per-column arithmetic of its single path (bit-identity test harness)."""

    def __init__(self, diagonal: np.ndarray) -> None:
        self.diagonal = np.asarray(diagonal, dtype=np.float64)

    def apply(self, residual: np.ndarray) -> np.ndarray:
        return residual / self.diagonal

    def apply_columns(self, residuals: np.ndarray) -> np.ndarray:
        return residuals / self.diagonal[:, None]


class _NaNPrecond:
    """A preconditioner that always emits NaN."""

    def apply(self, residual: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(residual, dtype=np.float64), np.nan)


class _ProjectionPrecond:
    """A singular (rank-k projection) preconditioner: PCG converges inside the
    projected subspace and then stalls — honest stagnation, no breakdown."""

    def __init__(self, n: int, k: int) -> None:
        self.mask = (np.arange(n) < k).astype(np.float64)

    def apply(self, residual: np.ndarray) -> np.ndarray:
        return residual * self.mask


class TestFailureTaxonomy:
    def test_non_finite_rhs_refused_up_front(self):
        a = _spd_matrix(10, 11)
        b = np.ones(10)
        b[3] = np.nan
        result = preconditioned_conjugate_gradient(a, b, max_iterations=50)
        assert not result.converged
        assert result.failed
        assert result.failure_reason == failures.NON_FINITE_RHS
        assert result.iterations == 0

    def test_nan_preconditioner_stamped(self):
        a = _spd_matrix(12, 12)
        result = preconditioned_conjugate_gradient(
            a, np.ones(12), preconditioner=_NaNPrecond(), max_iterations=50)
        assert not result.converged
        assert result.failure_reason == failures.NON_FINITE_PRECONDITIONER
        assert np.isfinite(result.solution).all()

    def test_indefinite_operator_detected(self):
        a = sp.diags([-1.0] * 8).tocsr()
        result = preconditioned_conjugate_gradient(a, np.ones(8), tolerance=1e-12, max_iterations=50)
        assert not result.converged
        assert result.failure_reason == failures.INDEFINITE_OPERATOR
        assert result.iterations < 50  # terminated early, not looped to the cap

    def test_nan_operator_detected(self):
        a = _spd_matrix(10, 13).toarray()
        a[4, 4] = np.nan
        result = preconditioned_conjugate_gradient(a, np.ones(10), max_iterations=50)
        assert not result.converged
        assert result.failure_reason in (
            failures.NON_FINITE_OPERATOR, failures.NON_FINITE_RESIDUAL)
        assert result.iterations <= 1  # no NaN looping to max_iterations

    def test_stagnation_detected(self):
        a = _spd_matrix(25, 14)
        b = np.random.default_rng(23).normal(size=25)
        result = preconditioned_conjugate_gradient(
            a, b, preconditioner=_ProjectionPrecond(25, 6), tolerance=1e-30,
            max_iterations=5000, stagnation_window=10)
        assert not result.converged
        assert result.failure_reason == failures.STAGNATION
        assert result.iterations < 5000
        # the solution is still the best-effort iterate, not garbage
        assert np.isfinite(result.solution).all()

    def test_summary_mentions_reason(self):
        a = sp.diags([-1.0] * 5).tocsr()
        result = preconditioned_conjugate_gradient(a, np.ones(5), max_iterations=10)
        assert result.failure_reason in result.summary()

    def test_describe_and_is_breakdown(self):
        assert failures.describe(None) == "converged"
        assert failures.is_breakdown(failures.RHO_BREAKDOWN)
        assert not failures.is_breakdown(failures.MAX_ITERATIONS)
        for reason in failures.FAILURE_REASONS:
            assert failures.describe(reason) != "unknown failure"

    # -- gmres ------------------------------------------------------------ #
    def test_gmres_nan_operator(self):
        a = np.eye(10)
        a[2, 2] = np.nan
        result = gmres(a, np.ones(10), max_iterations=30)
        assert not result.converged
        assert result.failure_reason in (
            failures.NON_FINITE_OPERATOR, failures.NON_FINITE_RESIDUAL)

    def test_gmres_singular_operator_stops_with_reason(self):
        # rank-deficient: one zero row/column; b has a component outside range(A)
        a = sp.diags([1.0] * 9 + [0.0]).tocsr()
        result = gmres(a, np.ones(10), tolerance=1e-12, max_iterations=40, restart=10)
        assert not result.converged
        assert result.failure_reason in failures.FAILURE_REASONS
        assert np.isfinite(result.solution).all()

    def test_gmres_stagnation(self):
        a = _spd_matrix(20, 15)
        b = np.random.default_rng(24).normal(size=20)
        result = gmres(a, b, tolerance=1e-30, max_iterations=5000,
                       restart=20, stagnation_window=10)
        assert not result.converged
        assert result.failure_reason == failures.STAGNATION

    def test_gmres_non_finite_rhs(self):
        a = _spd_matrix(10, 16)
        b = np.ones(10)
        b[0] = np.inf
        result = gmres(a, b)
        assert result.failure_reason == failures.NON_FINITE_RHS


class TestLockstepFailureParity:
    """One poisoned column must fail with a stamped reason while the other
    columns stay bit-identical to their single-RHS solves."""

    def test_nan_rhs_column_excluded_others_bit_identical(self):
        a = _spd_matrix(30, 17)
        rng = np.random.default_rng(18)
        batch = rng.normal(size=(3, 30))
        batch[1, 7] = np.nan
        precond = _DiagPrecond(a.diagonal())
        results = lockstep_pcg(a, batch, preconditioner=precond, tolerance=1e-10)
        assert results[1].failure_reason == failures.NON_FINITE_RHS
        for j in (0, 2):
            single = preconditioned_conjugate_gradient(
                a, batch[j], preconditioner=_DiagPrecond(a.diagonal()),
                tolerance=1e-10)
            assert single.converged and results[j].converged
            assert np.array_equal(results[j].solution, single.solution)
            assert results[j].iterations == single.iterations

    def test_poisoned_preconditioner_column_compacted_out(self):
        from repro.faults import PoisonedPreconditioner

        a = _spd_matrix(30, 19)
        rng = np.random.default_rng(20)
        batch = rng.normal(size=(3, 30))
        inner = _DiagPrecond(a.diagonal())
        poisoned = PoisonedPreconditioner(inner, columns=(1,), on_call=0)
        results = lockstep_pcg(a, batch, preconditioner=poisoned, tolerance=1e-10)
        assert results[1].failure_reason == failures.NON_FINITE_PRECONDITIONER
        assert not results[1].converged
        # the single-RHS solve with the same poison stamps the same reason
        single_poisoned = preconditioned_conjugate_gradient(
            a, batch[1],
            preconditioner=PoisonedPreconditioner(
                _DiagPrecond(a.diagonal()), columns=(0,), on_call=0),
            tolerance=1e-10)
        assert single_poisoned.failure_reason == failures.NON_FINITE_PRECONDITIONER
        # clean columns: bit-identical to clean single-RHS solves
        for j in (0, 2):
            single = preconditioned_conjugate_gradient(
                a, batch[j], preconditioner=_DiagPrecond(a.diagonal()),
                tolerance=1e-10)
            assert single.converged and results[j].converged
            assert np.array_equal(results[j].solution, single.solution)
            assert results[j].iterations == single.iterations

    def test_lockstep_stagnation_matches_single(self):
        a = _spd_matrix(25, 21)
        rng = np.random.default_rng(22)
        batch = rng.normal(size=(2, 25))
        results = lockstep_pcg(a, batch, preconditioner=_ProjectionPrecond(25, 6),
                               tolerance=1e-30, max_iterations=5000,
                               stagnation_window=10)
        for j in range(2):
            single = preconditioned_conjugate_gradient(
                a, batch[j], preconditioner=_ProjectionPrecond(25, 6),
                tolerance=1e-30, max_iterations=5000, stagnation_window=10)
            assert results[j].failure_reason == failures.STAGNATION == single.failure_reason
            assert results[j].iterations == single.iterations
            assert np.array_equal(results[j].solution, single.solution)


# --------------------------------------------------------------------------- #
# one recurrence contract: standard for a linear M, flexible otherwise
# --------------------------------------------------------------------------- #
def _textbook_pcg(a, b, precond, tolerance):
    """Algorithm 1 of the paper, kept here as the byte-level reference."""
    u = np.zeros_like(b)
    r = b - a @ u
    z = precond.apply(r)
    p = z.copy()
    rho = float(r @ z)
    b_norm = np.linalg.norm(b)
    history = [float(np.linalg.norm(r) / b_norm)]
    while history[-1] >= tolerance:
        q = a @ p
        alpha = rho / float(p @ q)
        u += alpha * p
        r -= alpha * q
        history.append(float(np.linalg.norm(r) / b_norm))
        if history[-1] < tolerance:
            break
        z = precond.apply(r)
        rho_next = float(r @ z)
        p = z + (rho_next / rho) * p
        rho = rho_next
    return u, history


class TestRecurrenceContract:
    TOLERANCE = 1e-8

    @staticmethod
    def _session(problem, kind):
        from repro.solvers import SolverConfig, prepare

        return prepare(problem, SolverConfig(preconditioner=kind, subdomain_size=80,
                                             tolerance=TestRecurrenceContract.TOLERANCE))

    @pytest.mark.parametrize("kind", ["none", "ic0", "ddm-lu", "ddm-jacobi"])
    def test_linear_preconditioners_run_textbook_pcg(self, random_problem, kind, monkeypatch):
        """Byte-identical to Algorithm 1, single and lockstep, with no history."""
        from repro.krylov import block, cg

        def no_history():
            raise AssertionError("a linear preconditioner allocated a direction history")

        monkeypatch.setattr(cg, "DirectionWindow", no_history)
        monkeypatch.setattr(block, "DirectionWindow", no_history)
        precond = self._session(random_problem, kind).preconditioner
        assert precond.linear
        a = random_problem.matrix
        batch = np.stack([random_problem.rhs,
                          np.random.default_rng(5).normal(size=random_problem.num_dofs)])
        lockstep = lockstep_pcg(a, batch, preconditioner=precond, tolerance=self.TOLERANCE)
        for b, fused in zip(batch, lockstep):
            solution, history = _textbook_pcg(a, b, precond, self.TOLERANCE)
            single = preconditioned_conjugate_gradient(a, b, preconditioner=precond,
                                                       tolerance=self.TOLERANCE)
            for result in (single, fused):
                assert result.info["recurrence"] == "standard"
                assert result.solution.tobytes() == solution.tobytes()
                assert result.residual_history == history
                assert result.iterations == len(history) - 1

    def test_flexible_reduces_to_standard_for_a_linear_spd_preconditioner(
            self, random_problem, declare_linearity):
        """Consistency anchor: FCG over DDM-LU is PCG up to round-off."""
        precond = self._session(random_problem, "ddm-lu").preconditioner
        a, b = random_problem.matrix, random_problem.rhs
        standard = preconditioned_conjugate_gradient(a, b, preconditioner=precond,
                                                     tolerance=self.TOLERANCE)
        flexible = preconditioned_conjugate_gradient(
            a, b, preconditioner=declare_linearity(precond, linear=False),
            tolerance=self.TOLERANCE)
        assert (standard.info["recurrence"], flexible.info["recurrence"]) == \
            ("standard", "flexible")
        assert flexible.converged and flexible.iterations == standard.iterations
        scale = np.linalg.norm(standard.solution)
        assert np.linalg.norm(flexible.solution - standard.solution) <= 1e-10 * scale

    def test_direction_window_orthogonalises_and_slides(self):
        from repro.krylov.flexible import FLEXIBLE_WINDOW, DirectionWindow

        a = _spd_matrix(40, 23).toarray()
        rng = np.random.default_rng(24)
        window = DirectionWindow()
        directions = []
        for _ in range(FLEXIBLE_WINDOW + 3):
            p = window.next_direction(rng.normal(size=(40, 2))) if directions \
                else np.asfortranarray(rng.normal(size=(40, 2)))
            q = np.asfortranarray(a @ p)
            window.push(p, q, np.einsum("ij,ij->j", p, q))
            directions.append((p, q))
        p = window.next_direction(rng.normal(size=(40, 2)))
        assert p.flags.f_contiguous
        inner = [np.abs(np.einsum("ij,ij->j", p, q)).max() for _, q in directions]
        scale = np.abs(np.einsum("ij,ij->j", p, a @ p)).max()
        # A-orthogonal to the last FLEXIBLE_WINDOW directions, not to older ones
        assert max(inner[-FLEXIBLE_WINDOW:]) < 1e-10 * scale
        assert min(inner[:-FLEXIBLE_WINDOW]) > 1e-6 * scale

    def test_poisoned_wrapper_forwards_linearity(self, declare_linearity):
        from repro.faults import PoisonedPreconditioner

        a = _spd_matrix(20, 25)
        inner = _DiagPrecond(a.diagonal())
        assert PoisonedPreconditioner(inner).linear            # duck-typed: linear
        assert not PoisonedPreconditioner(declare_linearity(inner, linear=False)).linear

    def test_gmres_reports_standard_for_a_linear_preconditioner(self, random_problem):
        precond = self._session(random_problem, "ddm-lu").preconditioner
        result = gmres(random_problem.matrix, random_problem.rhs, preconditioner=precond,
                       tolerance=self.TOLERANCE)
        assert result.converged and result.info["recurrence"] == "standard"
