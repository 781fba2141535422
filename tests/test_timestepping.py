"""Tests of ``repro.timestepping``: θ-scheme problem construction, fail-closed
parameter validation, march/march_many bit-identity contracts, fingerprint
sensitivity to the scheme, shared-memory round-trips of time-dependent
problems and the manufactured-solution convergence orders (backward Euler
O(dt), Crank–Nicolson O(dt²))."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from repro.fem import assemble_load, assemble_mass, assemble_stiffness
from repro.mesh import structured_rectangle_mesh
from repro.problems import make_problem
from repro.solvers import SolverConfig, prepare
from repro.timestepping import (
    MarchResult,
    TimeDependentProblem,
    TimeSteppingError,
    march,
    march_many,
    validate_scheme,
    validate_steps,
)

DDM_LU = SolverConfig(preconditioner="ddm-lu", subdomain_size=80, tolerance=1e-10)


@pytest.fixture(scope="module")
def heat_problem():
    mesh = structured_rectangle_mesh(10, 10)
    return make_problem("heat", mesh=mesh, rng=np.random.default_rng(3), dt=0.02)


@pytest.fixture(scope="module")
def heat_session(heat_problem):
    return prepare(heat_problem, DDM_LU)


# --------------------------------------------------------------------------- #
# validation: every bad scheme parameter fails closed with a typed error
# --------------------------------------------------------------------------- #
class TestValidation:
    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(TimeSteppingError, match="dt"):
            validate_scheme(dt, 0.5)

    @pytest.mark.parametrize("theta", [-0.1, 1.5, float("nan")])
    def test_bad_theta_rejected(self, theta):
        with pytest.raises(TimeSteppingError, match="theta"):
            validate_scheme(0.01, theta)

    def test_valid_scheme_returns_floats(self):
        dt, theta = validate_scheme(np.float64(0.25), 0)
        assert (dt, theta) == (0.25, 0.0)
        assert isinstance(dt, float) and isinstance(theta, float)

    @pytest.mark.parametrize("steps", [0, -3, 2.5, "10", True])
    def test_bad_steps_rejected(self, steps):
        with pytest.raises(TimeSteppingError):
            validate_steps(steps)

    def test_numpy_integer_steps_accepted(self):
        assert validate_steps(np.int64(7)) == 7

    def test_timestepping_error_is_a_value_error(self):
        assert issubclass(TimeSteppingError, ValueError)

    def test_from_theta_scheme_validates(self):
        mesh = structured_rectangle_mesh(4, 4)
        A = assemble_stiffness(mesh)
        M = assemble_mass(mesh)
        f = assemble_load(mesh, lambda x, y: 1.0)
        with pytest.raises(TimeSteppingError):
            TimeDependentProblem.from_theta_scheme(mesh, A, M, f, dt=-0.1)
        with pytest.raises(TimeSteppingError):
            TimeDependentProblem.from_theta_scheme(mesh, A, M, f, dt=0.1, theta=2.0)
        with pytest.raises(TimeSteppingError, match="initial state"):
            TimeDependentProblem.from_theta_scheme(
                mesh, A, M, f, dt=0.1, initial_state=np.zeros(3)
            )

    def test_march_requires_time_dependent_problem(self, random_problem):
        session = prepare(random_problem, DDM_LU)
        with pytest.raises(TimeSteppingError, match="TimeDependentProblem"):
            march(session, steps=2)

    def test_march_rejects_mismatched_dt(self, heat_session):
        with pytest.raises(TimeSteppingError, match="rebuild"):
            heat_session.march(dt=0.5, steps=2)
        # the problem's own dt passes the cross-check
        assert heat_session.march(dt=0.02, steps=1).converged

    def test_march_rejects_bad_initial_shape(self, heat_session):
        with pytest.raises(TimeSteppingError, match="u0"):
            heat_session.march(u0=np.zeros(3), steps=1)
        with pytest.raises(TimeSteppingError, match="U0"):
            heat_session.march_many(np.zeros((2, 3)), steps=1)

    def test_march_rejects_bad_steps(self, heat_session):
        with pytest.raises(TimeSteppingError, match="steps"):
            heat_session.march(steps=0)


# --------------------------------------------------------------------------- #
# θ-scheme assembly invariants
# --------------------------------------------------------------------------- #
class TestThetaScheme:
    def test_step_operator_is_mass_over_dt_plus_theta_stiffness(self):
        mesh = structured_rectangle_mesh(6, 6)
        A = assemble_stiffness(mesh)
        M = assemble_mass(mesh)
        f = assemble_load(mesh, lambda x, y: 1.0)
        dt, theta = 0.05, 0.5
        problem = TimeDependentProblem.from_theta_scheme(mesh, A, M, f, dt=dt, theta=theta)
        raw = (M / dt + theta * A).tocsr()
        interior = mesh.interior_nodes
        got = problem.matrix[np.ix_(interior, interior)].toarray()
        want = raw[np.ix_(interior, interior)].toarray()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        explicit = (M / dt - (1.0 - theta) * A).tocsr()
        assert abs(problem.explicit_operator - explicit).max() == 0.0

    def test_symmetric_mode_yields_symmetric_flag(self, heat_problem):
        assert heat_problem.symmetric
        assert heat_problem.dirichlet_mode == "symmetric"

    def test_row_mode_flags_nonsymmetric(self):
        mesh = structured_rectangle_mesh(6, 6)
        problem = make_problem(
            "convection-diffusion-transient", mesh=mesh, rng=np.random.default_rng(0)
        )
        assert not problem.symmetric
        assert problem.dirichlet_mode == "row"

    def test_callable_initial_state_evaluated_with_bcs_enforced(self):
        mesh = structured_rectangle_mesh(6, 6)
        A = assemble_stiffness(mesh)
        M = assemble_mass(mesh)
        f = assemble_load(mesh, lambda x, y: 0.0)
        problem = TimeDependentProblem.from_theta_scheme(
            mesh, A, M, f, dt=0.1,
            initial_state=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) + 1.0,
        )
        interior = mesh.interior_nodes
        x, y = mesh.nodes[interior].T
        np.testing.assert_allclose(
            problem.initial_state[interior], np.sin(np.pi * x) * np.sin(np.pi * y) + 1.0
        )
        # homogeneous Dirichlet values override the callable on the boundary
        assert np.all(problem.initial_state[mesh.boundary_nodes] == 0.0)

    def test_default_rhs_is_the_first_step(self, heat_problem):
        np.testing.assert_array_equal(
            heat_problem.rhs, heat_problem.step_rhs(heat_problem.initial_state)
        )

    def test_step_rhs_columns_matches_loop(self, heat_problem):
        rng = np.random.default_rng(1)
        U = rng.standard_normal((3, heat_problem.num_dofs))
        B = heat_problem.step_rhs_columns(U)
        for j in range(3):
            np.testing.assert_array_equal(B[j], heat_problem.step_rhs(U[j]))


# --------------------------------------------------------------------------- #
# march: amortised stepping, bit-identical to hand-rolled solves
# --------------------------------------------------------------------------- #
class TestMarch:
    def test_march_is_bit_identical_to_manual_solve_loop(self, heat_problem):
        steps = 5
        session = prepare(heat_problem, DDM_LU)
        result = session.march(steps=steps)
        assert isinstance(result, MarchResult)

        manual = prepare(heat_problem, DDM_LU)
        u = heat_problem.initial_state.copy()
        for _ in range(steps):
            u = manual.solve(heat_problem.step_rhs(u), x0=u.copy()).solution
        assert np.array_equal(result.solution, u)
        assert result.converged
        assert result.num_steps == steps
        assert session.num_setups == 1  # setup paid once for the whole march

    def test_march_stamps_step_info(self, heat_session):
        result = heat_session.march(steps=3)
        for k, step in enumerate(result.results):
            assert step.info["step_index"] == k
            assert step.info["steps"] == 3
            assert step.info["dt"] == 0.02
            assert step.info["theta"] == 1.0
            assert step.info["march_total_s"] == result.elapsed_time
            assert step.info["amortized_step_ms"] == pytest.approx(result.per_step_ms)

    def test_record_states_holds_full_trajectory(self, heat_problem, heat_session):
        result = heat_session.march(steps=4, record_states=True)
        assert result.states.shape == (5, heat_problem.num_dofs)
        np.testing.assert_array_equal(result.states[0], heat_problem.initial_state)
        np.testing.assert_array_equal(result.states[-1], result.solution)

    def test_march_result_summary_is_steps_aware(self, heat_session):
        result = heat_session.march(steps=3)
        text = result.summary()
        assert "3 steps converged" in text
        assert "ms/step amortized" in text
        assert "dt=0.02" in text

    def test_nonsymmetric_transient_marches_through_gmres(self):
        mesh = structured_rectangle_mesh(8, 8)
        problem = make_problem(
            "convection-diffusion-transient", mesh=mesh, rng=np.random.default_rng(5)
        )
        session = prepare(
            problem,
            SolverConfig(preconditioner="ddm-lu", krylov="gmres",
                         subdomain_size=60, tolerance=1e-9),
        )
        result = session.march(steps=4)
        assert result.converged
        assert np.all(np.isfinite(result.solution))


class TestMarchMany:
    def test_trajectories_bit_identical_to_solo_cold_march(self, heat_problem):
        rng = np.random.default_rng(2)
        n = heat_problem.num_dofs
        U0 = heat_problem.initial_state[None, :] + np.vstack(
            [np.zeros(n), rng.standard_normal((2, n))]
        )
        steps = 3
        session = prepare(heat_problem, DDM_LU)
        batch = session.march_many(U0, steps=steps)
        assert len(batch) == 3
        for j, trajectory in enumerate(batch):
            solo = prepare(heat_problem, DDM_LU).march(
                u0=U0[j], steps=steps, warm_start=False
            )
            assert np.array_equal(trajectory.solution, solo.solution)
            assert trajectory.converged

    def test_lockstep_batch_uses_fused_mode(self, heat_problem):
        session = prepare(heat_problem, DDM_LU)
        # the functional entry point is the same code the session method wraps
        batch = march_many(session, np.tile(heat_problem.initial_state, (3, 1)), steps=2)
        assert all(t.mode == "fused" for t in batch)
        assert all(
            step.info["trajectory"] == j
            for j, t in enumerate(batch) for step in t.results
        )

    def test_record_states_per_trajectory(self, heat_problem, heat_session):
        batch = heat_session.march_many(
            np.tile(heat_problem.initial_state, (2, 1)), steps=3, record_states=True
        )
        for trajectory in batch:
            assert trajectory.states.shape == (4, heat_problem.num_dofs)
            np.testing.assert_array_equal(trajectory.states[-1], trajectory.solution)

    def test_multi_solve_summary_reports_amortized_step_cost(self, heat_problem):
        session = prepare(heat_problem, DDM_LU)
        batch = session.march_many(
            np.tile(heat_problem.initial_state, (2, 1)), steps=2
        )
        # the last lockstep batch the session produced carries step info
        b = heat_problem.step_rhs_columns(np.tile(heat_problem.initial_state, (2, 1)))
        multi = session.solve_many(b)
        for r in multi.results:
            r.info["steps"] = 2
            r.info["amortized_step_ms"] = 1.5
        assert "ms/step amortized over 2 steps" in multi.summary()
        assert batch[0].per_step_ms > 0.0


# --------------------------------------------------------------------------- #
# fingerprints: the scheme is part of the cache identity
# --------------------------------------------------------------------------- #
class TestFingerprint:
    @staticmethod
    def _build(dt=0.02, theta=1.0, lumped=False):
        mesh = structured_rectangle_mesh(6, 6)
        return make_problem(
            "heat", mesh=mesh, rng=np.random.default_rng(3),
            dt=dt, theta=theta, lumped=lumped,
        )

    def test_identical_builds_share_a_fingerprint(self):
        assert self._build().fingerprint() == self._build().fingerprint()

    def test_dt_theta_and_lumping_change_the_fingerprint(self):
        prints = {
            self._build().fingerprint(),
            self._build(dt=0.01).fingerprint(),
            self._build(theta=0.5).fingerprint(),
            self._build(lumped=True).fingerprint(),
        }
        assert len(prints) == 4

    def test_steady_problem_fingerprint_has_empty_extra(self, random_problem):
        assert random_problem._fingerprint_extra() == b""
        assert isinstance(random_problem.fingerprint(), str)


# --------------------------------------------------------------------------- #
# shared memory: time-dependent problems (2D and 3D) cross process boundaries
# --------------------------------------------------------------------------- #
class TestShmRoundtrip:
    def _roundtrip(self, problem):
        from repro.solvers import problem_from_shm, problem_to_shm

        bundle = problem_to_shm(problem)
        try:
            clone = problem_from_shm(bundle.manifest)
            try:
                assert isinstance(clone, TimeDependentProblem)
                assert clone.fingerprint() == problem.fingerprint()
                assert clone.dt == problem.dt and clone.theta == problem.theta
                assert clone.lumped_mass == problem.lumped_mass
                np.testing.assert_array_equal(clone.step_load, problem.step_load)
                np.testing.assert_array_equal(clone.initial_state, problem.initial_state)
                assert abs(clone.explicit_operator - problem.explicit_operator).max() == 0.0
                # the clone still marches (read-only shm arrays are copied)
                result = prepare(clone, DDM_LU).march(steps=2)
                assert result.converged
            finally:
                clone._shm_bundle.close()
        finally:
            bundle.close()

    def test_heat_2d_roundtrip(self, heat_problem):
        self._roundtrip(heat_problem)

    def test_heat_3d_roundtrip(self):
        problem = make_problem(
            "heat3d", rng=np.random.default_rng(0), target_nodes=125
        )
        assert problem.mesh.dim == 3
        self._roundtrip(problem)


# --------------------------------------------------------------------------- #
# convergence orders against the exact semi-discrete solution
# --------------------------------------------------------------------------- #
class TestConvergenceOrders:
    """θ-scheme errors against ``u(T) = A⁻¹f + e^{−M⁻¹A·T}(u0 − A⁻¹f)``.

    The exact solution of the semi-discrete interior system ``M u' + A u = f``
    (computed with a dense matrix exponential) isolates the *time* error:
    halving dt must halve the backward-Euler error (O(dt)) and quarter the
    Crank–Nicolson error (O(dt²)).
    """

    @classmethod
    def _errors(cls, theta, steps_list, T=0.1):
        mesh = structured_rectangle_mesh(8, 8)
        A = assemble_stiffness(mesh)
        M = assemble_mass(mesh)
        f = assemble_load(mesh, lambda x, y: 1.0 + x)
        u0 = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)  # noqa: E731

        interior = mesh.interior_nodes
        Ai = A[np.ix_(interior, interior)].toarray()
        Mi = M[np.ix_(interior, interior)].toarray()
        fi = f[interior]
        u0i = u0(*mesh.nodes[interior].T)
        steady = np.linalg.solve(Ai, fi)
        exact = steady + scipy.linalg.expm(
            -np.linalg.solve(Mi, Ai) * T
        ) @ (u0i - steady)

        errors = []
        for steps in steps_list:
            problem = TimeDependentProblem.from_theta_scheme(
                mesh, A, M, f, dt=T / steps, theta=theta, initial_state=u0
            )
            session = prepare(
                problem,
                SolverConfig(preconditioner="none", krylov="cg",
                             tolerance=1e-13, max_iterations=2000),
            )
            result = session.march(steps=steps)
            assert result.converged
            errors.append(
                float(np.max(np.abs(result.solution[interior] - exact)))
            )
        return errors

    def test_backward_euler_is_first_order(self):
        errors = self._errors(theta=1.0, steps_list=[4, 8, 16])
        ratios = [errors[i] / errors[i + 1] for i in range(2)]
        for ratio in ratios:
            assert 1.6 < ratio < 2.5, (errors, ratios)

    def test_crank_nicolson_is_second_order(self):
        errors = self._errors(theta=0.5, steps_list=[4, 8, 16])
        ratios = [errors[i] / errors[i + 1] for i in range(2)]
        for ratio in ratios:
            assert 3.2 < ratio < 5.0, (errors, ratios)

    def test_crank_nicolson_beats_backward_euler(self):
        be = self._errors(theta=1.0, steps_list=[8])[0]
        cn = self._errors(theta=0.5, steps_list=[8])[0]
        assert cn < be
