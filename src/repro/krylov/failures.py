"""Machine-readable breakdown taxonomy for the Krylov solvers.

Every solver in :mod:`repro.krylov` stamps ``SolveResult.failure_reason`` with
one of these constants when it terminates without converging.  The constants
are plain strings (stable across releases, safe to serialise into serve
responses and logs) rather than an enum so downstream consumers — the
degradation ladder in :mod:`repro.solvers`, the circuit breaker in
:mod:`repro.serve`, alerting pipelines — can match on them without importing
solver internals.

Taxonomy
--------
``non_finite_rhs``
    The right-hand side itself contains NaN/Inf; nothing to solve.
``non_finite_operator``
    A matrix-vector product produced NaN/Inf (corrupted matrix entries).
``non_finite_preconditioner``
    A preconditioner application produced NaN/Inf (e.g. a poisoned GNN
    checkpoint emitting NaN corrections).
``non_finite_residual``
    The residual norm left the representable range (overflow during a
    divergent sweep).
``indefinite_operator``
    CG observed ``pᵀAp ≤ 0``: the operator is not SPD (or round-off destroyed
    positive-definiteness).
``rho_breakdown``
    The CG inner product ``ρ = rᵀz`` vanished with a nonzero residual — the
    classic Lanczos breakdown.
``breakdown``
    GMRES's projected least-squares system is singular.
``stagnation``
    No new best relative residual for ``stagnation_window`` consecutive
    iterations — the iteration is alive but going nowhere.
``max_iterations``
    The iteration cap was reached without meeting the tolerance.

>>> NON_FINITE_PRECONDITIONER
'non_finite_preconditioner'
>>> is_breakdown(RHO_BREAKDOWN), is_breakdown(MAX_ITERATIONS)
(True, False)
>>> describe(STAGNATION)
'no new best relative residual within the stagnation window'
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "NON_FINITE_RHS",
    "NON_FINITE_OPERATOR",
    "NON_FINITE_PRECONDITIONER",
    "NON_FINITE_RESIDUAL",
    "INDEFINITE_OPERATOR",
    "RHO_BREAKDOWN",
    "BREAKDOWN",
    "STAGNATION",
    "MAX_ITERATIONS",
    "FAILURE_REASONS",
    "describe",
    "is_breakdown",
]

NON_FINITE_RHS = "non_finite_rhs"
NON_FINITE_OPERATOR = "non_finite_operator"
NON_FINITE_PRECONDITIONER = "non_finite_preconditioner"
NON_FINITE_RESIDUAL = "non_finite_residual"
INDEFINITE_OPERATOR = "indefinite_operator"
RHO_BREAKDOWN = "rho_breakdown"
BREAKDOWN = "breakdown"
STAGNATION = "stagnation"
MAX_ITERATIONS = "max_iterations"

#: Every reason a solver may stamp, in severity order (hard numerical
#: breakdowns first, soft non-convergence last).
FAILURE_REASONS = (
    NON_FINITE_RHS,
    NON_FINITE_OPERATOR,
    NON_FINITE_PRECONDITIONER,
    NON_FINITE_RESIDUAL,
    INDEFINITE_OPERATOR,
    RHO_BREAKDOWN,
    BREAKDOWN,
    STAGNATION,
    MAX_ITERATIONS,
)

_DESCRIPTIONS = {
    NON_FINITE_RHS: "right-hand side contains non-finite entries",
    NON_FINITE_OPERATOR: "matrix-vector product produced non-finite entries",
    NON_FINITE_PRECONDITIONER: "preconditioner application produced non-finite entries",
    NON_FINITE_RESIDUAL: "residual norm became non-finite",
    INDEFINITE_OPERATOR: "operator is not positive definite (p'Ap <= 0)",
    RHO_BREAKDOWN: "Krylov inner product rho vanished with a nonzero residual",
    BREAKDOWN: "GMRES projected system is singular",
    STAGNATION: "no new best relative residual within the stagnation window",
    MAX_ITERATIONS: "iteration cap reached before the tolerance was met",
}


def describe(reason: Optional[str]) -> str:
    """Human-readable description of a ``failure_reason`` value.

    >>> describe(None)
    'converged'
    >>> describe("not-a-reason")
    'unknown failure'
    """
    if reason is None:
        return "converged"
    return _DESCRIPTIONS.get(reason, "unknown failure")


def is_breakdown(reason: Optional[str]) -> bool:
    """True for hard numerical breakdowns (as opposed to running out of
    iterations or stagnating, which leave a usable partial iterate).

    >>> is_breakdown(None)
    False
    """
    return reason is not None and reason not in (MAX_ITERATIONS, STAGNATION)
