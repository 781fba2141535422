"""Common result object for all iterative solvers.

Every Krylov routine in :mod:`repro.krylov` returns a :class:`SolveResult`
carrying the solution, the iteration count, the full relative-residual history
(the series plotted in the paper's Fig. 5b) and timing information used by the
performance tables (Table III's ``T`` and ``T_gnn``/``T_lu`` columns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..obs.trace import Span

__all__ = ["SolveResult", "apply_preconditioner"]

#: the leaf every Krylov method records per preconditioner application
PRECOND_APPLY = "precond.apply"


def apply_preconditioner(record: Span, apply: Callable[[np.ndarray], np.ndarray],
                         residuals: np.ndarray) -> np.ndarray:
    """The Krylov methods' one preconditioner call site.

    Runs ``apply`` (``M.apply`` on a vector, ``M.apply_columns`` on an
    ``(n, k)`` block) as one ``precond.apply`` leaf of the solve's record,
    with the column count as its ``k`` attribute — whatever the
    preconditioner kind.  ``SolveResult.preconditioner_time`` is the sum of
    these leaves.
    """
    k = 1 if residuals.ndim == 1 else residuals.shape[1]
    return record.measure(PRECOND_APPLY, apply, residuals, attributes={"k": k})


@dataclass
class SolveResult:
    """Outcome of an iterative linear solve.

    Attributes
    ----------
    solution:
        The final iterate.
    converged:
        True if the stopping tolerance was reached within ``max_iterations``.
    iterations:
        Number of iterations performed (matrix-vector products of the Krylov
        loop, not counting the initial residual).
    residual_history:
        Relative residual norms ‖r_k‖/‖b‖, starting with the initial residual.
    elapsed_time:
        Total wall-clock time of the solve, in seconds: the duration of the
        solve's ``krylov.solve`` record.
    preconditioner_time:
        Cumulative wall-clock time spent applying the preconditioner
        (the ``T_lu`` / ``T_gnn`` columns of paper Table III): the sum of
        the record's ``precond.apply`` leaves.
    info:
        Free-form extra information (solver name, tolerance, ...).
    failure_reason:
        ``None`` on convergence; otherwise one of the machine-readable
        constants in :mod:`repro.krylov.failures` saying *why* the iteration
        stopped (non-finite operator/preconditioner output, rho breakdown,
        stagnation, iteration cap, ...).
    """

    solution: np.ndarray
    converged: bool
    iterations: int
    residual_history: List[float] = field(default_factory=list)
    elapsed_time: float = 0.0
    preconditioner_time: float = 0.0
    info: Dict[str, object] = field(default_factory=dict)
    failure_reason: Optional[str] = None

    @property
    def failed(self) -> bool:
        """True when the solve terminated with a stamped failure reason.

        >>> import numpy as np
        >>> SolveResult(np.zeros(2), True, 3).failed
        False
        >>> SolveResult(np.zeros(2), False, 3, failure_reason="stagnation").failed
        True
        """
        return self.failure_reason is not None

    @property
    def krylov_time(self) -> float:
        """Wall-clock time spent outside the preconditioner.

        Both terms are reads of one record: ``elapsed_time`` is the duration
        of the solve's ``krylov.solve`` span and ``preconditioner_time`` the
        sum of its ``precond.apply`` leaves (one per application, recorded
        by :func:`apply_preconditioner`).  The remainder is the Krylov
        machinery itself (matvecs, orthogonalisation, norms).

        >>> import numpy as np
        >>> r = SolveResult(np.zeros(2), True, 3, elapsed_time=1.5, preconditioner_time=1.2)
        >>> round(r.krylov_time, 10)
        0.3
        """
        return max(self.elapsed_time - self.preconditioner_time, 0.0)

    @property
    def final_relative_residual(self) -> float:
        """The last entry of the residual history (or inf if empty).

        >>> import numpy as np
        >>> r = SolveResult(np.zeros(2), True, 3, residual_history=[1.0, 0.1, 1e-7])
        >>> r.final_relative_residual
        1e-07
        """
        return self.residual_history[-1] if self.residual_history else float("inf")

    def summary(self) -> str:
        """One-line human-readable summary.

        >>> import numpy as np
        >>> r = SolveResult(np.zeros(2), True, 3, residual_history=[1e-7], info={"solver": "pcg"})
        >>> r.summary().startswith("pcg: converged in 3 iterations")
        True
        """
        status = "converged" if self.converged else "NOT converged"
        if not self.converged and self.failure_reason is not None:
            status += f" ({self.failure_reason})"
        return (
            f"{self.info.get('solver', 'solver')}: {status} in {self.iterations} iterations, "
            f"relative residual {self.final_relative_residual:.3e}, "
            f"time {self.elapsed_time:.4f}s (preconditioner {self.preconditioner_time:.4f}s)"
        )
