"""The flexible-CG direction update shared by single-RHS and lockstep PCG.

The Fletcher–Reeves update ``p = z + (ρ₊/ρ) p`` is A-orthogonal to the
previous direction only when ``z = M r`` for a *fixed linear SPD* ``M``.  A
preconditioner that declares ``linear = False`` (the DSS of
:mod:`repro.core.ddm_gnn` is a nonlinear map) gets Notay's FCG(m) instead
(SIAM J. Sci. Comput. 22, 2000): every new direction is explicitly
A-orthogonalised against the last ``m`` stored ones,

    ``p = z − Σ_j (zᵀ q_j / d_j) p_j``,   ``q_j = A p_j``,  ``d_j = p_jᵀ q_j``.

The step length ``α = ρ / pᵀq`` with ``ρ = rᵀz`` stays valid: the sliding
windows nest (``W_{i+1} \\ {i} ⊂ W_i``), so by induction ``r`` is orthogonal
to every stored ``p_j`` and ``pᵀr = zᵀr``.  For a linear SPD ``M`` the extra
coefficients vanish in exact arithmetic and FCG reduces to PCG.

:class:`DirectionWindow` is the **only** implementation of that update.  It
works on F-ordered ``(n, a)`` column blocks; ``cg.py`` calls it with ``a = 1``
and ``block.py`` with its active columns, so ``lockstep ≡ sequential`` holds
by construction: per column the same contiguous dots, the same elementwise
multiply–subtract, in the same (oldest-first) order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Sequence, Tuple

import numpy as np

__all__ = ["FLEXIBLE_WINDOW", "DirectionWindow", "recurrence_of"]

#: directions kept by the flexible recurrence.  8 is the smallest window with
#: the full iteration saving at the paper's Table III tolerance (DESIGN.md,
#: "Krylov recurrence", has the sweep) at ≤ 2·8·n·k·8 bytes of history.
FLEXIBLE_WINDOW = 8


def recurrence_of(preconditioner) -> str:
    """``"standard"`` for a linear preconditioner, ``"flexible"`` otherwise.

    Duck-typed preconditioners without a ``linear`` attribute are taken to be
    linear, like :class:`repro.ddm.asm.Preconditioner` itself.
    """
    return "standard" if getattr(preconditioner, "linear", True) else "flexible"


class DirectionWindow:
    """The last :data:`FLEXIBLE_WINDOW` triples ``(P_j, Q_j, d_j)`` of a solve.

    Blocks are kept by reference (the PCG loops rebind ``P`` and ``Q`` every
    iteration and never write into the old arrays), so the history costs no
    copies until a lockstep compaction slices it.
    """

    def __init__(self) -> None:
        self._triples: Deque[Tuple[np.ndarray, np.ndarray, np.ndarray]] = deque(
            maxlen=FLEXIBLE_WINDOW
        )

    def push(self, P: np.ndarray, Q: np.ndarray, d: np.ndarray) -> None:
        """Remember direction block ``P`` with ``Q = A P`` and ``d_i = P_iᵀQ_i``."""
        self._triples.append((P, Q, d))

    def compact(self, keep: Sequence[int]) -> None:
        """Keep only columns ``keep`` of every stored block (exact copies)."""
        self._triples = deque(
            ((np.asfortranarray(P[:, keep]), np.asfortranarray(Q[:, keep]), d[keep])
             for P, Q, d in self._triples),
            maxlen=FLEXIBLE_WINDOW,
        )

    def next_direction(self, Z: np.ndarray) -> np.ndarray:
        """``Z`` A-orthogonalised against the stored directions, oldest first."""
        columns = range(Z.shape[1])
        direction = Z.copy(order="F")
        for P, Q, d in self._triples:
            coeff = np.array([Z[:, i] @ Q[:, i] for i in columns]) / d
            direction -= coeff[None, :] * P
        return direction
