"""Observability-overhead gate: tracing on must cost ≤ 2%.

One prepared ``ddm-lu`` session serves the same seeded right-hand-side pool
with tracing toggled OFF and ON *back-to-back per solve*, so the machine state inside each comparison is as identical as the
OS allows.  Per right-hand side the statistic is ``min(on reps) / min(off
reps)`` — the min filters scheduler preemption and GC pauses, which hit both
modes equally but not simultaneously.  Each of the ``ROUNDS`` alternation
rounds yields a median per-RHS ratio; the gate fires on the **best (minimum)
round median**: background interference only inflates some rounds, while a
genuine instrumentation overhead shifts *every* round (the design is paired),
so the cleanest round is the least-contaminated estimate and still catches
real regressions.  Machine speed cancels by construction (both arms of every
ratio run within milliseconds of each other), so there is no baseline file.
The operator (``target_n=2000``) is the representative serve problem size.

Exits 1 when the best round median exceeds ``LIMIT``.  Takes no arguments::

    PYTHONPATH=src python benchmarks/check_obs_overhead.py
"""

from __future__ import annotations

import sys
import time
from statistics import median

import numpy as np

from repro.obs import trace as obs_trace
from repro.serve.problems import build_problem_from_spec
from repro.solvers import SolverConfig, prepare

#: largest allowed tracing-on / tracing-off ratio (≤ 2% overhead)
LIMIT = 1.02
#: paired alternation rounds; the gate reads the best round's median
ROUNDS = 5
#: right-hand sides per round, and off/on repetitions per right-hand side
POOL_SIZE = 10
REPS = 4
TARGET_N = 2000


def best_round_ratio() -> float:
    """The minimum over rounds of the median per-RHS on/off time ratio."""
    problem = build_problem_from_spec({"family": "poisson", "target_n": TARGET_N, "seed": 0})
    config = SolverConfig(preconditioner="ddm-lu", subdomain_size=80, tolerance=1e-8, seed=0)
    session = prepare(problem, config)
    rng = np.random.default_rng(7)
    pool = [rng.normal(size=problem.num_dofs) for _ in range(POOL_SIZE)]
    for b in pool[:4]:  # warm caches/allocators before any timed solve
        session.solve(b)

    def timed(observing: bool, b) -> float:
        if observing:
            obs_trace.enable_tracing()
            start = time.perf_counter()
            with obs_trace.trace_root("bench.request"):
                session.solve(b)
            elapsed = time.perf_counter() - start
            obs_trace.disable_tracing()
            return elapsed
        start = time.perf_counter()
        session.solve(b)
        return time.perf_counter() - start

    print(f"[obs overhead] tracing on vs off, gated at {LIMIT:g}x "
          f"(n={problem.num_dofs}, {POOL_SIZE} rhs x {REPS} reps x {ROUNDS} rounds)")
    round_medians = []
    try:
        for round_index in range(ROUNDS):
            round_ratios = []
            for b in pool:
                offs, ons = [], []
                for _ in range(REPS):
                    offs.append(timed(False, b))
                    ons.append(timed(True, b))
                round_ratios.append(min(ons) / min(offs))
            round_medians.append(median(round_ratios))
            print(f"  round {round_index}: median per-RHS ratio {round_medians[-1]:.3f}x")
    finally:
        obs_trace.disable_tracing()
    return min(round_medians)


def main() -> int:
    overall = best_round_ratio()
    if overall > LIMIT:
        print(f"obs overhead FAIL: best round median {overall:.3f}x > {LIMIT:g}x")
        return 1
    print(f"obs overhead ok: best round median {overall:.3f}x (limit {LIMIT:g}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
