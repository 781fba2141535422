"""Perf-regression gate: compare a fresh bench_perf run against the baseline.

CI's perf-smoke job runs ``bench_perf.py --smoke`` against the cached trained
checkpoint and then calls this script to compare the fresh records with the
committed ``BENCH_perf.json``.  The check fails (exit 1) when
``apply_ms_p50``, ``total_s`` or ``resolve_ms_p50`` (the amortised
repeated-RHS serving cost of a prepared session) regresses more than
``--threshold`` (default 2×) for any solver; a metric absent from either
side of a record pair (e.g. ``resolve_ms_p50`` on ``ddm-gnn-fused`` or on a
pre-split baseline) is skipped, not failed.

The comparison is deliberately noise-tolerant:

* records are matched per solver to the baseline record of the **nearest
  problem size** (the smoke mesh is smaller than the committed full-scale
  sizes, which only adds headroom);
* every raw ratio is divided by the **median ratio across all solver/metric
  pairs** before the threshold is applied.  A uniformly slower machine (CI
  runners vs the machine that produced the baseline) shifts all ratios by the
  same factor, which the normalisation cancels — the gate only fires when one
  solver regresses *relative to the others*, which is what a code regression
  looks like.  A uniform slowdown of every solver at once is indistinguishable
  from slower hardware and is intentionally not gated.

Records are matched per ``(solver, precision)`` — f32 ddm-gnn records gate
against f32 baselines only.  On top of the latency gates, ``--fresh`` runs an
**iters-drift gate keyed on precision mode**: the f32 ddm-gnn record at each
problem size must not need more than ``--iters-drift-limit`` (default 1.2×)
the iterations of its f64 sibling in the *same run* — the bound the precision
tests (tests/test_solvers.py::TestPrecision) assert on the smoke sizes.

The gate also covers the serving layer: ``--serve-fresh`` compares a fresh
``bench_serve.py`` run against the committed ``BENCH_serve.json``.  Serve
records are matched exactly on ``(solver, clients, batching)`` and gated on
``lat_ms_p50`` with the same median machine-speed normalisation (its own
pool — serving latency and per-apply cost drift differently).  Everything is
missing-metric tolerant: an absent serve baseline, an unmatched cell or a
missing metric is reported and skipped, never failed, so older baselines keep
gating what they can.

``--march-fresh`` gates the time-marching subsystem against a fresh
``bench_march.py`` run: every ``march-ddm-lu`` record must reach
``--march-min`` (default 5×) between re-paying ``prepare()`` per step and the
amortised marched step — a within-run ratio, so no machine normalisation is
needed — and its trajectory must be bit-identical to the fresh-session one.
March latency (``step_ms_p50``/``total_s``) additionally gates against the
committed baseline's march records through the usual normalised pool.

Finally, ``--scaling-gate W1_JSON WN_JSON`` gates multi-process sharded
serving: it compares an N-worker ``bench_serve.py --workers N`` run against a
1-worker run from the *same machine and commit* and requires the best
eligible cell (``clients >= workers``) to reach ``--scaling-min`` (default
2.5×) the single-process throughput — but only when the scaled run recorded
``cpus >= workers``.  On machines with fewer cores than workers the bar
degrades to a catastrophe floor (``--scaling-floor``, default 0.5×):
process-level speedup physically requires cores, and N processes
time-slicing one core legitimately pay pipe/scheduling overhead — the floor
only catches sharding that *collapses* (deadlock, serialising through one
shard), not honest contention.

``--obs-overhead`` gates the observability layer's cost promise: tracing +
convergence telemetry ON must stay within ``--obs-overhead-limit`` (default
1.02, i.e. ≤2%) of tracing OFF on the amortised repeated-RHS resolve path.
The measurement is self-contained and paired — the same prepared session
alternates off/on phases over the same right-hand-side pool, and the gate is
the **median of per-pair ratios** — so machine speed cancels by construction
and a single noisy pair cannot fail the gate.

Usage::

    python benchmarks/check_perf.py --fresh /tmp/perf_smoke.json
    python benchmarks/check_perf.py --fresh new.json --baseline BENCH_perf.json --threshold 2.0
    python benchmarks/check_perf.py --serve-fresh /tmp/serve_smoke.json
    python benchmarks/check_perf.py --fresh new.json --serve-fresh serve.json
    python benchmarks/check_perf.py --scaling-gate serve_w1.json serve_w4.json
    python benchmarks/check_perf.py --march-fresh /tmp/march_smoke.json
    python benchmarks/check_perf.py --obs-overhead
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
DEFAULT_SERVE_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
#: serve metrics gated per (solver, clients, batching) cell
SERVE_GATED_METRICS = ("lat_ms_p50",)
#: gated metrics; resolve_ms_p50 (the amortised repeated-RHS serving cost of a
#: prepared SolverSession) and step_ms_p50 (the amortised per-step cost of a
#: time march) are skipped for records that don't carry them (e.g.
#: ddm-gnn-fused, steady-solver records, or baselines predating either split)
GATED_METRICS = ("apply_ms_p50", "total_s", "resolve_ms_p50", "step_ms_p50")


def load_records(path: Path) -> List[Dict]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    records = payload.get("records", [])
    if not records:
        raise SystemExit(f"error: no records in {path}")
    return records


def record_precision(record: Dict) -> str:
    """The record's precision mode; baselines predating the knob are f64."""
    return str(record.get("precision", "f64"))


def nearest_baseline(record: Dict, baseline: List[Dict]) -> Optional[Dict]:
    """The baseline record for the same solver (and precision mode) with the
    closest problem size — an f32 record must never be compared against an
    f64 baseline or the precision speedup would read as a regression."""
    candidates = [b for b in baseline
                  if b["solver"] == record["solver"]
                  and record_precision(b) == record_precision(record)]
    if not candidates:
        return None
    return min(candidates, key=lambda b: abs(math.log(b["n"] / record["n"])))


def collect_ratios(fresh: List[Dict], baseline: List[Dict]) -> List[Tuple[str, int, str, float]]:
    """(solver, n, metric, fresh/baseline ratio) for every gated pair."""
    ratios = []
    for record in fresh:
        label = record["solver"]
        if record_precision(record) != "f64":
            label += f"[{record_precision(record)}]"
        matched = nearest_baseline(record, baseline)
        if matched is None:
            print(f"note: solver '{label}' has no baseline record — skipped")
            continue
        for metric in GATED_METRICS:
            if matched.get(metric) is None or record.get(metric) is None:
                continue  # metric absent on one side (older baseline / ref record)
            base_value = float(matched[metric])
            fresh_value = float(record[metric])
            if base_value <= 0.0:
                continue
            ratios.append((label, int(record["n"]), metric, fresh_value / base_value))
    return ratios


def median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def serve_cell_key(record: Dict) -> Tuple[str, int, bool, int, str]:
    """Serve cells match on (solver, clients, batching, workers, proto).

    Baselines predating the sharded-serving axis default to ``workers=1`` /
    ``proto="json"`` — exactly what those records measured — so the latency
    gate keeps matching them against fresh single-process runs and never
    compares a 4-process binary cell to a 1-process JSON one.
    """
    return (str(record.get("solver")), int(record.get("clients", 0)),
            bool(record.get("batching")), int(record.get("workers", 1)),
            str(record.get("proto", "json")))


def collect_serve_ratios(fresh: List[Dict], baseline: List[Dict]) -> List[Tuple[str, int, str, float]]:
    """(cell label, clients, metric, ratio) for every matched serve cell.

    Cells match exactly on (solver, clients, batching) and, like the perf
    gate, to the baseline record of the **nearest problem size** — serving
    latency scales with n, so comparing a full-sweep run against a smoke
    baseline must not read the size difference as a regression.
    """
    by_cell: Dict[Tuple[str, int, bool], List[Dict]] = {}
    for record in baseline:
        by_cell.setdefault(serve_cell_key(record), []).append(record)
    ratios = []
    for record in fresh:
        candidates = by_cell.get(serve_cell_key(record))
        if not candidates:
            print(f"note: serve cell {serve_cell_key(record)} has no baseline record — skipped")
            continue
        fresh_n = int(record.get("n", 0)) or 1
        matched = min(candidates,
                      key=lambda b: abs(math.log(max(int(b.get("n", 0)), 1) / fresh_n)))
        for metric in SERVE_GATED_METRICS:
            if matched.get(metric) is None or record.get(metric) is None:
                continue
            base_value = float(matched[metric])
            fresh_value = float(record[metric])
            if base_value <= 0.0:
                continue
            label = f"{record['solver']}/c{record['clients']}/" \
                    f"{'batched' if record.get('batching') else 'single'}"
            ratios.append((label, int(record["clients"]), metric, fresh_value / base_value))
    return ratios


def gate_precision_drift(records: List[Dict], limit: float) -> List[Tuple]:
    """The iters-drift gate, keyed on precision mode.

    float32 inference may cost Krylov iterations, but no more than ``limit``x
    the f64 count at the same problem size.  Unlike the latency gates this
    compares the fresh run against *itself* (f32 vs f64 records of the same
    ``n``), so it needs no machine-speed normalisation and no baseline —
    iteration counts are deterministic per (problem, model, precision).
    """
    by_n: Dict[int, Dict[str, int]] = {}
    for record in records:
        if record.get("solver") == "ddm-gnn" and record.get("iters") is not None:
            by_n.setdefault(int(record["n"]), {})[record_precision(record)] = \
                int(record["iters"])
    failures = []
    pairs = {n: p for n, p in by_n.items() if "f64" in p and "f32" in p}
    if not pairs:
        print("\n[precision drift] no f64/f32 ddm-gnn iteration pairs — gate skipped")
        return failures
    print(f"\n[precision drift] f32 iterations gated at {limit:g}x f64, per size")
    print(f"{'n':>9} {'f64 iters':>10} {'f32 iters':>10} {'drift':>8}  verdict")
    for n, by_precision in sorted(pairs.items()):
        f64_iters, f32_iters = by_precision["f64"], by_precision["f32"]
        drift = f32_iters / max(f64_iters, 1)
        verdict = "ok"
        if f32_iters > math.ceil(limit * f64_iters):
            verdict = f"DRIFT (> {limit:g}x)"
            failures.append(("ddm-gnn[f32]", n, "iters", drift))
        print(f"{n:>9} {f64_iters:>10} {f32_iters:>10} {drift:>7.2f}x  {verdict}")
    return failures


def gate_scaling(base_path: Path, scaled_path: Path, min_ratio: float,
                 floor: float) -> List[Tuple]:
    """The multi-process scaling gate: N-worker vs 1-worker throughput.

    Matches cells on (solver, clients, batching) across the two runs and
    takes the **best** throughput ratio over cells with enough concurrency
    to feed every worker (clients >= workers) — the acceptance criterion is
    "N workers reach min_ratio× on at least one smoke cell", not on every
    cell (1-client cells cannot scale by construction).

    The full ``min_ratio`` bar only applies when the scaled run actually had
    ``cpus >= workers``: scaling is a property of the code *and* the
    machine, and a 1-core container cannot demonstrate 4-process speedup no
    matter how good the code is.  With fewer cores than workers the gate
    degrades to a catastrophe floor — time-slicing N processes on one core
    legitimately costs pipe/scheduling overhead, so the floor only fires
    when sharding *collapses* (deadlock, everything serialising through a
    single shard) rather than merely contends.
    """
    base_payload = json.loads(base_path.read_text(encoding="utf-8"))
    scaled_payload = json.loads(scaled_path.read_text(encoding="utf-8"))
    base_records = base_payload.get("records", [])
    scaled_records = scaled_payload.get("records", [])
    workers = int(scaled_payload.get("workers")
                  or max((int(r.get("workers", 1)) for r in scaled_records), default=1))
    cpus = int(scaled_payload.get("cpus")
               or next((int(r.get("cpus", 1)) for r in scaled_records), 1))
    if workers < 2:
        print(f"note: {scaled_path} is not a multi-worker run — scaling gate skipped")
        return []

    def plain_key(record: Dict) -> Tuple[str, int, bool]:
        return (str(record.get("solver")), int(record.get("clients", 0)),
                bool(record.get("batching")))

    base_by_cell = {plain_key(record): record for record in base_records}
    enough_cores = cpus >= workers
    required = min_ratio if enough_cores else floor
    regime = (f"cpus={cpus} >= workers={workers}: full {min_ratio:g}x scaling bar"
              if enough_cores else
              f"cpus={cpus} < workers={workers}: catastrophe floor {floor:g}x only")
    print(f"\n[scaling] {workers}-worker vs 1-worker throughput ({regime})")
    print(f"{'cell':<28} {'w1 rps':>9} {'w' + str(workers) + ' rps':>9} {'ratio':>7}  note")
    best = None
    for record in scaled_records:
        matched = base_by_cell.get(plain_key(record))
        if matched is None:
            print(f"note: scaled cell {plain_key(record)} has no 1-worker twin — skipped")
            continue
        base_rps = float(matched.get("throughput_rps") or 0.0)
        scaled_rps = float(record.get("throughput_rps") or 0.0)
        if base_rps <= 0.0:
            continue
        ratio = scaled_rps / base_rps
        eligible = int(record.get("clients", 0)) >= workers
        label = f"{record['solver']}/c{record['clients']}/" \
                f"{'batched' if record.get('batching') else 'single'}"
        note = "" if eligible else f"(clients < {workers}: informational)"
        print(f"{label:<28} {base_rps:>9.2f} {scaled_rps:>9.2f} {ratio:>6.2f}x  {note}")
        if eligible and (best is None or ratio > best[1]):
            best = (label, ratio)
    if best is None:
        print("error: no scaled cell with clients >= workers matched a 1-worker twin")
        return [("scaling", workers, "throughput_rps", 0.0)]
    label, ratio = best
    if ratio < required:
        print(f"scaling FAIL: best eligible cell {label} reached {ratio:.2f}x "
              f"(required {required:g}x)")
        return [(f"scaling:{label}", workers, "throughput_rps", ratio)]
    print(f"scaling ok: best eligible cell {label} reached {ratio:.2f}x "
          f"(required {required:g}x)")
    return []


def gate_march(march_path: Path, baseline_path: Path, min_speedup: float,
               threshold: float) -> List[Tuple]:
    """The time-marching gate: amortisation must pay, bit-for-bit.

    Self-contained within the fresh run (machine-independent — both sides of
    the ratio ran on the same machine in the same process):

    * every ``march-ddm-lu`` record must reach ``min_speedup``× between its
      ``fresh_ms_p50`` (re-paying ``prepare()`` every step) and its amortised
      ``step_ms_p50`` — the acceptance criterion of the setup/solve split
      applied to time marching;
    * its ``bit_identical`` flag must be true: the marched trajectory and the
      fresh-session trajectory are the same solve sequence, so any divergence
      is a determinism bug, not noise.

    On top of that, march latency metrics (``step_ms_p50``/``total_s``) gate
    against the committed baseline's march records through the usual
    machine-normalised pool when the baseline carries any.
    """
    records = load_records(march_path)
    march_records = [r for r in records
                     if str(r.get("solver", "")).startswith("march")]
    if not march_records:
        print(f"error: no march records in {march_path}")
        return [("march", 0, "records", 0.0)]
    failures = []
    print(f"\n[march] amortised step vs fresh prepare()+solve, gated at {min_speedup:g}x")
    print(f"{'record':<16} {'n':>7} {'step_ms':>9} {'fresh_ms':>10} {'speedup':>8}  verdict")
    for record in march_records:
        label = str(record["solver"])
        n = int(record.get("n", 0))
        speedup = record.get("amortized_speedup")
        if speedup is None:
            continue  # the ddm-gnn rider record has no fresh baseline
        verdict = "ok"
        if record.get("bit_identical") is not True:
            verdict = "NOT BIT-IDENTICAL"
            failures.append((label, n, "bit_identical", 0.0))
        elif float(speedup) < min_speedup:
            verdict = f"TOO SLOW (< {min_speedup:g}x)"
            failures.append((label, n, "amortized_speedup", float(speedup)))
        print(f"{label:<16} {n:>7} {record.get('step_ms_p50', 0):>9.2f} "
              f"{record.get('fresh_ms_p50', 0):>10.2f} {float(speedup):>7.1f}x  {verdict}")

    if baseline_path.exists():
        baseline_march = [r for r in load_records(baseline_path)
                          if str(r.get("solver", "")).startswith("march")]
        if baseline_march:
            ratios = collect_ratios(march_records, baseline_march)
            if ratios:
                failures += gate(ratios, threshold, "march latency")
        else:
            print("note: baseline has no march records — march latency gate skipped")
    return failures


def gate_obs_overhead(limit: float, pairs: int = 5, pool_size: int = 10,
                      target_n: int = 2000, reps: int = 4) -> List[Tuple]:
    """The observability-overhead gate: tracing on ≤ ``limit``× tracing off.

    Self-contained (no baseline file): one prepared ``ddm-lu`` session serves
    the same seeded right-hand-side pool with tracing+telemetry toggled OFF
    and ON *back-to-back per solve*, so the machine state inside each
    comparison is as identical as the OS allows.  Per right-hand side the
    statistic is ``min(on reps) / min(off reps)`` — the min filters scheduler
    preemption and GC pauses, which hit both modes equally but not
    simultaneously.  Each of the ``pairs`` alternation rounds yields a median
    per-RHS ratio; the gate fires on the **best (minimum) round median**:
    background interference only inflates some rounds, while a genuine
    instrumentation overhead shifts *every* round (the design is paired), so
    the cleanest round is the least-contaminated estimate and still catches
    real regressions.  Machine speed cancels by construction (both arms of
    every ratio run within milliseconds of each other).  The problem size
    matches the ``bench_serve.py`` default (``target_n=2000``) so the ratio
    is representative of the benched ``resolve_ms_p50`` path.
    """
    import numpy as np

    from repro.obs import events as obs_events
    from repro.obs import trace as obs_trace
    from repro.serve.problems import build_problem_from_spec
    from repro.solvers import SolverConfig, prepare

    problem = build_problem_from_spec(
        {"family": "poisson", "target_n": target_n, "seed": 0})
    config = SolverConfig(preconditioner="ddm-lu", subdomain_size=80,
                          tolerance=1e-8, seed=0)
    session = prepare(problem, config)
    rng = np.random.default_rng(7)
    pool = [rng.normal(size=problem.num_dofs) for _ in range(max(4, pool_size))]
    for b in pool[:4]:  # warm caches/allocators before any timed solve
        session.solve(b)

    def timed(observing: bool, b) -> float:
        if observing:
            obs_trace.enable_tracing()
            session.config.obs = {"convergence": True}
            start = time.perf_counter()
            with obs_trace.trace_root("bench.request"):
                session.solve(b)
            elapsed = time.perf_counter() - start
            obs_trace.disable_tracing()
            session.config.obs = None
            return elapsed
        start = time.perf_counter()
        session.solve(b)
        return time.perf_counter() - start

    print(f"\n[obs overhead] tracing+telemetry on vs off, gated at {limit:g}x "
          f"(n={problem.num_dofs}, {len(pool)} rhs x {reps} reps x "
          f"{max(1, pairs)} rounds)")
    round_medians = []
    try:
        for round_index in range(max(1, pairs)):
            round_ratios = []
            for b in pool:
                offs, ons = [], []
                for _ in range(max(1, reps)):
                    offs.append(timed(False, b))
                    ons.append(timed(True, b))
                round_ratios.append(min(ons) / min(offs))
            round_medians.append(median(round_ratios))
            print(f"  round {round_index}: median per-RHS ratio "
                  f"{round_medians[-1]:.3f}x")
    finally:
        obs_trace.disable_tracing()
        session.config.obs = None
        obs_events.get_ring().clear()
    overall = min(round_medians)
    if overall > limit:
        print(f"obs overhead FAIL: best round median {overall:.3f}x > {limit:g}x "
              f"({len(round_medians)} rounds)")
        return [("obs-overhead", problem.num_dofs, "resolve_ms_p50", overall)]
    print(f"obs overhead ok: best round median {overall:.3f}x "
          f"(limit {limit:g}x, {len(round_medians)} rounds)")
    return []


def gate(ratios: List[Tuple[str, int, str, float]], threshold: float, title: str) -> List[Tuple]:
    """Print the normalised table for one ratio pool; returns its failures."""
    machine_factor = median([ratio for _, _, _, ratio in ratios])
    print(f"\n[{title}] machine-speed factor "
          f"(median raw ratio over {len(ratios)} pairs): {machine_factor:.3f}")
    print(f"{'record':<26} {'n/clients':>9} {'metric':<14} {'raw':>8} {'normalised':>11}  verdict")
    failures = []
    for label, size, metric, ratio in ratios:
        normalised = ratio / machine_factor if machine_factor > 0 else ratio
        verdict = "ok"
        if normalised > threshold:
            verdict = f"REGRESSION (> {threshold:g}x)"
            failures.append((label, size, metric, normalised))
        print(f"{label:<26} {size:>9} {metric:<14} {ratio:>7.2f}x {normalised:>10.2f}x  {verdict}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", type=Path, default=None,
                        help="bench_perf JSON output of the run under test")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help=f"committed baseline (default: {DEFAULT_BASELINE})")
    parser.add_argument("--serve-fresh", type=Path, default=None,
                        help="bench_serve JSON output of the run under test")
    parser.add_argument("--serve-baseline", type=Path, default=DEFAULT_SERVE_BASELINE,
                        help=f"committed serve baseline (default: {DEFAULT_SERVE_BASELINE})")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="maximum allowed machine-normalised regression ratio (default 2.0)")
    parser.add_argument("--iters-drift-limit", type=float, default=1.2,
                        help="maximum f32/f64 ddm-gnn iteration-count ratio at the same "
                             "problem size (default 1.2; applied to --fresh records)")
    parser.add_argument("--march-fresh", type=Path, default=None,
                        help="bench_march JSON output of the run under test "
                             "(gates amortized_speedup, bit-identity and march latency)")
    parser.add_argument("--march-min", type=float, default=5.0,
                        help="minimum fresh/step amortised speedup each march-ddm-lu "
                             "record must reach (default 5.0)")
    parser.add_argument("--scaling-gate", type=Path, nargs=2, default=None,
                        metavar=("W1_JSON", "WN_JSON"),
                        help="gate N-worker throughput against a 1-worker run "
                             "from the same machine (bench_serve outputs)")
    parser.add_argument("--scaling-min", type=float, default=2.5,
                        help="minimum N-worker/1-worker throughput ratio when the "
                             "machine has cpus >= workers (default 2.5)")
    parser.add_argument("--scaling-floor", type=float, default=0.5,
                        help="catastrophe throughput floor applied instead of "
                             "--scaling-min when cpus < workers (default 0.5)")
    parser.add_argument("--obs-overhead", action="store_true",
                        help="gate the tracing+telemetry overhead on the amortised "
                             "resolve path (self-contained paired measurement)")
    parser.add_argument("--obs-overhead-limit", type=float, default=1.02,
                        help="maximum tracing-on/tracing-off median pair ratio "
                             "(default 1.02, i.e. <= 2%% overhead)")
    parser.add_argument("--obs-overhead-pairs", type=int, default=5,
                        help="number of off/on measurement pairs (default 5)")
    args = parser.parse_args(argv)

    if args.fresh is None and args.serve_fresh is None and args.scaling_gate is None \
            and args.march_fresh is None and not args.obs_overhead:
        parser.error("provide --fresh, --serve-fresh, --march-fresh, "
                     "--scaling-gate and/or --obs-overhead")

    failures = []

    if args.fresh is not None:
        fresh = load_records(args.fresh)
        baseline = load_records(args.baseline)
        ratios = collect_ratios(fresh, baseline)
        if not ratios:
            print("error: no comparable solver records between fresh run and baseline")
            return 1
        failures += gate(ratios, args.threshold, "perf")
        failures += gate_precision_drift(fresh, args.iters_drift_limit)

    if args.serve_fresh is not None:
        if not args.serve_baseline.exists():
            print(f"note: serve baseline {args.serve_baseline} missing — serve gate skipped")
        else:
            serve_fresh = load_records(args.serve_fresh)
            serve_baseline = load_records(args.serve_baseline)
            serve_ratios = collect_serve_ratios(serve_fresh, serve_baseline)
            if serve_ratios:
                failures += gate(serve_ratios, args.threshold, "serve")
            else:
                print("note: no comparable serve cells — serve gate skipped")

    if args.march_fresh is not None:
        failures += gate_march(args.march_fresh, args.baseline,
                               args.march_min, args.threshold)

    if args.scaling_gate is not None:
        base_path, scaled_path = args.scaling_gate
        failures += gate_scaling(base_path, scaled_path,
                                 args.scaling_min, args.scaling_floor)

    if args.obs_overhead:
        failures += gate_obs_overhead(args.obs_overhead_limit,
                                      pairs=args.obs_overhead_pairs)

    if failures:
        print(f"\nFAIL: {len(failures)} gated metric(s) out of bounds:")
        for label, size, metric, normalised in failures:
            print(f"  - {label} (n={size}) {metric}: {normalised:.2f}x")
        return 1
    print("\nOK: all gated metrics within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
