"""Shared pieces of the ledger benchmark: names, statistics, spans, accounting.

Nothing here imports :mod:`repro`; the workload modules do.  The metric and
workload names below are the single source the driver, the self-test and
``BENCHMARK.json`` agree on (``test_ledger.py`` asserts the agreement).
"""

from __future__ import annotations

import bisect
import json
import os
import platform
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
CHECKPOINT = LEDGER_DIR / "dss_k20_d10.npz"
OUT_DIR = LEDGER_DIR / "out"

#: environment pinned in every workload subprocess before numpy is imported
#: (worker processes inherit it) and recorded in the machine fingerprint.
#: One BLAS thread: OpenBLAS's default two make an f32 ``apply_columns`` 8x
#: slower on this box — a later issue's target, not this benchmark's noise.
#: glibc malloc kept from trimming and re-faulting its heap: left alone, a
#: ``train`` epoch takes 0 or 340k page faults depending on the allocator's
#: dynamic thresholds, which read as 2.5 - 3.1 s epochs (2.5 - 2.8 s pinned);
#: and one arena, because per-thread arenas made ``serve-lu``'s peak RSS land on
#: 303, 313, 323 or 334 MB by thread timing (272.6 - 275.1 MB with one).
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(16 << 30),
    "MALLOC_TOP_PAD_": str(256 << 20),
    "MALLOC_ARENA_MAX": "1",
}

#: workload -> (why it exists, nominal seconds of one timed round).  The round
#: count of a run is ``--seconds`` divided by the nominal round cost, so a run
#: is count-based (the same ops every run) yet sized by the contract's clock.
WORKLOADS: Dict[str, Tuple[str, float]] = {
    "gnn-resolve": (
        "paper's method, single-column f64 inference: solve time is core apply -> gnn.infer; serve/nn/LU idle",
        1.45,
    ),
    "gnn-batch": (
        "same operator, 8-RHS lockstep f32 block: the k-wide interleaved layout; a layout trade shows opposite signs",
        4.0,
    ),
    "serve-lu": (
        "bytes -> HTTP -> ring -> pipe -> shard -> ddm-lu session -> bytes; gnn idle, so a GNN change must not move it",
        0.055,
    ),
    "train": (
        "tape forward/backward of the DSS in nn/gnn.training; inference kernels idle",
        3.0,
    ),
}

#: name -> (unit, better, regression bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "lat_ms_p50": ("ms", "lower", 0.25),
    "work_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

_L, _H = "lower", "higher"
#: name -> (unit, better, workloads that measure it).  A traced run prints all
#: of them; a layer the workload never calls reports the span recorder's
#: empty-span time (see :func:`idle_probe`) for time units and 0 otherwise.
PER_LAYER: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    # -- set-up ------------------------------------------------------------
    "mesh.generate_s": ("s", _L, ("gnn-resolve",)),
    "fem.assemble_s": ("s", _L, ("gnn-resolve",)),
    "gnn.checkpoint_load_s": ("s", _L, ("gnn-resolve",)),
    "partition.decompose_s": ("s", _L, ("gnn-resolve",)),
    "core.precond_build_s": ("s", _L, ("gnn-resolve",)),
    "serve.start_s": ("s", _L, ("serve-lu",)),
    "serve.cold_request_ms_p50": ("ms", _L, ("serve-lu",)),
    "core.dataset_generate_s": ("s", _L, ("train",)),
    # -- preconditioner apply (gnn-resolve: f64 single column) ---------------
    "core.apply_ms_p50": ("ms", _L, ("gnn-resolve",)),
    "ddm.coarse_ms_per_apply": ("ms", _L, ("gnn-resolve",)),
    "core.local_ms_per_apply": ("ms", _L, ("gnn-resolve",)),
    "ddm.restrict_ms_p50": ("ms", _L, ("gnn-resolve",)),
    "ddm.glue_ms_p50": ("ms", _L, ("gnn-resolve",)),
    "gnn.infer_ms_p50": ("ms", _L, ("gnn-resolve",)),
    "gnn.infer_gflop": ("GFLOP", _L, ("gnn-resolve", "gnn-batch")),
    "gnn.infer_mbytes": ("MB", _L, ("gnn-resolve", "gnn-batch")),
    "gnn.infer_gflops_achieved": ("GFLOP/s", _H, ("gnn-resolve", "gnn-batch")),
    "krylov.matvec_ms_p50": ("ms", _L, ("gnn-resolve",)),
    "krylov.iters_per_rhs": ("count", _L, ("gnn-resolve", "gnn-batch")),
    "krylov.self_share": ("ratio", _L, ("gnn-resolve", "gnn-batch")),
    "solvers.lu_resolve_ms_p50": ("ms", _L, ("gnn-resolve",)),
    "core.gnn_lu_gap": ("ratio", _L, ("gnn-resolve",)),
    # -- fused multi-column apply (gnn-batch: f32, k=8) ----------------------
    "core.apply_columns_ms_p50": ("ms", _L, ("gnn-batch",)),
    "core.apply_f32_ms_p50": ("ms", _L, ("gnn-batch",)),
    "core.fused_speedup": ("ratio", _H, ("gnn-batch",)),
    "core.apply_columns_f64_ms_p50": ("ms", _L, ("gnn-batch",)),
    "gnn.infer_columns_ms_p50": ("ms", _L, ("gnn-batch",)),
    "krylov.block_matvec_ms_p50": ("ms", _L, ("gnn-batch",)),
    "krylov.lockstep_sweeps": ("count", _L, ("gnn-batch",)),
    "solvers.seq_rhs_per_s": ("1/s", _H, ("gnn-batch",)),
    "solvers.batch_speedup": ("ratio", _H, ("gnn-batch",)),
    # -- serve stages ---------------------------------------------------------
    "serve.stage_ms.route": ("ms", _L, ("serve-lu",)),
    "serve.stage_ms.queue": ("ms", _L, ("serve-lu",)),
    "serve.stage_ms.pipe": ("ms", _L, ("serve-lu",)),
    "serve.stage_ms.solve": ("ms", _L, ("serve-lu",)),
    "serve.stage_ms.encode": ("ms", _L, ("serve-lu",)),
    "serve.http_ms_p50": ("ms", _L, ("serve-lu",)),
    "serve.proto_encode_us_p50": ("us", _L, ("serve-lu",)),
    "serve.proto_decode_us_p50": ("us", _L, ("serve-lu",)),
    "solvers.session_solve_ms_p50": ("ms", _L, ("serve-lu",)),
    "serve.overhead_ms_p50": ("ms", _L, ("serve-lu",)),
    "serve.overhead_share": ("ratio", _L, ("serve-lu",)),
    "serve.block_lat_ms_p50": ("ms", _L, ("serve-lu",)),
    "serve.mean_batch_size": ("count", _H, ("serve-lu",)),
    "serve.cache_hit_rate": ("ratio", _H, ("serve-lu",)),
    "serve.lat_ms_tail": ("ms", _L, ("serve-lu",)),
    "serve.lat_tail_pct": ("%", _H, ("serve-lu",)),
    "serve.json_lat_ms_p50": ("ms", _L, ("serve-lu",)),
    "serve.retries": ("count", _L, ("serve-lu",)),
    # -- training -------------------------------------------------------------
    "gnn.batch_build_ms_p50": ("ms", _L, ("train",)),
    "gnn.forward_ms_p50": ("ms", _L, ("train",)),
    "nn.backward_ms_p50": ("ms", _L, ("train",)),
    "nn.optim_ms_p50": ("ms", _L, ("train",)),
    "gnn.first_epoch_s": ("s", _L, ("train",)),
    "gnn.eval_ms": ("ms", _L, ("train",)),
    "gnn.val_residual": ("ratio", _L, ("train",)),
    "gnn.train_loss_final": ("ratio", _L, ("train",)),
    # -- every workload ---------------------------------------------------------
    "obs.trace_overhead_ratio": ("ratio", _L, tuple(WORKLOADS)),
    "unattributed_share": ("ratio", _L, tuple(WORKLOADS)),
}

#: per-second scale of the time units an idle layer is reported in
_TIME_UNITS = {"s": 1.0, "ms": 1e3, "us": 1e6}


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def tail_percentile(samples: Sequence[float], beyond: int = 10) -> Tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)`` on the nearest-rank rule; with fewer than
    ``2 * beyond`` samples nothing above the median is supported and the
    median is returned.

    >>> tail_percentile(list(range(1, 101)))
    (90.0, 90.0)
    >>> tail_percentile(list(range(1, 2001)))
    (99.5, 1990.0)
    >>> tail_percentile([3.0, 1.0, 2.0])
    (50.0, 2.0)
    """
    ordered = sorted(float(v) for v in samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * beyond:
        return 50.0, median(ordered)
    rank = n - beyond                      # nearest rank: `beyond` samples lie above it
    return 100.0 * rank / n, ordered[rank - 1]


def median_over_rounds(work_per_round: Sequence[float], seconds_per_round: Sequence[float]) -> float:
    """Median of per-round throughput — one noisy-neighbour round cannot move it.

    >>> median_over_rounds([10, 10, 10], [1.0, 2.0, 1.0])
    10.0
    """
    if len(work_per_round) != len(seconds_per_round) or not work_per_round:
        raise ValueError("need one work count and one wall time per round")
    return median(w / s for w, s in zip(work_per_round, seconds_per_round))


def rounds_for(workload: str, seconds: float, smoke: bool = False) -> int:
    """Timed rounds of a run: ``seconds`` over the nominal round cost, at least 3."""
    if smoke:
        return 2
    return max(3, int(float(seconds) / WORKLOADS[workload][1]))


def cold_setups(smoke: bool = False) -> int:
    """Cold set-ups per run; the last serves the timed phase."""
    return 2 if smoke else 6


def out_of_time(started: float, seconds: float) -> bool:
    """True once the timed phase has run a tenth over its ``seconds``.

    Runs are count-based; this only keeps a run on a slowed-down host inside
    the driver's clock, by ending the phase with the rounds it has.
    """
    return time.perf_counter() - started > 1.1 * seconds


class Witness:
    """Times a fixed loop on the workload's CPUs all through the run.

    This host slows the guest's CPUs 1.3 - 2x in bursts of 0.1 - 3 s (another
    tenant on the core, by the look of it: everything slows together), and the
    share of time spent slowed drifts between 30% and more than 95% from one
    minute to the next.  A median over a run follows that share, not the
    program.  So one thread per CPU, pinned to it, times a 0.27 ms pure-Python
    loop every 10 ms; the *slowdown* of an interval is the mean of the loops
    timed inside it over the CPU's undisturbed loop time (the fastest loop of
    the run), averaged over the CPUs.  The witness never looks at the measured
    code, so what it selects and scales is not best-of-N: a slower program is
    slower at every slowdown.
    """

    PERIOD = 0.010

    def __init__(self, cpus: Optional[Iterable[int]] = None) -> None:
        self.cpus = sorted(os.sched_getaffinity(0) if cpus is None else cpus)
        #: per CPU: when each loop started, and how long it took (seconds)
        self.samples: Dict[int, Tuple[List[float], List[float]]] = {cpu: ([], []) for cpu in self.cpus}
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._watch, args=(cpu,), daemon=True) for cpu in self.cpus]

    def __enter__(self) -> "Witness":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _watch(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})                      # pid 0: this thread only
        times, loops = self.samples[cpu]
        clock = time.perf_counter
        while not self._stop.wait(self.PERIOD):
            start = clock()
            total = 0
            for i in range(5000):
                total += i * i
            loops.append(clock() - start)
            times.append(start)

    def undisturbed(self, cpu: int) -> float:
        """Seconds of the fastest loop ``cpu`` ran: its undisturbed speed, a machine constant."""
        return min(self.samples[cpu][1], default=float("nan"))

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than undisturbed the CPUs ran over ``[start, end]`` (>= 1).

        Call after the witness has stopped.  An interval without a sample on
        some CPU counts as the most disturbed there is (``inf``).
        """
        ratios = []
        for cpu in self.cpus:
            times, loops = self.samples[cpu]
            inside = loops[bisect.bisect_left(times, start - self.PERIOD):
                           bisect.bisect_right(times, end + self.PERIOD)]
            if not inside:
                return float("inf")
            ratios.append(max(1.0, sum(inside) / len(inside) / self.undisturbed(cpu)))
        return sum(ratios) / len(ratios)


def calmest(slowdowns: Sequence[float]) -> List[int]:
    """Indices of the third of the items (at least 3) that ran at the lowest slowdown.

    >>> calmest([1.5, 1.0, 1.2, 1.9, 1.1, 1.3, 1.05, 1.6, 1.7])
    [1, 4, 6]
    >>> calmest([1.4, 1.0])
    [0, 1]
    """
    keep = max(3, len(slowdowns) // 3)
    return sorted(sorted(range(len(slowdowns)), key=lambda i: slowdowns[i])[:keep])


def end_to_end(setups: Sequence[Tuple[float, float]], ops: "Ops", witness: Witness,
               rss_mb: float) -> Dict[str, float]:
    """The four end-to-end metrics of a run, one definition for every workload.

    ``setups`` holds the ``(start, end)`` of every cold set-up; ``ops.rounds``
    holds, per timed round, ``(work done, start, end, latency-op ms)``.  Set-ups
    and rounds are taken from the calmest third of each, and every time is
    divided by its interval's slowdown: the metrics are wall times at the
    CPU's undisturbed speed.  The raw medians are kept in ``ops.notes``.
    """
    setup_slow = [witness.slowdown(start, end) for start, end in setups]
    round_slow = [witness.slowdown(start, end) for _, start, end, _ in ops.rounds]
    calm_setups, calm_rounds = calmest(setup_slow), calmest(round_slow)
    if float("inf") in [setup_slow[i] for i in calm_setups] + [round_slow[i] for i in calm_rounds]:
        raise RuntimeError("the witness took no sample during a set-up or round the metrics rest on")
    ops.slowdowns = setup_slow + round_slow
    latencies = [ms / round_slow[i] for i in calm_rounds for ms in ops.rounds[i][3]]
    ops.notes["lat_samples"] = len(latencies)
    ops.notes["raw_setup_s"] = median(end - start for start, end in setups)
    ops.notes["raw_lat_ms_p50"] = median(ms for _, _, _, sample in ops.rounds for ms in sample)
    ops.notes["witness_loop_us"] = 1e6 * median(witness.undisturbed(cpu) for cpu in witness.cpus)
    ops.notes["slowdown_p50"] = median(round_slow)
    ops.notes["slowdown_calm_p50"] = median(round_slow[i] for i in calm_rounds)
    return {
        "setup_s": median((setups[i][1] - setups[i][0]) / setup_slow[i] for i in calm_setups),
        "lat_ms_p50": median(latencies),
        "work_per_s": median_over_rounds(
            [ops.rounds[i][0] for i in calm_rounds],
            [(ops.rounds[i][2] - ops.rounds[i][1]) / round_slow[i] for i in calm_rounds]),
        "peak_rss_mb": rss_mb,
    }


# --------------------------------------------------------------------------- #
# spans: recorded in memory by the benchmark's own files, written at the end
# --------------------------------------------------------------------------- #
class Spans:
    """A flat in-memory span log: ``(id, parent, name, start, end)`` rows."""

    def __init__(self) -> None:
        self.rows: List[List] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        row = [len(self.rows), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), None]
        self.rows.append(row)
        self._stack.append(row[0])
        try:
            yield row
        finally:
            row[4] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str) -> List[float]:
        return [(r[4] - r[3]) * 1e3 for r in self.rows if r[2] == name and r[4] is not None]

    def self_ms(self) -> Dict[str, float]:
        """Total self time per span name: duration minus what children cover."""
        child_ms: Dict[int, float] = {}
        for r in self.rows:
            if r[1] is not None and r[4] is not None:
                child_ms[r[1]] = child_ms.get(r[1], 0.0) + (r[4] - r[3]) * 1e3
        totals: Dict[str, float] = {}
        for r in self.rows:
            if r[4] is not None:
                totals[r[2]] = totals.get(r[2], 0.0) + (r[4] - r[3]) * 1e3 - child_ms.get(r[0], 0.0)
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"columns": ["id", "parent", "name", "start", "end"], "rows": self.rows}))


class Timed:
    """Proxy recording a span around named public methods of ``target``.

    The traced run swaps these in for a layer's objects (preconditioner,
    coarse space, stacked restriction, model) so the program's own call tree
    is timed from outside; every other attribute passes through untouched.
    """

    def __init__(self, target, spans: Spans, methods: Dict[str, str]) -> None:
        self.__dict__["_target"] = target
        for method, span_name in methods.items():
            self.__dict__[method] = self._wrap(getattr(target, method), spans, span_name)

    @staticmethod
    def _wrap(function: Callable, spans: Spans, span_name: str) -> Callable:
        def timed(*args, **kwargs):
            with spans.span(span_name):
                return function(*args, **kwargs)
        return timed

    def __getattr__(self, name):
        return getattr(self.__dict__["_target"], name)


def idle_probe(repeats: int = 2000) -> float:
    """Mean seconds of an empty span — what a layer that is never called records."""
    spans = Spans()
    for _ in range(repeats):
        with spans.span("idle"):
            pass
    return sum(spans.durations_ms("idle")) / repeats / 1e3


def fill_per_layer(workload: str, measured: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric by name: measured, or the idle value for this workload."""
    missing = [n for n, (_, _, where) in PER_LAYER.items() if workload in where and n not in measured]
    if missing:
        raise KeyError(f"{workload} did not measure {missing}")
    unknown = sorted(set(measured) - set(PER_LAYER))
    if unknown:
        raise KeyError(f"{workload} measured undeclared metrics {unknown}")
    return {name: float(measured[name]) if name in measured
            else idle_probe() * _TIME_UNITS[unit] if unit in _TIME_UNITS else 0.0
            for name, (unit, _, _) in PER_LAYER.items()}


# --------------------------------------------------------------------------- #
# op accounting and process measurements
# --------------------------------------------------------------------------- #
class Ops:
    """Attempted/failed op counts; an op fails on exception or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        #: informational counts printed with the run (sample sizes)
        self.notes: Dict[str, float] = {}
        #: raw per-round measurements ``(work, start, end, latency ms)`` and the witness's
        #: slowdowns (set-ups first), kept in the result file
        self.rounds: List[Tuple[float, float, float, List[float]]] = []
        self.slowdowns: List[float] = []

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 8:
                self.reasons.append(reason)
        return ok


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # fields after the parenthesised command: state ppid pgrp session ...
    return raw[raw.rindex(")") + 2:].split()


def live_processes(*, group: Optional[int] = None, parent: Optional[int] = None) -> List[int]:
    """PIDs (not zombies) in process group ``group`` or descending from ``parent``."""
    table = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and fields[0] != "Z":
                table[int(entry)] = (int(fields[1]), int(fields[2]))
    if group is not None:
        return sorted(pid for pid, (_, pgrp) in table.items() if pgrp == group)
    found, frontier = [], [parent]
    while frontier:
        current = frontier.pop()
        children = [pid for pid, (ppid, _) in table.items() if ppid == current]
        found.extend(children)
        frontier.extend(children)
    return sorted(found)


def peak_rss_mb() -> float:
    """``VmHWM`` summed over this process and its live descendants, in MB."""
    total_kb = 0
    for pid in [os.getpid()] + live_processes(parent=os.getpid()):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def fingerprint(seed: int) -> Dict[str, object]:
    """Where and with what the numbers were taken (printed with every output)."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = (numpy.show_config(mode="dicts").get("Build Dependencies") or {}).get("blas") or {}
    commit = "unknown"
    head = REPO_ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = REPO_ROOT / ".git" / ref[5:]
            ref = target.read_text().strip() if target.is_file() else ref
        commit = ref[:12]
    return {
        "cpu_model": cpu,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "malloc": "arenas={} trim={}".format(os.environ.get("MALLOC_ARENA_MAX", "unset"),
                                             os.environ.get("MALLOC_TRIM_THRESHOLD_", "unset")),
        "git_commit": commit,
        "seed": int(seed),
    }


def use_repo_source() -> None:
    """Import :mod:`repro` from this checkout's ``src`` and nowhere else."""
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"ledger: no program to measure at {source}")
    sys.path.insert(0, str(source))
