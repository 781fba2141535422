#!/usr/bin/env python3
"""The ledger benchmark: one command, every metric by name, outputs checked.

    python3 benchmarks/ledger/run.py --workload gnn-resolve --seed 0 --seconds 20 --trace 0
    python3 benchmarks/ledger/run.py --workload serve-lu --seed 0 --trace 1     # per-layer numbers
    python3 benchmarks/ledger/run.py --all --seed 0 --out A.json                 # one run set
    python3 benchmarks/ledger/run.py --agree A.json B.json                       # two sets vs the bounds
    python3 benchmarks/ledger/run.py --selftest-hang | --selftest-corrupt

Every workload runs in its own subprocess, started as a session leader with
pinned BLAS threads and a hard timeout.  When it ends — normally, on an
exception or on the timeout — this process checks that nothing of the
workload's process group is alive and that ``/dev/shm`` is unchanged, kills
the group regardless, and fails the run on a leak.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Exit codes: 0 measured and correct; 1 an op or check failed; 2 no program to
measure; 3 the workload hung or crashed; 4 it leaked a process or a segment.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ledger_core as core  # noqa: E402 - needs the path entry above

HARD_TIMEOUT_S = 170.0          # the contract allows a run 180 s
MODULES = {"gnn-resolve": "ledger_gnn", "gnn-batch": "ledger_gnn", "serve-lu": "ledger_serve", "train": "ledger_train"}
#: per-layer metrics that are counts or seeded computations: equal seeds repeat them exactly
EXACT = ("krylov.iters_per_rhs", "krylov.lockstep_sweeps", "gnn.infer_gflop",
         "gnn.val_residual", "gnn.train_loss_final")


# --------------------------------------------------------------------------- #
# inside the workload subprocess
# --------------------------------------------------------------------------- #
def child_main(args) -> int:
    """Run one workload in this process and write its result file."""
    if args.hang:
        return hang_forever()
    core.use_repo_source()
    if args.workload != "serve-lu":                         # one thread of work: one CPU, which the witness shares
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ops, spans = core.Ops(), core.Spans()
    rounds = core.rounds_for(args.workload, args.seconds, args.smoke)
    module = __import__(MODULES[args.workload])
    if args.trace:
        measured = module.run_traced(args.workload, args.seed, args.smoke, ops, spans)
    else:
        measured = module.run(args.workload, args.seed, rounds, args.seconds, args.smoke, args.corrupt, ops)
    if args.trace:
        measured = core.fill_per_layer(args.workload, measured)
        spans.dump(Path(args.result).with_suffix(".spans.json"))
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "rounds": rounds, "attempted": ops.attempted, "failed": ops.failed,
        "reasons": ops.reasons, "notes": ops.notes, "round_data": ops.rounds, "slowdowns": ops.slowdowns,
        "metrics": measured, "fingerprint": core.fingerprint(args.seed),
    }
    scratch = Path(args.result).with_suffix(".tmp")
    scratch.write_text(json.dumps(result))
    os.replace(scratch, args.result)
    return 0


def hang_forever() -> int:
    """The deliberately hung workload of ``--selftest-hang``: a child, a segment, no end."""
    from multiprocessing import shared_memory

    subprocess.Popen([sys.executable, "-c", "import time; time.sleep(3600)"])
    shared_memory.SharedMemory(create=True, size=4096)
    time.sleep(3600)
    return 0


# --------------------------------------------------------------------------- #
# the driver side: subprocess, timeout, teardown guard
# --------------------------------------------------------------------------- #
def shm_entries() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def wait_gone(pids_of, seconds: float = 5.0) -> list:
    deadline = time.monotonic() + seconds
    while True:
        alive = pids_of()
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.02)


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False,
            corrupt: bool = False, hang: bool = False, timeout: float = HARD_TIMEOUT_S):
    """Run one workload subprocess under the guard; returns ``(result or None, exit code)``."""
    if not (core.REPO_ROOT / "src" / "repro").is_dir():
        print(f"ledger: no program to measure under {core.REPO_ROOT / 'src'}", file=sys.stderr)
        return None, 2
    core.OUT_DIR.mkdir(parents=True, exist_ok=True)
    result_path = core.OUT_DIR / f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    result_path.unlink(missing_ok=True)
    shm_before = shm_entries()

    command = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--result", str(result_path)]
    command += ["--smoke"] * smoke + ["--corrupt"] * corrupt + ["--hang"] * hang
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **core.PINNED_ENV)

    child = subprocess.Popen(command, env=env, start_new_session=True)
    hung = False
    try:
        try:
            child.wait(timeout)
        except subprocess.TimeoutExpired:
            hung = True
    finally:
        leaked = [] if hung else core.live_processes(group=child.pid)
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        survivors = wait_gone(lambda: core.live_processes(group=child.pid))
        segments = sorted(shm_entries() - shm_before)
        for name in segments:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass

    if hung:
        print(f"ledger: {workload} exceeded {timeout:g} s and was killed with its process group "
              f"({len(segments)} /dev/shm segment(s) removed, {len(survivors)} process(es) left)",
              file=sys.stderr)
        return None, 4 if survivors else 3
    if leaked or segments or survivors:
        print(f"ledger: {workload} leaked processes {leaked} and /dev/shm entries {segments}", file=sys.stderr)
        return None, 4
    if child.returncode != 0 or not result_path.is_file():
        print(f"ledger: {workload} ended with code {child.returncode} and no result", file=sys.stderr)
        return None, 3
    return json.loads(result_path.read_text()), 0


def units(trace: int) -> dict:
    table = core.PER_LAYER if trace else core.END_TO_END
    return {name: spec[0] for name, spec in table.items()}


def report(result: dict) -> dict:
    """Print one run by metric name and return the contract's result object."""
    trace = result["trace"]
    unit_of = units(trace)
    workload = result["workload"]
    print(f"# {workload} seed={result['seed']} trace={trace} rounds={result['rounds']}"
          f"{' SMOKE' if result['smoke'] else ''}")
    print("# fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    for name, value in result["metrics"].items():
        measured_here = not trace or workload in core.PER_LAYER[name][2]
        print(f"{workload}/{name:<32} {value:>16.6f} {unit_of[name]:<8}{'' if measured_here else '(not on this workload)'}")
    for note, value in result["notes"].items():
        print(f"{workload}/{note} {value}")
    print(f"{workload}/ops_attempted {result['attempted']}")
    print(f"{workload}/ops_failed {result['failed']}")
    for reason in result["reasons"]:
        print(f"{workload}/failed_op {reason}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in result["metrics"].items()},
    }


def run_one(args) -> int:
    result, code = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke, args.corrupt)
    if result is None:
        return code
    line = report(result)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """One run set: every workload untraced, then traced; written to ``--out``."""
    run_set = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    worst = 0
    for workload in core.WORKLOADS:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, code = measure(workload, args.seed, args.seconds, trace, args.smoke)
            if result is None:
                worst = max(worst, code)
                continue
            report(result)
            worst = max(worst, 1 if result["failed"] else 0)
            entry[key] = result["metrics"]
            entry[f"{key}_ops"] = {"attempted": result["attempted"], "failed": result["failed"]}
            run_set["fingerprint"] = result["fingerprint"]
        run_set["workloads"][workload] = entry
    out = Path(args.out) if args.out else core.OUT_DIR / f"runset-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(run_set, indent=1) + "\n")
    print(f"# run set written to {out}")
    return worst


def agree(path_a: str, path_b: str) -> int:
    """Two run sets of the same code against the bounds; non-zero outside them."""
    first, second = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    bad = 0
    for workload in core.WORKLOADS:
        a, b = first["workloads"].get(workload, {}), second["workloads"].get(workload, {})
        for name, (unit, _, bound) in core.END_TO_END.items():
            if name not in a.get("end_to_end", {}) or name not in b.get("end_to_end", {}):
                print(f"{workload}/{name:<14} missing from a run set  FAIL")
                bad += 1
                continue
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            difference = abs(y - x) / x
            verdict = "FAIL" if difference > bound else "unsteady" if difference > bound / 2 else "ok"
            bad += verdict == "FAIL"
            print(f"{workload}/{name:<14} {x:>12.4f} {y:>12.4f} {unit:<4} "
                  f"differ {difference:6.2%} of bound {bound:.0%}  {verdict}")
        for side in (a, b):
            for key in ("end_to_end_ops", "per_layer_ops"):
                if side.get(key, {}).get("failed", 1 if key == "end_to_end_ops" else 0):
                    print(f"{workload}/{key} has failed or missing ops  FAIL")
                    bad += 1
        if first.get("seed") == second.get("seed"):
            for name in EXACT:
                if workload in core.PER_LAYER[name][2] and "per_layer" in a and "per_layer" in b:
                    same = a["per_layer"][name] == b["per_layer"][name]
                    bad += not same
                    print(f"{workload}/{name:<24} exact {'ok' if same else 'FAIL'} "
                          f"({a['per_layer'][name]!r} vs {b['per_layer'][name]!r})")
    print(f"# {bad} cell(s) outside the bounds")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(core.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase budget; sets the round count (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run that prints the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny operators and two rounds (self-test sizes)")
    parser.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--out", help="where --all writes its run set")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest-hang", action="store_true")
    parser.add_argument("--selftest-corrupt", action="store_true")
    for hidden in ("--child", "--corrupt", "--hang"):
        parser.add_argument(hidden, action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.seconds is None:
        manifest = core.REPO_ROOT / "BENCHMARK.json"
        args.seconds = float(json.loads(manifest.read_text())["run_seconds"]) if manifest.is_file() else 20.0
    if args.child:
        return child_main(args)
    if args.agree:
        return agree(*args.agree)
    if args.selftest_hang:
        _, code = measure("serve-lu", 0, 1.0, 0, smoke=True, hang=True, timeout=3.0)
        return code
    if args.selftest_corrupt:
        args.workload, args.smoke, args.corrupt = "serve-lu", True, True
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload, --all, --agree or a self-test")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
