"""Self-test of the ledger benchmark (fast; collected by the tier-1 run).

Checks what a later PR could silently break: the names the driver reads from
``BENCHMARK.json`` against the names the code prints, the two statistics
helpers, the seeded op sequences, and the teardown guard — a smoke
``serve-lu`` run and a deliberately hung workload must both leave nothing
running.
"""

from __future__ import annotations

import doctest
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ledger_core as core  # noqa: E402 - needs the path entry above

core.use_repo_source()

import ledger_gnn  # noqa: E402
import ledger_serve  # noqa: E402
import ledger_train  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN = [sys.executable, str(HERE / "run.py")]


def ledger_processes():
    """Command lines of live processes started from this directory's ``run.py``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
            except OSError:
                continue
            if str(HERE / "run.py") in command or "time.sleep(3600)" in command:
                found.append(command)
    return found


def test_manifest_agrees_with_the_code():
    manifest = json.loads((core.REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert manifest["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60

    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (name, why) for name, (why, _) in core.WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]] == [
        (name, *spec) for name, spec in core.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in core.PER_LAYER.items()]

    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in manifest[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert max(m["bound"] for m in manifest["end_to_end"]) == core.END_TO_END["setup_s"][2]
    assert all(set(where) <= set(core.WORKLOADS) and where for _, _, where in core.PER_LAYER.values())


def test_statistics_helpers():
    assert doctest.testmod(core).failed == 0
    # the highest percentile with at least ten samples beyond it
    assert core.tail_percentile(range(1, 1001)) == (99.0, 990.0)
    assert core.tail_percentile(range(1, 21)) == (50.0, 10.0)
    assert core.tail_percentile(range(1, 20))[0] == 50.0
    with pytest.raises(ValueError):
        core.tail_percentile([])
    # one slow round out of three does not move the median throughput
    assert core.median_over_rounds([224] * 3, [2.0, 2.0, 9.0]) == 112.0
    with pytest.raises(ValueError):
        core.median_over_rounds([1, 2], [1.0])
    assert core.rounds_for("train", 15) == 5 and core.rounds_for("train", 1) == 3


def witness_of(disturbed, until: float) -> "core.Witness":
    """A witness that was never started, holding the samples a CPU twice as slow inside ``disturbed`` gives."""
    witness = core.Witness(cpus=[0])
    times, loops = witness.samples[0]
    for i in range(int(until / core.Witness.PERIOD)):
        at = (i + 0.5) * core.Witness.PERIOD
        times.append(at)
        loops.append(0.5e-3 if any(start <= at < end for start, end in disturbed) else 0.25e-3)
    return witness


def test_witness_scales_and_selects_by_cpu_speed():
    witness = witness_of(disturbed=[(1.0, 3.0), (6.0, 7.0)], until=10.0)
    assert witness.slowdown(0.2, 0.8) == pytest.approx(1.0)
    assert witness.slowdown(1.2, 2.8) == pytest.approx(2.0)
    assert 1.0 < witness.slowdown(0.5, 1.5) < 2.0
    assert witness.slowdown(20.0, 21.0) == float("inf")          # no sample: as disturbed as can be

    # nine rounds of the same op: 0.2 s undisturbed, 0.4 s while the CPU ran at half speed
    starts = [0.1, 0.4, 1.2, 1.8, 2.4, 3.3, 3.6, 6.05, 7.5]
    ops = core.Ops()
    ops.rounds = [(8, at, at + (0.4 if 1.0 <= at < 3.0 or 6.0 <= at < 7.0 else 0.2),
                   [400.0 if 1.0 <= at < 3.0 or 6.0 <= at < 7.0 else 200.0]) for at in starts]
    setups = [(4.0, 4.5), (6.0, 7.0), (8.0, 8.5)]
    measured = core.end_to_end(setups, ops, witness, 10.0)
    assert measured["lat_ms_p50"] == pytest.approx(200.0) and measured["work_per_s"] == pytest.approx(40.0)
    assert measured["peak_rss_mb"] == 10.0
    # all three set-ups are kept (at least 3 always are); the 1 s one ran at half speed and counts as 0.5 s
    assert measured["setup_s"] == pytest.approx(0.5, rel=0.02) and ops.notes["raw_setup_s"] == 0.5
    assert ops.notes["lat_samples"] == 3 and ops.notes["raw_lat_ms_p50"] == 200.0
    assert ops.notes["slowdown_calm_p50"] == pytest.approx(1.0) and len(ops.slowdowns) == 12

    with core.Witness() as running:                                # the real thing: one thread per CPU
        time.sleep(0.2)
    assert all(len(loops) >= 5 and min(loops) > 0.0 for _, loops in running.samples.values())
    times = running.samples[running.cpus[0]][0]
    assert running.slowdown(times[0], times[-1]) >= 1.0
    assert core.calmest([3.0, 1.0]) == [0, 1]


def test_spans_self_time_and_idle_fill():
    spans = core.Spans()
    with spans.span("outer"):
        with spans.span("inner"):
            pass
        with spans.span("inner"):
            pass
    self_ms = spans.self_ms()
    total = spans.durations_ms("outer")[0]
    assert len(spans.durations_ms("inner")) == 2
    assert self_ms["outer"] == pytest.approx(total - sum(spans.durations_ms("inner")))
    filled = core.fill_per_layer("train", {
        name: 1.0 for name, (_, _, where) in core.PER_LAYER.items() if "train" in where})
    assert list(filled) == list(core.PER_LAYER)
    assert filled["gnn.infer_ms_p50"] > 0.0 and filled["serve.retries"] == 0.0
    with pytest.raises(KeyError):
        core.fill_per_layer("train", {})


def test_op_sequences_follow_the_seed():
    for build in (lambda seed: ledger_gnn.sequence("gnn-resolve", seed, 3),
                  lambda seed: ledger_gnn.sequence("gnn-batch", seed, 3),
                  lambda seed: ledger_serve.sequence(seed, smoke=False),
                  lambda seed: ledger_train.sequence(seed, 5)):
        assert build(4) == build(4)
        assert build(4) != build(5)
    round_ops = ledger_serve.sequence(0, smoke=False)
    assert len(round_ops) == 128
    assert sum(len(ids) for _, ids in round_ops) == 224
    assert sorted({len(ids) for _, ids in round_ops}) == [1, ledger_serve.BLOCK]
    assert {operator for operator, _ in round_ops} == set(range(ledger_serve.OPERATORS))


def test_smoke_serve_run_leaves_nothing_running():
    done = subprocess.run(RUN + ["--workload", "serve-lu", "--smoke", "--seed", "3", "--trace", "0"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(core.END_TO_END)
    assert all(m["value"] > 0 and m["unit"] == core.END_TO_END[n][0] for n, m in line["metrics"].items())
    assert ledger_processes() == []


def test_corrupted_reference_fails_its_ops():
    done = subprocess.run(RUN + ["--selftest-corrupt"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and 1 <= line["failed"] < line["attempted"]
    assert ledger_processes() == []


def test_hung_workload_is_killed_with_its_group():
    before = set(Path("/dev/shm").iterdir()) if Path("/dev/shm").is_dir() else set()
    done = subprocess.run(RUN + ["--selftest-hang"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 3, done.stdout + done.stderr
    assert "killed with its process group" in done.stderr
    assert ledger_processes() == []
    after = set(Path("/dev/shm").iterdir()) if Path("/dev/shm").is_dir() else set()
    assert after <= before
