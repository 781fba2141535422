"""Command-line entry point: ``python -m repro.experiments``.

Sub-commands::

    run   --spec spec.json [--artifacts-root DIR] [--force-retrain]
          [--skip-bench] [--quiet]
              drive the full seed→mesh→train→checkpoint→bench→report
              pipeline (resumes from an existing matching checkpoint)

    hash  --spec spec.json [--full]
              print the spec's config hash (the artifact directory name, usable
              as a cache key) and exit before anything is trained

    show  --spec spec.json
              print the resolved spec, its hash and artifact paths

    list  [--artifacts-root DIR]
              list existing artifact directories with their specs
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import ExperimentHarness, default_artifacts_root
from .spec import ExperimentSpec


def _add_spec_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", type=Path, required=True, help="path to the experiment spec JSON")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproducible experiment harness: train, checkpoint and bench DSS preconditioners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run (or resume) an experiment end-to-end")
    _add_spec_argument(run)
    run.add_argument("--artifacts-root", type=Path, default=None,
                     help="artifact root directory (default: benchmarks/artifacts)")
    run.add_argument("--force-retrain", action="store_true",
                     help="ignore any existing checkpoint and train from scratch")
    run.add_argument("--skip-bench", action="store_true", help="stop after training + metrics")
    run.add_argument("--quiet", action="store_true", help="suppress progress output")

    hash_cmd = sub.add_parser("hash", help="print the spec's config hash (the artifact directory name)")
    _add_spec_argument(hash_cmd)
    hash_cmd.add_argument("--full", action="store_true", help="print the full 64-char digest")

    show = sub.add_parser("show", help="print the resolved spec and artifact paths")
    _add_spec_argument(show)
    show.add_argument("--artifacts-root", type=Path, default=None)

    list_cmd = sub.add_parser("list", help="list existing artifact directories")
    list_cmd.add_argument("--artifacts-root", type=Path, default=None)

    args = parser.parse_args(argv)

    if args.command == "list":
        root = args.artifacts_root or default_artifacts_root()
        if not root.is_dir():
            print(f"no artifacts directory at {root}")
            return 0
        rows = []
        for directory in sorted(root.iterdir()):
            spec_file = directory / "spec.json"
            if not directory.is_dir() or not spec_file.exists():
                continue
            try:
                payload = json.loads(spec_file.read_text(encoding="utf-8"))
                name = payload.get("spec", {}).get("name", "?")
            except json.JSONDecodeError:
                name = "<corrupt spec.json>"
            has_checkpoint = (directory / "checkpoint.npz").exists()
            status = "checkpoint" if has_checkpoint else "no checkpoint"
            if (directory / "bench.json").exists():
                status += " +bench"
            rows.append((directory.name, name, status))
        if not rows:
            print(f"no experiment artifacts under {root}")
        for short_hash, name, status in rows:
            print(f"{short_hash}  {name:<24} {status}")
        return 0

    spec = ExperimentSpec.from_json(args.spec)

    if args.command == "hash":
        print(spec.config_hash if args.full else spec.short_hash)
        return 0

    if args.command == "show":
        harness = ExperimentHarness(spec, artifacts_root=args.artifacts_root)
        print(json.dumps(spec.to_dict(), indent=2))
        print(f"\nconfig hash : {spec.config_hash}")
        print(f"artifact dir: {harness.artifact_dir}")
        print(f"checkpoint  : {harness.checkpoint_path}"
              + ("  (exists)" if harness.checkpoint_path.exists() else "  (not trained yet)"))
        print("\nbench artifacts:")
        for label, path in (
            ("run bench   ", harness.artifact_dir / "bench.json"),
            ("run report  ", harness.artifact_dir / "report.md"),
        ):
            status = "exists" if path.exists() else "missing"
            print(f"  {label}: {path}  ({status})")
        return 0

    harness = ExperimentHarness(spec, artifacts_root=args.artifacts_root)
    result = harness.run(
        force_retrain=args.force_retrain,
        skip_bench=args.skip_bench,
        verbose=not args.quiet,
    )
    if not args.quiet:
        print(f"\ncheckpoint: {result.checkpoint_path}")
        print(f"report    : {result.artifact_dir / 'report.md'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
