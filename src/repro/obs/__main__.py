"""CLI over a dump of traces: the solve outcomes their spans carry.

A dump is a JSON list of root spans in :meth:`~repro.obs.trace.Span.to_dict`
form — the experiment harness writes one as ``traces.json``, and
``json.dumps([root.to_dict() for root in drain_traces()])`` makes one from any
traced run.  Each ``session.solve`` span carries its result's outcome (a
degraded solve's rung too), and a fused ``session.solve_many`` span its
columns'::

    python -m repro.obs tail benchmarks/artifacts/<run>/traces.json -n 20
    python -m repro.obs summary benchmarks/artifacts/<run>/traces.json

``summary`` also counts the ladder's ``rung_descent`` and the breaker's
``breaker_reroute`` span events.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Iterator, List, Optional

#: attributes of a ``session.solve`` span that ``tail`` prints
_OUTCOME = ("preconditioner", "krylov", "converged", "iterations", "failure_reason",
            "final_relative_residual", "recurrence", "kernel", "rung", "rung_index")


def _nodes(node: Any) -> Iterator[Dict[str, Any]]:
    """Every well-formed span dict of a serialized tree, depth-first."""
    if not isinstance(node, dict) or not isinstance(node.get("attributes", {}), dict):
        return
    yield node
    children = node.get("children")
    for child in children if isinstance(children, list) else ():
        yield from _nodes(child)


def solve_outcomes(root: Any) -> Iterator[Dict[str, Any]]:
    """The outcome of each solve in one serialized trace, in order.

    A ``session.solve`` is one outcome (a fallback rung's own solve inside it
    is not another); a fused ``session.solve_many`` is one per column.
    """
    if not isinstance(root, dict) or not isinstance(root.get("attributes", {}), dict):
        return
    attributes = root.get("attributes") or {}
    if root.get("name") == "session.solve":
        yield {key: attributes[key] for key in _OUTCOME if key in attributes}
        return
    if root.get("name") == "session.solve_many" and attributes.get("mode") == "fused":
        columns = zip(attributes.get("converged") or (), attributes.get("iterations") or (),
                      attributes.get("failure_reasons") or ())
        for column, (converged, iterations, reason) in enumerate(columns):
            yield {"column": column, "converged": converged, "iterations": iterations,
                   "failure_reason": reason}
        return
    children = root.get("children")
    for child in children if isinstance(children, list) else ():
        yield from solve_outcomes(child)


def summarize(roots: List[Any]) -> Dict[str, Any]:
    """Solves, convergence, iterations, failure reasons, rung descents, breaker reroutes."""
    outcomes = [o for root in roots for o in solve_outcomes(root)]
    iterations = [o["iterations"] for o in outcomes
                  if isinstance(o.get("iterations"), int) and not isinstance(o["iterations"], bool)]
    failures: Dict[str, int] = {}
    for outcome in outcomes:
        reason = outcome.get("failure_reason")
        if reason:
            failures[str(reason)] = failures.get(str(reason), 0) + 1
    events: Dict[str, int] = {"rung_descent": 0, "breaker_reroute": 0}
    for root in roots:
        for node in _nodes(root):
            for event in node.get("events") or ():
                kind = event.get("kind") if isinstance(event, dict) else None
                if kind in events:
                    events[kind] += 1
    return {
        "traces": len(roots),
        "solves": len(outcomes),
        "converged": sum(1 for o in outcomes if o.get("converged") is True),
        "iterations_mean": sum(iterations) / len(iterations) if iterations else None,
        "iterations_max": max(iterations) if iterations else None,
        "failure_reasons": dict(sorted(failures.items())),
        "rung_descents": events["rung_descent"],
        "breaker_reroutes": events["breaker_reroute"],
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect the solve outcomes in a dump of traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tail = sub.add_parser("tail", help="print the last N solve outcomes as JSON lines")
    tail.add_argument("path", help="traces.json: a JSON list of serialized root spans")
    tail.add_argument("-n", "--lines", type=int, default=20, help="outcomes to show (default 20)")

    summary = sub.add_parser("summary", help="aggregate solves / failure reasons / iterations")
    summary.add_argument("path", help="traces.json: a JSON list of serialized root spans")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            roots = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(roots, list):
        print(f"error: {args.path} is not a JSON list of traces", file=sys.stderr)
        return 2

    if args.command == "tail":
        outcomes = [o for root in roots for o in solve_outcomes(root)]
        lines = max(0, args.lines)
        for outcome in outcomes[-lines:] if lines else ():
            print(json.dumps(outcome, sort_keys=True))
        return 0

    print(json.dumps(summarize(roots), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
