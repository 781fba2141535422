"""Command-line entry point: ``python -m repro.serve``.

Starts the solve server (JSON + zero-copy binary frames on ``POST /solve``)::

    python -m repro.serve --port 8780
    python -m repro.serve --workers 4            # 4 sharded worker processes
    python -m repro.serve --workers 2 --threads-per-worker 2
    python -m repro.serve --in-process --workers 2   # PR-5 thread pool instead
    python -m repro.serve --checkpoint benchmarks/artifacts/<hash>/checkpoint.npz \\
        --preconditioner ddm-gnn --max-batch 8 --max-wait-ms 2

``--workers N`` forks N worker *processes* sharing one shared-memory copy of
the checkpoint weights; sessions shard across them by fingerprint.
``--in-process`` keeps everything in one process with N worker *threads*
(the PR-5 behaviour — handy under debuggers and on platforms without fork).

Then, from any HTTP client::

    curl -s localhost:8780/healthz
    curl -s -X POST localhost:8780/solve -H 'Content-Type: application/json' \\
        -d '{"problem": {"family": "poisson", "target_n": 400}}'
    curl -s localhost:8780/stats

Binary clients use :meth:`repro.serve.client.ServeClient.solve_binary`.
"""

from __future__ import annotations

import argparse
import sys

from ..solvers.config import SolverConfig
from .http import ServeHTTPServer
from .service import ServeConfig, SolveService
from .shard import ShardConfig, ShardedSolveService


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Concurrent solve service: session cache, micro-batching, latency SLOs.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8780, help="bind port (default 8780; 0 = ephemeral)")
    parser.add_argument("--checkpoint", default=None,
                        help="versioned DSS checkpoint served to model-based preconditioners")
    parser.add_argument("--preconditioner", default="ddm-lu",
                        help="default preconditioner for requests without a config (default ddm-lu)")
    parser.add_argument("--tolerance", type=float, default=1e-6,
                        help="default relative-residual tolerance (default 1e-6)")
    parser.add_argument("--subdomain-size", type=int, default=110,
                        help="default target sub-domain size (default 110)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (threads with --in-process; default 2)")
    parser.add_argument("--in-process", action="store_true",
                        help="single process, --workers threads (the PR-5 pool) "
                             "instead of sharded worker processes")
    parser.add_argument("--threads-per-worker", type=int, default=1,
                        help="serving threads inside each worker process (default 1)")
    parser.add_argument("--start-method", default=None, choices=("fork", "spawn"),
                        help="multiprocessing start method (default: fork when available)")
    parser.add_argument("--max-restarts", type=int, default=3,
                        help="restart budget per worker slot before the shard "
                             "is marked dead (default 3)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="micro-batch size bound (1 disables batching; default 8)")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="longest wait in ms for more same-session requests, "
                             "taken only after a batch that had company — a lone "
                             "request dispatches at once (default 2)")
    parser.add_argument("--cache-capacity", type=int, default=8,
                        help="prepared-session LRU capacity (default 8)")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="per-worker queue bound before 503 load shedding (default 64)")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="default per-request deadline in ms (default: none)")
    parser.add_argument("--fallback", action="append", default=None, metavar="KIND",
                        help="degradation-ladder rung for the default config "
                             "(repeatable, tried in order; e.g. --fallback ddm-lu)")
    parser.add_argument("--debug", action="store_true",
                        help="include tracebacks in internal-error responses "
                             "(never enable on untrusted networks)")
    args = parser.parse_args(argv)

    model = None
    if args.checkpoint:
        from ..gnn.checkpoint import load_model

        model = load_model(args.checkpoint)
        print(f"loaded model from {args.checkpoint}")

    solver_config = SolverConfig(
        preconditioner=args.preconditioner,
        tolerance=args.tolerance,
        subdomain_size=args.subdomain_size,
        checkpoint=args.checkpoint if args.preconditioner == "ddm-gnn" else None,
        fallback=args.fallback or [],
    )
    # the same service either way; only the executor differs
    serve_config = ServeConfig(
        workers=args.workers if args.in_process else args.threads_per_worker,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        cache_capacity=args.cache_capacity,
        max_queue=args.max_queue,
        default_deadline_ms=args.deadline_ms,
    )
    if args.in_process:
        service = SolveService(serve_config, model=model,
                               default_solver_config=solver_config)
        pool = f"threads={args.workers}"
    else:
        service = ShardedSolveService(
            serve_config,
            model=model,
            default_solver_config=solver_config,
            shard_config=ShardConfig(
                workers=args.workers,
                threads_per_worker=args.threads_per_worker,
                start_method=args.start_method,
                max_restarts=args.max_restarts,
            ),
        )
        pool = (f"processes={args.workers}"
                f"×{args.threads_per_worker} thread(s), "
                f"pids={service.pids()}")
    server = ServeHTTPServer(service, host=args.host, port=args.port, debug=args.debug)
    host, port = server.address
    print(f"repro.serve listening on http://{host}:{port} "
          f"({pool}, max_batch={args.max_batch}, "
          f"max_wait_ms={args.max_wait_ms:g})")
    print("endpoints: POST /solve (JSON or application/x-repro-frame), "
          "GET /healthz, GET /stats — Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
