"""Pytest configuration for the benchmark harnesses.

Each ``bench_*`` module reproduces one table or figure of the paper.  They are
regular pytest tests using the ``benchmark`` fixture of pytest-benchmark, so

    pytest benchmarks/ --benchmark-only

runs them all and prints both the pytest-benchmark timing table and the
paper-shaped rows emitted on stdout (run with ``-s`` to see the tables live).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# make `import common` work regardless of the rootdir pytest was invoked from
sys.path.insert(0, str(Path(__file__).resolve().parent))


def pytest_addoption(parser):
    """Point the pytest-driven benches at trained checkpoints.

    ``--checkpoint`` feeds the homogeneous reference model
    (``common.get_pretrained_model``), ``--het-checkpoint`` the heterogeneous
    one; both accept files written by ``repro.gnn.checkpoint`` (e.g.
    ``benchmarks/artifacts/<hash>/checkpoint.npz``).
    """
    parser.addoption("--checkpoint", action="store", default=None,
                     help="checkpoint file for the homogeneous reference DSS model")
    parser.addoption("--het-checkpoint", action="store", default=None,
                     help="checkpoint file for the heterogeneous reference DSS model")


def pytest_configure(config):
    # delivered through the environment so `common.py` stays import-order
    # agnostic (the examples import it outside pytest too)
    checkpoint = config.getoption("--checkpoint", default=None)
    het_checkpoint = config.getoption("--het-checkpoint", default=None)
    if checkpoint:
        os.environ["REPRO_BENCH_CHECKPOINT"] = checkpoint
    if het_checkpoint:
        os.environ["REPRO_BENCH_HET_CHECKPOINT"] = het_checkpoint
