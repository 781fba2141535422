"""The CI workflow references only files that exist in the tree.

The workflow is scanned as text (no YAML parser): every ``benchmarks/…``,
``examples/…``, ``src/…`` and ``tests/…`` path it names, and every local
action it ``uses: ./…``, must resolve — so a job that still runs a deleted
script fails tier-1 instead of failing in CI.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"

#: a repo path: one of the tracked top-level directories, then path characters
#: (a pytest node id's ``::Test…`` suffix and trailing punctuation stop it)
_PATH = re.compile(r"(?<![\w./-])((?:benchmarks|examples|src|tests)/[\w./-]*\w)")
_LOCAL_ACTION = re.compile(r"uses:\s*\./([\w./-]+)")


def referenced_paths(text: str) -> set:
    return set(_PATH.findall(text))


def local_actions(text: str) -> set:
    return set(_LOCAL_ACTION.findall(text))


def test_scanner_finds_paths_and_actions():
    text = ('run: python benchmarks/gone.py --x\n'
            '"tests/test_shard.py::TestX" (tests/test_faults.py, examples/a.py.)\n'
            'uses: ./.github/actions/gone\n')
    assert referenced_paths(text) == {"benchmarks/gone.py", "tests/test_shard.py",
                                      "tests/test_faults.py", "examples/a.py"}
    assert local_actions(text) == {".github/actions/gone"}


@pytest.mark.parametrize("path", sorted(referenced_paths(WORKFLOW.read_text())))
def test_referenced_path_exists(path):
    assert (REPO_ROOT / path).exists(), f"ci.yml names {path}, which is not in the tree"


def test_local_actions_exist():
    for action in local_actions(WORKFLOW.read_text()):
        directory = REPO_ROOT / action
        assert (directory / "action.yml").exists() or (directory / "action.yaml").exists(), (
            f"ci.yml uses ./{action}, which has no action.yml")


def test_workflow_names_the_surviving_scripts():
    paths = referenced_paths(WORKFLOW.read_text())
    assert {"benchmarks/ledger/run.py", "benchmarks/check_obs_overhead.py",
            "benchmarks/paper_tables.py"} <= paths
