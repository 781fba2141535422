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


def doctest_step_paths(text: str) -> set:
    """The paths each ``--doctest-modules`` command collects from: the ones it
    names before the workflow's next list item."""
    paths = set()
    for command in text.split("--doctest-modules")[1:]:
        step = re.split(r"\n\s*- ", command, maxsplit=1)[0]
        paths |= referenced_paths(step)
    return paths


def modules_with_doctests() -> list:
    return sorted(
        str(path.relative_to(REPO_ROOT)) for path in (REPO_ROOT / "src").rglob("*.py")
        if any(line.lstrip().startswith(">>>") for line in path.read_text().splitlines()))


def test_doctest_step_scanner():
    text = ('      - name: Doctest pass\n'
            '        run: >\n'
            '          python -m pytest --doctest-modules -q\n'
            '          src/repro/fem/assembly.py\n'
            '          src/repro/nn\n'
            '      - name: Next\n'
            '        run: python -m pytest tests/test_x.py\n')
    assert doctest_step_paths(text) == {"src/repro/fem/assembly.py", "src/repro/nn"}


@pytest.mark.parametrize("module", modules_with_doctests())
def test_doctest_step_collects_module(module):
    """A module's ``>>>`` examples run in CI only if the doctest step names
    the module or a directory above it."""
    covered = doctest_step_paths(WORKFLOW.read_text())
    assert any(module == path or module.startswith(path + "/") for path in covered), (
        f"{module} has doctests, which ci.yml's --doctest-modules step does not collect")


def test_workflow_names_the_surviving_scripts():
    paths = referenced_paths(WORKFLOW.read_text())
    assert {"benchmarks/ledger/run.py", "benchmarks/check_obs_overhead.py",
            "benchmarks/paper_tables.py"} <= paths
