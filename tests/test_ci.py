"""The CI workflow and the README's shell blocks reference only files that exist in the tree,
and the documented ``from repro… import …`` lines import.

Both are scanned as text (no YAML or Markdown parser): every ``benchmarks/…``,
``examples/…``, ``src/…`` and ``tests/…`` path they name, and every local
action the workflow ``uses: ./…``, must resolve — so a job or a documented
command that still runs a deleted script fails tier-1 instead of failing in
CI or in a reader's shell.  Likewise every ``from repro… import …`` in the
README's python blocks and in the package docstring's usage block (which no
doctest runs) must import, so a removed public name fails here first.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
README = REPO_ROOT / "README.md"
PACKAGE_INIT = REPO_ROOT / "src" / "repro" / "__init__.py"

#: a repo path: one of the tracked top-level directories, then path characters
#: (a pytest node id's ``::Test…`` suffix and trailing punctuation stop it)
_PATH = re.compile(r"(?<![\w./-])((?:benchmarks|examples|src|tests)/[\w./-]*\w)")
_LOCAL_ACTION = re.compile(r"uses:\s*\./([\w./-]+)")
#: one ``from repro… import …`` statement, a parenthesised name list included
_REPRO_IMPORT = re.compile(r"^[ \t]*(from repro[\w.]* import (?:\([^)]*\)|.*))$", re.M)


def referenced_paths(text: str) -> set:
    return set(_PATH.findall(text))


def shell_block_paths(markdown: str) -> set:
    """The paths named in a Markdown file's fenced shell blocks, less the ones with a
    ``<placeholder>`` component (a file the reader makes, such as a run's artifact directory)."""
    blocks = re.findall(r"^```(?:bash|sh|shell|console)\n(.*?)^```", markdown, flags=re.M | re.S)
    return referenced_paths(re.sub(r"\S*<[^>\s]*>\S*", "", "\n".join(blocks)))


def repro_imports(text: str) -> list:
    return sorted(set(_REPRO_IMPORT.findall(text)))


def python_block_imports(markdown: str) -> list:
    """The ``from repro… import …`` statements of a Markdown file's fenced python blocks."""
    return repro_imports("\n".join(re.findall(r"^```python\n(.*?)^```", markdown, flags=re.M | re.S)))


def usage_block_imports(module: Path) -> list:
    """The ``from repro… import …`` statements of a module docstring's ``Typical usage::`` block."""
    return repro_imports(ast.get_docstring(ast.parse(module.read_text())).split("Typical usage::", 1)[1])


def local_actions(text: str) -> set:
    return set(_LOCAL_ACTION.findall(text))


def test_scanner_finds_paths_and_actions():
    text = ('run: python benchmarks/gone.py --x\n'
            '"tests/test_shard.py::TestX" (tests/test_faults.py, examples/a.py.)\n'
            'uses: ./.github/actions/gone\n')
    assert referenced_paths(text) == {"benchmarks/gone.py", "tests/test_shard.py",
                                      "tests/test_faults.py", "examples/a.py"}
    assert local_actions(text) == {".github/actions/gone"}


def test_shell_block_scanner():
    text = ('Run `python examples/prose.py`:\n\n```bash\npython benchmarks/gone.py --out /tmp/x.json\n'
            'python -m repro.obs tail benchmarks/artifacts/<run>/traces.json\n```\n\n'
            '```python\nopen("tests/python_block.py")\n```\n')
    assert shell_block_paths(text) == {"benchmarks/gone.py"}


@pytest.mark.parametrize("path", sorted(referenced_paths(WORKFLOW.read_text())))
def test_referenced_path_exists(path):
    assert (REPO_ROOT / path).exists(), f"ci.yml names {path}, which is not in the tree"


@pytest.mark.parametrize("path", sorted(shell_block_paths(README.read_text())))
def test_readme_shell_path_exists(path):
    assert (REPO_ROOT / path).exists(), f"a README shell block names {path}, which is not in the tree"


def test_import_scanner():
    text = ('```python\nfrom repro.fem import Problem\nfrom repro.obs import trace as t  # tracing\n'
            '    from repro.a import (\n        b,\n        c,\n    )\nimport repro\n```\n\n'
            '```bash\npython -c "from repro.shell import x"\n```\n')
    assert python_block_imports(text) == ["from repro.a import (\n        b,\n        c,\n    )",
                                          "from repro.fem import Problem",
                                          "from repro.obs import trace as t  # tracing"]


@pytest.mark.parametrize("statement", sorted(set(python_block_imports(README.read_text()))
                                             | set(usage_block_imports(PACKAGE_INIT))))
def test_documented_import_resolves(statement):
    """A README python block or the package's usage docstring imports only names the package still has."""
    exec(statement, {})


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
