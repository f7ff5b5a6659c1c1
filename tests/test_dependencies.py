"""The package runs on the standard library alone.

Every ``import`` and ``from ... import`` statement in ``src/confbessel``
names either the package itself or a standard-library module, and
``pyproject.toml`` declares no runtime dependency.  numpy, mpmath and the
test tools belong to the ``test`` extra.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "confbessel"
PYPROJECT = ROOT / "pyproject.toml"


def imported_roots(path):
    """(line, top-level module) for every absolute import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_itself_and_the_standard_library():
    allowed = sys.stdlib_module_names | {"confbessel"}
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    foreign = [f"{path.name}:{line}: {root}"
               for path in sources
               for line, root in imported_roots(path)
               if root not in allowed]
    assert foreign == []


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("numpy")
               for req in project["optional-dependencies"]["test"])
