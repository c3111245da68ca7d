"""The package imports exactly the third-party modules pyproject.toml declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyperpol"


def third_party_imports() -> set[str]:
    """Top-level names of the modules imported under src/hyperpol, less the
    standard library and the package itself."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "hyperpol"}


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in project["dependencies"]}


def test_runtime_dependencies_are_what_the_package_imports():
    assert third_party_imports() == declared_dependencies() == {"numpy"}
