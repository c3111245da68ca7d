"""The package imports exactly the third-party modules pyproject.toml declares, and uses
no numpy name newer than the numpy floor it declares."""

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


# numpy names added after 1.24, the floor in pyproject.toml: in 1.25 (exceptions,
# dtypes), 2.0 and 2.1-2.2 (unstack, cumulative_*, matvec, vecmat)
NEWER_NUMPY = {f"numpy.{name}" for name in (
    "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh", "bitwise_invert",
    "bitwise_left_shift", "bitwise_right_shift", "concat", "cumulative_prod", "cumulative_sum",
    "dtypes", "exceptions", "isdtype", "long", "matrix_transpose", "matvec", "permute_dims", "pow",
    "strings", "trapezoid", "ulong", "unique_all", "unique_counts", "unique_inverse",
    "unique_values", "unstack", "vecdot", "vecmat")} | {f"numpy.linalg.{name}" for name in (
    "cross", "diagonal", "matmul", "matrix_norm", "matrix_transpose", "outer", "svdvals",
    "tensordot", "trace", "vecdot", "vector_norm")}


def newer_numpy_names(source: str) -> list[str]:
    """The dotted numpy names in NEWER_NUMPY that `source` imports or reads as attributes,
    through whatever names it binds numpy and its submodules to."""
    tree = ast.parse(source)
    bound = {}  # local name -> the numpy module it stands for
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    bound[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else "numpy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "numpy":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts, inner = [node.attr], node.value
            while isinstance(inner, ast.Attribute):
                parts.append(inner.attr)
                inner = inner.value
            if isinstance(inner, ast.Name) and inner.id in bound:
                used.append(".".join([bound[inner.id], *reversed(parts)]))
    used += bound.values()
    return sorted({name for name in used if name in NEWER_NUMPY})


def test_the_checker_sees_newer_numpy_names_however_they_are_bound():
    source = """
import numpy as np
import numpy.linalg as la
from numpy import linalg
from numpy.linalg import matrix_norm
np.matvec(a, b) @ la.vecdot(a, b) + linalg.outer(a, b) + np.linalg.matmul(a, b)
a.astype(float) + np.linalg.solve(a, b) + np.max(a, where=b, initial=-1.0)
"""
    assert newer_numpy_names(source) == [
        "numpy.linalg.matmul", "numpy.linalg.matrix_norm", "numpy.linalg.outer",
        "numpy.linalg.vecdot", "numpy.matvec"]


def test_the_package_uses_no_numpy_name_newer_than_its_floor():
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert "numpy>=1.24" in declared
    found = {str(path.relative_to(ROOT)): newer_numpy_names(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {path: names for path, names in found.items() if names} == {}
