"""Every study script imports against the current package API.

Loading a script runs its imports and definitions but not its study,
which sits behind the `__main__` check.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).parent.parent / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_loads(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
