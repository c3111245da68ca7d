"""Every study script imports against the current package API and runs end to end.

Loading a script runs its imports and definitions but not its study,
which sits behind the `__main__` check; the end-to-end run executes the
study in a subprocess at a small size.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperpol

SCRIPTS = sorted((Path(__file__).parent.parent / "scripts").glob("*.py"))

# arguments that keep each study to well under a second
SMALL_ARGS = {
    "dynamics_compare": ["--cycles", "5"],
    "finite_pulse_robustness": [],
    "frequency_profile": ["--points", "5"],
    "rate_vs_pulses": ["--max-np", "2"],
    "steady_vs_waits": ["--points", "3"],
}


def test_scripts_are_found():
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_loads(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_runs(path, tmp_path):
    src = str(Path(hyperpol.__file__).resolve().parents[1])
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(path), "--out-dir", str(out_dir)] + SMALL_ARGS[path.stem],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    written = list(out_dir.glob("*.csv"))
    assert written and all(f.stat().st_size > 0 for f in written)
