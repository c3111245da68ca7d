"""Traced tiny runs of the sweep workloads through the benchmark's own entry point.

The tracer wraps functions such as `engine.propagate` by name and reads
their arguments, so a change in what the package calls through those
names shows here as a failed or incorrect run.  `long_train` has its own
traced test in bench/test_bench.py.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["exact_sweep", "analytic_landscape"])
def test_traced_tiny_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
