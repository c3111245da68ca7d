"""Regenerate the stored outputs that exact_sweep and analytic_landscape are checked against.

Run it only at the commit whose outputs the references pin (the files in
reference/ come from commit e8774ba), from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import workloads
from hyperpol import cli

BENCH_DIR = Path(__file__).resolve().parent


def _run(name: str, workdir: Path) -> list[dict]:
    (call,) = workloads.build(name, 0, "full", str(workdir)).calls
    if cli.main(call.argv) != 0:
        raise SystemExit(f"{name}: the CLI failed")
    return workloads._read_table(call.out)


def main() -> None:
    workdir = BENCH_DIR / ".work" / "make_reference"
    out_dir = workloads.REFERENCE_DIR
    out_dir.mkdir(exist_ok=True)
    try:
        rows = _run("exact_sweep", workdir)
        exact = [r for r in rows if r["engine"] == "exact"]
        analytic = [r for r in rows if r["engine"] == "analytic"]
        doc = {
            "t_s": [float(r["axis1"]) for r in exact],
            "exact_P_s": [None if r["status"].startswith("failed:") else float(r["P_s"])
                          for r in exact],
            "analytic": [[float(r[k]) for k in ("P_s", "lambda", "gamma")] for r in analytic],
        }
        (out_dir / "exact_sweep.json").write_text(json.dumps(doc, indent=1) + "\n")

        rows = _run("analytic_landscape", workdir)
        count = int(round(len(rows) ** 0.5))
        values = np.array([[float(r[k]) for k in ("P_s", "lambda", "gamma")] for r in rows])
        grid = np.array([float(r["axis2"]) for r in rows[:count]])
        np.savez_compressed(out_dir / "analytic_landscape.npz", grid=grid,
                            values=values.reshape(count, count, 3))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
