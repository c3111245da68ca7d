"""Workload inputs, CLI invocations and output checks of the hyperpol benchmark.

Every workload is a list of ``hyperpol`` command lines over JSON configs
that this module generates from the seed.  Seed 0 reproduces the inputs
documented in NOTES.md exactly.  For ``resonance_search`` and
``long_train`` other seeds draw the frequency unit omega and scale a_perp
and every time with it: the same dimensionless problem in other
floating-point numbers, so the work per pass, and with it the metric,
stays comparable across seeds.  ``exact_sweep`` and ``analytic_landscape``
are pinned for every seed: their outputs are checked against values
stored from the reference commit, and re-seeding ``exact_sweep`` would move its
known convergence failures.

The checks use the acceptance suite's tolerances, not byte equality, so
that a more accurate solver still passes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("resonance_search", "exact_sweep", "long_train", "analytic_landscape")
SIZES = ("full", "tiny")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
PI = math.pi

# criterion 07: find_tau_res lands within 0.01 pi/omega of tau - tau_pi/n_p
RESONANCE_TOLERANCE = 0.01 * PI
# criterion 03: ideal pulses at a magic point give |P_s| >= 0.98 with the row's sign
MAGIC_MIN_ABS_P = 0.98
# looser than the 2.2e-5 stopping-rule error, tighter than any physics change
EXACT_P_S_TOLERANCE = 1e-4
# the batch-versus-scalar gate of the analytic path
ANALYTIC_REL_TOLERANCE = 1e-12
# rounding slack on |P_s| <= 1
UNIT_SLACK = 1e-9

README_BASE = {
    "system": {"omega": 1.0, "a_perp": 0.05, "a_z": 0.0},
    "sequence": {
        "n_p": 1, "tau": "2 pi/omega",
        "t_s": "3/2 pi/omega", "t_w": "3/2 pi/omega", "t_c": "3/2 pi/omega",
        "n_r": 4,
        "pulse_model": {"kind": "finite", "tau_pi": "0.2 pi/omega"},
    },
}


@dataclass
class Call:
    """One CLI invocation; ``check`` reads ``out`` and returns (failed units, errors)."""

    argv: list[str]
    out: str
    units: int
    check: Callable[[str], tuple[int, list[str]]]


@dataclass
class Workload:
    name: str
    unit: str
    calls: list[Call]
    inputs: dict

    @property
    def units(self) -> int:
        return sum(c.units for c in self.calls)


def build(name: str, seed: int, size: str, workdir: str) -> Workload:
    """Generate the workload's configs under ``workdir`` and return its calls."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    os.makedirs(workdir, exist_ok=True)
    builder = {
        "resonance_search": _resonance_search,
        "exact_sweep": _exact_sweep,
        "long_train": _long_train,
        "analytic_landscape": _analytic_landscape,
    }[name]
    return builder(random.Random(seed), seed, size == "tiny", Path(workdir))


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return str(path)


def _pi_time(fraction: float) -> str:
    return f"{fraction!r} pi/omega"


# other seeds draw omega log-uniformly from [1/OMEGA_SPAN, OMEGA_SPAN]
OMEGA_SPAN = 2.0


def _omega(rng, seed) -> float:
    return 1.0 if seed == 0 else OMEGA_SPAN ** rng.uniform(-1.0, 1.0)


# ---------------------------------------------------------------------------
# resonance_search: the criterion-07 searches
# ---------------------------------------------------------------------------

RESONANCE_ROWS = (("I", 1, 8), ("I", 2, 4), ("II", 1, 8))
RESONANCE_TAU_PI = (0.1, 0.2, 0.4)  # units of pi/omega
RESONANCE_A_PERP = 0.01  # units of omega


def _resonance_search(rng, seed, tiny, workdir) -> Workload:
    from hyperpol.catalog import magic_params

    rows = RESONANCE_ROWS[:1] if tiny else RESONANCE_ROWS
    tau_pi_fracs = (0.2,) if tiny else RESONANCE_TAU_PI
    halfwidth = 0.02 if tiny else 0.08
    omega = _omega(rng, seed)
    system = {"omega": omega, "a_perp": RESONANCE_A_PERP * omega, "a_z": 0.0}
    calls, searches = [], []
    for method, n_p, n_r in rows:
        row = magic_params(method, +1, n_p)
        d = row.to_dict()
        config = _write_json(workdir / f"res_{method}_{n_p}_{n_r}.json", {
            "system": system,
            "sequence": {"n_p": n_p, "n_r": n_r,
                         **{k: d[k] for k in ("tau", "t_s", "t_w", "t_c")}},
        })
        for frac in tau_pi_fracs:
            out = str(workdir / f"res_{method}_{n_p}_{n_r}_{len(calls)}.out.json")
            expected = (float(row.tau) - frac / n_p) * PI / omega
            calls.append(Call(
                argv=["find-tau-res", "--config", config, "--tau-pi", _pi_time(frac),
                      "--halfwidth", _pi_time(halfwidth), "--grid-step", _pi_time(0.01),
                      "--out", out],
                out=out, units=1,
                check=lambda path, e=expected: _check_search(path, e, omega)))
            searches.append({"row": [method, n_p, n_r], "tau_pi_over_pi": frac})
    return Workload("resonance_search", "searches", calls,
                    {"system": system, "searches": searches})


def _check_search(path: str, expected: float, omega: float) -> tuple[int, list[str]]:
    with open(path) as fh:
        tau_res = json.load(fh)["tau_res"]
    error = abs(tau_res - expected) * omega
    if not error <= RESONANCE_TOLERANCE:
        return 1, [f"{os.path.basename(path)}: tau_res {tau_res!r} is {error / PI:.4f} pi/omega "
                   f"from tau - tau_pi/n_p"]
    return 0, []


# ---------------------------------------------------------------------------
# exact_sweep: the README sweep spec as written
# ---------------------------------------------------------------------------

def _sweep_spec(engine: str, axes: list[tuple[str, int]]) -> dict:
    return {
        "target": "rate",
        "engine": engine,
        "axes": [{"name": n, "start": 0, "stop": "2 pi/omega", "count": c} for n, c in axes],
        "base": README_BASE,
    }


def _exact_sweep(rng, seed, tiny, workdir) -> Workload:
    count = 3 if tiny else 81
    spec = _sweep_spec("both", [("t_s", count)])
    config = _write_json(workdir / "exact_sweep.json", spec)
    out = str(workdir / "exact_sweep.csv")
    call = Call(argv=["sweep", "--config", config, "--out", out, "--jobs", "1"],
                out=out, units=2 * count,
                check=lambda path: _check_exact_sweep(path, 2 * count))
    return Workload("exact_sweep", "rows", [call], {"spec": spec})


def _read_table(path: str) -> list[dict]:
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _grid_index(value: float, grid: np.ndarray) -> int | None:
    step = (grid[-1] - grid[0]) / (len(grid) - 1)
    i = int(round((value - grid[0]) / step))
    if 0 <= i < len(grid) and abs(grid[i] - value) <= 1e-12 * max(1.0, abs(value)):
        return i
    return None


def _analytic_mismatch(got: np.ndarray, ref: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Entries off by more than 1e-12 of their column's largest magnitude, or NaN.

    Relative to the column rather than the entry, because P_s rounds to
    about 1e-16 where it vanishes.
    """
    return ~(np.abs(got - ref) <= ANALYTIC_REL_TOLERANCE * scale)


def _load_exact_reference() -> dict:
    with open(REFERENCE_DIR / "exact_sweep.json") as fh:
        return json.load(fh)


def _check_exact_sweep(path: str, expected_rows: int) -> tuple[int, list[str]]:
    ref = _load_exact_reference()
    grid = np.asarray(ref["t_s"])
    ref_analytic = np.asarray(ref["analytic"], dtype=float)
    scale = np.max(np.abs(ref_analytic), axis=0)
    rows = _read_table(path)
    errors = []
    if len(rows) != expected_rows:
        errors.append(f"exact_sweep: {len(rows)} rows, expected {expected_rows}")
    failed = 0
    for row in rows:
        i = _grid_index(float(row["axis1"]), grid)
        status = row["status"]
        values = np.array([float(row[k]) for k in ("P_s", "lambda", "gamma")])
        label = f"exact_sweep t_s={row['axis1']} {row['engine']}"
        if i is None:
            failed += 1
            errors.append(f"{label}: not a point of the pinned grid")
        elif row["engine"] == "analytic":
            if status != "ok" or np.any(_analytic_mismatch(values, ref_analytic[i], scale)):
                failed += 1
                errors.append(f"{label}: {status} {values.tolist()} differs from "
                              f"{ref_analytic[i].tolist()}")
        elif status.startswith("failed:"):
            failed += 1
            if ref["exact_P_s"][i] is not None:
                errors.append(f"{label}: {status}, but the reference commit solved this point")
        else:
            problems = _exact_row_problems(status, values, ref["exact_P_s"][i])
            if problems:
                failed += 1
                errors.append(f"{label}: " + "; ".join(problems))
    return failed, errors


def _exact_row_problems(status: str, values: np.ndarray, ref_p_s: float | None) -> list[str]:
    p_s, _, gamma = values
    problems = []
    if status not in ("ok", "below-threshold"):
        problems.append(f"unknown status {status!r}")
    if not abs(p_s) <= 1 + UNIT_SLACK:
        problems.append(f"|P_s| = {abs(p_s)!r} > 1")
    if not (math.isnan(gamma) or gamma > 0):
        problems.append(f"gamma = {gamma!r} is not positive")
    if ref_p_s is not None and not abs(p_s - ref_p_s) <= EXACT_P_S_TOLERANCE:
        problems.append(f"P_s = {p_s!r}, reference {ref_p_s!r}")
    return problems


# ---------------------------------------------------------------------------
# long_train: robustness scans of magic rows with n_p * n_r = 512
# ---------------------------------------------------------------------------

LONG_TRAIN_ROWS = (("I", +1, 8, 64), ("I", -1, 16, 32), ("II", +1, 32, 16), ("II", -1, 64, 8))
LONG_TRAIN_A_PERP = 0.001  # units of omega


def _long_train(rng, seed, tiny, workdir) -> Workload:
    omega = _omega(rng, seed)
    system = {"omega": omega, "a_perp": LONG_TRAIN_A_PERP * omega, "a_z": 0.0}
    rows = LONG_TRAIN_ROWS[:1] if tiny else LONG_TRAIN_ROWS
    steps = range(2) if tiny else range(11)
    doc = {
        "system": system,
        "rows": [{"method": m, "sign": s, "n_p": n_p, "n_r": n_r} for m, s, n_p, n_r in rows],
        "tau_pi_values": [_pi_time(k / 100) for k in steps],
    }
    config = _write_json(workdir / "long_train.json", doc)
    out = str(workdir / "long_train.csv")
    expected_rows = len(rows) * len(steps)
    call = Call(argv=["robustness", "--config", config, "--out", out], out=out,
                units=expected_rows,
                check=lambda path: _check_long_train(path, expected_rows, system))
    return Workload("long_train", "rows", [call], doc)


def _check_long_train(path: str, expected_rows: int, system: dict) -> tuple[int, list[str]]:
    rows = _read_table(path)
    errors = []
    if len(rows) != expected_rows:
        errors.append(f"long_train: {len(rows)} rows, expected {expected_rows}")
    failed = 0
    for row in rows:
        status = row["status"]
        abs_p_s, gamma = float(row["abs_P_s"]), float(row["gamma"])
        problems = []
        if status.startswith("failed:"):
            problems.append(status)
        elif status == "invalid":
            pass
        elif status not in ("ok", "below-threshold"):
            problems.append(f"unknown status {status!r}")
        elif not abs_p_s <= 1 + UNIT_SLACK:
            problems.append(f"|P_s| = {abs_p_s!r} > 1")
        elif not (math.isnan(gamma) or gamma > 0):
            problems.append(f"gamma = {gamma!r} is not positive")
        elif float(row["tau_pi"]) == 0:
            problems += _magic_problems(system, row, abs_p_s)
        if problems:
            failed += 1
            errors.append(f"long_train {row['method']}{row['sign']} n_p={row['n_p']} "
                          f"tau_pi={row['tau_pi']}: " + "; ".join(problems))
    return failed, errors


def _magic_problems(system: dict, row: dict, abs_p_s: float) -> list[str]:
    """Criterion 03 on an ideal-pulse row.

    The CSV holds |P_s| only, so the sign comes from a fresh exact solve
    of the same row.
    """
    from hyperpol.catalog import magic_params
    from hyperpol.engine import evaluate_exact
    from hyperpol.params import SystemParams

    if not abs_p_s >= MAGIC_MIN_ABS_P:
        return [f"ideal pulses give |P_s| = {abs_p_s!r} < {MAGIC_MIN_ABS_P}"]
    sign = int(row["sign"])
    sys_p = SystemParams(omega=system["omega"], a_perp=system["a_perp"])
    seq = magic_params(row["method"], sign, int(row["n_p"])).to_sequence_params(
        sys_p, n_r=int(row["n_r"]))
    p_s = evaluate_exact(sys_p, seq, with_rate=False).p_s
    if math.copysign(1, p_s) != sign:
        return [f"ideal pulses give P_s = {p_s!r}, not of sign {sign:+d}"]
    return []


# ---------------------------------------------------------------------------
# analytic_landscape: 201 x 201 closed-form rate map
# ---------------------------------------------------------------------------

def _analytic_landscape(rng, seed, tiny, workdir) -> Workload:
    count = 5 if tiny else 201
    spec = _sweep_spec("analytic", [("t_s", count), ("t_w", count)])
    config = _write_json(workdir / "analytic_landscape.json", spec)
    out = str(workdir / "analytic_landscape.csv")
    call = Call(argv=["sweep", "--config", config, "--out", out, "--jobs", "1"],
                out=out, units=count * count,
                check=lambda path: _check_landscape(path, count * count))
    return Workload("analytic_landscape", "rows", [call], {"spec": spec})


def _check_landscape(path: str, expected_rows: int) -> tuple[int, list[str]]:
    ref = np.load(REFERENCE_DIR / "analytic_landscape.npz")
    grid, values = ref["grid"], ref["values"]  # values[i, j] = (P_s, lambda, gamma)
    scale = np.max(np.abs(values), axis=(0, 1))
    rows = _read_table(path)
    errors = []
    if len(rows) != expected_rows:
        errors.append(f"analytic_landscape: {len(rows)} rows, expected {expected_rows}")
    if not rows:
        return 0, errors
    axes = np.array([[float(r["axis1"]), float(r["axis2"])] for r in rows])
    got = np.array([[float(r[k]) for k in ("P_s", "lambda", "gamma")] for r in rows])
    step = (grid[-1] - grid[0]) / (len(grid) - 1)
    index = np.clip(np.rint((axes - grid[0]) / step).astype(int), 0, len(grid) - 1)
    bad = np.any(np.abs(grid[index] - axes) > 1e-12 * np.maximum(1.0, np.abs(axes)), axis=1)
    bad |= np.array([r["status"] != "ok" for r in rows])
    bad |= np.any(_analytic_mismatch(got, values[index[:, 0], index[:, 1]], scale), axis=1)
    for k in np.flatnonzero(bad)[:20]:
        i, j = index[k]
        errors.append(f"analytic_landscape ({rows[k]['axis1']}, {rows[k]['axis2']}): "
                      f"{rows[k]['status']} {got[k].tolist()}, reference "
                      f"{values[i, j].tolist()}")
    if bad.sum() > 20:
        errors.append(f"analytic_landscape: {int(bad.sum()) - 20} more rows differ")
    return int(bad.sum()), errors
