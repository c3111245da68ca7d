"""hyperpol benchmark: run one workload at one seed and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload exact_sweep --seed 0 --seconds 5 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics; ``--trace 1`` is a separate run that prints per-layer self times
and counts from one traced pass, with its tracing overhead.  Every pass's outputs are checked.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a full record of the run is
written to ``bench/.work/runs/``.

Each workload runs in fresh worker processes (worker.py) with
``--jobs 1`` and the BLAS/OpenMP thread counts capped at the CPU count in
their environment.  The benchmark reads and writes only inside the
checkout and changes no machine, cgroup, CPU-frequency or cache setting.
Workloads, metrics and their bounds are listed in BENCHMARK.json and
explained in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from workloads import SIZES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
# set-up is sampled in this many fresh processes per run, the measuring one included
SETUP_SAMPLES = 3
# a run must finish within 180 s; leave room for start-up and the report
DEADLINE_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("units_per_s", "1/s"),
    ("ok_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for key in THREAD_VARIABLES:
        current = env.get(key, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            env[key] = str(nproc)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _spawn(mode: str, args, workdir: Path, env: dict, deadline: float,
           spans_out: Path | None = None) -> dict:
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before the run finished")
    command = [sys.executable, str(BENCH_DIR / "worker.py"), "--mode", mode,
               "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
               "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    command += ["--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{mode} worker still running after {remaining:.0f} s") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _meta(args, nproc: int, env: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": nproc, "loadavg_at_start": list(os.getloadavg()),
        "threads": {k: env[k] for k in THREAD_VARIABLES},
        "jobs": 1,
        "machine_settings": "untouched: no machine, cgroup, CPU-frequency or cache "
                            "setting was changed",
    }


def _report(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:40s} {value:>14.6g} {units[name]:6s} {note}")


def run(args) -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = _child_env(nproc)
    meta = _meta(args, nproc, env)
    deadline = time.perf_counter() + DEADLINE_S
    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    spans_out = None
    if args.trace:
        (WORK_DIR / "traces").mkdir(parents=True, exist_ok=True)
        spans_out = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    try:
        setups = [_spawn("setup", args, workdir, env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        result = _spawn("trace" if args.trace else "run", args, workdir, env, deadline,
                        spans_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])
    passes = result["passes"]
    attempted_units = sum(p["units"] for p in passes)
    failed_units = sum(p["failed_units"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    print(f"hyperpol benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(passes)} pass(es) of {result['units_per_pass']} {result['unit']}")
    if args.trace:
        metrics = result["layers"]
        units = dict(PER_LAYER)
        _report(metrics, units, {
            "trace.overhead_s": f"{metrics['trace.spans']} spans x "
                                f"{metrics['trace.overhead_s'] / max(metrics['trace.spans'], 1):.3g}"
                                f" s per wrapped call"})
    else:
        walls = [p["wall_s"] for p in passes]
        calibrated = [p["calibrated_s"] for p in passes]
        metrics = {
            "units_per_s": result["units_per_pass"] / statistics.median(calibrated),
            "ok_share": 1 - failed_units / attempted_units,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        _report(metrics, units, {
            "units_per_s": f"{result['unit']} per calibrated second, median of {len(walls)} "
                           f"pass(es); wall: {result['units_per_pass'] / statistics.median(walls):.4g}"
                           f"/s, pass {min(walls):.4g}-{max(walls):.4g} s, core speed "
                           f"{min(p['speed'] for p in passes):.3f}-"
                           f"{max(p['speed'] for p in passes):.3f}",
            "ok_share": f"failed_share = {failed_units}/{attempted_units} = "
                        f"{failed_units / attempted_units:.6g}",
            "setup_s": f"median of {len(setups)} fresh processes",
        })
    for line in errors[:20]:
        print(f"  check failed: {line}")
    record = {
        "correct": not errors,
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed_ops"] for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (WORK_DIR / "runs").mkdir(parents=True, exist_ok=True)
    full = {**record, "meta": meta, "inputs": result["inputs"], "setup_samples_s": setups,
            "passes": passes, "failed_units": failed_units, "attempted_units": attempted_units}
    run_file = WORK_DIR / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    run_file.write_text(json.dumps(full, indent=1) + "\n")
    print("meta: " + json.dumps(meta))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hyperpol benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="pass time to measure; at least one whole pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny shrinks every workload for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hyperpol" / "__init__.py").is_file():
        print(f"error: no hyperpol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
