"""One fresh benchmark process: set up a workload, then run and check its passes.

Started by run.py, never by hand.  Modes:

- ``setup``: import the package and generate the configs, report the time
  from process start (``--spawned-at``, a ``time.perf_counter`` reading
  of the parent, which shares the system-wide monotonic clock) to the
  point where the first workload call would be made;
- ``run``: set up, then run whole passes until ``--seconds`` of pass time
  have been measured, sampling the core's speed during each pass
  (speed.py) and checking every pass outside the timed region;
- ``trace``: set up, run one pass under the span tracer and report
  per-layer self times and counts.

The result is printed as one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

T_IMPORT = time.perf_counter()
import hyperpol.cli  # noqa: E402  (timed: the package import is part of set-up)

IMPORT_S = time.perf_counter() - T_IMPORT

import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def run_pass(workload) -> tuple[float, list]:
    """Run every call of the workload once; returns (wall seconds, exit codes)."""
    for call in workload.calls:
        if os.path.exists(call.out):
            os.remove(call.out)
    codes = []
    start = time.perf_counter()
    for call in workload.calls:
        try:
            codes.append(hyperpol.cli.main(call.argv))
        except Exception as err:  # a traceback is a failed operation, not a crashed run
            codes.append(f"{type(err).__name__}: {err}")
    return time.perf_counter() - start, codes


def check_pass(workload, codes) -> dict:
    """Failure accounting of one pass: CLI operations and work units."""
    failed_ops = failed_units = 0
    errors = []
    for call, code in zip(workload.calls, codes):
        if code != 0:
            failed_ops += 1
            failed_units += call.units
            errors.append(f"{call.argv[0]} {call.out}: exit {code}")
            continue
        units, problems = call.check(call.out)
        failed_units += units
        failed_ops += bool(problems)
        errors += problems
    return {"ops": len(workload.calls), "failed_ops": failed_ops,
            "units": workload.units, "failed_units": failed_units, "errors": errors}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed, args.size, args.workdir)
    result = {"setup_s": time.perf_counter() - args.spawned_at,
              "units_per_pass": workload.units, "unit": workload.unit,
              "inputs": workload.inputs}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    passes = []
    if args.mode == "run":
        while not passes or sum(p["wall_s"] for p in passes) < args.seconds:
            with SpeedSampler() as sampler:
                _, codes = run_pass(workload)
            if not passes:
                # read before any output check raises the high-water mark
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            passes.append({"wall_s": sampler.work_s, "speed": sampler.speed(),
                           "calibrated_s": sampler.calibrated_s(),
                           **check_pass(workload, codes)})
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, codes = run_pass(workload)
        finally:
            tracer.uninstall()
        passes.append({"wall_s": traced_s, **check_pass(workload, codes)})
        result["layers"] = layer_metrics(tracer, traced_s, IMPORT_S)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    result["passes"] = passes
    print(json.dumps(result))

if __name__ == "__main__":
    main()
