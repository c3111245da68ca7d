"""Command-line interface.

Subcommands: simulate, steady, magic-table, sweep, find-tau-res,
robustness.  Exit codes: 0 success, 2 configuration error or an --out
that cannot be written, 3 find-tau-res found no resonance.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys as _sys

from . import analytic
from .catalog import finite_pulse_tau, full_table, magic_params
from .engine import cycle_kraus, evaluate_exact, mixed_state, simulate
from .params import (config_from_dict, json_array, json_object, resolve_time, system_from_dict,
                     whole_number)
from .sweep import (NoResonanceError, ResultTable, SweepSpec, find_tau_res, robustness_scan,
                    run_sweep)
from .timeline import check_sequence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_RATE = 3

# what parsing a JSON document of the wrong shape, type or size can raise
MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


class ConfigError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err


@contextlib.contextmanager
def _reading(what: str, doc):
    """Report a malformed JSON document `doc` as a ConfigError that starts with `what`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what}: expected a JSON object")
    try:
        yield
    except KeyError as err:
        raise ConfigError(f"{what}: missing key {err}") from err
    except MALFORMED as err:
        raise ConfigError(f"{what}: {err}") from err


def _load_config(path: str):
    doc = _load_json(path)
    with _reading(f"bad configuration in {path}", doc):
        sys_p, seq_p = config_from_dict(doc)
    check_sequence(seq_p)
    return sys_p, seq_p


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError raised while writing `path` as a ConfigError that names it."""
    try:
        yield
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from err


def _write_text(text: str, out: str | None) -> None:
    if out:
        with _writing(out), open(out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _write_json(doc: dict, out: str | None) -> None:
    _write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def cmd_simulate(args) -> int:
    if args.cycles < 1:
        raise ConfigError(f"--cycles must be >= 1, got {args.cycles}")
    sys_p, seq_p = _load_config(args.config)
    pair = cycle_kraus(sys_p, seq_p)
    series = simulate(pair, mixed_state(), args.cycles)
    table = ResultTable({"system": sys_p.to_dict(), "sequence": seq_p.to_dict()},
                        ("cycle", "polarization"),
                        zip(range(1, len(series) + 1), series.values.tolist()))
    with _writing(args.out):
        table.write(args.out)
    return EXIT_OK


def cmd_steady(args) -> int:
    sys_p, seq_p = _load_config(args.config)
    doc = {"system": sys_p.to_dict(), "sequence": seq_p.to_dict()}
    if args.engine in ("exact", "both"):
        result = evaluate_exact(sys_p, seq_p, use_nominal_duration=args.nominal_duration)
        doc["exact"] = result.to_dict()
    # the analytic summary rides along with every run for side-by-side reading
    doc["analytic"] = analytic.summarize(sys_p, seq_p).to_dict()
    _write_json(doc, args.out)
    return EXIT_OK


def cmd_magic_table(args) -> int:
    if args.max_np < 1:
        raise ConfigError(f"--max-np must be >= 1, got {args.max_np}")
    n_p_values = tuple(range(1, args.max_np + 1))
    rows = full_table(n_p_values)
    if args.format in ("json", "both"):
        path = args.out + ".json" if args.out else None
        _write_json({"rows": [r.to_dict() for r in rows]}, path)
    if args.format in ("csv", "both"):
        lines = ["method,sign,n_p,tau,t_s,t_w,t_c,gamma_window,sideband_fraction"]
        for r in rows:
            d = r.to_dict()
            lines.append(",".join([
                d["method"], str(d["sign"]), str(d["n_p"]),
                d["tau"], d["t_s"], d["t_w"], d["t_c"],
                d["gamma_window"], d["sideband_fractions"][0],
            ]))
        _write_text("\n".join(lines) + "\n", args.out + ".csv" if args.out else None)
    return EXIT_OK


def cmd_sweep(args) -> int:
    doc = _load_json(args.config)
    with _reading("bad sweep spec", doc):
        spec = SweepSpec.from_dict(doc)
        if args.engine:
            spec = dataclasses.replace(spec, engine=args.engine)
    with _writing(args.out):
        run_sweep(spec).write(args.out)
    return EXIT_OK


def cmd_find_tau_res(args) -> int:
    sys_p, seq_p = _load_config(args.config)
    tau_pi = resolve_time(args.tau_pi, sys_p.omega)
    halfwidth = resolve_time(args.halfwidth, sys_p.omega)
    grid_step = resolve_time(args.grid_step, sys_p.omega)
    tau_res = find_tau_res(sys_p, seq_p, tau_pi, halfwidth, grid_step)
    _write_json({
        "tau_res": tau_res,
        "tau_ideal": seq_p.tau,
        "tau_pi": tau_pi,
        "tau_shifted": finite_pulse_tau(seq_p.tau, tau_pi, seq_p.n_p),
    }, args.out)
    return EXIT_OK


def cmd_robustness(args) -> int:
    doc = _load_json(args.config)
    with _reading("bad robustness config", doc):
        sys_p = system_from_dict(doc["system"])
        rows = []
        for i, r in enumerate(json_array("rows", doc["rows"])):
            r = json_object(f"rows[{i}]", r)
            n_r = whole_number("n_r", r["n_r"])
            if n_r < 1:
                raise ValueError(f"n_r must be >= 1, got {n_r}")
            row = magic_params(r["method"], whole_number("sign", r["sign"]),
                               whole_number("n_p", r["n_p"]))
            rows.append((row, n_r))
        tau_pi_values = [resolve_time(t, sys_p.omega)
                         for t in json_array("tau_pi_values", doc["tau_pi_values"])]
        if not all(math.isfinite(t) for t in tau_pi_values):
            raise ValueError(f"tau_pi values must be finite, got {tau_pi_values}")
    table = robustness_scan(rows, tau_pi_values, sys_p)
    with _writing(args.out):
        table.write(args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperpol",
        description="Sequential nuclear-spin hyperpolarization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="polarization series for one configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--cycles", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("steady", help="steady polarization, lambda and rate")
    p.add_argument("--config", required=True)
    p.add_argument("--engine", choices=("exact", "analytic", "both"), default="both")
    p.add_argument("--nominal-duration", action="store_true",
                   help="normalize the rate by the pulse-free duration")
    p.add_argument("--out")
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("magic-table", help="dump the magic sequence catalog")
    p.add_argument("--max-np", type=int, default=8)
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.add_argument("--out", help="output basename (suffixes .csv/.json added)")
    p.set_defaults(func=cmd_magic_table)

    p = sub.add_parser("sweep", help="grid sweep from a JSON spec to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--engine", choices=("exact", "analytic", "both"))
    p.add_argument("--jobs", type=int,
                   help="accepted for compatibility and ignored; every sweep runs serially")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("find-tau-res", help="search the rate-maximizing pulse interval")
    p.add_argument("--config", required=True)
    p.add_argument("--tau-pi", required=True, help="pi-pulse duration (number or 'x pi/omega')")
    p.add_argument("--halfwidth", default="0.1 pi/omega")
    p.add_argument("--grid-step", default="0.005 pi/omega")
    p.add_argument("--out")
    p.set_defaults(func=cmd_find_tau_res)

    p = sub.add_parser("robustness", help="|P_s| and rate vs pulse duration for magic rows")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_robustness)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first main call and kept for the process:
    parse_args reads a parser without changing it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MemoryError, ValueError) as err:
        # past the parsers, a ValueError is a bad command-line value or a valid
        # config the engine cannot evaluate (frequency times duration overflows);
        # a MemoryError is a count too large to allocate (--cycles, an axis count)
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_CONFIG
    except NoResonanceError as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_NO_RATE


if __name__ == "__main__":
    raise SystemExit(main())
