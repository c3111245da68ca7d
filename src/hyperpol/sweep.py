"""Parameter sweeps, the resonant-interval search, and robustness scans.

Grid points are independent pure evaluations; with jobs > 1 they are
farmed out to worker processes and reassembled in row-major order, so
the output is byte-identical regardless of worker count.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import analytic
from .catalog import MagicRow, finite_pulse_tau
from .engine import evaluate_exact
from .params import (PulseModel, SequenceParams, SystemParams, config_from_dict, resolve_time,
                     whole_number)

SYSTEM_FIELDS = ("omega", "a_perp", "a_z")
SEQUENCE_FLOAT_FIELDS = ("tau", "t_s", "t_w", "t_c")
SEQUENCE_INT_FIELDS = ("n_p", "n_r")
AXIS_NAMES = SYSTEM_FIELDS + SEQUENCE_FLOAT_FIELDS + SEQUENCE_INT_FIELDS + ("tau_pi",)

ENGINES = ("exact", "analytic", "both")
TARGETS = ("stable_polarization", "rate")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class NoResonanceError(RuntimeError):
    """The rate landscape was flat: no grid point produced a usable rate."""


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis parameter {self.name!r}; "
                             f"choose from {', '.join(AXIS_NAMES)}")
        if self.count < 2:
            raise ValueError(f"axis {self.name} needs count >= 2, got {self.count}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    target: str
    axes: tuple[Axis, ...]
    base_system: SystemParams
    base_sequence: SequenceParams
    engine: str = "exact"

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep takes one or two axes")

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        base_system, base_sequence = config_from_dict(d["base"])
        axes = tuple(
            Axis(
                name=a["name"],
                start=resolve_time(a["start"], base_system.omega),
                stop=resolve_time(a["stop"], base_system.omega),
                count=int(a["count"]),
            )
            for a in d["axes"]
        )
        return cls(
            target=d.get("target", "stable_polarization"),
            axes=axes,
            base_system=base_system,
            base_sequence=base_sequence,
            engine=d.get("engine", "exact"),
        )

    def header(self) -> dict:
        return {
            "target": self.target,
            "engine": self.engine,
            "axes": [{"name": a.name, "start": a.start, "stop": a.stop, "count": a.count}
                     for a in self.axes],
            "base": {
                "system": self.base_system.to_dict(),
                "sequence": self.base_sequence.to_dict(),
            },
        }


@dataclass
class ResultTable:
    header: dict
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    @staticmethod
    def _fmt(v) -> str:
        if v is None:
            return "nan"
        if isinstance(v, float):
            return format(v, ".17g")
        return str(v)

    def to_csv(self, fh) -> None:
        fh.write("# " + json.dumps(self.header, sort_keys=True) + "\n")
        # quotes a failure message that contains a comma, so every row keeps its fields
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows([self._fmt(v) for v in row] for row in self.rows)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            self.to_csv(fh)


def apply_point(sys: SystemParams, seq: SequenceParams,
                names: tuple[str, ...], values: tuple[float, ...]) -> tuple[SystemParams, SequenceParams]:
    sys_kwargs = {}
    seq_kwargs = {}
    for name, value in zip(names, values):
        if name in SYSTEM_FIELDS:
            sys_kwargs[name] = float(value)
        elif name in SEQUENCE_FLOAT_FIELDS:
            seq_kwargs[name] = float(value)
        elif name in SEQUENCE_INT_FIELDS:
            seq_kwargs[name] = whole_number(name, value)
        elif name == "tau_pi":
            model = PulseModel.finite(float(value)) if value != 0 else PulseModel.ideal()
            seq_kwargs["pulse_model"] = model
    if sys_kwargs:
        sys = replace(sys, **sys_kwargs)
    if seq_kwargs:
        seq = replace(seq, **seq_kwargs)
    problems = seq.violations()
    if problems:
        raise ValueError("invalid sequence: " + "; ".join(problems))
    return sys, seq


def _evaluate_point(args) -> list[tuple]:
    spec, values = args
    names = tuple(a.name for a in spec.axes)
    axis1 = values[0]
    axis2 = values[1] if len(values) > 1 else ""
    rows = []
    engines = ("exact", "analytic") if spec.engine == "both" else (spec.engine,)
    try:
        sys_p, seq_p = apply_point(spec.base_system, spec.base_sequence, names, values)
    except ValueError as err:
        return [(axis1, axis2, e, None, None, None, f"failed: {err}") for e in engines]
    for engine in engines:
        try:
            if engine == "analytic":
                s = analytic.summarize(sys_p, seq_p)
                rows.append((axis1, axis2, engine, s.p_s, s.lam, s.gamma, "ok"))
                continue
            res = evaluate_exact(sys_p, seq_p)
        except ValueError as err:
            rows.append((axis1, axis2, engine, None, None, None, f"failed: {err}"))
            continue
        gamma = res.gamma
        status = "ok"
        if spec.target == "rate" and gamma is None:
            status = "below-threshold"
        rows.append((axis1, axis2, engine, res.p_s, res.lambda_est, gamma, status))
    return rows


def run_sweep(spec: SweepSpec, jobs: int = 1) -> ResultTable:
    """Evaluate the grid in row-major axis order; output order is fixed."""
    grids = [a.values() for a in spec.axes]
    points = [tuple(float(v) for v in combo) for combo in itertools.product(*grids)]
    work = [(spec, values) for values in points]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_evaluate_point, work, chunksize=8))
    else:
        chunks = [_evaluate_point(w) for w in work]
    table = ResultTable(
        header=spec.header(),
        columns=("axis1", "axis2", "engine", "P_s", "lambda", "gamma", "status"),
    )
    for chunk in chunks:
        table.rows.extend(chunk)
    return table


def _rate_for_tau(sys: SystemParams, seq: SequenceParams, tau: float,
                  tau_pi: float) -> float | None:
    try:
        return evaluate_exact(*apply_point(sys, seq, ("tau", "tau_pi"), (tau, tau_pi))).gamma
    except ValueError:
        return None


def find_tau_res(sys: SystemParams, seq: SequenceParams, tau_pi: float,
                 search_halfwidth: float, grid_step: float) -> float:
    """Pulse interval maximizing the exact polarization rate.

    The grid is centered on the resonance-restoring value
    tau - tau_pi/n_p (the ideal tau when tau_pi = 0), ties break toward
    smaller tau, and a golden-section pass refines the best grid point to
    +-grid_step/10.  Raises ValueError for a negative tau_pi and
    NoResonanceError on a flat landscape.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if search_halfwidth <= 0:
        raise ValueError("search_halfwidth must be positive")
    center = finite_pulse_tau(seq.tau, tau_pi, seq.n_p)
    steps = int(round(search_halfwidth / grid_step))
    taus = [center + k * grid_step for k in range(-steps, steps + 1)]
    rates = [_rate_for_tau(sys, seq, t, tau_pi) for t in taus]
    usable = [(r, t) for r, t in zip(rates, taus) if r is not None]
    if not usable:
        raise NoResonanceError("no grid point produced a polarization rate")
    best_rate = max(r for r, _ in usable)
    best_tau = min(t for r, t in usable if r == best_rate)

    # one golden-section pass around the winning grid point
    def negated(t: float) -> float:
        r = _rate_for_tau(sys, seq, t, tau_pi)
        return -r if r is not None else math.inf

    a, b = best_tau - grid_step, best_tau + grid_step
    c = b - (b - a) * GOLDEN
    d = a + (b - a) * GOLDEN
    fc, fd = negated(c), negated(d)
    while (b - a) > grid_step / 5:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * GOLDEN
            fc = negated(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * GOLDEN
            fd = negated(d)
    return (a + b) / 2


def robustness_scan(rows: list[tuple[MagicRow, int]], tau_pi_values,
                    sys: SystemParams) -> ResultTable:
    """|P_s| and rate versus pulse duration for a set of magic rows.

    Each row keeps its waits; tau is shifted to tau - tau_pi/n_p per
    point.  Points whose sequence breaks `SequenceParams.violations` (the
    pulse no longer fits inside its shortened cell, or n_r < 1) are marked
    invalid, with ideal and finite pulses alike.
    """
    table = ResultTable(
        header={
            "system": sys.to_dict(),
            "rows": [{"method": r.method, "sign": r.sign, "n_p": r.n_p, "n_r": n_r}
                     for r, n_r in rows],
            "tau_pi_values": [float(t) for t in tau_pi_values],
        },
        columns=("method", "sign", "n_p", "n_r", "tau_pi", "abs_P_s", "gamma", "status"),
    )
    for row, n_r in rows:
        ideal = row.to_sequence_params(sys, n_r)
        for tau_pi in tau_pi_values:
            tau_pi = float(tau_pi)
            label = (row.method, row.sign, row.n_p, n_r, tau_pi)
            try:
                point = apply_point(sys, ideal, ("tau", "tau_pi"),
                                    (finite_pulse_tau(ideal.tau, tau_pi, row.n_p), tau_pi))
            except ValueError:
                table.rows.append(label + (None, None, "invalid"))
                continue
            try:
                res = evaluate_exact(*point)
            except ValueError as err:
                table.rows.append(label + (None, None, f"failed: {err}"))
                continue
            status = "ok" if res.gamma is not None else "below-threshold"
            table.rows.append(label + (abs(res.p_s), res.gamma, status))
    return table
