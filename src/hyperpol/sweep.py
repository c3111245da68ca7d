"""Parameter sweeps, the resonant-interval search, and robustness scans.

A sweep writes its grid points in row-major axis order, with the engines
of each point in a fixed order, so the same spec always writes the same
bytes.  The exact engine solves a sweep's valid points, and the grid of
the resonant-interval search, as one batch (`engine.evaluate_exact_batch`),
whose results are those of evaluating each point alone; robustness scans
and the golden-section steps of the search evaluate one point at a time.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import analytic
from .catalog import MagicRow, finite_pulse_tau
from .engine import evaluate_exact, evaluate_exact_batch
from .params import (SequenceParams, SystemParams, config_from_dict, json_array, json_object,
                     resolve_time, whole_number)

SYSTEM_FIELDS = ("omega", "a_perp", "a_z")
SEQUENCE_FLOAT_FIELDS = ("tau", "t_s", "t_w", "t_c", "tau_pi")
SEQUENCE_INT_FIELDS = ("n_p", "n_r")
AXIS_NAMES = SYSTEM_FIELDS + SEQUENCE_FLOAT_FIELDS + SEQUENCE_INT_FIELDS

ENGINES = ("exact", "analytic", "both")
TARGETS = ("stable_polarization", "rate")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
MAX_TAU_GRID_POINTS = 10_001  # find_tau_res grid limit: about 2 s of batched exact points


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
        base_system, base_sequence = config_from_dict(json_object("base", d["base"]))
        entries = json_array("axes", d["axes"])
        axes = tuple(
            Axis(
                name=a["name"],
                start=resolve_time(a["start"], base_system.omega),
                stop=resolve_time(a["stop"], base_system.omega),
                count=whole_number(f"axis {a['name']} count", a["count"]),
            )
            for a in [json_object(f"axes[{i}]", a) for i, a in enumerate(entries)]
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
    if sys_kwargs:
        sys = replace(sys, **sys_kwargs)
    if seq_kwargs:
        seq = replace(seq, **seq_kwargs)
    problems = seq.violations()
    if problems:
        raise ValueError("invalid sequence: " + "; ".join(problems))
    return sys, seq


def _point_rows(spec: SweepSpec, engines: tuple[str, ...], values: tuple[float, ...],
                point, exact) -> list[tuple]:
    """The rows of one grid point: `point` is its (system, sequence) or the
    ValueError apply_point raised, and `exact` yields its exact result."""
    axis1 = values[0]
    axis2 = values[1] if len(values) > 1 else ""
    if isinstance(point, ValueError):
        return [(axis1, axis2, e, None, None, None, f"failed: {point}") for e in engines]
    rows = []
    for engine in engines:
        try:
            res = analytic.summarize(*point) if engine == "analytic" else next(exact)
        except ValueError as err:
            res = err
        if isinstance(res, ValueError):
            rows.append((axis1, axis2, engine, None, None, None, f"failed: {res}"))
        elif engine == "analytic":
            rows.append((axis1, axis2, engine, res.p_s, res.lam, res.gamma, "ok"))
        else:
            status = "below-threshold" if spec.target == "rate" and res.gamma is None else "ok"
            rows.append((axis1, axis2, engine, res.p_s, res.lambda_est, res.gamma, status))
    return rows


def _grid(spec: SweepSpec, names: tuple[str, ...]):
    """(values, point) in row-major axis order; point is what apply_point returns or raises."""
    for combo in itertools.product(*(a.values() for a in spec.axes)):
        values = tuple(map(float, combo))
        try:
            yield values, apply_point(spec.base_system, spec.base_sequence, names, values)
        except ValueError as err:
            yield values, err


def run_sweep(spec: SweepSpec) -> ResultTable:
    """Evaluate the grid in row-major axis order; output order is fixed.

    The exact engine solves the valid points as one batch
    (`engine.evaluate_exact_batch`), and they share one propagator memo
    (see `engine.propagate`), which lives as long as this call.
    """
    names = tuple(a.name for a in spec.axes)
    engines = ("exact", "analytic") if spec.engine == "both" else (spec.engine,)
    table = ResultTable(
        header=spec.header(),
        columns=("axis1", "axis2", "engine", "P_s", "lambda", "gamma", "status"),
    )

    grid = _grid(spec, names)
    exact = iter(())
    if "exact" in engines:
        # the batch reads the valid points up to one chunk ahead of the rows; tee holds them
        ahead, grid = itertools.tee(grid)
        exact = evaluate_exact_batch((p for _, p in ahead if not isinstance(p, ValueError)),
                                     cache={})
    for values, p in grid:
        table.rows.extend(_point_rows(spec, engines, values, p, exact))
    return table


def _rate_for_tau(sys: SystemParams, seq: SequenceParams, tau: float,
                  tau_pi: float, cache: dict) -> float | None:
    try:
        point = apply_point(sys, seq, ("tau", "tau_pi"), (tau, tau_pi))
        return evaluate_exact(*point, cache=cache).gamma
    except ValueError:
        return None


def _rates_on_grid(sys: SystemParams, seq: SequenceParams, taus: list[float],
                   tau_pi: float, cache: dict) -> list[float | None]:
    """_rate_for_tau at every grid tau, the valid points solved as one batch."""
    points = []
    for tau in taus:
        try:
            points.append(apply_point(sys, seq, ("tau", "tau_pi"), (tau, tau_pi)))
        except ValueError:
            points.append(None)
    results = evaluate_exact_batch((p for p in points if p is not None), cache=cache)
    rates = []
    for point in points:
        res = None if point is None else next(results)
        rates.append(None if res is None or isinstance(res, ValueError) else res.gamma)
    return rates


def find_tau_res(sys: SystemParams, seq: SequenceParams, tau_pi: float,
                 search_halfwidth: float, grid_step: float) -> float:
    """Pulse interval maximizing the exact polarization rate.

    The grid is centered on the resonance-restoring value
    tau - tau_pi/n_p (the ideal tau when tau_pi = 0), ties break toward
    smaller tau, and a golden-section pass refines the best grid point to
    +-grid_step/10; both share one propagator memo.  The grid holds at most
    MAX_TAU_GRID_POINTS points, solved as one batch.
    Raises ValueError for a negative tau_pi, a non-finite
    search_halfwidth / grid_step or a grid past that limit, and
    NoResonanceError on a flat landscape.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if search_halfwidth <= 0:
        raise ValueError("search_halfwidth must be positive")
    ratio = search_halfwidth / grid_step
    if not math.isfinite(ratio):
        raise ValueError(f"search_halfwidth / grid_step is not finite: "
                         f"{search_halfwidth} / {grid_step}")
    center = finite_pulse_tau(seq.tau, tau_pi, seq.n_p)
    steps = int(round(ratio))
    if 2 * steps + 1 > MAX_TAU_GRID_POINTS:
        raise ValueError(f"the tau grid would hold {2 * steps + 1} points, more than "
                         f"{MAX_TAU_GRID_POINTS}; widen grid_step or narrow search_halfwidth")
    taus = [center + k * grid_step for k in range(-steps, steps + 1)]
    cache: dict = {}
    rates = _rates_on_grid(sys, seq, taus, tau_pi, cache)
    usable = [(r, t) for r, t in zip(rates, taus) if r is not None]
    if not usable:
        raise NoResonanceError("no grid point produced a polarization rate")
    best_rate = max(r for r, _ in usable)
    best_tau = min(t for r, t in usable if r == best_rate)

    # one golden-section pass around the winning grid point
    def negated(t: float) -> float:
        r = _rate_for_tau(sys, seq, t, tau_pi, cache)
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
    invalid, with ideal and finite pulses alike.  All points share one
    propagator memo.
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
    cache: dict = {}
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
                res = evaluate_exact(*point, cache=cache)
            except ValueError as err:
                table.rows.append(label + (None, None, f"failed: {err}"))
                continue
            status = "ok" if res.gamma is not None else "below-threshold"
            table.rows.append(label + (abs(res.p_s), res.gamma, status))
    return table
