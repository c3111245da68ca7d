"""Parameter sweeps, the resonant-interval search, and robustness scans.

A sweep writes its grid points in row-major axis order, with the engines
of each point in a fixed order, so the same spec always writes the same
bytes.  `run_sweep` returns at once with its rows still to come: they are
produced as they are read, one chunk of grid points at a time, so a sweep
written to a file holds one chunk, not the table, and its memory does not
grow with the grid.  A chunk is `engine.BATCH_SIZE` (256) points when the
exact engine runs and ANALYTIC_CHUNK (64) when it does not: the analytic
rows gain nothing from a larger chunk, and a 201x201 analytic sweep ran
about 3% faster in chunks of 64 than of 256.  The exact engine solves
each chunk's valid points, and the grid of the resonant-interval search,
as one batch (`engine.evaluate_exact_batch`): one stacked walk, one real
eig of the chunk's affine Bloch maps and one evaluation of the first 64
cycles of their mode sums, with the results of evaluating each point
alone.  The README's 81-point sweep is one chunk, and a 201x201 grid is
158 chunks.  A batch and a single point take the engine's one walk: the
points of a chunk that differ only in their waits form one group, which
renders and walks its DD blocks once, the groups that share n_p and n_r
compose their cycles as one stack, and each wait is two phases computed
from its duration; the walk exponentiates each distinct (system, DD
leaf) of its chunk once and keeps no propagator after it.  Only robustness
scans and the search's golden-section steps go one point at a time, and
only they share a memo of DD-leaf propagators across their points.

Above the engine, each point costs one `apply_point` call, which copies
the base sequence's fields in (only a changed system goes through its
constructor) and checks the copy with a few comparisons, kept nowhere;
for an analytic row, one `analytic.summarize` call, a straight line of
`math` arithmetic; and its share of one `%` per batch in
`ResultTable.to_csv`, which writes the bytes of csv.writer without going
through it.  Every table, a sweep's, a robustness scan's or a `simulate`
series, is written the same way, in batches of ANALYTIC_CHUNK (64) rows:
a batch's rows of one field-type shape are formatted at once.  On the
201x201 (t_s, t_w) analytic map these take about 2.2, 2.5 and 3.3 us of
a 9.6 us point (2 vCPUs, Python 3.11.7).  An exact point is checked
twice, here and again when the engine renders it: a few comparisons
against about 30 us of engine work.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import stat
from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import itemgetter
from types import NoneType

import numpy as np

from . import analytic
from .catalog import MagicRow, finite_pulse_tau
from .engine import BATCH_SIZE, evaluate_exact, evaluate_exact_batch
from .params import (SequenceParams, SystemParams, config_from_dict, json_array, json_object,
                     resolve_time, whole_number)
from .timeline import check_sequence

SYSTEM_FIELDS = ("omega", "a_perp", "a_z")
SEQUENCE_FLOAT_FIELDS = ("tau", "t_s", "t_w", "t_c", "tau_pi")
SEQUENCE_INT_FIELDS = ("n_p", "n_r")
AXIS_NAMES = SYSTEM_FIELDS + SEQUENCE_FLOAT_FIELDS + SEQUENCE_INT_FIELDS

ENGINES = ("exact", "analytic", "both")
TARGETS = ("stable_polarization", "rate")

ANALYTIC_CHUNK = 64  # grid points per chunk of a sweep without the exact engine; rows per CSV write
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
        # np.linspace steps by (stop - start) / (count - 1): an infinite or NaN
        # span writes NaN and infinite axis values, not the grid asked for
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"axis {self.name} needs a finite start and stop, "
                             f"got {self.start} and {self.stop}")
        if not math.isfinite(self.stop - self.start):
            raise ValueError(f"axis {self.name} spans more than a float holds: "
                             f"stop - start = {self.stop - self.start}")

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
        if len(self.axes) == 2 and self.axes[0].name == self.axes[1].name:
            # apply_point would let the second value win while axis1 printed the first
            raise ValueError(f"axis {self.axes[0].name} appears twice")

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
    """A header, column names and rows, written as one CSV.

    `rows` may be a one-pass iterable, as `run_sweep`'s are: then the rows
    are read once, by `to_csv` or by the caller, and are gone after.
    """
    header: dict
    columns: tuple[str, ...]
    rows: Iterable[tuple] = field(default_factory=list)

    def to_csv(self, fh) -> None:
        """Write the header line and the column names, then the rows as they
        are read, ANALYTIC_CHUNK (64) at a time: each batch's text in one
        write (see _csv_text).  64 divides BATCH_SIZE, so a sweep's rows
        are written chunk by chunk: every full chunk's rows are written
        before the next chunk is evaluated."""
        fh.write("# " + json.dumps(self.header, sort_keys=True) + "\n")
        fh.write(_csv_text([self.columns]))
        rows = iter(self.rows)
        while batch := list(itertools.islice(rows, ANALYTIC_CHUNK)):
            fh.write(_csv_text(batch))

    def write(self, path) -> None:
        """to_csv into the file at path.

        Whatever is raised once the file is open, a KeyboardInterrupt
        included, is raised again after the partly written file is
        removed, if path still names that file and it is a regular one;
        anything else (os.devnull, a symbolic link) is left as it is.
        """
        opened = None
        try:
            with open(path, "w") as fh:
                opened = os.fstat(fh.fileno())
                self.to_csv(fh)
        except BaseException:
            if opened is not None:
                with contextlib.suppress(OSError):
                    entry = os.lstat(path)
                    if stat.S_ISREG(entry.st_mode) and os.path.samestat(entry, opened):
                        os.remove(path)
            raise


def _csv_field(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, float):
        return "%.17g" % v
    text = str(v)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _template(shape: tuple[type, ...]) -> str:
    """The line template of a row whose fields have these types: a float
    (np.float64 included) is written as %.17g, None as nan and anything
    else as str; %.0s takes the None and prints nothing."""
    return ",".join("%.17g" if issubclass(t, float) else "nan%.0s" if t is NoneType else "%s"
                    for t in shape) + "\n"


def _csv_line(row: tuple) -> str:
    """row's line built field by field (see _csv_field); a row whose one field is empty is ""."""
    return (",".join(map(_csv_field, row)) or ('""' if row else "")) + "\n"


def _csv_text(rows: list[tuple]) -> str:
    """Each row as the line csv.writer(lineterminator="\n") writes for its fields,
    where a float field is written as %.17g, None as nan and anything else as
    str, joined.

    csv (Python 3.11) quotes a field that holds a comma, a quote or a newline,
    doubling its quotes (a carriage return alone is not quoted), and a row
    whose one field is empty.  Formatted numbers hold none of these, so each
    run of consecutive rows with one field-type shape is formatted by a
    single %: its template repeated once per row, applied to the run's
    fields in order.  A run whose text shows an extra comma, a quote, an
    extra newline or an empty line is built again row by row through
    _csv_line.
    """
    shapes = [tuple(map(type, row)) for row in rows]
    templates = {shape: _template(shape) for shape in set(shapes)}
    parts = []
    for template, run in itertools.groupby(zip(map(templates.__getitem__, shapes), rows),
                                           itemgetter(0)):
        run = [row for _, row in run]
        count = len(run)
        text = template * count % tuple(itertools.chain.from_iterable(run))
        if (text.count(",") != count * (len(run[0]) - 1) or '"' in text
                or text.count("\n") != count or text[0] == "\n" or "\n\n" in text):
            text = "".join(map(_csv_line, run))
        parts.append(text)
    return "".join(parts)


def apply_point(sys: SystemParams, seq: SequenceParams,
                names: tuple[str, ...], values: tuple[float, ...]) -> tuple[SystemParams, SequenceParams]:
    """The base (sys, seq) with the named fields set to values, or the
    ValueError that the new parameters or `SequenceParams.violations` raise."""
    sys_kwargs = {}
    seq_kwargs = {}
    for name, value in zip(names, values):
        if name in SYSTEM_FIELDS:
            sys_kwargs[name] = float(value)
        elif name in SEQUENCE_FLOAT_FIELDS:
            seq_kwargs[name] = float(value)
        elif name in SEQUENCE_INT_FIELDS:
            seq_kwargs[name] = whole_number(name, value)
    # the constructor checks what dataclasses.replace would, at less cost per point
    if sys_kwargs:
        sys = SystemParams(**{**sys.to_dict(), **sys_kwargs})
    if seq_kwargs:
        # SequenceParams checks nothing when it is built, so its fields are
        # copied in: the frozen __init__ would set each one again through
        # object.__setattr__.  One merged dict is copied: updating the new
        # instance's dict from the base's key-sharing dict, then from the
        # changes, leaves a split table, and every later attribute read of
        # the copy (the check, summarize) then misses the interpreter's fast
        # path, about 0.2 us a point more on the analytic map
        fields = {**vars(seq), **seq_kwargs}
        seq = object.__new__(SequenceParams)
        vars(seq).update(fields)
    check_sequence(seq)
    return sys, seq


def _sweep_chunks(spec: SweepSpec, grid, names: tuple[str, ...], engines: tuple[str, ...]):
    """The rows of `grid`, an iterator of axis-value tuples, as one list per
    chunk of BATCH_SIZE points, or ANALYTIC_CHUNK points when the exact
    engine does not run: the exact engine solves a chunk's valid points
    as one batch, whose walk exponentiates each distinct DD leaf of the
    chunk once, and a chunk's rows are yielded before the next chunk is read.
    Each point is built by one apply_point call, and its analytic row by one
    analytic.summarize call."""
    base_sys, base_seq = spec.base_system, spec.base_sequence
    unrated = "below-threshold" if spec.target == "rate" else "ok"
    pad = ("",) if len(names) == 1 else ()  # axis2 of a one-axis sweep
    size = BATCH_SIZE if "exact" in engines else ANALYTIC_CHUNK
    while chunk := list(itertools.islice(grid, size)):
        points = []
        for values in chunk:
            try:
                points.append(apply_point(base_sys, base_seq, names, values))
            except ValueError as err:
                points.append(err)
        exact = iter(())
        if "exact" in engines:
            exact = evaluate_exact_batch([p for p in points if not isinstance(p, ValueError)])
        rows = []
        for values, point in zip(chunk, points):
            axis1, axis2 = values + pad
            if isinstance(point, ValueError):
                rows.extend((axis1, axis2, e, None, None, None, f"failed: {point}")
                            for e in engines)
                continue
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
                    rows.append((axis1, axis2, engine, res.p_s, res.lambda_est, res.gamma,
                                 "ok" if res.gamma is not None else unrated))
        yield rows


def run_sweep(spec: SweepSpec) -> ResultTable:
    """The sweep's table, whose rows are evaluated as they are read, once,
    in row-major axis order; output order is fixed.

    The axis values are built before this returns, so a count too large
    to allocate raises here, before any file is opened.
    """
    names = tuple(a.name for a in spec.axes)
    engines = ("exact", "analytic") if spec.engine == "both" else (spec.engine,)
    grid = itertools.product(*(a.values().tolist() for a in spec.axes))
    return ResultTable(
        header=spec.header(),
        columns=("axis1", "axis2", "engine", "P_s", "lambda", "gamma", "status"),
        rows=itertools.chain.from_iterable(_sweep_chunks(spec, grid, names, engines)),
    )


def _rates_on_grid(sys: SystemParams, seq: SequenceParams, taus: list[float],
                   tau_pi: float) -> list[float | None]:
    """The exact rate at each tau (with tau_pi), or None where the point is
    invalid, cannot be evaluated or stays below threshold; the valid points
    are solved as one batch."""
    points = []
    for tau in taus:
        try:
            points.append(apply_point(sys, seq, ("tau", "tau_pi"), (tau, tau_pi)))
        except ValueError:
            points.append(None)
    results = evaluate_exact_batch(p for p in points if p is not None)
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
    +-grid_step/10, one evaluate_exact call per step through one memo, so a
    step after the first exponentiates only its new free half-cell.  The
    grid holds at most MAX_TAU_GRID_POINTS points, solved as one batch.
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
    rates = _rates_on_grid(sys, seq, taus, tau_pi)
    usable = [(r, t) for r, t in zip(rates, taus) if r is not None]
    if not usable:
        raise NoResonanceError("no grid point produced a polarization rate")
    best_rate = max(r for r, _ in usable)
    best_tau = min(t for r, t in usable if r == best_rate)

    # one golden-section pass around the winning grid point
    memo: dict = {}

    def negated(t: float) -> float:
        try:  # an invalid point, one that cannot be evaluated, one below threshold: no rate
            r = evaluate_exact(*apply_point(sys, seq, ("tau", "tau_pi"), (t, tau_pi)),
                               cache=memo).gamma
        except ValueError:
            return math.inf
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
    invalid, with ideal and finite pulses alike.  The points go one at a
    time through one propagator memo.
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
