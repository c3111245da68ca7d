import contextlib
import csv
import io
import itertools
import json
import math
import random
from dataclasses import asdict, replace
from types import NoneType

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hyperpol import analytic, engine, linalg, sweep
from hyperpol.catalog import finite_pulse_tau, magic_params
from hyperpol.engine import evaluate_exact, evaluate_exact_batch
from hyperpol.params import SequenceParams, SystemParams
from hyperpol.timeline import FREE_HYPERFINE, FREE_NUCLEAR, dd_leaves, render_unit
from hyperpol.sweep import (
    Axis,
    NoResonanceError,
    ResultTable,
    SweepSpec,
    apply_point,
    find_tau_res,
    robustness_scan,
    run_sweep,
)

from oracles import apply_point_replace, csv_rows

SYS = SystemParams(omega=1.0, a_perp=0.05)


def magic_seq(method="I", sign=+1, n_p=1, n_r=1):
    return magic_params(method, sign, n_p).to_sequence_params(SYS, n_r=n_r)


def spec_for(axes, engine="both", target="stable_polarization", base_seq=None):
    return SweepSpec(
        target=target,
        axes=axes,
        base_system=SYS,
        base_sequence=base_seq or magic_seq(),
        engine=engine,
    )


def listed(table: ResultTable) -> ResultTable:
    """The table with its rows read into a list, so that they can be read more than once."""
    return replace(table, rows=list(table.rows))


def csv_text(table: ResultTable) -> str:
    buf = io.StringIO()
    table.to_csv(buf)
    return buf.getvalue()


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("bogus", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        Axis("t_s", 0.0, 1.0, 1)


def test_degenerate_two_point_axis():
    spec = spec_for((Axis("t_s", 0.0, math.pi, 2),), engine="analytic")
    table = listed(run_sweep(spec))
    assert len(table.rows) == 2
    assert table.rows[0][0] == 0.0
    assert table.rows[1][0] == pytest.approx(math.pi)


def test_row_major_order_and_engine_interleaving():
    spec = spec_for((Axis("t_s", 0.0, 1.0, 2), Axis("t_w", 0.0, 1.0, 3)),
                    engine="both")
    table = listed(run_sweep(spec))
    assert len(table.rows) == 2 * 3 * 2
    # row-major over axes, engines innermost, exact first
    assert [r[2] for r in table.rows[:2]] == ["exact", "analytic"]
    axis_pairs = [(r[0], r[1]) for r in table.rows[::2]]
    assert axis_pairs == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
                          (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]


def test_engine_cross_check_at_magic_points():
    sys_small = SystemParams(omega=1.0, a_perp=0.05)
    for method, sign, n_p in [("I", +1, 1), ("I", -1, 2), ("II", +1, 1), ("II", -1, 2)]:
        seq = magic_params(method, sign, n_p).to_sequence_params(sys_small, n_r=1)
        spec = SweepSpec(target="stable_polarization",
                         axes=(Axis("n_r", 1, 2, 2),),
                         base_system=sys_small, base_sequence=seq, engine="both")
        table = run_sweep(spec)
        by_point = {}
        for row in table.rows:
            by_point.setdefault(row[0], {})[row[2]] = row[3]
        for point, engines in by_point.items():
            assert abs(engines["exact"] - engines["analytic"]) <= 0.02


def test_steady_polarization_crosses_zero_at_quarter_angles():
    # P_s vs t_s flips sign where the control angle passes the odd
    # quarter-turns; for an even four-pulse block at tau = pi the
    # crossings sit at t_s = 0, pi, 2 pi with +1 and -1 plateaus between
    sys_p = SystemParams(omega=1.0, a_perp=0.1)
    base = SequenceParams(n_p=4, tau=math.pi, t_s=0.0,
                          t_w=0.5 * math.pi, t_c=0.5 * math.pi, n_r=1)
    spec = SweepSpec(target="stable_polarization",
                     axes=(Axis("t_s", 0.0, 2 * math.pi, 9),),
                     base_system=sys_p, base_sequence=base, engine="exact")
    table = run_sweep(spec)
    values = {round(r[0] / math.pi, 3): r[3] for r in table.rows}
    # the crossings drift slightly off the nominal points at this coupling
    assert abs(values[0.0]) < 0.15 and abs(values[1.0]) < 0.15 and abs(values[2.0]) < 0.15
    assert values[0.5] > 0.95 and values[1.5] < -0.95
    assert values[0.25] > 0.3 and values[0.75] > 0.3
    assert values[1.25] < -0.3 and values[1.75] < -0.3


def test_sweep_series_target_rejected():
    with pytest.raises(ValueError):
        spec_for((Axis("t_s", 0.0, 1.0, 2),), target="series")


def test_sweep_spec_refuses_an_axis_named_twice():
    # apply_point would let the second t_s win while axis1 printed the first
    with pytest.raises(ValueError, match=r"^axis t_s appears twice$"):
        spec_for((Axis("t_s", 0.0, 1.0, 2), Axis("t_s", 2.0, 3.0, 2)))
    spec_for((Axis("t_s", 0.0, 1.0, 2), Axis("t_w", 0.0, 1.0, 2)))  # two names are fine


def test_sweep_integer_axis_validation():
    spec = spec_for((Axis("n_p", 1, 2, 3),), engine="analytic")
    table = listed(run_sweep(spec))
    # midpoint 1.5 is not an integer: that grid point fails, the rest succeed
    statuses = [r[6] for r in table.rows]
    assert statuses[0] == "ok" and statuses[2] == "ok"
    assert statuses[1].startswith("failed")
    # the failure message holds a comma; the CSV quotes it and keeps 7 fields
    rows = list(csv.reader(csv_text(table).splitlines()[1:]))
    assert all(len(row) == 7 for row in rows)
    assert rows[2][6] == statuses[1]


def test_every_engine_fails_at_invalid_grid_points():
    # t_s = -1 is a negative wait; tau_pi = -0.2 pi is a negative pulse duration and
    # tau_pi = 2.6 pi exceeds the base tau of 2 pi; only (t_s, tau_pi) = (1, 1.2 pi) is valid
    tau_pi_axis = Axis("tau_pi", -0.2 * math.pi, 2.6 * math.pi, 3)
    table = listed(run_sweep(spec_for((Axis("t_s", -1.0, 1.0, 2), tau_pi_axis))))
    assert len(table.rows) == 2 * 3 * 2
    by_point = {}
    for row in table.rows:
        by_point.setdefault((row[0], row[1]), {})[row[2]] = row
    negative, fits, too_long = (float(v) for v in tau_pi_axis.values())
    valid = (1.0, fits)
    for point, rows in by_point.items():
        assert set(rows) == {"exact", "analytic"}
        if point == valid:
            continue
        for row in rows.values():
            assert row[6].startswith("failed: invalid sequence: ")
            assert row[3:6] == (None, None, None)
    assert by_point[(1.0, negative)]["exact"][6] == (
        f"failed: invalid sequence: tau_pi negative: {negative}")
    assert "shorter than the pi-pulse duration" in by_point[(1.0, too_long)]["exact"][6]
    # the valid point is evaluated as it would be on its own
    seq = replace(magic_seq(), t_s=1.0, tau_pi=fits)
    exact = evaluate_exact(SYS, seq)
    summary = analytic.summarize(SYS, seq)
    assert by_point[valid]["exact"][3:] == (exact.p_s, exact.lambda_est, exact.gamma, "ok")
    assert by_point[valid]["analytic"][3:] == (summary.p_s, summary.lam, summary.gamma, "ok")
    assert all(len(row) == 7 for row in csv.reader(csv_text(table).splitlines()[1:]))


def test_a_segment_phase_without_digits_fails_its_row():
    spec = spec_for((Axis("a_perp", 0.05, 1e16, 2),), engine="exact")
    ok, lost = [row[6] for row in run_sweep(spec).rows]
    assert ok == "ok"
    assert lost == ("failed: segment phase H*t holds no digits modulo 2 pi "
                    "(omega=1.0, a_perp=1e+16, a_z=0.0, t=3.141592653589793)")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_engine_failure_rows_keep_the_message():
    # valid inputs whose segment phases overflow: the exact engine cannot evaluate them
    spec = SweepSpec(target="stable_polarization", axes=(Axis("omega", 1.0, 1e300, 2),),
                     base_system=SystemParams(omega=1.0, a_perp=1e300),
                     base_sequence=SequenceParams(n_p=1, tau=1e10), engine="both")
    rows = list(run_sweep(spec).rows)
    exact = [row[6] for row in rows if row[2] == "exact"]
    assert exact == [f"failed: segment phase H*t overflows (omega={omega}, a_perp=1e+300, "
                     f"a_z=0.0, t=5000000000.0)" for omega in ("1.0", "1e+300")]
    # the closed forms survive omega = 1, but at 1e300 the filter phase overflows
    analytic_rows = [row[6] for row in rows if row[2] == "analytic"]
    assert analytic_rows == ["ok", "failed: filter phase omega*tau overflows "
                                   "(omega=1e+300, tau=10000000000.0)"]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_analytic_row_names_an_overflowing_timing_phase():
    # omega * tau is finite at 1e300, but omega * T is not
    spec = SweepSpec(target="rate", axes=(Axis("omega", 1.0, 1e300, 2),), base_system=SYS,
                     base_sequence=SequenceParams(n_p=1, tau=1.0, t_w=1e10), engine="both")
    rows = list(run_sweep(spec).rows)
    analytic_rows = [row[6] for row in rows if row[2] == "analytic"]
    assert analytic_rows == ["ok", "failed: timing phase omega*T overflows "
                                   "(omega=1e+300, T=10000000004.0)"]
    assert [row[6] for row in rows if row[2] == "exact"] == [
        "ok", "failed: segment phase H*t overflows "
              "(omega=1e+300, a_perp=0.05, a_z=0.0, t=10000000000.0)"]


@pytest.mark.filterwarnings("error")
def test_sweep_refuses_a_sequence_whose_cycle_overflows():
    # tau = 1e308 is finite, 4 n_p tau is not: both engines refuse the point alike
    spec = spec_for((Axis("tau", 1.0, 1e308, 2),), target="rate",
                    base_seq=SequenceParams(n_p=1, tau=1.0))
    rows = list(run_sweep(spec).rows)
    assert [row[6] for row in rows] == ["ok", "ok"] + [
        "failed: invalid sequence: cycle duration n_r (2 t_s + t_w + 4 n_p tau + t_c "
        "+ 4 tau_pi) not finite: inf"] * 2
    assert all(v is None for row in rows[2:] for v in row[3:6])


def test_sweep_csv_format():
    spec = spec_for((Axis("t_s", 0.0, 1.0, 2),), engine="analytic")
    text = csv_text(run_sweep(spec))
    lines = text.splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "axis1,axis2,engine,P_s,lambda,gamma,status"
    assert len(lines) == 2 + 2


def test_sweep_rows_reach_the_file_chunk_by_chunk(monkeypatch, tmp_path):
    # the exact engine gets one chunk of the grid per call, and each chunk's rows
    # are written before the next chunk is solved
    out = tmp_path / "sweep.csv"
    batch, lengths, sizes = sweep.evaluate_exact_batch, [], []

    def recording(points):
        points = list(points)
        lengths.append(len(points))
        sizes.append(out.stat().st_size)
        return batch(points)

    monkeypatch.setattr(sweep, "evaluate_exact_batch", recording)
    # the writer reads 64 rows at a time: a full chunk's rows end a batch
    assert engine.BATCH_SIZE % sweep.ANALYTIC_CHUNK == 0
    spec = spec_for((Axis("t_s", 0.0, 2 * math.pi, 2 * engine.BATCH_SIZE + 3),), engine="exact")
    with open(out, "w", buffering=1) as fh:  # line-buffered: a written row is on disk
        run_sweep(spec).to_csv(fh)
    lines = out.read_bytes().splitlines(keepends=True)
    assert len(lines) == 2 + 2 * engine.BATCH_SIZE + 3
    assert lengths == [engine.BATCH_SIZE, engine.BATCH_SIZE, 3]
    # before each call: the header, the column names and the rows of the chunks before it
    assert sizes == [sum(map(len, lines[:2 + k * engine.BATCH_SIZE])) for k in range(3)]


def test_an_interrupted_write_removes_only_the_partial_file(tmp_path):
    def rows():  # one whole batch of rows, then one row of the next
        for i in range(sweep.ANALYTIC_CHUNK + 1):
            yield (float(i), "a")
        raise KeyboardInterrupt

    out = tmp_path / "table.csv"
    with pytest.raises(KeyboardInterrupt):
        ResultTable({}, ("x", "y"), rows()).write(out)
    assert list(tmp_path.iterdir()) == []
    # through a symbolic link the link and its target stay; the target holds what was
    # written: the rows of the batch finished before the interrupt
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    with pytest.raises(KeyboardInterrupt):
        ResultTable({}, ("x", "y"), rows()).write(link)
    assert link.is_symlink() and target.read_text() == '# {}\nx,y\n' + "".join(
        f"{i},a\n" for i in range(sweep.ANALYTIC_CHUNK))


def test_apply_point_maps_fields():
    sys_p, seq_p = apply_point(SYS, magic_seq(), ("omega", "tau", "n_r"), (2.0, 1.0, 3.0))
    assert sys_p.omega == 2.0
    assert seq_p.tau == 1.0
    assert seq_p.n_r == 3
    sys_p, seq_p = apply_point(SYS, magic_seq(), ("tau_pi",), (0.1,))
    assert seq_p.tau_pi == 0.1
    sys_p, seq_p = apply_point(SYS, magic_seq(), ("tau_pi",), (0.0,))
    assert seq_p.tau_pi == 0.0


SPECIAL_FLOATS = st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308])
FLOATS = st.one_of(SPECIAL_FLOATS, st.floats())
TEXT = st.one_of(st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "é"]), max_size=6),
                 st.text(max_size=6))
FIELDS = st.one_of(FLOATS, FLOATS.map(np.float64), st.none(), st.just(""),
                   st.integers(-2 ** 70, 2 ** 70), TEXT)


def rows_of(row):
    """Tables of up to two of the writer's 64-row batches and one row more, which repeat
    up to 5 rows drawn from `row` in turn, so that any table of up to 5 rows is drawn."""
    return st.tuples(st.integers(0, 2 * sweep.ANALYTIC_CHUNK + 1),
                     st.lists(row, min_size=1, max_size=5)).map(lambda t: (t[1] * t[0])[:t[0]])


TABLES = st.one_of(
    # one column
    st.tuples(st.tuples(TEXT), rows_of(st.tuples(FIELDS))),
    # any width, any field in any column
    st.integers(2, 8).flatmap(lambda k: st.tuples(st.tuples(*[TEXT] * k),
                                                  rows_of(st.tuples(*[FIELDS] * k)))),
    # robustness-shaped: method, sign, n_p, n_r, tau_pi, |P_s|, gamma, status
    st.tuples(st.just(("method", "sign", "n_p", "n_r", "tau_pi", "abs_P_s", "gamma", "status")),
              rows_of(st.tuples(TEXT, st.sampled_from([1, -1]), st.integers(1, 64),
                                st.integers(1, 64), FLOATS, st.none() | FLOATS,
                                st.none() | FLOATS, TEXT))),
)


def csv_writer_text(header: dict, columns: tuple, rows: list) -> str:
    """What ResultTable(header, columns, rows).to_csv writes, through csv.writer."""
    want = io.StringIO()
    want.write("# " + json.dumps(header, sort_keys=True) + "\n")
    csv_rows(want, [columns, *rows])
    return want.getvalue()


@given(TABLES)
def test_csv_rows_are_the_bytes_of_csv_writer(table):
    columns, rows = table
    header = {"k": [1.5, "a,b"]}
    got = io.StringIO()
    ResultTable(header, columns, rows).to_csv(got)
    assert got.getvalue() == csv_writer_text(header, columns, rows)


LONG_FIELDS = {
    float: lambda rng: rng.choice([0.1, -0.0, math.inf, math.nan, 5e-324, 1e308,
                                   rng.uniform(-1.0, 1.0)]),
    np.float64: lambda rng: np.float64(rng.uniform(-1e3, 1e3)),
    NoneType: lambda rng: None,
    int: lambda rng: rng.choice([0, -1, 7, 10 ** 20]),
    str: lambda rng: rng.choice(["ok", "exact", "", "below-threshold", "é x"]),
}
LONG_SHAPES = [
    (float, float, str, np.float64, np.float64, float, str),  # an exact sweep row
    (float, str, str, float, float, float, str),  # an analytic row of a one-axis sweep
    (float, float, str, NoneType, NoneType, NoneType, str),  # a failed sweep row
    (int, np.float64, NoneType, str, float, str, int),
]


@pytest.mark.parametrize("seed", range(3))
def test_chunked_runs_longer_than_a_batch_are_the_bytes_of_csv_writer(seed):
    rng = random.Random(seed)
    rows = []
    for length in [2 * engine.BATCH_SIZE + 1] + [rng.randint(1, 3 * engine.BATCH_SIZE)
                                                 for _ in range(8)]:
        shape = rng.choice(LONG_SHAPES)
        rows += [tuple(LONG_FIELDS[t](rng) for t in shape) for _ in range(length)]
    columns = tuple(f"c{i}" for i in range(7))
    table = ResultTable({"seed": seed}, columns, rows)
    assert csv_text(table) == csv_writer_text({"seed": seed}, columns, rows)


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("text", ["a,b", 'say "hi"', "x\ny", "a\rb", ""])
def test_a_row_that_needs_quoting_inside_a_long_run(width, text):
    n = 3 * engine.BATCH_SIZE
    rows = [(0.1 * i, np.float64(i), None, f"r{i}")[-width:] for i in range(n)]
    at = n // 2 + sweep.ANALYTIC_CHUNK // 2  # inside a batch, with rows of its shape around it
    rows[at] = rows[at][:-1] + (text,)
    columns = ("a", "b", "c", "d")[-width:]
    table = ResultTable({}, columns, rows)
    assert csv_text(table) == csv_writer_text({}, columns, rows)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_a_both_sweep_quotes_its_overflow_rows_as_csv_writer_does():
    spec = SweepSpec(target="rate", base_system=SYS, engine="both",
                     axes=(Axis("omega", 1.0, 1e300, 3),
                           Axis("a_perp", 0.01, 0.05, engine.BATCH_SIZE + 5)),
                     base_sequence=SequenceParams(n_p=1, tau=1.0, t_w=1e10))
    rows, table = list(run_sweep(spec).rows), run_sweep(spec)
    text = csv_text(table)
    assert text == csv_writer_text(spec.header(), table.columns, rows)
    assert sum(row[6].startswith("failed: segment phase") for row in rows) == 2 * (
        engine.BATCH_SIZE + 5)
    assert ('\n5.0000000000000003e+299,0.01,exact,nan,nan,nan,"failed: segment phase '
            'H*t overflows (omega=5e+299, a_perp=0.01, a_z=0.0, t=10000000000.0)"\n') in text


def test_csv_rows_quote_as_csv_writer_does():
    table = ResultTable({}, ("a",), [("",), ("x,y",), ('say "hi"',), ("a\rb",), ("a\nb",),
                                     (" lead",), (None,), (-0.0,), (np.float64(0.1),)])
    assert csv_text(table).split("\n", 1)[1] == "".join([
        "a\n", '""\n', '"x,y"\n', '"say ""hi"""\n', "a\rb\n", '"a\nb"\n', " lead\n",
        "nan\n", "-0\n", "0.10000000000000001\n"])


def outcome(f, *args):
    """What f(*args) returns, or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as err:
        return type(err), str(err)


AXIS_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, 0.5, 2.0, 3.0, 1e308,
                     2.0 ** 70, -(2.0 ** 70), 10 ** 30, -(10 ** 30), 1.5]),
    st.floats(), st.integers(-2 ** 80, 2 ** 80))


@given(st.lists(st.tuples(st.sampled_from(sweep.AXIS_NAMES), AXIS_VALUES), min_size=1,
                max_size=3),
       st.sampled_from([SequenceParams(n_p=1, tau=1.0), SequenceParams(n_p=2, tau=2.0, t_s=0.5,
                                                                       n_r=3, tau_pi=0.5)]))
# counts whose 4 n_p or 4 n_r does not convert to a float: a refused point, not an OverflowError
@example([("n_r", 1e308)], SequenceParams(n_p=1, tau=1.0))
@example([("n_p", 1e308)], SequenceParams(n_p=1, tau=1.0))
def test_apply_point_matches_replace_then_violations(point, base):
    names, values = zip(*point)
    got = outcome(apply_point, SYS, base, names, values)
    assert got == outcome(apply_point_replace, SYS, base, names, values)
    if not isinstance(got[0], type):
        assert [type(p) for p in got] == [SystemParams, SequenceParams]


def test_from_dict_resolves_time_strings():
    doc = {
        "target": "rate",
        "engine": "analytic",
        "axes": [{"name": "t_s", "start": "0 pi/omega", "stop": "2 pi/omega", "count": 5}],
        "base": {
            "system": {"omega": 2.0, "a_perp": 0.05},
            "sequence": {"n_p": 1, "tau": "2 pi/omega"},
        },
    }
    spec = SweepSpec.from_dict(doc)
    assert spec.axes[0].stop == pytest.approx(math.pi)
    assert spec.base_sequence.tau == pytest.approx(math.pi)


def test_find_tau_res_ideal_pulses_recovers_resonance():
    sys_p = SystemParams(omega=1.0, a_perp=0.05)
    seq = magic_seq(n_r=2)
    step = 0.01 * math.pi
    res = find_tau_res(sys_p, seq, tau_pi=0.0, search_halfwidth=0.05 * math.pi,
                       grid_step=step)
    assert abs(res - 2 * math.pi) <= step


def test_find_tau_res_finite_pulse_shift():
    sys_p = SystemParams(omega=1.0, a_perp=0.01)
    seq = magic_params("II", +1, 1).to_sequence_params(sys_p, n_r=8)
    tau_pi = 0.2 * math.pi
    res = find_tau_res(sys_p, seq, tau_pi, search_halfwidth=0.06 * math.pi,
                       grid_step=0.01 * math.pi)
    assert res == pytest.approx(seq.tau - tau_pi, abs=0.01 * math.pi)


def test_find_tau_res_grid_offset_invariance():
    sys_p = SystemParams(omega=1.0, a_perp=0.01)
    seq = magic_params("II", +1, 1).to_sequence_params(sys_p, n_r=8)
    tau_pi = 0.2 * math.pi
    step = 0.01 * math.pi
    a = find_tau_res(sys_p, seq, tau_pi, search_halfwidth=0.05 * math.pi, grid_step=step)
    b = find_tau_res(sys_p, seq, tau_pi, search_halfwidth=0.056 * math.pi, grid_step=step)
    assert abs(a - b) <= step


def test_find_tau_res_rejects_negative_tau_pi():
    with pytest.raises(ValueError, match="tau_pi"):
        find_tau_res(SYS, magic_seq(), tau_pi=-0.1, search_halfwidth=0.02 * math.pi,
                     grid_step=0.01 * math.pi)


def test_find_tau_res_rejects_a_non_finite_step_count():
    # 1e300 / 1e-300 overflows to inf, which has no integer step count
    with pytest.raises(ValueError, match="not finite"):
        find_tau_res(SYS, magic_seq(), tau_pi=0.0, search_halfwidth=1e300, grid_step=1e-300)


def test_find_tau_res_flat_landscape():
    sys_p = SystemParams(omega=1.0, a_perp=0.0)
    seq = magic_seq()
    with pytest.raises(NoResonanceError):
        find_tau_res(sys_p, seq, tau_pi=0.0, search_halfwidth=0.02 * math.pi,
                     grid_step=0.01 * math.pi)
    with pytest.raises(ValueError):
        find_tau_res(sys_p, seq, tau_pi=0.0, search_halfwidth=0.02 * math.pi,
                     grid_step=0.0)


def test_robustness_scan_continuity_and_invalid_rows():
    sys_p = SystemParams(omega=1.0, a_perp=0.05)
    rows = [(magic_params("I", +1, 1), 1)]
    table = robustness_scan(rows, [0.0, 1e-4 * math.pi, 3 * math.pi], sys_p)
    assert [r[7] for r in table.rows] == ["ok", "ok", "invalid"]
    ideal_ps, tiny_ps = table.rows[0][5], table.rows[1][5]
    assert abs(ideal_ps - tiny_ps) <= 1e-3
    ideal_g, tiny_g = table.rows[0][6], table.rows[1][6]
    assert tiny_g == pytest.approx(ideal_g, rel=1e-2)


def test_robustness_scan_marks_invalid_rows_alike_for_every_pulse_width():
    # n_r = 0 breaks SequenceParams.violations with ideal and finite pulses
    table = robustness_scan([(magic_params("I", 1, 2), 0)], [0, 0.1 * math.pi], SYS)
    assert [r[5:] for r in table.rows] == [(None, None, "invalid")] * 2


def test_robustness_scan_failure_rows_keep_the_message(monkeypatch):
    def fail(sys_p, seq_p, cache=None):
        raise ValueError("input is not unitary (defect nan)")

    monkeypatch.setattr(sweep, "evaluate_exact", fail)
    table = robustness_scan([(magic_params("I", 1, 1), 1)], [0.0, 0.1 * math.pi], SYS)
    assert [r[5:] for r in table.rows] == [
        (None, None, "failed: input is not unitary (defect nan)")] * 2


def test_robustness_scan_orders_methods():
    sys_p = SystemParams(omega=1.0, a_perp=0.01)
    rows = [(magic_params("I", +1, 1), 13), (magic_params("II", +1, 1), 8)]
    table = robustness_scan(rows, [0.4 * math.pi], sys_p)
    ps = {r[0]: r[5] for r in table.rows}
    assert ps["I"] > ps["II"]


def without_reuse(monkeypatch):
    """Make every point of a sweep, scan or search start from an empty propagator memo."""
    # robustness scans and golden-section steps pass their memo to each point: drop it
    monkeypatch.setattr(sweep, "evaluate_exact",
                        lambda sys_p, seq_p, cache=None: evaluate_exact(sys_p, seq_p))
    # the batch walks a chunk's points as one stack: run each point as a batch of one
    monkeypatch.setattr(sweep, "evaluate_exact_batch",
                        lambda points: itertools.chain.from_iterable(
                            evaluate_exact_batch([p]) for p in points))


def test_apply_point_copies_only_the_fields_and_checks_the_copy():
    # the copy holds its fields alone, before and after a check, and leaves the base as it was
    base = README_T_S_06
    before = asdict(base)
    assert base.violations() == [] and vars(base) == before
    sys_p, seq = apply_point(SYS, base, ("t_s", "n_r"), (0.5, 3.0))
    assert (seq.t_s, seq.n_r) == (0.5, 3) and seq == replace(base, t_s=0.5, n_r=3)
    assert vars(seq) == asdict(seq)
    assert seq.violations() == [] and vars(seq) == asdict(seq)
    assert render_unit(sys_p, seq) == render_unit(sys_p, replace(base, t_s=0.5, n_r=3))
    assert vars(base) == before and asdict(base) == before
    with pytest.raises(ValueError, match="invalid sequence: n_r must be >= 1, got 0"):
        apply_point(SYS, base, ("n_r",), (0.0,))


def count_segment_propagators(monkeypatch) -> list:
    """The segments exponentiated, one entry per segment of each grouped call."""
    calls = []
    original = engine.segment_propagator

    def counted(sys_p, segments, hyperfine):
        calls.extend(segments)
        return original(sys_p, segments, hyperfine)

    monkeypatch.setattr(engine, "segment_propagator", counted)
    return calls


def reuse_spec():
    # a system axis and a wait axis; the first t_s is negative, so its points are invalid
    ideal = magic_seq(n_r=2)
    base = replace(ideal, tau=finite_pulse_tau(ideal.tau, 0.1 * math.pi, ideal.n_p),
                   tau_pi=0.1 * math.pi)
    axes = (Axis("a_perp", 0.02, 0.08, 3), Axis("t_s", -0.25 * math.pi, 1.75 * math.pi, 5))
    return spec_for(axes, engine="exact", target="rate", base_seq=base)


def test_sweep_reuse_changes_no_number():
    spec = reuse_spec()
    rows = list(run_sweep(spec).rows)
    assert sum(row[6].startswith("failed: invalid sequence") for row in rows) == 3
    for a_perp, t_s, _, p_s, lam, gamma, status in rows:
        if status.startswith("failed"):
            continue
        fresh = evaluate_exact(replace(SYS, a_perp=a_perp), replace(spec.base_sequence, t_s=t_s))
        assert (p_s, lam, gamma) == (fresh.p_s, fresh.lambda_est, fresh.gamma)


def test_scan_and_search_reuse_change_no_number(monkeypatch):
    def scan_and_search():
        table = robustness_scan([(magic_params("I", +1, 1), 2), (magic_params("II", -1, 2), 1)],
                                [0.0, 0.1 * math.pi, 0.2 * math.pi, 3 * math.pi], SYS)
        seq = magic_params("II", +1, 1).to_sequence_params(SYS, n_r=4)
        tau_res = find_tau_res(SYS, seq, 0.2 * math.pi, search_halfwidth=0.04 * math.pi,
                               grid_step=0.01 * math.pi)
        return table.rows, tau_res

    shared = scan_and_search()
    without_reuse(monkeypatch)
    assert scan_and_search() == shared


def test_sweep_memo_lasts_one_call(monkeypatch):
    calls = count_segment_propagators(monkeypatch)
    spec = reuse_spec()
    distinct = set()
    for a_perp, t_s in itertools.product(*(a.values() for a in spec.axes)):
        if t_s >= 0:
            sys_p = replace(SYS, a_perp=float(a_perp))
            timeline = render_unit(sys_p, replace(spec.base_sequence, t_s=float(t_s)))
            distinct.update((sys_p, seg) for seg in timeline.leaves)
    list(run_sweep(spec).rows)
    first = len(calls)
    assert first == len(distinct)  # each distinct DD leaf once per chunk, and this is one
    assert not any(seg.kind == FREE_NUCLEAR for seg in calls)  # waits are phases
    list(run_sweep(spec).rows)
    assert len(calls) - first == first
    without_reuse(monkeypatch)
    list(run_sweep(spec).rows)
    assert first < len(calls) - 2 * first


# the README rate sweep's base at t_s = 0.6 pi, the point that crosses 1 - 1/e after 2^21 cycles
README_T_S_06 = SequenceParams(n_p=1, tau=2 * math.pi, t_s=0.6 * math.pi, t_w=1.5 * math.pi,
                               t_c=1.5 * math.pi, n_r=4, tau_pi=0.2 * math.pi)


@pytest.mark.parametrize("batch_size", [engine.BATCH_SIZE, 5])
def test_batched_sweep_matches_each_point_alone(monkeypatch, batch_size):
    # a_perp runs down from couplings that cross on cycle 2 or later in the first 1024
    # cycles to 0.15 and 0.10 (crossings after them), 0.05 (the README
    # point, past 2^21 cycles) and 0 (P_s = 0), so the slow points sit behind fast
    # ones in the stack they leave last; n_r = 4 - 2^55 is an invalid sequence, and
    # n_r = 2^55 squares the cycle propagator into a non-unitary matrix whose
    # rounding has grown past 1e250 at some couplings
    monkeypatch.setattr(engine, "BATCH_SIZE", batch_size)
    spec = spec_for((Axis("a_perp", 2.0, 0.0, 41), Axis("n_r", 4 - 2.0 ** 55, 4 + 2.0 ** 55, 3)),
                    engine="exact", target="rate", base_seq=README_T_S_06)
    table = listed(run_sweep(spec))
    expected, p_s, n_s = [], {}, {}
    for a_perp, n_r in itertools.product(*(a.values() for a in spec.axes)):
        row = (float(a_perp), float(n_r), "exact")
        try:
            point = apply_point(SYS, README_T_S_06, ("a_perp", "n_r"), (a_perp, n_r))
            res = evaluate_exact(*point)
        except ValueError as err:
            expected.append(row + (None, None, None, f"failed: {err}"))
            continue
        status = "ok" if res.gamma is not None else "below-threshold"
        expected.append(row + (res.p_s, res.lambda_est, res.gamma, status))
        # keyed by a_perp in steps of 0.05
        p_s[round(a_perp / 0.05)], n_s[round(a_perp / 0.05)] = res.p_s, res.n_s
    assert table.rows == expected
    want, got = io.StringIO(), io.StringIO()
    ResultTable(table.header, table.columns, expected).to_csv(want)
    table.to_csv(got)
    assert got.getvalue() == want.getvalue()

    # every fate is there
    statuses = [row[6] for row in table.rows]
    invalid = "failed: invalid sequence: n_r must be >= 1, got -36028797018963964"
    assert statuses.count(invalid) == 41
    assert sum(s.startswith("failed: cycle propagator is not unitary (defect ")
               and s.endswith(", n_p=1, n_r=36028797018963968)") for s in statuses) == 41
    assert any("e+2" in s for s in statuses)  # a defect above 1e200
    assert len(n_s) == 41
    assert abs(p_s[0]) <= 1e-6 and n_s[0] is None
    assert all(n_s[k] is not None for k in n_s if k)
    assert n_s[1] > 2 ** 21  # the README point, past the old series cap
    assert n_s[2] > 2 * engine.SERIES_BLOCK and n_s[3] > engine.SERIES_BLOCK
    assert n_s[14] == pytest.approx(1.0)  # a_perp = 0.7 crosses on cycle 2
    # crossings on cycles of nine bit lengths up to 1024, in block 0 and in later blocks, up
    # to cycle 849 (a_perp = 0.25 crosses near cycle 251, of bit length 8)
    levels = {round(v).bit_length() for v in n_s.values() if v is not None and v < 1024}
    assert levels == {1, 2, 3, 4, 5, 6, 7, 8, 10}


def each_point_alone(spec: SweepSpec) -> ResultTable:
    """The exact rows of the spec's grid, each point evaluated alone, without a memo."""
    names = tuple(a.name for a in spec.axes)
    rows = []
    for combo in itertools.product(*(a.values() for a in spec.axes)):
        values = tuple(map(float, combo))
        row = (values[0], values[1], "exact")
        try:
            res = evaluate_exact(*apply_point(spec.base_system, spec.base_sequence, names, values))
        except ValueError as err:
            rows.append(row + (None, None, None, f"failed: {err}"))
            continue
        status = "ok" if res.gamma is not None else "below-threshold"
        rows.append(row + (res.p_s, res.lambda_est, res.gamma, status))
    return ResultTable(spec.header(), ("axis1", "axis2", "engine", "P_s", "lambda", "gamma",
                                       "status"), rows)


ZERO_WAITS = SequenceParams(n_p=2, tau=2 * math.pi, n_r=3)
# one grid per case, each an exact rate sweep that fits in one chunk
STACKED_GRIDS = {
    # cells and cycles of several counts in one stack
    "n_p x n_r": ((Axis("n_p", 1, 4, 4), Axis("n_r", 1, 8, 8)), README_T_S_06),
    # zero-duration waits and free halves, zero-width and finite pulses
    "t_s x tau_pi": ((Axis("t_s", 0.0, math.pi, 3), Axis("tau_pi", 0.0, 2 * math.pi, 3)),
                     ZERO_WAITS),
    # every point has a system of its own: more distinct (system, DD leaf) pairs than the memo
    # holds, six per system
    "tau x omega": ((Axis("tau", 1.5 * math.pi, 2.5 * math.pi, 2), Axis("omega", 0.8, 1.2, 48)),
                    replace(README_T_S_06, t_c=0.5 * math.pi)),
    # omega * t overflows: exp(-i inf) is NaN, and only the overflowing points fail
    "omega x a_perp": ((Axis("omega", 1.0, 1e300, 3), Axis("a_perp", 0.0, 0.1, 2)),
                       SequenceParams(n_p=1, tau=1e10)),
    "a_z x t_w": ((Axis("a_z", -0.05, 0.05, 3), Axis("t_w", 0.0, 2 * math.pi, 5)),
                  README_T_S_06),
    "t_c x a_perp": ((Axis("t_c", 0.0, 2 * math.pi, 5), Axis("a_perp", 0.02, 0.1, 3)),
                     README_T_S_06),
    # groups of points that differ only in their waits, interleaved in grid order: of one
    # n_p and n_r, and of several
    "t_s x tau": ((Axis("t_s", 0.0, 2 * math.pi, 5), Axis("tau", 1.5 * math.pi, 2.5 * math.pi, 3)),
                  README_T_S_06),
    "t_s x n_r": ((Axis("t_s", 0.0, 2 * math.pi, 5), Axis("n_r", 1, 3, 3)), README_T_S_06),
}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("case", STACKED_GRIDS)
def test_stacked_walk_matches_each_point_alone(case):
    axes, base = STACKED_GRIDS[case]
    spec = spec_for(axes, engine="exact", target="rate", base_seq=base)
    table = listed(run_sweep(spec))
    expected = each_point_alone(spec)
    assert table.rows == expected.rows
    want, got = io.StringIO(), io.StringIO()
    expected.to_csv(want)
    table.to_csv(got)
    assert got.getvalue() == want.getvalue()

    statuses = [row[6] for row in table.rows]
    assert len(statuses) <= engine.BATCH_SIZE
    if case == "tau x omega":
        points = [apply_point(SYS, base, ("tau", "omega"), v)
                  for v in itertools.product(*(a.values() for a in axes))]
        leaves = {(p[0], seg) for p in points for seg in render_unit(*p).leaves}
        assert len(leaves) > engine.MEMO_LIMIT
    if case == "omega x a_perp":
        assert statuses == ["below-threshold", "ok"] + [
            f"failed: segment phase H*t overflows (omega={omega}, a_perp={a_perp}, a_z=0.0, "
            f"t=5000000000.0)" for omega in ("5e+299", "1e+300") for a_perp in ("0.0", "0.1")]
    if case == "t_s x tau_pi":  # at tau_pi = tau the free halves of the cells last 0 too
        assert not any(s.startswith("failed") for s in statuses)


def test_a_wait_only_chunk_exponentiates_each_dd_generator_once(monkeypatch):
    # 256 points of one group: one stack, one segment_propagator call per generator of
    # the five DD leaves, and none for the waits
    log = exponentiation_log(monkeypatch)
    axes = (Axis("t_s", 0.0, 2 * math.pi, 16), Axis("t_w", 0.0, 2 * math.pi, 16))
    table = listed(run_sweep(spec_for(axes, engine="exact", target="rate", base_seq=README_T_S_06)))
    assert len(table.rows) == engine.BATCH_SIZE
    assert [e[1] for e in log if e[0] == "stack"] == [engine.BATCH_SIZE]
    generators = [e[1] for e in log if e[0] == "generator"]
    assert len(generators) == len(set(generators))
    assert set(generators) == {engine._generator(SYS, seg) for seg in dd_leaves(README_T_S_06)}


def test_a_generator_eigh_cannot_factor_fails_only_its_points(monkeypatch):
    # no physical input is known to make eigh raise, so one omega's generators are made to
    original = engine.hermitian_expm

    def failing(h, t=1.0):
        if h[0, 0].real == 0.6:  # omega / 2 of the hyperfine and nuclear Hamiltonians at 1.2
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(h, t)

    monkeypatch.setattr(engine, "hermitian_expm", failing)
    axes = (Axis("omega", 0.8, 1.2, 3), Axis("t_s", 0.0, 2 * math.pi, 5))
    spec = spec_for(axes, engine="exact", target="rate", base_seq=README_T_S_06)
    table = listed(run_sweep(spec))
    assert table.rows == each_point_alone(spec).rows
    statuses = [row[6] for row in table.rows]
    assert statuses == ["ok"] * 10 + ["failed: Eigenvalues did not converge"] * 5


def test_find_tau_res_refuses_a_grid_past_the_limit_before_building_it():
    with pytest.raises(ValueError, match=r"2000001 points, more than 10001"):
        find_tau_res(SYS, magic_seq(), tau_pi=0.0, search_halfwidth=0.1 * math.pi,
                     grid_step=1e-7 * math.pi)
    # the largest grid the limit allows: 2 * 5000 + 1 points
    assert sweep.MAX_TAU_GRID_POINTS == 10_001


def exponentiation_log(monkeypatch) -> list:
    """From now on, in order: ("stack", k) for each stack of k timelines the engine
    walks, ("generator", key) for each segment_propagator call and ("expm",) for each
    hermitian_expm call."""
    log = []

    def logging(name, entry):
        original = getattr(engine, name)

        def logged(*args):
            log.append(entry(*args))
            return original(*args)

        monkeypatch.setattr(engine, name, logged)

    logging("_walk", lambda groups, cache: ("stack", sum(len(g.waits) for g in groups)))
    logging("segment_propagator",
            lambda sys_p, segments, hyperfine: ("generator", engine._generator(sys_p, segments[0])))
    logging("hermitian_expm", lambda h, t=1.0: ("expm",))
    return log


def robustness_points(rows, tau_pi_values) -> list:
    """The (system, sequence) of each valid point of robustness_scan(rows, tau_pi_values, SYS)."""
    points = []
    for row, n_r in rows:
        ideal = row.to_sequence_params(SYS, n_r)
        for tau_pi in tau_pi_values:
            with contextlib.suppress(ValueError):
                points.append(apply_point(SYS, ideal, ("tau", "tau_pi"),
                                          (finite_pulse_tau(ideal.tau, tau_pi, row.n_p), tau_pi)))
    return points


@pytest.mark.parametrize("case", ["t_s x t_w sweep", "robustness scan"])
def test_each_distinct_segment_is_exponentiated_once(monkeypatch, case):
    segments = count_segment_propagators(monkeypatch)
    log = exponentiation_log(monkeypatch)
    if case == "t_s x t_w sweep":  # BATCH_SIZE + 17 points: a chunk of BATCH_SIZE and one of 17
        t_w = (engine.BATCH_SIZE + 17) // 13
        assert 13 * t_w == engine.BATCH_SIZE + 17
        axes = (Axis("t_s", 0.0, 2 * math.pi, 13), Axis("t_w", 0.0, 2 * math.pi, t_w))
        list(run_sweep(spec_for(axes, engine="exact", target="rate",
                                base_seq=README_T_S_06)).rows)
        points = [apply_point(SYS, README_T_S_06, ("t_s", "t_w"), v)
                  for v in itertools.product(*(a.values().tolist() for a in axes))]
        assert [e[1] for e in log if e[0] == "stack"] == [engine.BATCH_SIZE, 17]
        # each chunk's walk takes no memo from the one before: the two chunks' points
        # share their DD leaves, and each walk exponentiates each of them once; the
        # waits are phases, never exponentiated
        distinct = {seg for p in points for seg in render_unit(*p).leaves}
        assert len(segments) == 2 * len(distinct)
        assert set(segments[:len(distinct)]) == set(segments[len(distinct):]) == distinct
    else:  # one stack per point; 3 pi does not fit in the cells
        rows = [(magic_params("I", +1, 1), 2), (magic_params("II", -1, 2), 3)]
        tau_pi_values = [0.0, 0.1 * math.pi, 0.2 * math.pi, 3 * math.pi]
        robustness_scan(rows, tau_pi_values, SYS)
        points = robustness_points(rows, tau_pi_values)
        assert len(points) == 6
        assert [e[1] for e in log if e[0] == "stack"] == [1] * 6
        distinct = {seg for p in points for seg in render_unit(*p).leaves}
        assert len(distinct) < engine.MEMO_LIMIT  # nothing is dropped from the memo
        # each distinct DD leaf once per memo lifetime, which is the whole scan; the
        # waits are phases, never exponentiated
        assert len(segments) == len(distinct) and set(segments) == distinct
    # at most one segment_propagator call per generator in each stack
    stacks = [[]]
    for entry in log:
        if entry[0] == "stack":
            stacks.append([])
        elif entry[0] == "generator":
            stacks[-1].append(entry[1])
    assert stacks[0] == [] and all(len(set(keys)) == len(keys) for keys in stacks)
    # one hermitian_expm per segment_propagator call
    calls = [entry[0] for entry in log if entry[0] != "stack"]
    assert calls and calls == ["generator", "expm"] * (len(calls) // 2)


def test_each_golden_section_step_after_the_first_exponentiates_only_its_free_half_cell(
        monkeypatch):
    # find-tau-res on the README config at tau_pi = 0.2 pi with the CLI's grid: the grid is
    # one batch, then each golden-section step walks its point alone through the search's
    # memo, where every step after the first finds its pulse leaves
    walks, walk, propagator = [], engine._walk, engine.segment_propagator

    def logged_walk(groups, cache):
        walks.append((groups, []))
        return walk(groups, cache)

    def logged_propagator(sys_p, segments, hyperfine):
        walks[-1][1].append(list(segments))
        return propagator(sys_p, segments, hyperfine)

    monkeypatch.setattr(engine, "_walk", logged_walk)
    monkeypatch.setattr(engine, "segment_propagator", logged_propagator)
    readme = replace(README_T_S_06, t_s=1.5 * math.pi)
    find_tau_res(SYS, readme, 0.2 * math.pi, search_halfwidth=0.1 * math.pi,
                 grid_step=0.005 * math.pi)
    (grid, _), (first, first_calls), *steps = walks
    assert sum(len(g.waits) for g in grid) == 41 and len(first) == len(first[0].waits) == 1
    assert {seg for call in first_calls for seg in call} == set(first[0].leaves)
    assert len(steps) >= 5
    for (group,), calls in steps:
        free = group.leaves[1]
        assert free.kind == FREE_HYPERFINE and calls == [[free]]


# the robustness-scan case of test_each_distinct_segment_is_exponentiated_once: six
# valid points of two (n_p, n_r), each walked as a stack of one
SCAN_ROWS = [(magic_params("I", +1, 1), 2), (magic_params("II", -1, 2), 3)]
SCAN_TAU_PI = [0.0, 0.1 * math.pi, 0.2 * math.pi, 3 * math.pi]


def test_each_distinct_generator_is_diagonalized_once_per_process(monkeypatch):
    monkeypatch.setattr(linalg, "_SPECTRA", {})
    diagonalized, exponentiated = [], []
    spectrum, expm = linalg._spectrum, engine.hermitian_expm

    def logged_spectrum(key, h):
        diagonalized.append(key)
        return spectrum(key, h)

    def logged_expm(h, t=1.0):
        if np.any(np.asarray(t) != 0.0):  # all-zero durations need no eigh
            exponentiated.append(np.asarray(h, dtype=complex).tobytes())
        return expm(h, t)

    monkeypatch.setattr(linalg, "_spectrum", logged_spectrum)
    monkeypatch.setattr(engine, "hermitian_expm", logged_expm)
    first = csv_text(robustness_scan(SCAN_ROWS, SCAN_TAU_PI, SYS))
    assert sorted(diagonalized) == sorted(set(exponentiated))
    # the hyperfine Hamiltonian is exponentiated again at each point's free half
    assert len(exponentiated) > len(diagonalized)
    assert not any(a.flags.writeable for pair in linalg._SPECTRA.values() for a in pair)
    seen = len(diagonalized)
    # a new scan has a new memo: it exponentiates every segment again, diagonalizes nothing
    assert csv_text(robustness_scan(SCAN_ROWS, SCAN_TAU_PI, SYS)) == first
    assert len(diagonalized) == seen

