import csv
import io
import itertools
import math
from dataclasses import replace

import pytest

from hyperpol import analytic, engine, sweep
from hyperpol.catalog import finite_pulse_tau, magic_params
from hyperpol.engine import evaluate_exact, evaluate_exact_batch
from hyperpol.params import SequenceParams, SystemParams
from hyperpol.timeline import render_unit
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
    table = run_sweep(spec)
    assert len(table.rows) == 2
    assert table.rows[0][0] == 0.0
    assert table.rows[1][0] == pytest.approx(math.pi)


def test_row_major_order_and_engine_interleaving():
    spec = spec_for((Axis("t_s", 0.0, 1.0, 2), Axis("t_w", 0.0, 1.0, 3)),
                    engine="both")
    table = run_sweep(spec)
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


def test_sweep_integer_axis_validation():
    spec = spec_for((Axis("n_p", 1, 2, 3),), engine="analytic")
    table = run_sweep(spec)
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
    table = run_sweep(spec_for((Axis("t_s", -1.0, 1.0, 2), tau_pi_axis)))
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_engine_failure_rows_keep_the_message():
    # valid inputs whose segment phases overflow: the exact engine cannot evaluate them
    spec = SweepSpec(target="stable_polarization", axes=(Axis("omega", 1.0, 1e300, 2),),
                     base_system=SystemParams(omega=1.0, a_perp=1e300),
                     base_sequence=SequenceParams(n_p=1, tau=1e10), engine="both")
    rows = run_sweep(spec).rows
    exact = [row[6] for row in rows if row[2] == "exact"]
    assert exact == ["failed: input is not unitary (defect nan)"] * 2
    # the closed forms survive omega = 1, but at 1e300 the filter phase overflows
    analytic_rows = [row[6] for row in rows if row[2] == "analytic"]
    assert analytic_rows == ["ok", "failed: filter phase omega*tau overflows "
                                   "(omega=1e+300, tau=10000000000.0)"]


def test_sweep_csv_format():
    spec = spec_for((Axis("t_s", 0.0, 1.0, 2),), engine="analytic")
    text = csv_text(run_sweep(spec))
    lines = text.splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "axis1,axis2,engine,P_s,lambda,gamma,status"
    assert len(lines) == 2 + 2


def test_apply_point_maps_fields():
    sys_p, seq_p = apply_point(SYS, magic_seq(), ("omega", "tau", "n_r"), (2.0, 1.0, 3.0))
    assert sys_p.omega == 2.0
    assert seq_p.tau == 1.0
    assert seq_p.n_r == 3
    sys_p, seq_p = apply_point(SYS, magic_seq(), ("tau_pi",), (0.1,))
    assert seq_p.tau_pi == 0.1
    sys_p, seq_p = apply_point(SYS, magic_seq(), ("tau_pi",), (0.0,))
    assert seq_p.tau_pi == 0.0


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
    monkeypatch.setattr(sweep, "evaluate_exact",
                        lambda sys_p, seq_p, cache=None: evaluate_exact(sys_p, seq_p))
    # without a memo, the batch hands each point's propagate a fresh one
    monkeypatch.setattr(sweep, "evaluate_exact_batch",
                        lambda points, cache=None: evaluate_exact_batch(points))


def count_segment_propagators(monkeypatch) -> list:
    calls = []
    original = engine.segment_propagator

    def counted(sys_p, seg):
        calls.append(seg)
        return original(sys_p, seg)

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
    rows = run_sweep(spec).rows
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
            distinct.update((sys_p, seg) for seg in timeline.segments)
    run_sweep(spec)
    first = len(calls)
    assert first == len(distinct)  # each distinct segment once per sweep
    run_sweep(spec)
    assert len(calls) - first == first
    without_reuse(monkeypatch)
    run_sweep(spec)
    assert first < len(calls) - 2 * first


def short_series_where_one_block_would_cross(monkeypatch):
    """Cut to 200 cycles every series that _series_length puts inside the first block.

    Such a series (n = 502 at a_perp = 0.25 below) crosses 1 - 1/e near cycle
    251: cut at 200 it is a series shorter than one block that never crosses.
    """
    series_length = engine._series_length

    def cut(p_s, lam, spread):
        n = series_length(p_s, lam, spread)
        return 200 if 256 < n < engine.SERIES_BLOCK else n

    monkeypatch.setattr(engine, "_series_length", cut)


# the README rate sweep's base at t_s = 0.6 pi, the point whose series never reaches 1 - 1/e
README_T_S_06 = SequenceParams(n_p=1, tau=2 * math.pi, t_s=0.6 * math.pi, t_w=1.5 * math.pi,
                               t_c=1.5 * math.pi, n_r=4, tau_pi=0.2 * math.pi)


@pytest.mark.parametrize("batch_size", [engine.BATCH_SIZE, 5])
def test_batched_sweep_matches_each_point_alone(monkeypatch, batch_size):
    # a_perp runs down from couplings that cross on cycle 2 or on later doubling
    # levels to 0.25 (the cut series), 0.15 and 0.10 (crossings after the first
    # block), 0.05 (the README point, no rate) and 0 (P_s = 0), so the slow points
    # sit behind fast ones in the stack they leave last; n_r = 4 - 2^55 is an invalid
    # sequence, and n_r = 2^55 squares the cycle propagator into a non-unitary
    # matrix whose rounding has grown past 1e250 at some couplings
    short_series_where_one_block_would_cross(monkeypatch)
    monkeypatch.setattr(engine, "BATCH_SIZE", batch_size)
    spec = spec_for((Axis("a_perp", 2.0, 0.0, 41), Axis("n_r", 4 - 2.0 ** 55, 4 + 2.0 ** 55, 3)),
                    engine="exact", target="rate", base_seq=README_T_S_06)
    table = run_sweep(spec)
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
    assert sum(s.startswith("failed: input is not unitary") for s in statuses) == 41
    assert any("e+2" in s for s in statuses)  # a defect above 1e200
    assert len(n_s) == 41
    assert abs(p_s[0]) <= 1e-6 and n_s[0] is None
    assert n_s[1] is None and n_s[5] is None  # the README point and the cut series
    assert n_s[2] > 2 * engine.SERIES_BLOCK and n_s[3] > engine.SERIES_BLOCK
    assert n_s[14] == pytest.approx(1.0)  # a_perp = 0.7 crosses on cycle 2
    # crossings on seven doubling levels of the first block, up to cycle 849 of the last
    levels = {round(v).bit_length() for v in n_s.values() if v is not None and v < 1024}
    assert levels == {1, 2, 3, 4, 5, 6, 7, 10}


def test_find_tau_res_refuses_a_grid_past_the_limit_before_building_it():
    with pytest.raises(ValueError, match=r"2000001 points, more than 10001"):
        find_tau_res(SYS, magic_seq(), tau_pi=0.0, search_halfwidth=0.1 * math.pi,
                     grid_step=1e-7 * math.pi)
    # the largest grid the limit allows: 2 * 5000 + 1 points
    assert sweep.MAX_TAU_GRID_POINTS == 10_001
