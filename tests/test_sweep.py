import csv
import io
import math
from dataclasses import replace

import pytest

from hyperpol import analytic, sweep
from hyperpol.catalog import magic_params
from hyperpol.engine import evaluate_exact
from hyperpol.params import PulseModel, SequenceParams, SystemParams
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


def test_sweep_deterministic_across_workers():
    spec = spec_for((Axis("t_s", 0.0, 2 * math.pi, 5),), engine="both")
    serial = csv_text(run_sweep(spec, jobs=1))
    parallel = csv_text(run_sweep(spec, jobs=2))
    assert serial == parallel


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
    # t_s = -1 is a negative wait; tau_pi = 2.5 pi exceeds the base tau of 2 pi
    table = run_sweep(spec_for((Axis("t_s", -1.0, 1.0, 2),
                                Axis("tau_pi", 0.2 * math.pi, 2.5 * math.pi, 2))))
    assert len(table.rows) == 2 * 2 * 2
    by_point = {}
    for row in table.rows:
        by_point.setdefault((row[0], row[1]), {})[row[2]] = row
    valid = (1.0, 0.2 * math.pi)
    for point, rows in by_point.items():
        assert set(rows) == {"exact", "analytic"}
        if point == valid:
            continue
        for row in rows.values():
            assert row[6].startswith("failed: invalid sequence: ")
            assert row[3:6] == (None, None, None)
    # the valid point is evaluated as it would be on its own
    seq = replace(magic_seq(), t_s=1.0, pulse_model=PulseModel.finite(0.2 * math.pi))
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
    exact = [row[6] for row in run_sweep(spec).rows if row[2] == "exact"]
    assert exact == ["failed: input is not unitary (defect nan)"] * 2


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
    assert seq_p.pulse_model.kind == "finite"
    sys_p, seq_p = apply_point(SYS, magic_seq(), ("tau_pi",), (0.0,))
    assert seq_p.pulse_model.kind == "ideal"


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
    def fail(sys_p, seq_p):
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
