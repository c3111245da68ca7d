import math

import pytest

from hyperpol.params import PulseModel, SequenceParams, SystemParams
from hyperpol.timeline import (
    FREE_HYPERFINE,
    FREE_NUCLEAR,
    PULSE,
    Timeline,
    render_unit,
)

SYS = SystemParams(omega=1.0, a_perp=0.05)


def total_duration(timeline: Timeline) -> float:
    return float(sum(seg.duration for seg in timeline.segments))


def seq(n_p=1, tau=2 * math.pi, t_s=1.5 * math.pi, t_w=1.5 * math.pi,
        t_c=0.0, n_r=1, pulse_model=None):
    return SequenceParams(n_p=n_p, tau=tau, t_s=t_s, t_w=t_w, t_c=t_c, n_r=n_r,
                          pulse_model=pulse_model or PulseModel.ideal())


def test_segment_counts_per_repetition():
    tl = render_unit(SYS, seq(n_p=1, n_r=1))
    pulses = [s for s in tl.segments if s.kind == PULSE]
    frees = [s for s in tl.segments if s.kind == FREE_HYPERFINE]
    waits = [s for s in tl.segments if s.kind == FREE_NUCLEAR]
    # 4 DD blocks of (half-pi + n_p pi + 2 n_p frees + half-pi) and 4 waits
    assert len(pulses) == 4 * (1 + 2)
    assert len(frees) == 8 * 1
    assert len(waits) == 4


def test_segment_counts_scale_with_n_p_and_n_r():
    tl = render_unit(SYS, seq(n_p=3, n_r=2, tau=math.pi))
    pulses = [s for s in tl.segments if s.kind == PULSE]
    frees = [s for s in tl.segments if s.kind == FREE_HYPERFINE]
    assert len(pulses) == 2 * 4 * (3 + 2)
    assert len(frees) == 2 * 8 * 3


def test_pulse_pattern_matches_block_axes():
    tl = render_unit(SYS, seq(n_p=2, tau=math.pi))
    pulses = [s for s in tl.segments if s.kind == PULSE]
    ddx = pulses[:4]   # half, pi, pi, half
    ddy = pulses[4:8]
    assert {p.axis for p in ddx if p.angle == math.pi} == {"-x"}
    assert {p.axis for p in ddx if p.angle == math.pi / 2} == {"+y"}
    assert {p.axis for p in ddy if p.angle == math.pi} == {"+y"}
    assert {p.axis for p in ddy if p.angle == math.pi / 2} == {"+x"}


def test_ideal_durations():
    s = seq()
    tl = render_unit(SYS, s)
    assert tl.nominal_T == pytest.approx(2 * s.t_s + s.t_w + 4 * s.n_p * s.tau + s.t_c)
    assert tl.actual_T == tl.nominal_T
    assert total_duration(tl) == pytest.approx(tl.actual_T)
    assert all(p.duration == 0.0 for p in tl.segments if p.kind == PULSE)


def test_nominal_duration_with_compensation_wait():
    # table timings with the compensation wait included: T = 14 pi
    s = seq(t_c=1.5 * math.pi)
    tl = render_unit(SYS, s)
    assert tl.nominal_T == pytest.approx(14 * math.pi)


def test_nominal_duration_without_compensation_wait():
    tl = render_unit(SYS, seq())
    assert tl.nominal_T == pytest.approx(12.5 * math.pi)


def test_empty_timeline_total_duration():
    assert total_duration(Timeline(segments=(), nominal_T=0.0, actual_T=0.0)) == 0.0


def test_finite_pulse_durations_and_actual_T():
    tau_pi = 0.2 * math.pi
    s = seq(n_p=2, tau=4 * math.pi / 3, n_r=3, pulse_model=PulseModel.finite(tau_pi))
    tl = render_unit(SYS, s)
    pis = [p for p in tl.segments if p.kind == PULSE and p.angle == math.pi]
    halves = [p for p in tl.segments if p.kind == PULSE and p.angle == math.pi / 2]
    assert all(p.duration == pytest.approx(tau_pi) for p in pis)
    assert all(p.duration == pytest.approx(tau_pi / 2) for p in halves)
    # pi pulses are centered inside their cells: only half-pi edges add time
    assert tl.actual_T == pytest.approx(tl.nominal_T + 3 * 8 * tau_pi / 2)
    assert total_duration(tl) == pytest.approx(tl.actual_T)
    frees = [p for p in tl.segments if p.kind == FREE_HYPERFINE]
    assert all(f.duration == pytest.approx((s.tau - tau_pi) / 2) for f in frees)


def test_rendering_is_deterministic():
    a = render_unit(SYS, seq(n_p=2, n_r=3, tau=math.pi))
    b = render_unit(SYS, seq(n_p=2, n_r=3, tau=math.pi))
    assert a == b


def test_ideal_pulse_free_durations_reproduce_nominal():
    s = seq(n_p=4, tau=math.pi, t_c=0.5 * math.pi, n_r=2)
    tl = render_unit(SYS, s)
    non_pulse = sum(p.duration for p in tl.segments if p.kind != PULSE)
    assert non_pulse == pytest.approx(tl.nominal_T)


def test_render_rejects_invalid():
    with pytest.raises(ValueError):
        render_unit(SYS, seq(tau=-1.0))
    with pytest.raises(ValueError):
        render_unit(SYS, seq(n_p=0))
    with pytest.raises(ValueError):
        # pi pulse no longer fits inside the interval
        render_unit(SYS, seq(tau=0.1 * math.pi, pulse_model=PulseModel.finite(0.2 * math.pi)))
