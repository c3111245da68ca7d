import math

import pytest

from hyperpol.params import FINITE, PulseModel, SequenceParams, SystemParams
from hyperpol.timeline import (
    FREE_HYPERFINE,
    FREE_NUCLEAR,
    PULSE,
    Repeat,
    Segment,
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
    assert total_duration(Timeline(Repeat(()), nominal_T=0.0, actual_T=0.0)) == 0.0


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


def written_out(s: SequenceParams) -> tuple[Segment, ...]:
    """The cycle of the module docstring, segment by segment in time order."""
    finite = s.pulse_model.kind == FINITE

    def pulse(axis, angle):
        return Segment(PULSE, angle / s.pulse_model.rabi if finite else 0.0,
                       axis=axis, angle=angle)

    free = Segment(FREE_HYPERFINE, (s.tau - s.pulse_model.tau_pi) / 2 if finite else s.tau / 2)

    def dd(pi_axis, half_axis):
        cells = [free, pulse(pi_axis, math.pi), free] * s.n_p
        return [pulse(half_axis, math.pi / 2)] + cells + [pulse(half_axis, math.pi / 2)]

    repetition = (dd("-x", "+y") + [Segment(FREE_NUCLEAR, s.t_s)]
                  + dd("+y", "+x") + [Segment(FREE_NUCLEAR, s.t_w)]
                  + dd("-x", "+y") + [Segment(FREE_NUCLEAR, s.t_s)]
                  + dd("+y", "+x") + [Segment(FREE_NUCLEAR, s.t_c)])
    return tuple(repetition * s.n_r)


@pytest.mark.parametrize("n_p", [1, 2, 7, 64])
@pytest.mark.parametrize("n_r", [1, 3, 8])
@pytest.mark.parametrize("tau_pi", [0.0, 0.1 * math.pi])
def test_structure_flattens_to_segments(n_p, n_r, tau_pi):
    pulse_model = PulseModel.finite(tau_pi) if tau_pi else PulseModel.ideal()
    s = seq(n_p=n_p, n_r=n_r, tau=math.pi, t_c=0.5 * math.pi, pulse_model=pulse_model)
    tl = render_unit(SYS, s)
    assert tl.segments == written_out(s)
    assert tl.structure.flatten() == tl.segments
    # the cycle is the repetition n_r times; each DD block holds its cell n_p times
    assert tl.structure.count == n_r
    blocks = [part for part in tl.structure.body if isinstance(part, Repeat)]
    assert len(blocks) == 4
    assert all(block.body[1].count == n_p for block in blocks)


def test_hand_built_timeline_is_one_block():
    segments = (Segment(FREE_NUCLEAR, 0.5), Segment(FREE_HYPERFINE, 0.25))
    tl = Timeline(Repeat(segments), nominal_T=0.75, actual_T=0.75)
    assert tl.structure.count == 1
    assert tl.segments == segments
    # the flat view is derived from the tree, so the two cannot disagree
    with pytest.raises(AttributeError):
        tl.segments = segments[::-1]
