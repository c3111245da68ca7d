import math

import pytest

from hyperpol import engine
from hyperpol.engine import MEMO_LIMIT, propagate
from hyperpol.params import SequenceParams, SystemParams
from hyperpol.sweep import apply_point
from hyperpol.timeline import (
    FREE,
    FREE_HYPERFINE,
    FREE_NUCLEAR,
    PULSE,
    Segment,
    Timeline,
    render_unit,
)

SYS = SystemParams(omega=1.0, a_perp=0.05)


def total_duration(timeline: Timeline) -> float:
    return float(sum(seg.duration for seg in timeline.segments))


def seq(n_p=1, tau=2 * math.pi, t_s=1.5 * math.pi, t_w=1.5 * math.pi,
        t_c=0.0, n_r=1, tau_pi=0.0):
    return SequenceParams(n_p=n_p, tau=tau, t_s=t_s, t_w=t_w, t_c=t_c, n_r=n_r, tau_pi=tau_pi)


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
    # no repetitions: no segments, whatever the leaves and the waits last
    tl = render_unit(SYS, seq())
    assert total_duration(Timeline(n_p=1, n_r=0, nominal_T=0.0, actual_T=0.0, leaves=tl.leaves,
                                   waits=tl.waits)) == 0.0


def test_finite_pulse_durations_and_actual_T():
    tau_pi = 0.2 * math.pi
    s = seq(n_p=2, tau=4 * math.pi / 3, n_r=3, tau_pi=tau_pi)
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
        render_unit(SYS, seq(tau=0.1 * math.pi, tau_pi=0.2 * math.pi))


def written_out(s: SequenceParams) -> tuple[Segment, ...]:
    """The cycle of the module docstring, segment by segment in time order."""
    def pulse(axis, angle):
        return Segment(PULSE, angle / (math.pi / s.tau_pi) if s.tau_pi else 0.0,
                       axis=axis, angle=angle)

    free = Segment(FREE_HYPERFINE, (s.tau - s.tau_pi) / 2 if s.tau_pi else s.tau / 2)

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
    s = seq(n_p=n_p, n_r=n_r, tau=math.pi, t_c=0.5 * math.pi, tau_pi=tau_pi)
    tl = render_unit(SYS, s)
    # the cycle is its counts, its five DD leaves and its three waits, each of them used
    assert (tl.n_p, tl.n_r) == (n_p, n_r)
    assert tl.waits == (s.t_s, s.t_w, s.t_c)
    assert len(tl.leaves) == 5 and FREE_NUCLEAR not in {seg.kind for seg in tl.leaves}
    assert set(tl.leaves) | {Segment(FREE_NUCLEAR, t) for t in tl.waits} == set(written_out(s))
    assert tl.segments == written_out(s)


def test_a_hand_built_timeline_derives_its_segments():
    # the leaves need not be a render's: any five segments and three durations fill the one
    # form, and each wait is a nuclear segment of its duration
    leaves = tuple(Segment(FREE_HYPERFINE, float(k)) for k in range(5))
    tl = Timeline(n_p=2, n_r=1, nominal_T=0.0, actual_T=0.0, leaves=leaves, waits=(5.0, 6.0, 7.0))
    half_x, free, pi_x, half_y, pi_y = leaves
    wait_s, wait_w, wait_c = (Segment(FREE_NUCLEAR, t) for t in (5.0, 6.0, 7.0))
    ddx = (half_x, free, pi_x, free, free, pi_x, free, half_x)
    ddy = (half_y, free, pi_y, free, free, pi_y, free, half_y)
    assert tl.segments == ddx + (wait_s,) + ddy + (wait_w,) + ddx + (wait_s,) + ddy + (wait_c,)
    # the flat view is derived from the counts and the leaves, so they cannot disagree
    with pytest.raises(AttributeError):
        tl.segments = leaves


def exponentiated(monkeypatch) -> list:
    """The segments the engine exponentiates from now on, one entry per segment."""
    segments, original = [], engine.segment_propagator

    def counted(sys_p, group, hyperfine):
        segments.extend(group)
        return original(sys_p, group, hyperfine)

    monkeypatch.setattr(engine, "segment_propagator", counted)
    return segments


def test_points_of_a_wait_sweep_share_their_dd_blocks(monkeypatch):
    # renders that differ in one wait share their counts and every other leaf, and the
    # waits are phases that are never exponentiated: through one memo nothing is
    # exponentiated after the first point
    points = [apply_point(SYS, seq(), ("t_s",), (t_s,)) for t_s in (0.0, 0.5, 1.0)]
    timelines = [render_unit(*p) for p in points]
    assert all((tl.n_p, tl.n_r) == (timelines[0].n_p, timelines[0].n_r) for tl in timelines)
    assert all(tl.leaves == timelines[0].leaves for tl in timelines)
    segments, memo = exponentiated(monkeypatch), {}
    propagate(SYS, timelines[0], memo)
    first = len(segments)
    for tl in timelines[1:]:
        propagate(SYS, tl, memo)
    assert first == len(timelines[0].leaves) and set(segments) == set(timelines[0].leaves)
    assert segments[first:] == []  # nothing after the first point


def test_a_render_after_clearing_the_block_cache_is_the_same():
    # a fresh memo gives the bytes of a warm one, and a render is its own value
    s = seq(n_p=3, tau_pi=0.2 * math.pi, t_c=0.5 * math.pi)
    memo = {}
    warm = propagate(SYS, render_unit(SYS, s), memo)
    again = render_unit(SYS, s)
    assert again == render_unit(SYS, s)
    assert propagate(SYS, again, memo).tobytes() == warm.tobytes()
    assert propagate(SYS, again, {}).tobytes() == warm.tobytes()


def test_the_block_cache_stays_bounded():
    # the memo holds (system, segment) pairs only, and never more than MEMO_LIMIT
    memo, sizes = {}, []
    for k in range(MEMO_LIMIT + 10):
        propagate(SYS, render_unit(SYS, seq(tau=1.0 + k)), memo)  # one new free segment each
        sizes.append(len(memo))
        assert all(isinstance(key[1], Segment) for key in memo)
    assert max(sizes) <= MEMO_LIMIT
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))  # it was cleared


def test_signed_zero_tau_gives_the_same_propagator():
    # 0.0 == -0.0, so the two free segments share one memo entry and one propagator
    propagators, signs, memo = set(), [], {}
    for tau in (0.0, -0.0):
        tl = render_unit(SYS, seq(tau=tau))
        signs.append(math.copysign(1.0, tl.leaves[FREE].duration))
        propagators.add(propagate(SYS, tl, memo).tobytes())
        propagators.add(propagate(SYS, tl).tobytes())
    assert signs == [1.0, -1.0]
    assert len(propagators) == 1
    assert sum(seg.kind == FREE_HYPERFINE for _, seg in memo) == 1
