import math

import pytest

from hyperpol.engine import propagate
from hyperpol.params import SequenceParams, SystemParams
from hyperpol.sweep import apply_point
from hyperpol.timeline import (
    BLOCK_CACHE_SIZE,
    FREE_HYPERFINE,
    FREE_NUCLEAR,
    PULSE,
    Repeat,
    Segment,
    Timeline,
    _dd_block,
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
    assert total_duration(Timeline(Repeat(()), nominal_T=0.0, actual_T=0.0)) == 0.0


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


def test_points_of_a_wait_sweep_share_their_dd_blocks():
    points = [apply_point(SYS, seq(), ("t_s",), (t_s,)) for t_s in (0.0, 0.5, 1.0)]
    trees = [render_unit(*p).structure for p in points]
    for tree in trees[1:]:
        for i in (0, 2, 4, 6):  # ddx, ddy, ddx, ddy
            assert tree.body[i] is trees[0].body[i]
    assert trees[0].body[0] is trees[0].body[4] and trees[0].body[0] is not trees[0].body[2]
    assert trees[1].body[1] != trees[0].body[1]  # the waits are the point's own


def test_a_render_after_clearing_the_block_cache_is_the_same():
    s = seq(n_p=3, tau_pi=0.2 * math.pi, t_c=0.5 * math.pi)
    shared = render_unit(SYS, s)
    _dd_block.cache_clear()
    fresh = render_unit(SYS, s)
    assert fresh.structure.body[0] is not shared.structure.body[0]
    assert fresh == shared
    assert propagate(SYS, fresh).tobytes() == propagate(SYS, shared).tobytes()


def test_the_block_cache_stays_bounded():
    _dd_block.cache_clear()
    for k in range(BLOCK_CACHE_SIZE + 10):
        render_unit(SYS, seq(tau=1.0 + k))  # two new blocks per render
    info = _dd_block.cache_info()
    assert info.currsize == info.maxsize == BLOCK_CACHE_SIZE


def test_signed_zero_tau_gives_the_same_propagator():
    # 0.0 == -0.0, so the two share one cached block, as they share one engine memo entry
    propagators, signs = set(), []
    for tau in (0.0, -0.0):
        _dd_block.cache_clear()
        tl = render_unit(SYS, seq(tau=tau))
        signs.append(math.copysign(1.0, tl.structure.body[0].body[1].body[0].duration))
        propagators.add(propagate(SYS, tl).tobytes())
    assert signs == [1.0, -1.0]
    assert len(propagators) == 1
