import cmath
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hyperpol import analytic, engine, linalg
from hyperpol.catalog import finite_pulse_tau, magic_params
from hyperpol.engine import (
    MEMO_LIMIT,
    UNITARITY_TOL,
    BelowThresholdError,
    KrausPair,
    PolarizationSeries,
    cycle_kraus,
    evaluate_exact,
    evaluate_exact_batch,
    kraus,
    measured_rate,
    mixed_state,
    propagate,
    segment_propagator,
    simulate,
    steady_state,
)
from hyperpol.engine import E_FRACTION, _superop
from hyperpol.linalg import ID2, ID4, SX, SZ, hermitian_expm, unitarity_defect
from hyperpol.params import SequenceParams, SystemParams
from hyperpol.timeline import FREE_HYPERFINE, FREE_NUCLEAR, PULSE, Segment, Timeline, render_unit

from oracles import (MIXED_VEC, ONE, SCAN_BLOCKS, block_scan, exact_fixed_z, fixed_affine_map,
                     fixed_cycle_propagator, fixed_rate_cycles, nuclear_hamiltonian,
                     operator_distance, random_params, stepped_series, trotter_propagate)
# the complex transfer-matrix oracle, under the short names the tests below use
from oracles import transfer_modes as _modes
from oracles import transfer_summary as _spectral_summary
from oracles import transfer_weights

SYS = SystemParams(omega=1.0, a_perp=0.05)


ZERO_LEAVES = (Segment(FREE_HYPERFINE, 0.0),) * 5  # five DD leaves that last no time


def empty_timeline():
    """A cycle of no repetitions: no segments at all."""
    return Timeline(n_p=1, n_r=0, nominal_T=0.0, actual_T=0.0, leaves=ZERO_LEAVES,
                    waits=(0.0, 0.0, 0.0))


def test_propagate_empty_timeline():
    assert empty_timeline().segments == ()
    assert operator_distance(propagate(SYS, empty_timeline()), ID4) == 0.0


def test_propagate_single_nuclear_wait():
    t = 0.73
    # every leaf and every wait but the closing one lasts no time
    tl = Timeline(n_p=1, n_r=1, nominal_T=t, actual_T=t, leaves=ZERO_LEAVES, waits=(0.0, 0.0, t))
    u = propagate(SYS, tl)
    expected = np.kron(ID2, np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)]))
    assert operator_distance(u, expected) < 1e-14


def test_propagate_matches_trotter_oracle_on_magic_point():
    seq = magic_params("I", +1, 1).to_sequence_params(SYS, n_r=1)
    tl = render_unit(SYS, seq)
    exact = propagate(SYS, tl)
    oracle = trotter_propagate(SYS, tl, dt_max=1e-3)
    assert operator_distance(exact, oracle) < 1e-6


def trotter_dt(tl):
    """1e-3 of the shortest segment, capped at 1e-3 absolute."""
    shortest = min((s.duration for s in tl.segments if s.duration > 0), default=1.0)
    return min(1e-3, 1e-3 * shortest)


def test_propagate_matches_trotter_oracle_random(rng):
    for _ in range(5):
        sys_p, seq_p = random_params(rng)
        tl = render_unit(sys_p, seq_p)
        exact = propagate(sys_p, tl)
        oracle = trotter_propagate(sys_p, tl, dt_max=trotter_dt(tl))
        assert operator_distance(exact, oracle) < 1e-6


def test_propagate_output_unitary(rng):
    for _ in range(10):
        sys_p, seq_p = random_params(rng)
        u = propagate(sys_p, render_unit(sys_p, seq_p))
        assert unitarity_defect(u) <= 1e-11


def flat_product(sys_p, tl):
    """Reference cycle propagator: the ordered loop over the flat segments, a wait the
    hermitian_expm of the nuclear Hamiltonian over its duration."""
    cache, hyperfine = {}, {}
    u = ID4.copy()
    for seg in tl.segments:
        if seg not in cache:
            if seg.kind == FREE_NUCLEAR:
                cache[seg] = hermitian_expm(nuclear_hamiltonian(sys_p), seg.duration)
            else:
                (cache[seg],) = segment_propagator(sys_p, [seg], hyperfine)
        u = cache[seg] @ u
    return u


def test_propagate_matches_flat_product_random(rng):
    for _ in range(100):
        sys_p, seq_p = random_params(rng)
        tl = render_unit(sys_p, seq_p)
        assert operator_distance(propagate(sys_p, tl), flat_product(sys_p, tl)) <= 1e-12


# the long_train benchmark rows (method, sign, n_p, n_r) at its coupling
LONG_TRAIN_SYS = SystemParams(omega=1.0, a_perp=0.001)


@pytest.mark.parametrize("method,sign,n_p,n_r",
                         [("I", +1, 8, 64), ("I", -1, 16, 32), ("II", +1, 32, 16), ("II", -1, 64, 8)])
@pytest.mark.parametrize("tau_pi", [0.0, 0.05 * math.pi])
def test_propagate_matches_flat_product_long_trains(method, sign, n_p, n_r, tau_pi):
    seq_p = magic_params(method, sign, n_p).to_sequence_params(LONG_TRAIN_SYS, n_r)
    if tau_pi:
        seq_p = replace(seq_p, tau=finite_pulse_tau(seq_p.tau, tau_pi, n_p),
                        tau_pi=tau_pi)
    tl = render_unit(LONG_TRAIN_SYS, seq_p)
    u = propagate(LONG_TRAIN_SYS, tl)
    assert operator_distance(u, flat_product(LONG_TRAIN_SYS, tl)) <= 1e-12
    assert unitarity_defect(u) <= 1e-11


SEGMENTS = st.one_of(
    st.builds(Segment, st.just(FREE_HYPERFINE), st.sampled_from([0.0, -0.0, 0.25, 1.0, 2.5])),
    st.builds(Segment, st.just(PULSE), st.sampled_from([0.0, 0.1, 0.2]),
              st.sampled_from(["+x", "-x", "+y", "-y"]), st.sampled_from([math.pi, math.pi / 2])),
)
WAITS = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.25, 1.0, 2.5])
COUNTS = st.tuples(st.integers(0, 4), st.integers(0, 3))  # (n_p, n_r); 0 runs a block no time
LEAVES = st.tuples(*[SEGMENTS] * 5)  # the five DD leaves
WAIT_TRIPLES = st.tuples(*[WAITS] * 3)  # (t_s, t_w, t_c)


def drawn_stack(data, counts, leaves, waits) -> list:
    """2 to 5 (system, timeline) pairs of these counts, each leaf and wait kept or drawn anew."""
    def kept_or_drawn(value, strategy):
        return data.draw(st.one_of(st.just(value), strategy))

    return [(SYS, Timeline(*counts, 0.0, 0.0, tuple(kept_or_drawn(seg, SEGMENTS) for seg in leaves),
                           tuple(kept_or_drawn(t, WAITS) for t in waits)))
            for _ in range(data.draw(st.integers(2, 5)))]


def walk(stack: list, memo: dict | None) -> np.ndarray:
    """engine._walk on (system, timeline) pairs, in order: neighbours that share their
    system, counts and DD leaves are one group, which differs only in its points' waits."""
    groups = []
    for sys_p, tl in stack:
        if groups and groups[-1][:4] == (sys_p, tl.n_p, tl.n_r, tl.leaves):
            groups[-1].waits.append(tl.waits)
        else:
            groups.append(engine._Group(sys_p, tl.n_p, tl.n_r, tl.leaves, [tl.waits]))
    return engine._walk(groups, memo)


@settings(max_examples=60, deadline=None)
@given(COUNTS, COUNTS, LEAVES, WAIT_TRIPLES, st.data())
def test_propagate_matches_flat_product_on_drawn_cycles(counts, other, leaves, waits, data):
    # a stack of two groups of counts whose points keep or change each leaf: so the
    # stack shares some blocks and not others, and zero-width pulses and waits of
    # +0 and -0 put exact zeros of both signs into the products
    stack = drawn_stack(data, counts, leaves, waits) + drawn_stack(data, other, leaves, waits)
    stack = [stack[i] for i in data.draw(st.permutations(range(len(stack))))]
    with pytest.MonkeyPatch.context() as patch:  # no spectrum and no memo at first
        patch.setattr(linalg, "_SPECTRA", {})
        memo = {}
        cold = walk(stack, memo)
        seen = walk(stack, {})  # every generator diagonalized before
    warm = walk(stack, memo)  # every DD leaf in the memo
    expected = [identity_started(*point, memo).tobytes() for point in stack]
    assert [u.tobytes() for u in cold] == expected
    assert [u.tobytes() for u in seen] == expected
    assert [u.tobytes() for u in warm] == expected
    for u, point in zip(cold, stack):
        assert operator_distance(u, flat_product(*point)) <= 1e-12
        assert propagate(*point).tobytes() == u.tobytes()


@settings(max_examples=60, deadline=None)
@given(COUNTS, LEAVES, WAIT_TRIPLES, st.data())
def test_a_stack_of_one_shape_is_each_timeline_alone(counts, leaves, waits, data):
    # points of one n_p and n_r: as they keep or change each leaf, the cell, the DD
    # blocks and the repetition are shared by the stack or not
    stack = drawn_stack(data, counts, leaves, waits)
    walked = walk(stack, {})
    assert [u.tobytes() for u in walked] == [propagate(*point).tobytes() for point in stack]


def test_a_dd_block_of_one_row_per_group_is_repeated_for_its_points():
    # two groups of one n_p and n_r that differ only in pi_y: DDX is shared by the
    # stack, DDY is one row per group and is repeated for the first group's two points
    tl = render_unit(SYS, README_BASE)
    other = tl.leaves[:4] + (Segment(PULSE, 0.1, "+y", math.pi),)
    stack = [(SYS, Timeline(1, 2, 0.0, 0.0, tl.leaves, tl.waits)),
             (SYS, Timeline(1, 2, 0.0, 0.0, tl.leaves, tl.waits[:2] + (0.5,))),
             (SYS, Timeline(1, 2, 0.0, 0.0, other, tl.waits))]
    walked = walk(stack, {})
    assert [u.tobytes() for u in walked] == [propagate(*point).tobytes() for point in stack]


@pytest.mark.filterwarnings("ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_a_wait_of_no_finite_duration_is_refused_as_an_overflow(t):
    # the text segment_propagator gives a segment whose propagator is not finite
    tl = render_unit(SYS, README_BASE)
    with pytest.raises(ValueError) as err:
        propagate(SYS, Timeline(1, 1, 0.0, 0.0, tl.leaves, tl.waits[:2] + (t,)))
    assert str(err.value) == ("segment phase H*t overflows "
                              f"(omega=1.0, a_perp=0.05, a_z=0.0, t={t!r})")


def test_a_wait_whose_phase_holds_no_digits_is_refused_by_its_magnitude():
    # a hand-built wait may be negative: its phase |omega t / 2| is what holds no digits
    tl = render_unit(SYS, README_BASE)
    for t in (2.0 ** 60, -2.0 ** 60):
        with pytest.raises(ValueError) as err:
            propagate(SYS, Timeline(1, 1, 0.0, 0.0, tl.leaves, tl.waits[:2] + (t,)))
        assert str(err.value) == lost_phase_message(0.05, t)


def long_train_points() -> list:
    """(system, timeline) of the long_train benchmark rows at tau_pi 0 and 0.05 pi."""
    points = []
    for method, sign, n_p, n_r in [("I", +1, 8, 64), ("I", -1, 16, 32), ("II", +1, 32, 16),
                                   ("II", -1, 64, 8)]:
        ideal = magic_params(method, sign, n_p).to_sequence_params(LONG_TRAIN_SYS, n_r)
        for tau_pi in (0.0, 0.05 * math.pi):
            seq_p = replace(ideal, tau=finite_pulse_tau(ideal.tau, tau_pi, n_p), tau_pi=tau_pi)
            points.append((LONG_TRAIN_SYS, render_unit(LONG_TRAIN_SYS, seq_p)))
    return points


def test_a_walk_of_generators_seen_before_has_the_bytes_of_a_cold_walk(rng, monkeypatch):
    points = long_train_points() + [
        (sys_p, render_unit(sys_p, seq_p)) for sys_p, seq_p in (random_params(rng) for _ in range(30))]

    def cold(point):  # no spectrum, no memo
        monkeypatch.setattr(linalg, "_SPECTRA", {})
        return walk([point], {})[0].tobytes()

    expected = [cold(point) for point in points]
    monkeypatch.setattr(linalg, "_SPECTRA", {})
    stacked = walk(points, {})
    assert len(linalg._SPECTRA) < linalg.SPECTRA_LIMIT  # nothing was dropped from the table
    diagonalized = []
    spectrum = linalg._spectrum
    monkeypatch.setattr(linalg, "_spectrum", lambda key, h: diagonalized.append(key) or spectrum(key, h))
    # each point alone with a fresh memo, every generator already diagonalized
    assert [walk([point], {})[0].tobytes() for point in points] == expected
    assert diagonalized == []
    assert [u.tobytes() for u in stacked] == expected


def identity_started(sys_p, timeline, memo: dict) -> np.ndarray:
    """The cycle propagator in the timeline's fixed form from the DD leaves' propagators
    in memo and the waits' hermitian_expm of the nuclear Hamiltonian, each block's
    product started from ID4 (first part @ ID4), one point at a time."""
    half_x, free, pi_x, half_y, pi_y = (memo[sys_p, seg][None] for seg in timeline.leaves)
    wait_s, wait_w, wait_c = (hermitian_expm(nuclear_hamiltonian(sys_p), [t])
                              for t in timeline.waits)

    def block(*parts):  # parts in time order
        u = ID4[None]
        for part in parts:
            u = part @ u
        return u

    def dd(half, pi):
        return block(half, np.linalg.matrix_power(block(free, pi, free), timeline.n_p), half)

    ddx, ddy = dd(half_x, pi_x), dd(half_y, pi_y)
    cycle = block(ddx, wait_s, ddy, wait_w, ddx, wait_s, ddy, wait_c)
    return np.linalg.matrix_power(cycle, timeline.n_r)[0]


def signed_zero_points(rng) -> list:
    """(system, timeline) pairs whose propagators hold exact zeros: zero-width pulses, waits
    of 0.0 and -0.0 and no coupling, beside the long_train rows and random draws."""
    points = long_train_points()
    for a_perp, tau_pi, wait in itertools.product((0.0, 0.05), (0.0, 0.2 * math.pi),
                                                  (0.0, -0.0, 1.5 * math.pi)):
        sys_p = SystemParams(omega=1.0, a_perp=a_perp)
        for n_p, n_r in ((1, 1), (2, 4), (3, 2)):
            seq_p = replace(README_BASE, n_p=n_p, n_r=n_r, tau_pi=tau_pi, t_s=wait, t_c=wait)
            points.append((sys_p, render_unit(sys_p, seq_p)))
    points += [(sys_p, render_unit(sys_p, seq_p))
               for sys_p, seq_p in (random_params(rng) for _ in range(30))]
    return points


def test_walks_keep_the_bytes_of_identity_started_blocks(rng):
    # stacked and single walks, signed zeros included: a block that starts from its
    # first part gives the bytes of first part @ ID4
    points = signed_zero_points(rng)
    zeros = 0
    for at in range(0, len(points), 16):  # 16 points hold fewer than MEMO_LIMIT leaves
        stack, memo = points[at:at + 16], {}
        stacked = walk(stack, memo)
        assert len(memo) == len({(sys_p, seg) for sys_p, tl in stack for seg in tl.leaves})
        expected = [identity_started(*point, memo).tobytes() for point in stack]
        assert [u.tobytes() for u in stacked] == expected
        assert [walk([point], memo)[0].tobytes() for point in stack] == expected
        zeros += np.count_nonzero(stacked.view(float) == 0)
    assert zeros > 0  # tobytes tells +0 from -0


@pytest.mark.parametrize("n_p,n_r", [(10 ** 20, 1), (10 ** 20, 4), (1, 10 ** 22),
                                     (10 ** 12, 10 ** 12)])
def test_an_overflowing_block_part_names_its_defect(n_p, n_r):
    # ideal pulses round the block powers down to zero, finite ones overflow them
    points = [(SYS, replace(README_BASE, n_p=n_p, n_r=n_r, tau_pi=tau_pi))
              for tau_pi in (0.0, 0.2 * math.pi)]
    errors = list(evaluate_exact_batch(points)) + [
        next(evaluate_exact_batch([point])) for point in points]
    # a count of more than 17 digits is named as its float
    named = {1: "1", 4: "4", 10 ** 12: "1000000000000", 10 ** 20: "1e+20", 10 ** 22: "1e+22"}
    assert [str(err) for err in errors] == 2 * [
        f"cycle propagator is not unitary (defect {defect}, n_p={named[n_p]}, n_r={named[n_r]})"
        for defect in ("1.000e+00", "nan")]


def exact_point(a_perp, n_p, n_r, tau, pulse, t_s, t_w, t_c):
    """A point of the batch property below; pulse "tau" is a pi pulse as long as its cell."""
    tau_pi = tau if pulse == "tau" else pulse
    return (SystemParams(omega=1.0, a_perp=a_perp),
            SequenceParams(n_p=n_p, tau=tau, t_s=t_s, t_w=t_w, t_c=t_c, n_r=n_r, tau_pi=tau_pi))


WAITS = st.sampled_from([0.0, -0.0, 0.5 * math.pi, 1.5 * math.pi])
EXACT_POINTS = st.builds(exact_point, st.sampled_from([0.0, 0.1, 0.25]), st.integers(1, 3),
                         st.sampled_from([1, 2, 4]), st.sampled_from([math.pi, 2 * math.pi]),
                         st.sampled_from([0.0, 0.2 * math.pi, "tau"]), WAITS, WAITS, WAITS)


# a chunk is BATCH_SIZE points, so the smallest list that crosses one is large by design
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.large_base_example])
@given(st.lists(EXACT_POINTS, min_size=engine.BATCH_SIZE + 1, max_size=engine.BATCH_SIZE + 24))
def test_batch_is_each_point_alone_byte_for_byte(points):
    # more points than one chunk: chunks and counts (n_p, n_r) are crossed, and each
    # chunk's walk exponentiates its own DD leaves
    def alone(point):
        try:
            return evaluate_exact(*point)
        except ValueError as err:
            return err

    batch = list(evaluate_exact_batch(points))
    assert list(map(repr, batch)) == [repr(alone(p)) for p in points]


def test_a_batch_without_a_valid_point_yields_each_error():
    # nothing to walk: each point yields its own invalid-sequence error, as alone
    points = [(SYS, SequenceParams(n_p=0, tau=1.0)), (SYS, replace(README_BASE, t_s=-1.0))]
    errors = list(evaluate_exact_batch(points))
    assert [str(e) for e in errors] == ["invalid sequence: n_p must be >= 1, got 0",
                                        "invalid sequence: t_s negative: -1.0"]


def test_each_long_train_point_alone_is_its_batch_byte_for_byte():
    # the 44 long_train points: 4 magic rows with n_p n_r = 512, 11 pulse widths each, so
    # the batch composes blocks up to count 64 for 11 points of each (n_p, n_r) at once
    points = []
    for method, sign, n_p, n_r in [("I", +1, 8, 64), ("I", -1, 16, 32), ("II", +1, 32, 16),
                                   ("II", -1, 64, 8)]:
        ideal = magic_params(method, sign, n_p).to_sequence_params(LONG_TRAIN_SYS, n_r)
        for k in range(11):
            tau_pi = k / 100 * math.pi
            points.append((LONG_TRAIN_SYS, replace(
                ideal, tau=finite_pulse_tau(ideal.tau, tau_pi, n_p), tau_pi=tau_pi)))
    batch = list(evaluate_exact_batch(points))
    assert len(batch) == 44 and all(r.gamma is not None for r in batch)
    assert list(map(repr, batch)) == [repr(evaluate_exact(*p)) for p in points]


def test_shared_memo_stays_bounded_and_changes_no_matrix(rng):
    memo = {}
    sizes = []
    for _ in range(150):
        sys_p, seq_p = random_params(rng)
        tl = render_unit(sys_p, seq_p)
        assert np.array_equal(propagate(sys_p, tl, memo), propagate(sys_p, tl))
        sizes.append(len(memo))
    assert max(sizes) <= MEMO_LIMIT
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))  # it was cleared


def test_memo_matrices_are_read_only():
    memo = {}
    seq = magic_params("I", +1, 1).to_sequence_params(SYS, n_r=2)
    u = propagate(SYS, render_unit(SYS, seq), memo)
    assert memo and not any(m.flags.writeable for m in memo.values())
    with pytest.raises(ValueError):
        next(iter(memo.values()))[0, 0] = 0.0
    u[0, 0] = 0.0  # the cycle propagator itself is the caller's own


def test_kraus_identity():
    pair = kraus(ID4)
    assert operator_distance(pair.m_up, ID2) == 0.0
    assert operator_distance(pair.m_down, np.zeros((2, 2))) == 0.0


def test_kraus_rejects_non_unitary():
    with pytest.raises(ValueError):
        kraus(np.diag([1.0, 1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        kraus(ID2)


def test_a_walk_builds_the_hyperfine_hamiltonian_once_per_system(monkeypatch):
    # finite pulses: the free evolution and the drive of each axis all add the
    # hyperfine Hamiltonian, built once per system for the whole walk
    systems = [SystemParams(omega=1.0, a_perp=a) for a in (0.001, 0.002)]
    seq = replace(magic_params("I", +1, 8).to_sequence_params(systems[0], 4), tau_pi=0.05 * math.pi)
    points = [(s, render_unit(s, seq)) for s in systems]
    built = []
    original = engine.hyperfine_hamiltonian
    monkeypatch.setattr(engine, "hyperfine_hamiltonian", lambda s: built.append(s) or original(s))
    walked = walk(points, None)
    assert built == systems
    for u, (s, tl) in zip(walked, points):
        assert operator_distance(u, flat_product(s, tl)) <= 1e-12


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_segment_propagator_names_an_overflowing_phase():
    frees = [Segment(FREE_HYPERFINE, 1.0), Segment(FREE_HYPERFINE, 1e10)]
    huge = SystemParams(omega=1e300, a_perp=0.05)
    with pytest.raises(ValueError) as err:
        segment_propagator(huge, frees, {})
    assert str(err.value) == ("segment phase H*t overflows "
                              "(omega=1e+300, a_perp=0.05, a_z=0.0, t=10000000000.0)")
    # the first segment's phase, about 5e299 rad, is finite but holds no digits modulo 2 pi
    with pytest.raises(ValueError) as err:
        segment_propagator(huge, frees[:1], {})
    assert str(err.value) == ("segment phase H*t holds no digits modulo 2 pi "
                              "(omega=1e+300, a_perp=0.05, a_z=0.0, t=1.0)")


LOST_PHASES = [(1e16, 2.827433388230814), (1e200, 0.6283185307179586)]


def lost_phase_message(a_perp: float, t: float) -> str:
    return (f"segment phase H*t holds no digits modulo 2 pi (omega=1.0, a_perp={a_perp!r}, "
            f"a_z=0.0, t={t!r})")


@pytest.mark.parametrize("a_perp,t", LOST_PHASES)
def test_a_segment_phase_without_digits_modulo_2_pi_is_refused(a_perp, t):
    # finite hyperfine phases a_perp t at or above 2^52, where the float spacing is 1 rad:
    # the propagators are finite, but no digit of them is the phase's
    memo = {}
    for _ in range(2):  # nothing of the refused walk is kept in the memo
        with pytest.raises(ValueError) as err:
            evaluate_exact(SystemParams(omega=1.0, a_perp=a_perp), README_BASE, cache=memo)
        assert str(err.value) == lost_phase_message(a_perp, t)
    assert memo == {}


def test_a_segment_phase_with_digits_left_is_solved_beside_refused_ones():
    # a_perp = 1e3: phases of about 1e4 rad, a slow point that still polarizes
    points = [(SystemParams(omega=1.0, a_perp=a_perp), README_BASE)
              for a_perp in (1e16, 1e3, 1e200)]
    lost16, solved, lost200 = evaluate_exact_batch(points)
    assert [str(lost16), str(lost200)] == [lost_phase_message(*lost) for lost in LOST_PHASES]
    assert abs(solved.p_s) > 0.9 and solved.gamma > 0


def test_each_wait_factor_is_the_bytes_of_hermitian_expm():
    # the waits never reach hermitian_expm: their diagonal phases give its bytes, a
    # zero wait (of either sign) the exact identity
    durations = [0.0, -0.0, 1e-300, 1e-12, 0.25, 1.0, 0.5 * math.pi, 1.5 * math.pi, 2 * math.pi,
                 3, 10 ** 3, 1e12]  # ints too, as a sequence built in code may hold them
    systems = [SystemParams(omega=omega, a_perp=0.05) for omega in (1e-6, 0.5, 1.0, 1.2, 2.0, 3e4)]
    triples = [tuple(durations[i:i + 3]) for i in range(0, len(durations), 3)]
    groups = [engine._Group(s, 1, 1, (), triples) for s in systems]
    waits = engine._wait_propagators(engine._wait_phases(groups))
    assert waits.shape == (3, len(systems) * len(triples), 4, 4)
    k = 0
    for s in systems:
        for triple in triples:
            for j, t in enumerate(triple):
                assert waits[j, k].tobytes() == hermitian_expm(nuclear_hamiltonian(s),
                                                              t).tobytes()
            k += 1
    assert waits[0, 0].tobytes() == waits[1, 0].tobytes() == ID4.tobytes()


def wait_refusals() -> list:
    """(system, sequence, the error evaluate_exact names) of points that refuse a wait,
    with or without a DD leaf that refuses too."""
    huge = SystemParams(omega=1e300, a_perp=0.05)
    ideal = replace(README_BASE, tau=1.0, tau_pi=0.0)
    overflow = "segment phase H*t overflows (omega=1e+300, a_perp=0.05, a_z=0.0, t={})"
    return [
        # omega t_w overflows; the free halves' and t_s's phases only hold no digits
        (huge, replace(ideal, t_w=1e10), overflow.format("10000000000.0")),
        # omega t_c / 2 = 2^52: finite, but it holds no digits modulo 2 pi
        (SYS, replace(README_BASE, t_c=2.0 ** 53), lost_phase_message(0.05, 2.0 ** 53)),
        # a DD leaf's overflow (the free half of tau = 1e10) is named before a wait's
        (huge, replace(ideal, tau=1e10, t_w=1e11), overflow.format("5000000000.0")),
        # a DD leaf's lost phase is named before a wait's
        (SystemParams(omega=1.0, a_perp=1e16), replace(README_BASE, t_c=2.0 ** 53),
         lost_phase_message(*LOST_PHASES[0])),
    ]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_a_refused_wait_keeps_its_error_alone_and_in_a_stack():
    for sys_p, seq_p, message in wait_refusals():
        with pytest.raises(ValueError) as err:
            evaluate_exact(sys_p, seq_p)
        assert str(err.value) == message
        # in a stack, beside a point of its group with valid waits and one of another group
        points = [(sys_p, replace(seq_p, t_w=0.5, t_c=0.5)), (sys_p, seq_p), (SYS, README_BASE)]
        batch = list(evaluate_exact_batch(points))
        assert str(batch[1]) == message
        for i in (0, 2):
            try:
                alone = evaluate_exact(*points[i])
            except ValueError as error:
                alone = error
            assert repr(batch[i]) == repr(alone)


def test_a_refused_point_walks_only_its_own_group_point_by_point(monkeypatch):
    # a chunk of two groups: 12 points of the README base that differ in their waits, one
    # of them with a t_w of 2^60 whose phase holds no digits, and 6 points with n_r = 2.
    # The stacked walk fails and is halved, and only the half that holds the refused point
    # is halved again, until that point is walked alone: 9 walks, within 2 ceil(log2 18) + 1
    # = 11, where walking the failing group point by point made 1 + 2 + 12
    points = [(SYS, replace(README_BASE, t_s=0.1 * j, t_w=2.0 ** 60 if j == 5 else 0.2 * j))
              for j in range(12)]
    points += [(SYS, replace(README_BASE, n_r=2, t_s=0.3 * j)) for j in range(6)]
    walk, walks = engine._walk, []

    def counted(groups, cache):
        walks.append([len(g.waits) for g in groups])
        return walk(groups, cache)

    monkeypatch.setattr(engine, "_walk", counted)
    batch = list(evaluate_exact_batch(points))
    assert walks == [[12, 6], [9], [4], [5], [2], [1], [1], [3], [3, 6]]
    assert len(walks) <= 2 * math.ceil(math.log2(len(points))) + 1
    monkeypatch.setattr(engine, "_walk", walk)
    for point, result in zip(points, batch):
        try:
            alone = evaluate_exact(*point)
        except ValueError as error:
            alone = error
        assert repr(result) == repr(alone)
    assert str(batch[5]) == lost_phase_message(0.05, 2.0 ** 60)
    assert sum(isinstance(result, ValueError) for result in batch) == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_a_failed_eigh_is_named_before_a_refused_wait(monkeypatch):
    original = engine.hermitian_expm

    def failing(h, t=1.0):
        if np.abs(h).max() > 1e299:  # the hyperfine Hamiltonian at omega = 1e300
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(h, t)

    monkeypatch.setattr(engine, "hermitian_expm", failing)
    for sys_p, seq_p, _ in wait_refusals()[:1]:
        with pytest.raises(ValueError, match="^Eigenvalues did not converge$"):
            evaluate_exact(sys_p, seq_p)
        (error,) = evaluate_exact_batch([(sys_p, seq_p)])
        assert str(error) == "Eigenvalues did not converge"


def test_the_lost_phase_check_bounds_each_generator_by_its_spectral_radius(rng):
    # the check's closed-form radius of the hyperfine Hamiltonian (and of a drive, whose
    # rate is negligible there) against eigvalsh: a segment just below PHASE_LIMIT / radius
    # passes, one just above is refused; and a wait's phase is omega t / 2, so a wait just
    # below PHASE_LIMIT / (omega / 2) is evolved and one just above is refused
    for _ in range(50):
        omega, a_perp = 10.0 ** rng.uniform(-3, 3, size=2)
        sys = SystemParams(omega=omega, a_perp=a_perp, a_z=rng.choice([-1, 1]) * a_perp
                           * 10.0 ** rng.uniform(-2, 2))
        below, above = (replace(README_BASE, t_c=engine.PHASE_LIMIT * (1.0 + f) / (omega / 2))
                        for f in (-1e-12, 1e-12))
        propagate(sys, render_unit(sys, below))
        with pytest.raises(ValueError) as err:
            propagate(sys, render_unit(sys, above))
        message = (f"segment phase H*t holds no digits modulo 2 pi (omega={sys.omega!r}, "
                   f"a_perp={sys.a_perp!r}, a_z={sys.a_z!r}, t={above.t_c!r})")
        assert str(err.value) == message
        solved, refused = evaluate_exact_batch([(sys, below), (sys, above)])
        assert isinstance(solved, engine.ExactResult) and str(refused) == message
        for kind, h in [(FREE_HYPERFINE, engine.hyperfine_hamiltonian(sys)), (PULSE, None)]:
            limit = engine.PHASE_LIMIT / np.abs(np.linalg.eigvalsh(
                engine.hyperfine_hamiltonian(sys) if h is None else h)).max()
            at = [Segment(kind, limit * (1.0 + f), "+x" if h is None else None,
                          math.pi if h is None else None) for f in (-1e-12, 1e-12)]
            engine._refuse_lost_phases(sys, at[:1])
            with pytest.raises(ValueError, match="holds no digits"):
                engine._refuse_lost_phases(sys, at)


def test_kraus_cptp_trace(rng):
    for _ in range(10):
        sys_p, seq_p = random_params(rng)
        pair = cycle_kraus(sys_p, seq_p)
        total = pair.m_up.conj().T @ pair.m_up + pair.m_down.conj().T @ pair.m_down
        assert np.trace(total).real == pytest.approx(2.0, abs=1e-12)
        assert pair.cptp_defect() <= 1e-12


def test_kraus_blocks_match_analytic_forms():
    # Assemble the averaged-evolution unitary from its 2x2 blocks in the
    # coupled-pair basis (eu,nd / ed,nu and eu,nu / ed,nd), permute to the
    # standard order, and check the extracted pair is the analytic one:
    # diagonal m_up, anti-diagonal m_down.
    a, theta, phi = 0.7, 0.9, 1.1
    chi, eta = a * math.sin(theta) / 2, a * math.cos(theta) / 2
    up_block = np.array([
        [-np.exp(1j * phi / 2) * math.cos(chi),
         np.exp(1j * (theta + phi / 2)) * math.sin(chi)],
        [-np.exp(-1j * (theta + phi / 2)) * math.sin(chi),
         -np.exp(-1j * phi / 2) * math.cos(chi)]])
    down_block = np.array([
        [-np.exp(-1j * phi / 2) * math.cos(eta),
         1j * np.exp(-1j * (theta + phi / 2)) * math.sin(eta)],
        [1j * np.exp(1j * (theta + phi / 2)) * math.sin(eta),
         -np.exp(1j * phi / 2) * math.cos(eta)]])
    block_diag = np.zeros((4, 4), dtype=complex)
    block_diag[:2, :2] = up_block
    block_diag[2:, 2:] = down_block
    # reordered basis indices (1, 2, 0, 3) of the standard basis
    perm = np.zeros((4, 4))
    for std, reordered in [(1, 0), (2, 1), (0, 2), (3, 3)]:
        perm[std, reordered] = 1.0
    u = perm @ block_diag @ perm.T
    assert unitarity_defect(u) < 1e-12
    extracted = kraus(u)
    pair = analytic.kraus_approx(a, theta, phi, n_r=1)
    assert np.allclose(extracted.m_up, pair.m_up)
    assert np.allclose(extracted.m_down, pair.m_down)
    assert np.allclose(extracted.m_up, np.diag(np.diag(extracted.m_up)))
    assert extracted.m_down[0, 0] == 0 and extracted.m_down[1, 1] == 0


def test_exact_kraus_magnitudes_match_analytic_forms():
    # entrywise magnitudes of the exact pair follow the closed forms at
    # small coupling; entry phases differ by the free azimuthal frame of
    # the nuclear x axis, which no observable sees
    sys_p = SystemParams(omega=1.0, a_perp=0.01)
    for method, sign, n_p, n_r in [("I", +1, 1, 1), ("I", -1, 1, 2),
                                   ("II", +1, 1, 1), ("II", -1, 2, 3)]:
        seq = magic_params(method, sign, n_p).to_sequence_params(sys_p, n_r=n_r)
        exact = cycle_kraus(sys_p, seq)
        bundle = analytic.phases(sys_p, seq)
        a = analytic.alpha(sys_p, seq)
        approx = analytic.kraus_approx(a, bundle.theta, bundle.phi_big, n_r)
        assert np.max(np.abs(np.abs(exact.m_up) - np.abs(approx.m_up))) < 1e-5
        assert np.max(np.abs(np.abs(exact.m_down) - np.abs(approx.m_down))) < 1e-4


def apply_channel(pair, rho):
    """One cycle of the channel through its transfer matrix on row-major vec(rho)."""
    return (_superop(pair) @ np.asarray(rho, dtype=complex).reshape(4)).reshape(2, 2)


def test_apply_channel_identity_pair():
    pair = kraus(ID4)
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    assert np.allclose(apply_channel(pair, rho), rho)


def test_apply_channel_preserves_trace_and_positivity(rng):
    for _ in range(5):
        sys_p, seq_p = random_params(rng)
        pair = cycle_kraus(sys_p, seq_p)
        rho = mixed_state()
        for _ in range(50):
            rho = apply_channel(pair, rho)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) >= -1e-10


def test_apply_channel_no_transfer_without_coupling():
    sys_p = SystemParams(omega=1.0, a_perp=0.0, a_z=0.1)
    seq = magic_params("I", +1, 1).to_sequence_params(sys_p, n_r=1)
    pair = cycle_kraus(sys_p, seq)
    rho = np.diag([0.8, 0.2]).astype(complex)
    out = apply_channel(pair, rho)
    assert np.allclose(np.diag(out).real, [0.8, 0.2], atol=1e-12)


def test_channel_iteration_polarizes_magic_point():
    seq = magic_params("I", +1, 4).to_sequence_params(SYS, n_r=1)
    pair = cycle_kraus(SYS, seq)
    rho = mixed_state()
    for _ in range(200):
        rho = apply_channel(pair, rho)
    assert float(np.real(rho[0, 0] - rho[1, 1])) == pytest.approx(1.0, abs=0.02)  # <2 I_z>


def test_simulate_identity_channel():
    series = simulate(kraus(ID4), mixed_state(), 10)
    assert np.all(series.values == 0.0)
    assert len(series) == 10


def test_simulate_polarized_initial_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    series = simulate(kraus(ID4), rho, 5)
    assert np.all(series.values == 1.0)


def test_simulate_magic_point_rises():
    seq = magic_params("II", +1, 1).to_sequence_params(
        SystemParams(omega=1.0, a_perp=0.05), n_r=4)
    pair = cycle_kraus(SystemParams(omega=1.0, a_perp=0.05), seq)
    series = simulate(pair, mixed_state(), 100)
    assert series.values[-1] >= 0.98
    assert np.all(np.diff(np.abs(series.values)) >= -1e-9)


def test_series_bound(rng):
    for _ in range(5):
        sys_p, seq_p = random_params(rng)
        series = simulate(cycle_kraus(sys_p, seq_p), mixed_state(), 100)
        assert np.max(np.abs(series.values)) <= 1 + 1e-10


def test_steady_state_identity_channel():
    p_s, lam = steady_state(kraus(ID4))
    assert p_s == 0.0
    assert lam == 1.0


def test_steady_state_magic_rows():
    for sign in (+1, -1):
        seq = magic_params("I", sign, 1).to_sequence_params(SYS, n_r=1)
        p_s, lam = steady_state(cycle_kraus(SYS, seq))
        assert sign * p_s >= 0.99
        assert lam == pytest.approx(math.cos(0.2) ** 2, abs=0.01)


def test_steady_state_long_train_magic_row():
    # the unit eigenvalue comes out as 1 + 1.35e-12 here
    sys_p = SystemParams(omega=1.0, a_perp=0.001)
    seq = magic_params("I", +1, 8).to_sequence_params(sys_p, n_r=64)
    p_s, lam = steady_state(cycle_kraus(sys_p, seq))
    assert p_s >= 0.98
    assert 0.0 <= lam < 1.0


def series_terms(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The modes mu and weights w, both (k, 3), of the affine Bloch maps of stacked transfer
    matrices t: from the mixed start P(n) = P_s + Re sum w mu^(n-1), a steady mode's w 0
    (see engine._spectral_summary)."""
    mu, vecs, a = engine._modes(engine._bloch_maps(t)[1])
    return mu, engine._spectral_summary(mu, vecs, a)[2]


def affine_p_s(t: np.ndarray) -> float:
    """The engine's P_s of the transfer matrix t (4, 4), from the modes of its affine Bloch map."""
    return engine._spectral_summary(*engine._modes(engine._bloch_maps(t[None])[1]))[0][0]


def block_fractions(mu: np.ndarray, weights: np.ndarray, p_s: float, block: int) -> np.ndarray:
    """P(n)/P_s = 1 + Re sum (w/P_s) mu^(n-1) of one point's modes and weights (m,) at the
    cycles block RATE_BLOCK ... (block + 1) RATE_BLOCK, the cycle before the block first, as
    the later-block search reads them: 1 + Re sum A mu^j, j = 0 ... RATE_BLOCK, with the
    anchor A = t mu^(block RATE_BLOCK - 1) in polar form, |t| e^(n log|mu|) (cos + i sin)
    (arg t + n arg mu), and mu^j from numpy's power, summed mode by mode."""
    n = block * engine.RATE_BLOCK - 1.0
    t = weights / p_s
    scale = np.abs(t) * np.exp(n * np.log(np.abs(mu)))
    angle = np.angle(t) + n * np.angle(mu)
    anchors = scale * np.cos(angle) + 1j * (scale * np.sin(angle))
    sums = anchors[0] * mu[0] ** np.arange(engine.RATE_BLOCK + 1.0)
    for a, m in zip(anchors[1:], mu[1:]):
        sums = sums + a * m ** np.arange(engine.RATE_BLOCK + 1.0)
    return 1.0 + sums.real


def _affine_modes(pair: KrausPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pauli form q (4, 4) of the channel's Bloch map (see engine._bloch_maps), and the modes
    mu (3,) of its affine map r -> M r + c with their weights w (3,): w_k = -V[z, k] a_k /
    (1 - mu_k) (see engine._spectral_summary), 0 on a steady mode, so that from the mixed
    start P(n) = P_s + Re sum w mu^(n-1)."""
    q = engine._bloch_maps(_superop(pair)[None])[1]
    mu, vecs, a = (x[0] for x in engine._modes(q))
    moving = np.abs(mu - 1.0) > UNITARITY_TOL
    return q[0], mu, np.where(moving, -vecs[2] * a / np.where(moving, 1.0 - mu, 1.0), 0.0)


def _spectrum(pair: KrausPair) -> tuple[float, float, float]:
    """(P_s, lambda, spread) of one channel: spread is the sum of |w_k| over the moving modes
    of its affine Bloch map (see _affine_modes), which bounds |P(n) - P_s| at
    lambda^(n-1) times it."""
    p_s, lam = steady_state(pair)
    _, _, weights = _affine_modes(pair)
    return p_s, lam, float(np.abs(weights[np.abs(weights) > UNITARITY_TOL]).sum())


def bloch_gap(pair: KrausPair) -> float:
    """min |mu - 1| over the modes of the channel's affine Bloch map: 1/gap conditions P_s."""
    return float(np.abs(1.0 - _affine_modes(pair)[1]).min())


@given(st.integers(0, 2 ** 31 - 1))
def test_spectral_fixed_point_and_contraction(seed):
    pair = cycle_kraus(*random_params(np.random.default_rng(seed)))
    p_s, lam = steady_state(pair)
    mu, vecs, coeffs = (stack[0] for stack in _modes(_superop(pair)[None]))
    steady = np.abs(mu - 1.0) <= UNITARITY_TOL
    fixed = vecs[:, steady] @ coeffs[steady]
    assert np.max(np.abs(_superop(pair) @ fixed - fixed)) <= 1e-12
    # P_s is the z of the fixed point of the affine Bloch map r -> M r + c, here solved
    # in exact rationals; a solve in floats errs by a few eps / gap, gap = min |mu - 1|
    # over M's modes, and a mode within UNITARITY_TOL of 1 is left out of P_s
    q, mu, weights = _affine_modes(pair)
    gap = float(np.abs(1.0 - mu).min())
    assert gap <= UNITARITY_TOL or abs(p_s - exact_fixed_z(q)) * gap <= 1e-15
    # the deficit never decays slower than lambda ...
    _, _, spread = _spectrum(pair)
    deficit = np.abs(simulate(pair, mixed_state(), 4096).values - p_s)
    envelope = spread * lam ** np.arange(4096) + 4 * UNITARITY_TOL
    assert np.all(deficit <= envelope)
    # ... and, once the slowest mode is also the heaviest, the successive
    # deficit ratio tends to lambda; at the cycle where lambda^n reaches 1e-6
    # it is the ratio all moving modes give, which faster modes of large
    # weight (6e-6 at random seed 1361140) and slower coherence modes of
    # weight below UNITARITY_TOL (1.2e-6 at 2236, 1.1e-6 at 5008) still move
    heaviest = np.argmax(np.abs(weights))
    if abs(mu[heaviest]) == lam and 0.0 < lam < 1.0:
        n = min(int(math.log(1e-6) / math.log(lam)) + 2, 2 ** 21)
        tail = np.abs(simulate(pair, mixed_state(), n).values[-2:] - p_s)
        ratio = abs(weights @ mu ** (n - 1)) / abs(weights @ mu ** (n - 2))
        assert tail[1] / tail[0] == pytest.approx(ratio, abs=1e-6)


@pytest.mark.parametrize("seed", [
    pytest.param(2236, marks=pytest.mark.xfail(strict=True, reason=(
        "lambda leaves out a coherence pair slower than it, of weight 9e-11, below "
        "UNITARITY_TOL (ROADMAP item 7): the ratio misses lambda by 1.2e-6"))),
    5008,  # meets lambda once the Kraus isometry is projected
    pytest.param(1361140, marks=pytest.mark.xfail(strict=True, reason=(
        "a faster pair of weight 0.005 has not faded where lambda^n reaches 1e-6: "
        "the ratio misses lambda by 6e-6"))),
])
def test_the_deficit_ratio_meets_lambda_where_the_heaviest_mode_is_slowest(seed):
    # the ratio check of test_spectral_fixed_point_and_contraction as it compared with
    # lambda, at the random seeds where it fails
    pair = cycle_kraus(*random_params(np.random.default_rng(seed)))
    p_s, lam = steady_state(pair)
    _, mu, weights = _affine_modes(pair)
    assert abs(mu[np.argmax(np.abs(weights))]) == lam and 0.0 < lam < 1.0
    n = min(int(math.log(1e-6) / math.log(lam)) + 2, 2 ** 21)
    tail = np.abs(simulate(pair, mixed_state(), n).values[-2:] - p_s)
    assert tail[1] / tail[0] == pytest.approx(lam, abs=1e-6)


def test_stacked_spectral_summary_keeps_the_bytes_of_each_point():
    # each row of a stack has the bytes it has alone; signed zeros, steady modes and rows
    # whose three modes are all steady change how the sums associate
    rng = np.random.default_rng(11)
    zeros = np.array([complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), 0j])
    for _ in range(200):
        k = int(rng.integers(1, 300))
        a = (rng.normal(size=(k, 3)) + 1j * rng.normal(size=(k, 3))) * 10.0 ** rng.uniform(
            -14, 2, size=(k, 3))
        blank = rng.random((k, 3)) < 0.25
        a[blank] = zeros[rng.integers(4, size=blank.sum())]
        vecs = rng.normal(size=(k, 3, 3)) + 1j * rng.normal(size=(k, 3, 3))
        mu = (rng.normal(size=(k, 3)) + 1j * rng.normal(size=(k, 3))) / 2
        steady = rng.random((k, 3)) < rng.uniform(0, 1)
        mu[steady] = 1.0 + (rng.random(steady.sum()) - 0.5) * 1e-10
        # and rows of -0 shares: all three modes steady, one steady, none, and three
        # moving modes whose shares are all -0 (real positive z rows)
        mu[0], a[0] = 1.0, complex(-0.0, -0.0)
        if k > 3:
            mu[1], a[1] = [1.0, 0.5j, -0.5], complex(-0.0, -0.0)
            mu[2], a[2] = 0.5, -0.0
            mu[3], a[3], vecs[3] = [0.5, 0.25, -0.5], complex(-0.0, -0.0), np.eye(3) + 1.0
        p_s, lam, weights = engine._spectral_summary(mu, vecs, a)
        assert not np.signbit(p_s[p_s == 0]).any()  # never -0
        for i in range(k):
            alone = engine._spectral_summary(mu[i:i + 1], vecs[i:i + 1], a[i:i + 1])
            assert [x[i].tobytes() for x in (p_s, lam, weights)] == [v[0].tobytes() for v in alone]
            # per row, the sums _spectral_summary stands for
            moving = np.abs(mu[i] - 1.0) > UNITARITY_TOL
            share = np.where(moving, vecs[i, 2] * (a[i] / np.where(moving, 1.0 - mu[i], 1.0)), 0)
            weighed = moving & (np.abs(share) > UNITARITY_TOL)
            expected = (0.0 + float(share.sum().real),
                        float(np.max(np.abs(mu[i][weighed]))) if weighed.any() else 1.0)
            assert [p_s[i].tobytes(), lam[i].tobytes()] == [
                np.float64(v).tobytes() for v in expected]


README_BASE = SequenceParams(n_p=1, tau=2 * math.pi, t_s=1.5 * math.pi, t_w=1.5 * math.pi,
                             t_c=1.5 * math.pi, n_r=4, tau_pi=0.2 * math.pi)


def test_the_affine_solve_matches_the_transfer_matrix_oracle():
    # the README sweep and 200 random draws: P_s from the real 3x3 Bloch map against the
    # weight on the steady modes of the complex 4x4 transfer matrix, both conditioned by
    # 1/gap, and lambda from M's modes against T's
    pairs = [cycle_kraus(SYS, replace(README_BASE, t_s=f * math.pi)) for f in np.linspace(0, 2, 81)]
    pairs += [cycle_kraus(*random_params(np.random.default_rng(seed))) for seed in range(200)]
    checked = 0
    for pair in pairs:
        p_s, lam = steady_state(pair)
        mu, vecs, coeffs = _modes(_superop(pair)[None])
        (oracle_p_s,), (oracle_lam,) = _spectral_summary(mu, transfer_weights(vecs, coeffs))
        gap = bloch_gap(pair)
        if gap > 1e-8:
            assert abs(p_s - oracle_p_s) * gap <= 1e-13
            checked += 1
        assert abs(lam - oracle_lam) <= 1e-12
    assert checked >= len(pairs) - 2  # random seeds 25 and 199 have a gap below 1e-8


@pytest.mark.parametrize("pair", [
    cycle_kraus(SYS, replace(README_BASE, t_s=i * math.pi / 100, t_w=j * math.pi / 100))
    for i, j in [(23, 23), (30, 97), (54, 162)]] + [
    cycle_kraus(*random_params(np.random.default_rng(1644)))],
    ids=["map-4646", "map-6127", "map-11016", "seed-1644"])
def test_p_s_is_the_exact_fixed_point_where_the_transfer_matrix_oracle_misses(pair):
    # points of the 201 x 201 (t_s, t_w) map at the README base (index 201 i + j at
    # t_s = i pi / 100, t_w = j pi / 100) and a random draw where the engine's P_s and the
    # oracle's part by more than 1e-13 / gap, and map point 11016, whose gap of 4.2e-9
    # leaves it outside that gate: the engine's P_s lies within eps / gap of the fixed
    # point solved in exact rationals, the oracle's further from it
    p_s, _ = steady_state(pair)
    q, mu, _ = _affine_modes(pair)
    gap, exact = float(np.abs(1.0 - mu).min()), exact_fixed_z(q)
    mu, vecs, coeffs = _modes(_superop(pair)[None])
    (oracle_p_s,), _ = _spectral_summary(mu, transfer_weights(vecs, coeffs))
    assert abs(p_s - exact) * gap <= 2.2e-16
    assert abs(p_s - exact) < abs(oracle_p_s - exact)


# points 201 i + j of the 201 x 201 (t_s, t_w) map at the README base, t_s = i pi / 100 and
# t_w = j pi / 100, each with its bound on the relative N_s error, twice what the engine reads
# against the oracle (room for another numpy's eig), and the constant term c2 of its P_s
# bound |P_s - oracle| <= (P_S_ORACLE_C / gap + c2) eps: 0 but at 17885, whose gap of 0.42
# leaves an error floor of about 3e-14 that 1/gap does not reach (c2 = 60 needed there)
ORACLE_POINTS = {10760: (9.8e-10, 0), 12011: (1.08e-9, 0), 17960: (1.44e-10, 0),
                 29324: (1.28e-10, 0), 21960: (7.4e-7, 0), 32308: (1.08e-12, 0),
                 5000: (8.0e-14, 0), 40000: (4.4e-14, 0), 30244: (6.4e-14, 0),
                 17885: (1.6e-14, 120)}
P_S_ORACLE_C = 32  # 19 is needed at 30244 (gap 0.22)


@pytest.mark.parametrize("index", ORACLE_POINTS)
def test_p_s_and_n_s_meet_the_fixed_point_oracle(index):
    # the cycle in fixed point at 2^-200 (tests/oracles.py), from the exact Hamiltonians of
    # the float inputs: slow points (gaps 3e-10 to 2e-6, N_s up to 3.3e9 cycles), a small
    # |P_s| (32308), fast ones, the worst-conditioned eigenvectors of M on the map (30244) and
    # the largest |P_s - oracle| gap / eps of a 335-point map sample (17885)
    n_s_bound, c2 = ORACLE_POINTS[index]
    i, j = divmod(index, 201)
    seq = replace(README_BASE, t_s=i * math.pi / 100, t_w=j * math.pi / 100)
    timeline = render_unit(SYS, seq)
    u = fixed_cycle_propagator(SYS, timeline)
    u_float = (np.array(u[0], dtype=object) + 1j * np.array(u[1], dtype=object)) / ONE
    assert operator_distance(u_float.astype(complex), propagate(SYS, timeline)) <= 1e-12
    q = fixed_affine_map(u)
    p_s = exact_fixed_z([[Fraction(v, ONE) for v in row] for row in q])
    gap = float(np.abs(1.0 - np.linalg.eigvals(
        np.array([row[1:] for row in q[1:]], dtype=object).astype(float) / ONE)).min())
    res = evaluate_exact(SYS, seq)
    assert float(abs(Fraction(res.p_s) - p_s)) <= (P_S_ORACLE_C / gap + c2) * 2.220446049250313e-16
    n_s = fixed_rate_cycles(q, p_s, res.n_s)
    assert float(abs(Fraction(res.n_s) - n_s) / n_s) <= n_s_bound


@pytest.mark.parametrize("rho0", [mixed_state(), np.array([[1, 1], [1, 1]]) / 2],
                         ids=["mixed", "x-polarized"])
def test_simulate_follows_the_stepped_vec_rho_series(rho0):
    # block powers of the real Bloch map against the complex transfer matrix stepped
    # cycle by cycle, at every 8th point of the README sweep and on random draws
    pairs = [cycle_kraus(SYS, replace(README_BASE, t_s=f * math.pi)) for f in np.linspace(0, 2, 11)]
    pairs += [cycle_kraus(*random_params(np.random.default_rng(seed))) for seed in range(20)]
    n = np.arange(1, 4097)
    for pair in pairs:
        stepped = stepped_series(pair.m_up, pair.m_down, rho0, 4096)
        assert np.all(np.abs(simulate(pair, rho0, 4096).values - stepped) <= 4 * n * 2.2e-16)


@pytest.mark.parametrize("t_s_over_pi", [0.1, 0.35, 0.6, 1.85])
def test_slow_readme_sweep_points_are_solved(t_s_over_pi):
    # the slowest mode lies within 2e-5 of 1: 1e5 to 2e6 cycles to the 1 - 1/e crossing
    res = evaluate_exact(SYS, replace(README_BASE, t_s=t_s_over_pi * math.pi))
    assert 0.1 <= abs(res.p_s) <= 1.0
    assert 1.0 - 2e-5 < res.lambda_est < 1.0
    assert res.gamma is None or res.gamma > 0


@pytest.mark.parametrize("t_s_over_pi,later,oracle_bound", [
    (0.0, False, 3e-14), (1.85, True, 1.2e-12), (0.1, True, 3.5e-10), (0.35, True, 3.1e-10)],
    ids=["first-block", "later-block", "later-block-0.1pi", "later-block-0.35pi"])
def test_interpolated_rates_are_python_floats(t_s_over_pi, later, oracle_bound):
    seq = replace(README_BASE, t_s=t_s_over_pi * math.pi)
    pair = cycle_kraus(SYS, seq)
    p_s, _ = steady_state(pair)
    n_s = rate_cycles(pair, p_s)
    # later: past simulate's first block of SERIES_BLOCK cycles, which it reads by doubling
    assert type(n_s) is float and (n_s > engine.SERIES_BLOCK) == later
    expected = measured_rate(simulate(pair, mixed_state(), series_through(n_s)), p_s, 1.0)
    # simulate reads powers of the Bloch map where the rate reads M's mode sum: the same
    # crossing, not the same bytes (relative differences 1.7e-13 at 0.1 pi, 1.2e-14 at
    # 0.35 pi, 9.4e-15 at 1.85 pi, 2.4e-14 at 0)
    assert 1.0 / n_s == pytest.approx(expected, rel=1e-12)
    # against the fixed-point oracle: 1.5e-14, 6.1e-13, 1.8e-10 and 1.5e-10 are read
    q = fixed_affine_map(fixed_cycle_propagator(SYS, render_unit(SYS, seq)))
    exact = fixed_rate_cycles(q, exact_fixed_z([[Fraction(v, ONE) for v in row] for row in q]), n_s)
    assert float(abs(Fraction(n_s) - exact) / exact) <= oracle_bound
    (batched,) = engine.evaluate_exact_batch([(SYS, seq)])
    for res in (evaluate_exact(SYS, seq), batched):
        assert type(res.gamma) is float and type(res.n_s) is float


def series_through(n_s: float) -> int:
    """A series length that holds the crossing at N_s, between cycles N_s + 1 and N_s + 2."""
    return math.ceil(n_s) + 2


def test_readme_point_beyond_the_old_cap_has_a_rate():
    # t_s = 0.6 pi crosses 1 - 1/e of P_s after 2^21 cycles, where the series was once cut off
    seq = replace(README_BASE, t_s=0.6 * math.pi)
    res = evaluate_exact(SYS, seq)
    assert abs(res.p_s) > 0.1
    assert 2 ** 21 < res.n_s < 2 ** 22
    series = simulate(cycle_kraus(SYS, seq), mixed_state(), series_through(res.n_s))
    assert res.gamma == pytest.approx(measured_rate(series, res.p_s, res.t_cycle), rel=1e-10)


@given(st.integers(0, 2 ** 31 - 1))
@settings(deadline=None)
def test_rate_from_modes_matches_the_full_series(seed):
    sys_p, seq_p = random_params(np.random.default_rng(seed))
    res = evaluate_exact(sys_p, seq_p)
    pair = cycle_kraus(sys_p, seq_p)
    p_s, _ = steady_state(pair)
    if res.gamma is None:  # every draw that polarizes reaches 1 - 1/e
        assert abs(p_s) <= 1e-6
        with pytest.raises(BelowThresholdError):
            measured_rate(simulate(pair, mixed_state(), 300), p_s, res.t_cycle)
    elif res.n_s < 2 ** 21:
        series = simulate(pair, mixed_state(), series_through(res.n_s))
        assert res.gamma == pytest.approx(measured_rate(series, p_s, res.t_cycle), rel=1e-10)
    else:  # too long a series to write out: M's mode sum, as the later blocks read it,
        # brackets the crossing instead, in the block that holds its first cycle above
        (mu,), (weights,) = series_terms(_superop(pair)[None])
        below = math.floor(res.n_s) + 1  # the last cycle below 1 - 1/e
        block = below // engine.RATE_BLOCK
        at = below - block * engine.RATE_BLOCK
        before, after = block_fractions(mu, weights, p_s, block)[at:at + 2]
        assert before <= E_FRACTION <= after


def rate_cycles(pair: KrausPair, p_s: float) -> float | None:
    """_rate_cycles on a batch of one: N_s of the whole series, or None."""
    return rate_cycles_of(_superop(pair)[None], p_s)[0]


def rate_cycles_of(t: np.ndarray, p_s, terms=None) -> list[float | None]:
    """_rate_cycles on the stacked transfer matrices t (k, 4, 4) with steady polarizations p_s:
    every block read through the mode sums P(n) = P_s + Re sum w mu^(n-1) of the terms
    (mu, w), each (k, m), by default those of their affine Bloch maps (see series_terms)."""
    p_s = np.broadcast_to(np.asarray(p_s, dtype=float), len(t))
    return engine._rate_cycles(p_s, *(terms or series_terms(t)))


def recorded_reads(monkeypatch) -> list[int]:
    """From now on, the block of every read of the rate: 0 when a stack's block 0 is read,
    once for the whole stack, and b for each later block b (cycles b RATE_BLOCK + 1 ...
    (b + 1) RATE_BLOCK) the later-block search reads."""
    reads = []
    block_fractions, crossings = engine._block_fractions, engine._crossings

    def read_later(*modes_and_n):
        n = modes_and_n[-1]  # (k, 1): the exponent n - 1 of the cycle before each block
        reads.extend(((n[:, 0] + 1) // engine.RATE_BLOCK).astype(int).tolist())
        return block_fractions(*modes_and_n)

    def read(fractions, above, lo, start):
        if np.ndim(start) == 0:  # block 0, read from cycle 2 on; later blocks pass their starts
            reads.append(0)
        return crossings(fractions, above, lo, start)

    monkeypatch.setattr(engine, "_block_fractions", read_later)
    monkeypatch.setattr(engine, "_crossings", read)
    return reads


def test_rate_crossing_on_the_first_cycle_after_a_skipped_block(monkeypatch):
    # amplitude damping towards nuclear up: P(n) = 1 - lam^(n-1) crosses 1 - 1/e
    # between cycles 2048 and 2049, i.e. on the first cycle of block 2048 / RATE_BLOCK
    lam = math.exp(-1 / 2047.5)
    pair = KrausPair(m_up=np.diag([1.0, math.sqrt(lam)]).astype(complex),
                     m_down=np.array([[0.0, math.sqrt(1 - lam)], [0.0, 0.0]], dtype=complex))
    p_s, lam_est = steady_state(pair)
    assert p_s == pytest.approx(1.0, abs=1e-12) and lam_est == pytest.approx(lam, abs=1e-12)
    series = simulate(pair, mixed_state(), 4096)
    fractions = series.values / p_s
    assert np.nonzero(fractions >= 1 - math.exp(-1))[0][0] == 2048
    reads = recorded_reads(monkeypatch)
    n_s = rate_cycles(pair, p_s)
    # the block before ends 9e-5 below the threshold: the bound rules it and every block
    # before it out, the block of cycle 2049 is the one read after block 0, and the cycle
    # before it, the last of the block before, is the interpolation's lower end
    assert reads == [0, 2048 // engine.RATE_BLOCK]
    assert 1 / n_s == pytest.approx(measured_rate(series, p_s, 1.0), rel=1e-10)
    assert n_s == pytest.approx(2047.5, abs=1e-3)


def test_the_mode_sum_puts_the_crossing_on_the_first_cycle_after_the_first_block(monkeypatch):
    # P(n) = 1 - lam^(n-1) first reaches 1 - 1/e on cycle RATE_BLOCK + 1: block 0 holds no
    # crossing, block 1 is the one read, and the crossing is interpolated between the mode
    # sum at cycles RATE_BLOCK and RATE_BLOCK + 1, as measured_rate does between the
    # series' entries
    last = engine.RATE_BLOCK
    pair = damping_to_cross_at(last + 1)
    p_s, _ = steady_state(pair)
    series = simulate(pair, mixed_state(), last + 1)
    assert np.nonzero(series.values / p_s >= E_FRACTION)[0][0] == last
    (mu,), (weights,) = series_terms(_superop(pair)[None])
    lo, hi = block_fractions(mu, weights, p_s, 1)[:2]
    assert lo < E_FRACTION <= hi
    reads = recorded_reads(monkeypatch)
    n_s = rate_cycles(pair, p_s)
    assert reads == [0, 1]
    assert n_s == last + (E_FRACTION - lo) / (hi - lo) - 1.0
    assert 1 / n_s == pytest.approx(measured_rate(series, p_s, 1.0), rel=1e-13)


def test_rate_crossing_at_an_oscillation_peak_inside_a_block():
    # weak damping towards nuclear up, then a rotation about a tilted axis: the
    # coherence modes ripple P(n), so the first crossing lies on a crest inside
    # block 16 while both ends of that block stay below 1 - 1/e
    pair = oscillating_pair()
    p_s, _ = steady_state(pair)
    series = simulate(pair, mixed_state(), 17 * 1024)
    fractions = series.values / p_s
    crossing = np.nonzero(fractions >= 1 - math.exp(-1))[0][0]
    assert crossing // 1024 == 16
    assert max(fractions[16 * 1024], fractions[17 * 1024 - 1]) < 1 - math.exp(-1) - 0.02
    n_s = rate_cycles(pair, p_s)
    assert 1 / n_s == pytest.approx(measured_rate(series, p_s, 1.0), rel=1e-10)


def test_no_rate_read_out_reads_powers_of_the_bloch_map(monkeypatch):
    # _read serves simulate alone: with it refusing, the README sweep and a point that
    # crosses after 2^21 cycles solve through the batch to the bytes they read otherwise
    points = [(SYS, replace(README_BASE, t_s=f * math.pi)) for f in np.linspace(0, 2, 81)]
    points.append((SYS, replace(README_BASE, t_s=0.6 * math.pi)))
    expected = list(evaluate_exact_batch(points))
    assert expected[-1].n_s > 2 ** 21

    def refused(*args):
        raise AssertionError("the rate read powers of the Bloch map")

    monkeypatch.setattr(engine, "_read", refused)
    assert list(evaluate_exact_batch(points)) == expected
    with pytest.raises(AssertionError, match="powers of the Bloch map"):
        simulate(cycle_kraus(*points[0]), mixed_state(), 2)


def damping_to_cross_at(cycle: int, sign: int = 1) -> KrausPair:
    """Amplitude damping towards nuclear up (sign 1) or down (-1) whose series
    P(n) = sign (1 - lam^(n-1)) first reaches 1 - 1/e of P_s = sign at `cycle`."""
    lam = math.exp(-1 / (cycle - 1.5))
    stay, flip = np.diag([1.0, math.sqrt(lam)]), np.array([[0.0, math.sqrt(1 - lam)], [0.0, 0.0]])
    if sign < 0:
        stay, flip = stay[::-1, ::-1], flip.T
    return KrausPair(m_up=stay.astype(complex), m_down=flip.astype(complex))


def damping_cycles(pair: KrausPair) -> Fraction:
    """N_s of damping_to_cross_at's series in exact rationals, interpolated as measured_rate
    does: P(n)/P_s = 1 - lam'^(n-1), lam' = s^2 for the pair's own float s = sqrt(lam)."""
    lam = Fraction(float(min(abs(pair.m_up[0, 0]), abs(pair.m_up[1, 1])))) ** 2
    threshold = Fraction(E_FRACTION)

    def fraction(n):
        return 1 - lam ** (n - 1)

    n = max(2, math.ceil(1 - 1 / math.log(float(lam))))  # a guess at the first cycle above
    while n > 2 and fraction(n - 1) >= threshold:
        n -= 1
    while fraction(n) < threshold:
        n += 1
    lo, hi = fraction(n - 1), fraction(n)
    return max(n - 2 + (threshold - lo) / (hi - lo), Fraction(1))


DAMPING_REL = 2e-13  # N_s against damping_cycles: 8.8e-14 is read, on cycles 2 ... 1024


# cycle 2 (N_s clamps to 1), cycles inside block 0 up to 33, and from 65 on the first cycle of
# a later block, read against the last cycle of the block before
BLOCK_FIRST_CYCLES = [2 ** e + 1 for e in range(10)]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("cycle,n", [(c, None) for c in BLOCK_FIRST_CYCLES]
                         + [(290, 300), (400, 300), (700, None)])
def test_the_rate_read_out_reads_exactly_what_measured_rate_reads(sign, cycle, n):
    # the read-out's N_s, from block 0 or from the later block that holds the crossing,
    # against the pair's exact series in rationals (to DAMPING_REL) and against what
    # measured_rate reads from simulate's powers of the Bloch map (to 1e-10, not byte for
    # byte); n cuts the series that measured_rate reads, None ends it at the crossing
    pair = damping_to_cross_at(cycle, sign)
    p_s, _ = steady_state(pair)
    assert p_s == pytest.approx(sign, abs=1e-12)
    n_s = rate_cycles(pair, p_s)
    series = simulate(pair, mixed_state(), n or cycle)
    if cycle > len(series):  # a 300-cycle series stops before the crossing at cycle 400
        with pytest.raises(BelowThresholdError):
            measured_rate(series, p_s, 1.0)
        series = simulate(pair, mixed_state(), cycle)
    assert np.nonzero(series.values / p_s >= 1 - math.exp(-1))[0][0] == cycle - 1
    assert n_s == pytest.approx(float(damping_cycles(pair)), rel=DAMPING_REL)
    assert 1.0 / n_s == pytest.approx(measured_rate(series, p_s, 1.0), rel=1e-10)
    assert (n_s == 1.0) == (cycle == 2)


@pytest.mark.parametrize("cycle", BLOCK_FIRST_CYCLES + [100, 512, 1024, engine.RATE_BLOCK])
def test_the_rate_read_out_reads_only_the_block_that_holds_the_crossing(monkeypatch, cycle):
    # the blocks the read-out reads (see recorded_reads): block 0 once for a whole stack, and
    # for a crossing in it (cycles 2 ... RATE_BLOCK) no later block; a later crossing reads
    # only the block that holds it, since the bounds of a monotone series rule out every
    # block before it
    reads = recorded_reads(monkeypatch)
    t = np.array([_superop(damping_to_cross_at(c)) for c in (cycle, 2)])
    assert None not in rate_cycles_of(t, 1.0)
    block = (cycle - 1) // engine.RATE_BLOCK
    assert reads == [0] + ([block] if block else [])


def recorded_rounds(monkeypatch) -> list[int]:
    """From now on, the number of points of each round of bounds the later-block search makes."""
    rounds, range_bound = [], engine._range_bound

    def bound(*modes_and_n):
        rounds.append(len(modes_and_n[-1]))
        return range_bound(*modes_and_n)

    monkeypatch.setattr(engine, "_range_bound", bound)
    return rounds


def test_the_later_search_starts_at_each_points_predicted_crossing_block(monkeypatch):
    # 53 of the README sweep's 81 points cross past block 0, from block 1 to past cycle
    # 2.8 million; the heaviest mode of each, its population mode, alone would cross in
    # the block that holds its crossing.  The search's first round of bounds rules out
    # every block before it, and each point reads that block alone.  So does a damping
    # pair that crosses at cycle 300, in block 4, alone
    reads, rounds = recorded_reads(monkeypatch), recorded_rounds(monkeypatch)
    points = [(SYS, replace(README_BASE, t_s=f * math.pi)) for f in np.linspace(0, 2, 81)]
    later = [math.ceil(res.n_s) // engine.RATE_BLOCK for res in evaluate_exact_batch(points)
             if res.n_s is not None and res.n_s > engine.RATE_BLOCK - 1]
    assert len(later) == 53 and max(later) * engine.RATE_BLOCK > 2_800_000
    assert rounds == [53]
    assert reads == [0] + later
    del reads[:], rounds[:]
    pair = damping_to_cross_at(300)
    assert rate_cycles(pair, steady_state(pair)[0]) == pytest.approx(298.5, abs=1e-3)
    assert rounds == [1] and reads == [0, 299 // engine.RATE_BLOCK]


def closed_form_cycles(pair: KrausPair) -> float:
    """N_s of damping_to_cross_at's series P(n) = 1 - lam^(n-1), for the lam the channel holds.

    lam is the transfer matrix's own p_down -> p_down entry, which rounding moves off
    the lam the channel was built from.  The real Bloch map the series is read
    through holds the same entry, byte for byte: B and B^-1 leave that row and
    column of T as they are.  The crossing is interpolated between the two
    cycles around it, as measured_rate does.
    """
    log_lam = math.log1p(-(1.0 - _superop(pair)[3, 3].real))
    crossing = math.floor(-1.0 / log_lam) + 1  # the last cycle before it, counted from 1

    def fraction(c):
        return -math.expm1((c - 1) * log_lam)

    lo, hi = fraction(crossing), fraction(crossing + 1)
    return crossing + (E_FRACTION - lo) / (hi - lo) - 1.0


def test_rate_crossing_far_past_the_old_cap():
    # 2^25 + 3 cycles: 16 times past the old 2^21-cycle series, 32 767 blocks in
    pair = damping_to_cross_at(2 ** 25 + 3)
    p_s, lam = steady_state(pair)
    assert p_s == pytest.approx(1.0, abs=1e-12) and lam < 1.0
    n_s = rate_cycles(pair, p_s)
    assert n_s == pytest.approx(closed_form_cycles(pair), rel=1e-12)
    assert n_s == pytest.approx(2 ** 25 + 1.5, abs=1e-3)


def test_rate_crossing_near_2_to_the_40():
    # its slow mode lies within UNITARITY_TOL of 1, so the engine counts it as steady: P_s
    # reads 0 and the mode has no weight.  Handed P_s = 1 and the term of P(n) = 1 - lam^(n-1),
    # lam the channel's own p_down -> p_down entry, the search still finds the crossing
    pair = damping_to_cross_at(2 ** 40)
    assert abs(steady_state(pair)[0]) <= 1e-6
    lam = _superop(pair)[3, 3].real
    n_s, = rate_cycles_of(_superop(pair)[None], 1.0, (np.array([[lam]]), np.array([[-1.0]])))
    assert n_s == pytest.approx(closed_form_cycles(pair), rel=1e-8)


def test_rate_one_cycle_after_the_old_series_length():
    # the old series of this draw ended at 880 634 cycles, one cycle before the
    # series reached 1 - 1/e of P_s read from the transfer matrix's eig; the
    # affine solve's P_s lies 5.9e-9 nearer the exact fixed point (its gap is
    # 1.1e-6), and the series reaches 1 - 1/e of it on that last cycle
    sys_p, seq_p = random_params(np.random.default_rng(1741))
    res = evaluate_exact(sys_p, seq_p)
    series = simulate(cycle_kraus(sys_p, seq_p), mixed_state(), series_through(res.n_s))
    assert np.nonzero(series.values / res.p_s >= E_FRACTION)[0][0] == 880_633
    assert res.gamma == pytest.approx(measured_rate(series, res.p_s, res.t_cycle), rel=1e-10)


def transfer_matrix(mu: list, weights: list) -> np.ndarray:
    """A 4x4 transfer matrix that keeps the trace and keeps rho Hermitian, whose series from
    the mixed start is P(n) = Re sum weights mu^(n-1).  mu[0] must be 1: weights[0] is the
    z of the fixed point, and mu[1:] are the three real modes of the affine Bloch map
    r -> M r + c, whose eigenvectors have z components -0.7, -0.8 and -0.6.  The weights
    must sum to 0, as P(1) is."""
    assert mu[0] == 1.0
    vecs = np.array([[0.3, 0.2, 0.4], [0.5, 0.1, 0.3], [-0.7, -0.8, -0.6]])
    b = -np.asarray(weights[1:]) / vecs[2]  # the fixed point V b, along each mode
    q = np.eye(4)
    q[1:, 1:] = vecs @ np.diag(mu[1:]) @ np.linalg.inv(vecs)
    q[1:, 0] = vecs @ (b * (1.0 - np.asarray(mu[1:])))  # c = (I - M) V b
    return engine._BLOCH_INV @ (engine._PAULI_INV @ q @ engine._PAULI) @ engine._BLOCH


def test_a_transfer_matrix_that_does_not_keep_rho_hermitian_is_refused():
    # its real Bloch map would read a series that T's modes do not bound, and the
    # later-block search would read block after block; it fails at once instead
    vecs = np.array([[1.0, 0.3, 0.2, 0.4], [0.0, 0.5, 0.0, 0.1], [0.0, 0.0, 0.5, 0.3],
                     [0.0, -0.7, -0.8, -0.6]])
    vecs[:, 0] = (MIXED_VEC.real - vecs[:, 1:] @ [-1.1, 0.1, 0.0]) / 1.0
    t = vecs @ np.diag([1.0, 1 - 1e-5, -1.0, 0.5]) @ np.linalg.inv(vecs)
    assert engine._bloch_maps(_superop(cycle_kraus(SYS, README_BASE))[None])[0].dtype == float
    with pytest.raises(ValueError, match="does not keep rho Hermitian"):
        rate_cycles_of(t[None], 1.0)


def series_of(t: np.ndarray, n: int) -> PolarizationSeries:
    """P(1), ..., P(n) of the transfer matrix t from the mixed start, one cycle at a time."""
    x, values = MIXED_VEC.copy(), np.empty(n)
    for i in range(n):
        values[i] = (x[0] - x[3]).real
        x = t @ x
    return PolarizationSeries(values)


def test_a_moving_mode_of_modulus_one_crosses_on_a_crest():
    # mu = -1 is not steady (|mu - 1| = 2), and its term 0.1 (-1)^n never decays:
    # P(n) = 1 - 1.1 (1 - 1e-5)^n + 0.1 (-1)^n first reaches 1 - 1/e on an even n
    t = transfer_matrix([1.0, 1 - 1e-5, -1.0, 0.5], [1.0, -1.1, 0.1, 0.0])
    mu, vecs, coeffs = _modes(t[None])
    (p_s,), (lam,) = _spectral_summary(mu, transfer_weights(vecs, coeffs))
    assert p_s == pytest.approx(1.0, abs=1e-8) and lam == pytest.approx(1.0, abs=1e-12)
    (n_s,) = rate_cycles_of(t[None], p_s)
    assert engine.SERIES_BLOCK < n_s < 2 ** 17
    series = series_of(t, series_through(n_s))
    assert 1 / n_s == pytest.approx(measured_rate(series, p_s, 1.0), rel=1e-10)


def test_a_mode_sum_that_never_reaches_the_threshold_reads_no_rate():
    # handed P_s = 1 and the terms of P(n) = (1 - 5e-11)^(n-1) - (1 - 3e-10)^(n-1), which
    # peaks at 0.58, below 1 - 1/e, the search leaves with None.  The engine itself counts
    # a mode within UNITARITY_TOL of 1 as steady, with no term: from this channel's own
    # affine map it reads P_s = 1 and P(n) = 1 - (1 - 3e-10)^(n-1), which crosses
    t = transfer_matrix(*NEVER)
    assert rate_cycles_of(t[None], 1.0, tuple(np.array([x]) for x in NEVER_TERMS)) == [None]
    p_s = affine_p_s(t)
    assert p_s == pytest.approx(1.0, abs=1e-5)
    assert rate_cycles_of(t[None], p_s) == [pytest.approx(1 / 3e-10, rel=1e-3)]


# a mode sum that never reaches 1 - 1/e: the transfer_matrix terms of its channel, and the
# modes and weights of P(n) = 1 + Re sum w mu^(n-1) = (1 - 5e-11)^(n-1) - (1 - 3e-10)^(n-1)
NEVER = [1.0, 1.0 - 5e-11, 1.0 - 3e-10, 0.5], [0.0, 1.0, -1.0, 0.0]
NEVER_TERMS = [1.0, 1.0 - 5e-11, 1.0 - 3e-10], [-1.0, 1.0, -1.0]


def oscillating_pair() -> KrausPair:
    """Weak damping towards nuclear up, then a turn about a tilted axis: a rippled series."""
    damping = 1e-4
    axis = math.cos(1.2) * SZ + math.sin(1.2) * SX
    turn = hermitian_expm(axis, 2 * math.pi / 1500)
    return KrausPair(m_up=turn @ np.diag([1.0, math.sqrt(1 - damping)]),
                     m_down=turn @ np.array([[0.0, math.sqrt(damping)], [0.0, 0.0]]))


def later_block_pool() -> list[tuple[np.ndarray, float, tuple[np.ndarray, np.ndarray]]]:
    """(transfer matrix, P_s, mode sum terms) of points that cross at many depths past
    block 0: on cycles 100 to 2^25 + 3, on a crest, past 2^21 cycles at the README base,
    after a moving mode of modulus 1, and never.  The terms (mu,
    w), each (3,), are those of the affine Bloch map (see series_terms) but for the last,
    which are handed (see NEVER_TERMS)."""
    pairs = [damping_to_cross_at(c, sign) for c in (100, 1030, 2049, 5000, 70_001, 3_000_000,
                                                     2 ** 25 + 3) for sign in (1, -1)]
    pairs += [oscillating_pair()]
    pairs += [cycle_kraus(SYS, replace(README_BASE, t_s=f * math.pi))
              for f in (0.1, 0.35, 0.6, 1.85)]
    pool = [(_superop(pair), steady_state(pair)[0]) for pair in pairs]
    crest = transfer_matrix([1.0, 1 - 1e-5, -1.0, 0.5], [1.0, -1.1, 0.1, 0.0])
    pool += [(crest, affine_p_s(crest))]
    pool = [(t, p_s, tuple(x[0] for x in series_terms(t[None]))) for t, p_s in pool]
    return pool + [(transfer_matrix(*NEVER), 1.0,
                    tuple(np.array(x, dtype=complex) for x in NEVER_TERMS))]


LATER_BLOCK_POOL = later_block_pool()


# the modes of the bound property: turning fast and slowly (by less than 1/RATE_BLOCK per
# cycle), real and negative, steady (mu = 1) and growing (|mu| > 1); and terms, zero among them
BOUND_MODES = st.one_of(
    st.builds(cmath.rect, st.floats(0.5, 1.0), st.floats(-math.pi, math.pi)),
    st.builds(cmath.rect, st.floats(0.9, 1.0), st.floats(-1 / 64, 1 / 64)),
    st.builds(complex, st.floats(-1.0, -0.5)),
    st.just(1 + 0j),
    st.builds(cmath.rect, st.floats(1.0, 1.0005, exclude_min=True), st.floats(-math.pi, math.pi)))
BOUND_TERMS = st.one_of(st.just(0j), st.builds(cmath.rect, st.floats(0.0, 2.0),
                                               st.floats(-math.pi, math.pi)))
# a range of blocks [lo, hi), closed and cut into equal parts or open and cut into doubling ones,
# or the first range [1, inf) of a search, cut around the block its heaviest mode predicts
SEEDED = "seeded"
BOUND_RANGES = st.one_of(st.tuples(st.integers(1, 200), st.integers(1, 300)).map(
    lambda r: (r[0], r[0] + r[1])), st.integers(1, 3).map(lambda lo: (lo, math.inf)),
    st.just(SEEDED))


@given(st.lists(st.tuples(BOUND_MODES, BOUND_TERMS), min_size=1, max_size=3), BOUND_RANGES)
@example([(cmath.rect(1.0, -1 / 128), cmath.rect(1.0, 2.0))], (1, 3))  # a slow turn alone
@example([(1 + 0j, 0j), (-0.75 + 0j, 0.5 + 0j), (cmath.rect(1.0004, 0.3), 1j)], (2, math.inf))
@example([(0.9995 + 0j, -1 + 0j), (cmath.rect(0.9999, 0.01), 0.2j)], SEEDED)  # seeded at block 31
@settings(deadline=None)
def test_each_part_bound_holds_at_every_cycle_of_its_part(modes, span):
    # the bound of each part, from the modes evaluated once at the edges that neighbouring
    # parts share, against the mode sum 1 + Re sum t mu^n at every exponent from the part's
    # edge to the next (up to 2^14 of them: the doubling parts past that are not checked),
    # where the part's cycles lie
    mu, terms = (np.array(x)[:, None] for x in zip(*modes))  # (m, 1): a stack of one point
    rows = engine._search_modes(terms, mu)
    if span == SEEDED:
        with np.errstate(divide="ignore", invalid="ignore"):  # log 0, and 0 / 0 where |mu| = 1
            edges = engine._first_parts(*rows[:2])
    else:
        edges = engine._parts(*(np.array([[x]], dtype=float) for x in span))
    n = edges * engine.RATE_BLOCK - 1
    with np.errstate(over="ignore", invalid="ignore"):  # |mu| > 1 overflows far out
        bound = engine._range_bound(*rows, n)[0]
    checked = 0
    for p, (a, z) in enumerate(zip(n[0, :-1].tolist(), n[0, 1:].tolist())):
        if a == z or z - a > 2 ** 14:
            continue
        each = terms * mu ** np.arange(a, z + 1)  # (m, exponents)
        values = 1.0 + each.real.sum(axis=0)
        assert values.max() <= bound[p] + 1e-10 * (1.0 + np.abs(each).sum(axis=0).max()), p
        checked += 1
    assert checked


@given(st.lists(st.integers(0, len(LATER_BLOCK_POOL) - 1), min_size=1, max_size=12))
@settings(deadline=None)
def test_stacked_later_search_matches_each_point_alone(picks):
    # the points of a stack leave the later-block search at different depths, each
    # with the bytes it gets alone
    t, p_s, mu, weights = (np.array(x) for x in zip(*(
        (LATER_BLOCK_POOL[i][0], LATER_BLOCK_POOL[i][1], *LATER_BLOCK_POOL[i][2]) for i in picks)))
    together = rate_cycles_of(t, p_s, (mu, weights))
    alone = [rate_cycles_of(t[j:j + 1], p_s[j], (mu[j:j + 1], weights[j:j + 1]))[0]
             for j in range(len(t))]
    assert [None if n is None else n.hex() for n in together] == [
        None if n is None else n.hex() for n in alone]
    assert all(type(n) is float for n in together if n is not None)


def slow_build_up(cycle: int) -> tuple[complex, complex]:
    """The mode and term of 1 - mu^n, which first reaches 1 - 1/e near `cycle`."""
    return complex(math.exp(-1 / cycle)), -1 + 0j


# one point's modes and terms (3 each), P_s = 1, whose block 0 holds no crossing: a slow
# build-up with a slower, light coherence pair (as at the README base); a heavy mode that
# turns; a heavy mode of modulus 1 or more; and a heavy pair whose terms cancel, so that the
# seed lies past block 2^52 and no bound rules a block out.  Zero terms are drawn too
SCAN_POINTS = st.one_of(
    st.builds(lambda build_up, slower, turn, size, phase: (
        (build_up[0], cmath.rect(1 - slower * (1 - abs(build_up[0])), turn),
         cmath.rect(1 - slower * (1 - abs(build_up[0])), -turn)),
        (build_up[1], cmath.rect(size, phase), cmath.rect(size, -phase))),
        st.integers(130, 20_000).map(slow_build_up), st.floats(0.1, 0.9), st.floats(0.0, math.pi),
        st.sampled_from([0.0, 1e-8, 0.01, 0.05]), st.floats(-math.pi, math.pi)),
    st.builds(lambda cycle, turn, size, other: (
        (cmath.rect(math.exp(-1 / cycle), turn), *other[0]), (-size + 0j, *other[1])),
        st.integers(130, 20_000), st.floats(0.0, 0.005), st.floats(1.0, 1.5),
        st.tuples(st.floats(0.9, 0.999), st.floats(-0.1, 0.1), st.sampled_from([0.0, 0.3])).map(
            lambda o: ((complex(o[0]), 0.5 + 0j), (complex(o[1]), complex(o[2]))))),
    st.builds(lambda grow, turn, size: (
        (cmath.rect(1 + grow, turn), 0.99 + 0j, 0.5 + 0j), (-size + 0j, 0.1 + 0j, 0j)),
        st.sampled_from([0.0, 1e-6, 1e-4]), st.floats(5e-4, 5e-3), st.floats(1.0, 1.5)),
    st.integers(130, 2_000).map(slow_build_up).map(lambda build_up: (
        (1 - 2 ** -53 + 0j, 1 - 2 ** -53 + 0j, build_up[0]), (1e15 + 0j, -1e15 + 0j, build_up[1]))))
# or a point of LATER_BLOCK_POOL: (P_s, modes, weights)
POOL_POINTS = st.sampled_from([(p_s, mu, weights) for _, p_s, (mu, weights) in LATER_BLOCK_POOL])


def readme_search_point(t_s_over_pi: float, t_w_over_pi: float) -> tuple:
    """(P_s, modes, weights) of the README base at t_s and t_w, as LATER_BLOCK_POOL holds them."""
    pair = cycle_kraus(SYS, replace(README_BASE, t_s=t_s_over_pi * math.pi,
                                    t_w=t_w_over_pi * math.pi))
    mu, weights = series_terms(_superop(pair)[None])
    return steady_state(pair)[0], mu[0], weights[0]


# README-base points whose search takes more than one round: at (t_s, t_w) = (0.04 pi,
# 1.62 pi) it reads block 2 without a crossing, then block 3 (N_s 195.677); at (0.35 pi,
# 0.5 pi) its first round rules out every part, and it reads block 1064 without a crossing
# before block 1065 (N_s 68 199.7)
SEARCH_POINTS = [readme_search_point(0.04, 1.62), readme_search_point(0.35, 0.5)]
SCAN_EXAMPLES = [[(p_s, mu, weights) for _, p_s, (mu, weights) in LATER_BLOCK_POOL],
                 SEARCH_POINTS]


@given(st.lists(st.one_of(POOL_POINTS, SCAN_POINTS.map(lambda point: (1.0, *point))),
                min_size=1, max_size=6))
@example(SCAN_EXAMPLES[0])
@example(SCAN_EXAMPLES[1])
@settings(deadline=None, max_examples=40)
def test_the_search_reads_what_a_block_by_block_scan_reads(points):
    # wherever the seed sends the search, or where there is none, the bounds rule out only
    # blocks that do not cross: each point leaves with the N_s that reading every block from
    # block 1 on gives, byte for byte, or lies past the scan's last block or never crosses
    p_s, mu, weights = (np.array(x) for x in zip(*points))
    found = engine._rate_cycles(p_s, mu.astype(complex), weights.astype(complex))
    for n_s, point in zip(found, points):
        scanned = block_scan(*point)
        if scanned is None:
            assert n_s is None or n_s > SCAN_BLOCKS * engine.RATE_BLOCK
        else:
            assert n_s is not None and n_s.hex() == scanned.hex()


def recorded_search(monkeypatch) -> list[tuple]:
    """From now on, the steps of the later-block search, in order: ("range", lo, hi) for each
    range of blocks [lo, hi) that _parts cuts, ("read", b, crossed) for each block b read,
    and ("none",) where _tail_bound shows that no later cycle reaches 1 - 1/e."""
    steps = []
    parts, block_fractions, tail_bound = engine._parts, engine._block_fractions, engine._tail_bound

    def cut(lo, hi):
        steps.extend(("range", *r) for r in zip(lo[:, 0].tolist(), hi[:, 0].tolist()))
        return parts(lo, hi)

    def read(*modes_and_n):
        values = block_fractions(*modes_and_n)
        blocks = (modes_and_n[-1][:, 0] + 1) // engine.RATE_BLOCK
        crossed = np.logical_or.reduce(values[:, 1:] >= E_FRACTION, axis=1)
        steps.extend(("read", *r) for r in zip(blocks.astype(int).tolist(), crossed.tolist()))
        return values

    def tail(*modes_and_a):
        reach = tail_bound(*modes_and_a)
        steps.extend(("none",) for r in reach.tolist() if r < E_FRACTION)
        return reach

    monkeypatch.setattr(engine, "_parts", cut)
    monkeypatch.setattr(engine, "_block_fractions", read)
    monkeypatch.setattr(engine, "_tail_bound", tail)
    return steps


def search_transitions(steps: list[tuple]) -> set[str]:
    """The transitions that one point's search steps (see recorded_search) show.  An open range
    that no read led to follows a round that ruled out every part, and an open range at the
    end of the last closed one follows a closed range gone through without a crossing."""
    seen, end = set(), None
    for before, step in zip([("range",)] + steps, steps):
        if step[0] == "range" and step[2] == math.inf:
            if before[0] == "range":
                seen.add("every part ruled out")
            if step[1] == end:
                seen.add("closed range gone through")
        elif step[0] == "range":
            end = step[2]
        elif step[0] == "read" and not step[2]:
            seen.add("read without a crossing")
        elif step[0] == "none":
            seen.add("leaves as None")
    return seen


def test_the_scan_examples_take_every_transition_of_the_search(monkeypatch):
    # the explicit examples of the scan test above, each point alone, take every transition
    # of the later-block search at least once
    steps = recorded_search(monkeypatch)
    seen, reads = set(), []
    for p_s, mu, weights in itertools.chain(*SCAN_EXAMPLES):
        del steps[:]
        engine._rate_cycles(np.array([p_s]), np.array([mu], dtype=complex),
                            np.array([weights], dtype=complex))
        seen |= search_transitions(steps)
        reads.append([step[1:] for step in steps if step[0] == "read"])
    assert seen == {"every part ruled out", "closed range gone through",
                    "read without a crossing", "leaves as None"}
    assert reads[-2:] == [[(2, False), (3, True)], [(1064, False), (1065, True)]]


# the clamp (cycle 2), the first cycles of later blocks (2^e + 1 from 65 on, read against the
# last cycle of the block before), the last cycles of block 0 and of simulate's first block,
# and any between
FIRST_BLOCK_CYCLES = st.one_of(
    st.sampled_from(BLOCK_FIRST_CYCLES + [engine.RATE_BLOCK, engine.SERIES_BLOCK]),
    st.integers(2, engine.SERIES_BLOCK))


@given(st.lists(st.tuples(FIRST_BLOCK_CYCLES, st.sampled_from([1, -1])), min_size=1, max_size=12))
@settings(deadline=None)
def test_stacked_first_block_read_out_matches_each_point_alone(picks):
    # the points of a stack leave at block 0 or at different later blocks, each with the
    # bytes it gets alone, the N_s of its exact series and the rate measured_rate reads
    # from a series that ends at its crossing
    pairs = [damping_to_cross_at(cycle, sign) for cycle, sign in picks]
    t = np.array([_superop(pair) for pair in pairs])
    p_s = [steady_state(pair)[0] for pair in pairs]
    together = rate_cycles_of(t, p_s)
    alone = [rate_cycles_of(t[j:j + 1], p)[0] for j, p in enumerate(p_s)]
    assert [n.hex() for n in together] == [n.hex() for n in alone]
    for n_s, pair, p, (cycle, _) in zip(together, pairs, p_s, picks):
        assert type(n_s) is float
        assert n_s == pytest.approx(float(damping_cycles(pair)), rel=DAMPING_REL)
        assert 1.0 / n_s == pytest.approx(
            measured_rate(simulate(pair, mixed_state(), cycle), p, 1.0), rel=1e-10)


@pytest.mark.parametrize("row", [[0.7, 0.9], [E_FRACTION, 0.2], [0.1, 0.7], [0.0, E_FRACTION]])
def test_a_block_read_gives_the_crossing_measured_rate_reads(row):
    # _crossings, which interpolates the crossings of block 0 and of each later block read,
    # as measured_rate reads them from a written series: on cycle 1 (N_s = 1.0), at the
    # clamp and exactly on the threshold, in rows that start at entry 0 (lo = 0), as block 0
    # does, and at entry 2 after lo, as a later block does after the cycle before it
    series = [np.array(row), np.array([0.0, 0.1] + row)]
    fractions = np.array([row, row])
    n_s = engine._crossings(fractions, fractions >= E_FRACTION, np.array([0.0, 0.1]),
                            np.array([0, 2]))
    assert [1.0 / n for n in n_s.tolist()] == [
        measured_rate(PolarizationSeries(values), 1.0, 1.0) for values in series]


def test_a_full_stack_of_late_crossings_stays_within_four_times_block_zero():
    # BATCH_SIZE points that all cross after block 0: the table of the modes' powers mu^j,
    # 3 x (RATE_BLOCK + 1) complex per point, is the largest array a stack holds, and the
    # points keep it through the later-block search, where a read's products are formed
    # one mode at a time.  The peak stays within 4 times block 0's terms, 3 x (RATE_BLOCK
    # - 1) complex per point (3.0 times is read)
    import tracemalloc

    points = [(SYS, replace(README_BASE, t_s=(1.85 + 0.002 * j / engine.BATCH_SIZE) * math.pi))
              for j in range(engine.BATCH_SIZE)]
    list(evaluate_exact_batch(points[:1]))
    tracemalloc.start()
    try:
        results = list(evaluate_exact_batch(points))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(res.n_s > engine.RATE_BLOCK for res in results)
    assert peak < 4 * engine.BATCH_SIZE * 3 * (engine.RATE_BLOCK - 1) * 16


MIXED_BLOCH = np.array([0.5, 0.0, 0.0, 0.5])  # the mixed start (p_up, x, y, p_down)


@pytest.mark.parametrize("at", range(len(LATER_BLOCK_POOL)))
def test_the_bloch_series_strays_from_the_mode_sum_by_at_most_its_drift(at):
    # what lets the rate read the mode sum of M's modes where simulate reads powers of the
    # real Bloch map R: at cycle 1 + m the two part by at most
    # a drift of 4 m eps (1.8 m eps at most in the pool).  The pool's channels are projected
    # Kraus pairs, exact damping pairs and transfer matrices built from their terms; each
    # mode sum holds the steady term (1, P_s) with the engine's own P_s, or is handed whole
    t, p_s, (mu, weights) = LATER_BLOCK_POOL[at]
    r, _ = engine._bloch_maps(t[None])
    for m in (1, 2, 1024, 1025, 2 ** 15 + 7, 2 ** 20, 2 ** 25 + 3):
        read = engine._READOUT[0] @ np.linalg.matrix_power(r[0], m) @ MIXED_BLOCH
        assert abs(read - (p_s + (weights * mu ** m).sum().real)) <= 4 * m * 2.2e-16, m


@pytest.mark.parametrize("rho0", [mixed_state(), np.array([[1, 1], [1, 1]]) / 2],
                         ids=["mixed", "x-polarized"])
def test_shorter_series_is_a_prefix_of_a_longer_one(rho0, rng):
    # the README channel and random ones, at lengths on both sides of each doubling of the
    # read-out rows and of each block
    pairs = [cycle_kraus(SYS, README_BASE)] + [cycle_kraus(*random_params(rng)) for _ in range(4)]
    lengths = (1, 2, 3, 63, 64, 65, 300, 1023, 1024, 1025, 2049, 5000)
    for pair in pairs:
        values = {n: simulate(pair, rho0, n).values for n in lengths}
        for m, n in itertools.combinations(lengths, 2):
            assert values[n][:m].tobytes() == values[m].tobytes(), (m, n)


@pytest.mark.parametrize("n,reads", [(1, 1), (1024, 1), (1025, 2), (3000, 3)])
def test_simulate_reads_every_block_through_one_reader(monkeypatch, n, reads):
    # block 0 is read as every later block is: one _read per SERIES_BLOCK cycles
    read, calls = engine._read, []

    def counted(rows, x, m):
        calls.append(len(rows))
        return read(rows, x, m)

    monkeypatch.setattr(engine, "_read", counted)
    series = simulate(cycle_kraus(SYS, README_BASE), mixed_state(), n)
    assert len(series) == n and len(calls) == reads == math.ceil(n / engine.SERIES_BLOCK)
    assert all(2 <= rows <= engine.SERIES_BLOCK for rows in calls)


def test_steady_state_matches_analytic_at_small_coupling():
    for method in ("I", "II"):
        for n_p in (1, 2, 4, 8):
            seq = magic_params(method, +1, n_p).to_sequence_params(SYS, n_r=1)
            p_s, _ = steady_state(cycle_kraus(SYS, seq))
            assert abs(p_s - 1.0) <= 0.02


def test_measured_rate_clamp():
    series = PolarizationSeries(np.array([1.0, 1.0, 1.0]))
    assert measured_rate(series, 1.0, 2.0) == pytest.approx(0.5)


def test_measured_rate_interpolated():
    lam = 0.8
    series = PolarizationSeries(analytic.polarization_series_analytic(1.0, lam, 60))
    gamma = measured_rate(series, 1.0, 1.0)
    assert gamma == pytest.approx(-math.log(lam), rel=0.05)


def test_measured_rate_below_threshold():
    series = PolarizationSeries(np.array([0.0, 0.1, 0.2]))
    with pytest.raises(BelowThresholdError) as err:
        measured_rate(series, 1.0, 1.0)
    assert err.value.max_fraction == pytest.approx(0.2)


def test_measured_rate_tiny_steady_polarization():
    series = PolarizationSeries(np.zeros(5))
    with pytest.raises(BelowThresholdError):
        measured_rate(series, 0.0, 1.0)


def test_evaluate_exact_bundles_everything():
    seq = magic_params("I", +1, 1).to_sequence_params(SYS, n_r=2)
    res = evaluate_exact(SYS, seq)
    assert res.p_s == pytest.approx(1.0, abs=0.01)
    assert res.gamma is not None and res.gamma > 0
    assert res.t_cycle == pytest.approx(2 * 14 * math.pi)
    nominal = evaluate_exact(SYS, seq, use_nominal_duration=True)
    assert nominal.gamma == pytest.approx(res.gamma)  # ideal pulses: same duration


def test_evaluate_exact_flags_non_polarizing():
    sys_p = SystemParams(omega=1.0, a_perp=0.0)
    seq = magic_params("I", +1, 1).to_sequence_params(sys_p, n_r=1)
    res = evaluate_exact(sys_p, seq)
    assert res.p_s == pytest.approx(0.0, abs=1e-9)
    assert res.gamma is None
    # off the magic timing, with finite pulses and a_z: the mu = 1 eigenspace
    # is two-dimensional and holds the mixed start
    sys_p = SystemParams(omega=1.0, a_perp=0.0, a_z=0.1)
    res = evaluate_exact(sys_p, replace(README_BASE, t_s=0.3 * math.pi))
    assert res.p_s == pytest.approx(0.0, abs=1e-12)
    assert res.gamma is None and res.n_s is None


def test_rate_agreement_with_analytic_at_table_rows():
    sys_p = SystemParams(omega=1.0, a_perp=0.01)
    for method in ("I", "II"):
        for sign in (+1, -1):
            for n_p in (1, 2, 4):
                for n_r in (1, 2, 4):
                    seq = magic_params(method, sign, n_p).to_sequence_params(sys_p, n_r=n_r)
                    s = analytic.summarize(sys_p, seq)
                    g_ana = analytic.gamma_analytic(s.lam, n_r, seq.rep_duration())
                    res = evaluate_exact(sys_p, seq)
                    assert res.gamma == pytest.approx(g_ana, rel=0.05)


def test_exact_solves_give_solve_a_stack_of_right_hand_sides(monkeypatch):
    # numpy before 2.0 reads a b with b.ndim == a.ndim - 1 as a stack of vectors, so
    # a (4, 1) right-hand side against (k, 4, 4) would be k vectors of length 1
    solve, ndims = np.linalg.solve, []

    def recorded(a, b):
        ndims.append((np.ndim(a), np.ndim(b)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    evaluate_exact(SYS, README_BASE)
    list(evaluate_exact_batch([(SYS, README_BASE), (SYS, replace(README_BASE, t_s=0.0))]))
    steady_state(cycle_kraus(SYS, README_BASE))
    assert len(ndims) == 3
    assert all(b == 1 or b != a - 1 for a, b in ndims), ndims
