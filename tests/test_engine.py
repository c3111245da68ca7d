import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
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
from hyperpol.engine import (E_FRACTION, _modes, _rate_cycles, _spectral_summary, _superop,
                             _weighted_modes)
from hyperpol.linalg import ID2, ID4, SX, SZ, hermitian_expm, unitarity_defect
from hyperpol.params import SequenceParams, SystemParams
from hyperpol.timeline import (FREE_HYPERFINE, FREE_NUCLEAR, PULSE, Repeat, Segment, Timeline,
                               render_unit)

from oracles import operator_distance, random_params, trotter_propagate

SYS = SystemParams(omega=1.0, a_perp=0.05)


def empty_timeline():
    return Timeline(Repeat(()), nominal_T=0.0, actual_T=0.0)


def test_propagate_empty_timeline():
    assert operator_distance(propagate(SYS, empty_timeline()), ID4) == 0.0


def test_propagate_single_nuclear_wait():
    t = 0.73
    tl = Timeline(Repeat((Segment(FREE_NUCLEAR, t),)), nominal_T=t, actual_T=t)
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
    """Reference cycle propagator: the ordered loop over the flat segments."""
    cache, hyperfine = {}, {}
    u = ID4.copy()
    for seg in tl.segments:
        if seg not in cache:
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
    st.builds(Segment, st.sampled_from([FREE_NUCLEAR, FREE_HYPERFINE]),
              st.sampled_from([0.0, -0.0, 0.25, 1.0, 2.5])),
    st.builds(Segment, st.just(PULSE), st.sampled_from([0.0, 0.1, 0.2]),
              st.sampled_from(["+x", "-x", "+y", "-y"]), st.sampled_from([math.pi, math.pi / 2])),
)
BLOCKS = st.recursive(SEGMENTS, lambda parts: st.builds(
    Repeat, st.lists(parts, max_size=3).map(tuple), st.integers(0, 3)), max_leaves=6)


@settings(max_examples=60, deadline=None)
@given(SEGMENTS, BLOCKS, st.integers(2, 4), st.integers(1, 3))
def test_propagate_matches_flat_product_on_hand_built_trees(reused, block, inner, count):
    # a tree is its own shape: a nested block repeated more than once, empty
    # blocks and a segment used in two places, around a drawn block
    tree = Repeat((reused, Repeat((block, reused), inner), Repeat(()), Repeat((), 3), block), count)
    tl = Timeline(tree, nominal_T=0.0, actual_T=0.0)
    assert tl.structure == tree
    assert operator_distance(propagate(SYS, tl), flat_product(SYS, tl)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(BLOCKS, SEGMENTS, SEGMENTS, st.data())
def test_a_stack_of_one_shape_is_each_timeline_alone(block, first, second, data):
    # sibling blocks of one form around a shared block: as the drawn points keep or
    # change each leaf, blocks and their sub-blocks are shared by the stack or not
    tree = Repeat((Repeat((block, first), 1), Repeat((block, second), 1)), 2)
    shape, leaves = Timeline(tree, 0.0, 0.0).shape, Timeline(tree, 0.0, 0.0).leaves
    stack = [(SYS, Timeline(shape, 0.0, 0.0, tuple(data.draw(st.one_of(st.just(seg), SEGMENTS))
                                                    for seg in leaves)))
             for _ in range(data.draw(st.integers(2, 5)))]
    walked = engine._walk(stack, {})
    assert [u.tobytes() for u in walked] == [propagate(*point).tobytes() for point in stack]


@settings(max_examples=40, deadline=None)
@given(BLOCKS, SEGMENTS, st.integers(0, 3), st.data())
def test_stacks_that_share_a_schedule_match_the_flat_product(block, seg, count, data):
    # a block of form (2 parts, count) nested in another of that form, twice, and
    # empty blocks of two counts; the stack's points keep or change each leaf
    inner = Repeat((seg, block), count)
    tree = Repeat((Repeat(()), Repeat((inner, seg), count), inner, Repeat((), 2), block), 2)
    template = Timeline(tree, 0.0, 0.0)
    stack = [(SYS, Timeline(template.shape, 0.0, 0.0,
                            tuple(data.draw(st.one_of(st.just(leaf), SEGMENTS))
                                  for leaf in template.leaves)))
             for _ in range(data.draw(st.integers(1, 4)))]
    engine._schedule.cache_clear()
    walked = engine._walk(stack, {})
    assert engine._schedule.cache_info().misses == 1  # one shape, one schedule
    for u, point in zip(walked, stack):
        assert operator_distance(u, flat_product(*point)) <= 1e-12
        assert u.tobytes() == propagate(*point).tobytes()


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

    def cold(point):  # no spectrum, no schedule, no memo
        monkeypatch.setattr(linalg, "_SPECTRA", {})
        engine._schedule.cache_clear()
        return engine._walk([point], {})[0].tobytes()

    expected = [cold(point) for point in points]
    monkeypatch.setattr(linalg, "_SPECTRA", {})
    stacked = engine._walk(points, {})
    assert len(linalg._SPECTRA) < linalg.SPECTRA_LIMIT  # nothing was dropped from the table
    diagonalized = []
    spectrum = linalg._spectrum
    monkeypatch.setattr(linalg, "_spectrum", lambda key, h: diagonalized.append(key) or spectrum(key, h))
    # each point alone with a fresh memo, every generator already diagonalized
    assert [engine._walk([point], {})[0].tobytes() for point in points] == expected
    assert diagonalized == []
    assert [u.tobytes() for u in stacked] == expected


def exact_point(a_perp, n_p, n_r, tau, pulse, t_s, t_w, t_c):
    """A point of the batch property below; pulse "tau" is a pi pulse as long as its cell."""
    tau_pi = tau if pulse == "tau" else pulse
    return (SystemParams(omega=1.0, a_perp=a_perp),
            SequenceParams(n_p=n_p, tau=tau, t_s=t_s, t_w=t_w, t_c=t_c, n_r=n_r, tau_pi=tau_pi))


WAITS = st.sampled_from([0.0, -0.0, 0.5 * math.pi, 1.5 * math.pi])
EXACT_POINTS = st.builds(exact_point, st.sampled_from([0.0, 0.1, 0.25]), st.integers(1, 3),
                         st.sampled_from([1, 2, 4]), st.sampled_from([math.pi, 2 * math.pi]),
                         st.sampled_from([0.0, 0.2 * math.pi, "tau"]), WAITS, WAITS, WAITS)


@settings(max_examples=8, deadline=None)
@given(st.lists(EXACT_POINTS, min_size=engine.BATCH_SIZE + 1, max_size=engine.BATCH_SIZE + 24))
def test_batch_is_each_point_alone_byte_for_byte(points):
    # more points than one chunk: chunks, shapes and the memo they carry are crossed
    def alone(point):
        try:
            return evaluate_exact(*point)
        except ValueError as err:
            return err

    batch = list(evaluate_exact_batch(points, cache={}))
    assert list(map(repr, batch)) == [repr(alone(p)) for p in points]


def test_each_long_train_point_alone_is_its_batch_byte_for_byte():
    # the 44 long_train points: 4 magic rows with n_p n_r = 512, 11 pulse widths each, so
    # the batch composes blocks up to count 64 for 11 points of each shape at once
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
    walked = engine._walk(points, None)
    assert built == systems
    for u, (s, tl) in zip(walked, points):
        assert operator_distance(u, flat_product(s, tl)) <= 1e-12


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_segment_propagator_names_an_overflowing_phase():
    waits = [Segment(FREE_NUCLEAR, 1.0), Segment(FREE_NUCLEAR, 1e10)]
    huge = SystemParams(omega=1e300, a_perp=0.05)
    with pytest.raises(ValueError) as err:
        segment_propagator(huge, waits, {})
    assert str(err.value) == ("segment phase H*t overflows "
                              "(omega=1e+300, a_perp=0.05, a_z=0.0, t=10000000000.0)")
    assert np.isfinite(segment_propagator(huge, waits[:1], {})).all()


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


def _spectrum(pair: KrausPair) -> tuple[float, float, float]:
    """(P_s, lambda, spread) of one channel: spread is the sum of |w_k| over the moving modes,
    which bounds |P(n) - P_s| at lambda^(n-1) times it."""
    mu, weights, _ = _weighted_modes(_superop(pair)[None])
    (p_s,), (lam,) = _spectral_summary(mu, weights)
    moving = (np.abs(mu[0] - 1.0) > UNITARITY_TOL) & (np.abs(weights[0]) > UNITARITY_TOL)
    return p_s, lam, float(np.abs(weights[0][moving]).sum())


@given(st.integers(0, 2 ** 31 - 1))
def test_spectral_fixed_point_and_contraction(seed):
    pair = cycle_kraus(*random_params(np.random.default_rng(seed)))
    p_s, lam = steady_state(pair)
    mu, vecs, coeffs = (stack[0] for stack in _modes(_superop(pair)[None]))
    steady = np.abs(mu - 1.0) <= UNITARITY_TOL
    fixed = vecs[:, steady] @ coeffs[steady]
    assert np.max(np.abs(_superop(pair) @ fixed - fixed)) <= 1e-12
    assert (fixed[0] - fixed[3]).real == pytest.approx(p_s, abs=1e-12)
    # the deficit never decays slower than lambda ...
    _, _, spread = _spectrum(pair)
    deficit = np.abs(simulate(pair, mixed_state(), 4096).values - p_s)
    envelope = spread * lam ** np.arange(4096) + 4 * UNITARITY_TOL
    assert np.all(deficit <= envelope)
    # ... and, once the slowest mode is also the heaviest, the successive
    # deficit ratio tends to lambda; the weights of slower coherence modes
    # are usually far below 1e-5 and only show once the deficit has
    # dropped under rounding
    weights = (vecs[0] - vecs[3]) * coeffs
    heaviest = np.argmax(np.where(steady, 0.0, np.abs(weights)))
    if abs(mu[heaviest]) == lam and 0.0 < lam < 1.0:
        n = min(int(math.log(1e-6) / math.log(lam)) + 2, 2 ** 21)
        tail = np.abs(simulate(pair, mixed_state(), n).values[-2:] - p_s)
        assert tail[1] / tail[0] == pytest.approx(lam, abs=1e-6)


def test_stacked_spectral_summary_keeps_the_bytes_of_each_point():
    # per row, the sums _spectral_summary stands for; signed zeros and rows whose
    # four modes are all steady change how numpy associates them
    rng = np.random.default_rng(11)
    zeros = np.array([complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), 0j])
    for _ in range(200):
        k = int(rng.integers(1, 70))
        weights = ((rng.normal(size=(k, 4)) + 1j * rng.normal(size=(k, 4)))
                   * 10.0 ** rng.uniform(-14, 2, size=(k, 4)))
        blank = rng.random((k, 4)) < 0.25
        weights[blank] = zeros[rng.integers(4, size=blank.sum())]
        mu = (rng.normal(size=(k, 4)) + 1j * rng.normal(size=(k, 4))) / 2
        steady = rng.random((k, 4)) < rng.uniform(0, 1)
        mu[steady] = 1.0 + (rng.random(steady.sum()) - 0.5) * 1e-10
        # and rows of -0 weights: all four modes steady, one steady, none
        mu[0], weights[0] = 1.0, complex(-0.0, -0.0)
        if k > 2:
            mu[1], weights[1] = [1.0, 0.5, 0.5j, -0.5], complex(-0.0, -0.0)
            mu[2], weights[2] = 0.5, -0.0
        p_s, lam = _spectral_summary(mu, weights)
        for i in range(k):
            still = np.abs(mu[i] - 1.0) <= UNITARITY_TOL
            moving = ~still & (np.abs(weights[i]) > UNITARITY_TOL)
            expected = (float(weights[i][still].sum().real),
                        float(np.max(np.abs(mu[i][moving]))) if moving.any() else 1.0)
            got = (p_s[i], lam[i])
            assert [np.float64(v).tobytes() for v in got] == [
                np.float64(v).tobytes() for v in expected]


README_BASE = SequenceParams(n_p=1, tau=2 * math.pi, t_s=1.5 * math.pi, t_w=1.5 * math.pi,
                             t_c=1.5 * math.pi, n_r=4, tau_pi=0.2 * math.pi)


@pytest.mark.parametrize("t_s_over_pi", [0.1, 0.35, 0.6, 1.85])
def test_slow_readme_sweep_points_are_solved(t_s_over_pi):
    # the slowest mode lies within 2e-5 of 1: 1e5 to 2e6 cycles to the 1 - 1/e crossing
    res = evaluate_exact(SYS, replace(README_BASE, t_s=t_s_over_pi * math.pi))
    assert 0.1 <= abs(res.p_s) <= 1.0
    assert 1.0 - 2e-5 < res.lambda_est < 1.0
    assert res.gamma is None or res.gamma > 0


@pytest.mark.parametrize("t_s_over_pi,later", [(0.0, False), (1.85, True), (0.1, True),
                                               (0.35, True)],
                         ids=["first-block", "later-block", "later-block-0.1pi",
                              "later-block-0.35pi"])
def test_interpolated_rates_are_python_floats(t_s_over_pi, later):
    seq = replace(README_BASE, t_s=t_s_over_pi * math.pi)
    pair = cycle_kraus(SYS, seq)
    p_s, _ = steady_state(pair)
    n_s = rate_cycles(pair, p_s)
    assert type(n_s) is float and (n_s > engine.SERIES_BLOCK) == later
    expected = measured_rate(simulate(pair, mixed_state(), series_through(n_s)), p_s, 1.0)
    # simulate steps block by block where _later_blocks jumps: the same crossing, not the same
    # bytes (relative differences 8.6e-15 at 0.1 pi, 4.5e-14 at 0.35 pi, 4.8e-15 at 1.85 pi)
    assert 1.0 / n_s == (pytest.approx(expected, rel=1e-12) if later else expected)
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
    else:  # too long a series to write out: the mode sum brackets the crossing instead,
        # to the rounding by which the series strays from it (see engine._later_blocks)
        mu, weights, drift = _weighted_modes(_superop(pair)[None])
        stray = 2 * (res.n_s + 1) * drift[0] / abs(p_s)
        before, after = (float((weights[0] * mu[0] ** (c - 1)).sum().real / p_s)
                         for c in (math.floor(res.n_s) + 1, math.floor(res.n_s) + 2))
        assert before <= E_FRACTION + stray and after >= E_FRACTION - stray


def rate_cycles(pair: KrausPair, p_s: float) -> float | None:
    """_rate_cycles on a batch of one: N_s of the whole series, or None."""
    return rate_cycles_of(_superop(pair)[None], p_s)[0]


def rate_cycles_of(t: np.ndarray, p_s) -> list[float | None]:
    """_rate_cycles on the stacked transfer matrices t (k, 4, 4) with steady polarizations p_s."""
    mu, vecs, coeffs = _modes(t)
    return _rate_cycles(t, mu, vecs, coeffs,
                        np.broadcast_to(np.asarray(p_s, dtype=float), len(t)))


def recorded_jumps(monkeypatch) -> list[int]:
    """From now on, the exponent of every matrix_power jump of the later-block search."""
    jumps = []
    power = np.linalg.matrix_power  # the search's only caller of it: _rate_cycles walks nothing
    monkeypatch.setattr(np.linalg, "matrix_power", lambda a, n: jumps.append(n) or power(a, n))
    return jumps


def test_rate_crossing_on_the_first_cycle_after_a_skipped_block(monkeypatch):
    # amplitude damping towards nuclear up: P(n) = 1 - lam^(n-1) crosses 1 - 1/e
    # between cycles 2048 and 2049, i.e. on the first cycle of the third block
    lam = math.exp(-1 / 2047.5)
    pair = KrausPair(m_up=np.diag([1.0, math.sqrt(lam)]).astype(complex),
                     m_down=np.array([[0.0, math.sqrt(1 - lam)], [0.0, 0.0]], dtype=complex))
    p_s, lam_est = steady_state(pair)
    assert p_s == pytest.approx(1.0, abs=1e-12) and lam_est == pytest.approx(lam, abs=1e-12)
    series = simulate(pair, mixed_state(), 4096)
    fractions = series.values / p_s
    assert np.nonzero(fractions >= 1 - math.exp(-1))[0][0] == 2048
    jumps = recorded_jumps(monkeypatch)
    n_s = rate_cycles(pair, p_s)
    # block 1 ends 9e-5 below the threshold: one jump goes from block 0 to its
    # start, and its last cycle still supplies the interpolation's lower end
    assert jumps == [1]
    assert 1 / n_s == pytest.approx(measured_rate(series, p_s, 1.0), rel=1e-10)
    assert n_s == pytest.approx(2047.5, abs=1e-3)


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


def damping_to_cross_at(cycle: int, sign: int = 1) -> KrausPair:
    """Amplitude damping towards nuclear up (sign 1) or down (-1) whose series
    P(n) = sign (1 - lam^(n-1)) first reaches 1 - 1/e of P_s = sign at `cycle`."""
    lam = math.exp(-1 / (cycle - 1.5))
    stay, flip = np.diag([1.0, math.sqrt(lam)]), np.array([[0.0, math.sqrt(1 - lam)], [0.0, 0.0]])
    if sign < 0:
        stay, flip = stay[::-1, ::-1], flip.T
    return KrausPair(m_up=stay.astype(complex), m_down=flip.astype(complex))


# cycle 2 (N_s clamps to 1) and the first cycle of every later doubling level of the first block
LEVEL_FIRST_CYCLES = [2 ** e + 1 for e in range(10)]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("cycle,n", [(c, None) for c in LEVEL_FIRST_CYCLES]
                         + [(290, 300), (400, 300), (700, None)])
def test_lazy_rate_reads_exactly_what_measured_rate_reads(sign, cycle, n):
    # n cuts the series that measured_rate reads; None ends it at the crossing
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
    assert 1.0 / n_s == measured_rate(series, p_s, 1.0)
    assert (n_s == 1.0) == (cycle == 2)


@pytest.mark.parametrize("cycle", LEVEL_FIRST_CYCLES + [100, 512, 1024])
def test_lazy_rate_stops_at_the_level_that_holds_the_crossing(monkeypatch, cycle):
    starts = []
    level = engine._level

    def counted(rows, power, x, start):
        starts.append(start)
        return level(rows, power, x, start)

    monkeypatch.setattr(engine, "_level", counted)
    jumps = recorded_jumps(monkeypatch)
    pair = damping_to_cross_at(cycle)
    # the later blocks are never bounded or reached
    assert rate_cycles(pair, 1.0) is not None
    # levels start at entries 0 (cycles 1-2), 2, 4, 8, ...; the crossing is entry cycle - 1
    assert starts == [0] + [2 ** e for e in range(1, (cycle - 1).bit_length())]
    assert jumps == []


def closed_form_cycles(pair: KrausPair) -> float:
    """N_s of damping_to_cross_at's series P(n) = 1 - lam^(n-1), for the lam the channel holds.

    lam is the transfer matrix's own entry, which rounding moves off the
    lam the channel was built from; the crossing is interpolated between the
    two cycles around it, as measured_rate does.
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
    # its slow mode lies within UNITARITY_TOL of 1, so the engine counts it as
    # steady and P_s reads 0; handed P_s = 1, the search still finds the crossing
    pair = damping_to_cross_at(2 ** 40)
    assert abs(steady_state(pair)[0]) <= 1e-6
    n_s = rate_cycles(pair, 1.0)
    # the 2^30-block series rounds its exponent by about 1e-9 relative
    assert n_s == pytest.approx(closed_form_cycles(pair), rel=1e-8)


def test_rate_one_cycle_after_the_old_series_length():
    # the old series of this draw ended at 880 634 cycles, one cycle before the
    # series reaches 1 - 1/e; it used to read no rate
    sys_p, seq_p = random_params(np.random.default_rng(1741))
    res = evaluate_exact(sys_p, seq_p)
    series = simulate(cycle_kraus(sys_p, seq_p), mixed_state(), series_through(res.n_s))
    assert np.nonzero(series.values / res.p_s >= E_FRACTION)[0][0] == 880_634
    assert res.gamma == pytest.approx(measured_rate(series, res.p_s, res.t_cycle), rel=1e-10)


def transfer_matrix(mu: list, weights: list) -> np.ndarray:
    """A 4x4 transfer matrix with eigenvalues mu whose series from the mixed start is
    P(n) = Re sum weights mu^(n-1): every eigenvector reads 1, and the mixed
    start is sum weights v.  The weights must sum to 0, as P(1) is."""
    vecs = np.array([[1.0, 0.3, 0.2, 0.4], [0.0, 0.5, 0.0, 0.1], [0.0, 0.0, 0.5, 0.3],
                     [0.0, -0.7, -0.8, -0.6]])
    vecs[:, 0] = (engine._MIXED.real - vecs[:, 1:] @ weights[1:]) / weights[0]
    return vecs @ np.diag(mu) @ np.linalg.inv(vecs)


def series_of(t: np.ndarray, n: int) -> PolarizationSeries:
    """P(1), ..., P(n) of the transfer matrix t from the mixed start, one cycle at a time."""
    x, values = engine._MIXED.copy(), np.empty(n)
    for i in range(n):
        values[i] = (x[0] - x[3]).real
        x = t @ x
    return PolarizationSeries(values)


def test_a_moving_mode_of_modulus_one_crosses_on_a_crest():
    # mu = -1 is not steady (|mu - 1| = 2), and its term 0.1 (-1)^n never decays:
    # P(n) = 1 - 1.1 (1 - 1e-5)^n + 0.1 (-1)^n first reaches 1 - 1/e on an even n
    t = transfer_matrix([1.0, 1 - 1e-5, -1.0, 0.5], [1.0, -1.1, 0.1, 0.0])
    mu, weights, _ = _weighted_modes(t[None])
    (p_s,), (lam,) = _spectral_summary(mu, weights)
    assert p_s == pytest.approx(1.0, abs=1e-8) and lam == pytest.approx(1.0, abs=1e-12)
    (n_s,) = rate_cycles_of(t[None], p_s)
    assert engine.SERIES_BLOCK < n_s < 2 ** 17
    series = series_of(t, series_through(n_s))
    assert 1 / n_s == pytest.approx(measured_rate(series, p_s, 1.0), rel=1e-10)


def test_a_mode_sum_that_never_reaches_the_threshold_reads_no_rate():
    # a steady mode just inside UNITARITY_TOL of 1 (P_s = 1) fades over 2e10 cycles while
    # the moving one rises: P(n) = (1 - 5e-11)^n - (1 - 3e-10)^n peaks at 0.58, below 1 - 1/e
    t = transfer_matrix([1.0 - 5e-11, 1.0 - 3e-10, 0.5, 0.25], [1.0, -1.0, 0.0, 0.0])
    mu, weights, _ = _weighted_modes(t[None])
    (p_s,), _ = _spectral_summary(mu, weights)
    assert p_s == pytest.approx(1.0, abs=1e-5)  # the two slow modes lie 2.5e-10 apart
    assert rate_cycles_of(t[None], p_s) == [None]


def oscillating_pair() -> KrausPair:
    """Weak damping towards nuclear up, then a turn about a tilted axis: a rippled series."""
    damping = 1e-4
    axis = math.cos(1.2) * SZ + math.sin(1.2) * SX
    turn = hermitian_expm(axis, 2 * math.pi / 1500)
    return KrausPair(m_up=turn @ np.diag([1.0, math.sqrt(1 - damping)]),
                     m_down=turn @ np.array([[0.0, math.sqrt(damping)], [0.0, 0.0]]))


def later_block_pool() -> list[tuple[np.ndarray, float]]:
    """(transfer matrix, P_s) of points that leave the first block at many depths, and some
    that do not: crossings on cycles 100 to 2^25 + 3, on a crest, past 2^21 cycles at the
    README base, after a moving mode of modulus 1, and never."""
    pairs = [damping_to_cross_at(c, sign) for c in (100, 1030, 2049, 5000, 70_001, 3_000_000,
                                                     2 ** 25 + 3) for sign in (1, -1)]
    pairs += [oscillating_pair()]
    pairs += [cycle_kraus(SYS, replace(README_BASE, t_s=f * math.pi))
              for f in (0.1, 0.35, 0.6, 1.85)]
    pool = [(_superop(pair), steady_state(pair)[0]) for pair in pairs]
    pool += [(transfer_matrix([1.0, 1 - 1e-5, -1.0, 0.5], [1.0, -1.1, 0.1, 0.0]), 1.0),
             (transfer_matrix([1.0 - 5e-11, 1.0 - 3e-10, 0.5, 0.25], [1.0, -1.0, 0.0, 0.0]), 1.0)]
    return pool


LATER_BLOCK_POOL = later_block_pool()


@given(st.lists(st.integers(0, len(LATER_BLOCK_POOL) - 1), min_size=1, max_size=12))
@settings(deadline=None)
def test_stacked_later_search_matches_each_point_alone(picks):
    # the points of a stack leave the later-block search at different depths, each
    # with the bytes it gets alone
    t = np.array([LATER_BLOCK_POOL[i][0] for i in picks])
    p_s = [LATER_BLOCK_POOL[i][1] for i in picks]
    together = rate_cycles_of(t, p_s)
    alone = [rate_cycles_of(t[j:j + 1], p)[0] for j, p in enumerate(p_s)]
    assert [None if n is None else n.hex() for n in together] == [
        None if n is None else n.hex() for n in alone]
    assert all(type(n) is float for n in together if n is not None)


@pytest.mark.parametrize("rho0", [mixed_state(), np.array([[1, 1], [1, 1]]) / 2],
                         ids=["mixed", "x-polarized"])
def test_shorter_series_is_a_prefix_of_a_longer_one(rho0):
    pair = cycle_kraus(SYS, README_BASE)
    lengths = (1, 2, 3, 300, 1024, 1025, 5000)
    values = {n: simulate(pair, rho0, n).values for n in lengths}
    for m, n in itertools.combinations(lengths, 2):
        assert values[n][:m].tobytes() == values[m].tobytes(), (m, n)


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


def test_series_csv_round_trip(tmp_path):
    series = PolarizationSeries(np.array([0.0, 0.5, 0.75]), params={"n_p": 1})
    path = tmp_path / "series.csv"
    series.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "cycle,polarization"
    assert lines[2] == "1,0"
    assert [float(l.split(",")[1]) for l in lines[2:]] == [0.0, 0.5, 0.75]
