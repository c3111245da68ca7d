import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperpol import analytic
from hyperpol.catalog import finite_pulse_tau, magic_params
from hyperpol.engine import (
    UNITARITY_TOL,
    BelowThresholdError,
    PolarizationSeries,
    cycle_kraus,
    evaluate_exact,
    kraus,
    measured_rate,
    mixed_state,
    polarization,
    propagate,
    segment_propagator,
    simulate,
    steady_state,
)
from hyperpol.engine import _modes, _spectrum, _superop
from hyperpol.linalg import ID2, ID4, operator_distance, unitarity_defect
from hyperpol.params import PulseModel, SequenceParams, SystemParams
from hyperpol.timeline import FREE_NUCLEAR, Repeat, Segment, Timeline, render_unit

from oracles import random_params, trotter_propagate

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
    cache = {}
    u = ID4.copy()
    for seg in tl.segments:
        if seg not in cache:
            cache[seg] = segment_propagator(sys_p, seg)
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
                        pulse_model=PulseModel.finite(tau_pi))
    tl = render_unit(LONG_TRAIN_SYS, seq_p)
    u = propagate(LONG_TRAIN_SYS, tl)
    assert operator_distance(u, flat_product(LONG_TRAIN_SYS, tl)) <= 1e-12
    assert unitarity_defect(u) <= 1e-11


def test_kraus_identity():
    pair = kraus(ID4)
    assert operator_distance(pair.m_up, ID2) == 0.0
    assert operator_distance(pair.m_down, np.zeros((2, 2))) == 0.0


def test_kraus_rejects_non_unitary():
    with pytest.raises(ValueError):
        kraus(np.diag([1.0, 1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        kraus(ID2)


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
    assert polarization(rho) == pytest.approx(1.0, abs=0.02)


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


@given(st.integers(0, 2 ** 31 - 1))
def test_spectral_fixed_point_and_contraction(seed):
    pair = cycle_kraus(*random_params(np.random.default_rng(seed)))
    p_s, lam = steady_state(pair)
    mu, vecs, coeffs = _modes(pair)
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


README_BASE = SequenceParams(n_p=1, tau=2 * math.pi, t_s=1.5 * math.pi, t_w=1.5 * math.pi,
                             t_c=1.5 * math.pi, n_r=4, pulse_model=PulseModel.finite(0.2 * math.pi))


@pytest.mark.parametrize("t_s_over_pi", [0.1, 0.35, 0.6, 1.85])
def test_slow_readme_sweep_points_are_solved(t_s_over_pi):
    # the slowest mode lies within 2e-5 of 1: 1e5 to 2e6 cycles to the 1 - 1/e crossing
    res = evaluate_exact(SYS, replace(README_BASE, t_s=t_s_over_pi * math.pi))
    assert 0.1 <= abs(res.p_s) <= 1.0
    assert 1.0 - 2e-5 < res.lambda_est < 1.0
    assert res.gamma is None or res.gamma > 0


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
                    g_ana = analytic.gamma_analytic(
                        s.lam, n_r, analytic.single_rep_duration(seq))
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
