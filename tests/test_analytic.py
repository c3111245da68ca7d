import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpol.analytic import (
    SINGULAR_EPS,
    alpha,
    alpha_max,
    dirichlet_ratio,
    filter_f,
    gamma_analytic,
    gamma_opt_approx,
    kraus_approx,
    lambda_analytic,
    phases,
    polarization_series_analytic,
    stable_polarization,
    summarize,
    window_and_sidebands,
)
from hyperpol.catalog import magic_params
from hyperpol.params import SequenceParams, SystemParams

from oracles import dd_integral_oracle, f_dd, summarize_composed


# ---------------------------------------------------------------------------
# pulse shape and filter integrals
# ---------------------------------------------------------------------------

def test_f_dd_examples():
    assert f_dd(0.0, 1, 2.0) == 1
    assert f_dd(1.5, 1, 2.0) == -1
    assert f_dd(0.9, 2, 1.0) == -1
    assert f_dd(1.6, 2, 1.0) == 1


def test_f_dd_boundaries():
    # half-interval boundaries belong to the following piece
    assert f_dd(1.0, 1, 2.0) == -1
    assert f_dd(2.0, 1, 2.0) == -1
    with pytest.raises(ValueError):
        f_dd(-0.1, 1, 2.0)
    with pytest.raises(ValueError):
        f_dd(2.1, 1, 2.0)


def test_dd_integral_example():
    cos_int, sin_int = dd_integral_oracle(1.0, 1, 2 * math.pi)
    assert cos_int == pytest.approx(0.0, abs=1e-10)
    assert sin_int == pytest.approx(4.0, abs=1e-10)


def test_dd_integral_zero_tau():
    assert dd_integral_oracle(1.0, 3, 0.0) == (0.0, 0.0)


def test_dd_integral_two_pulse_resonance():
    # resonant two-pulse block: both components from the quadrature oracle
    # match the even-branch closed form at 4 pi/3
    f = filter_f(1.0, 2, 4 * math.pi / 3)
    assert f == pytest.approx(-3 * math.sqrt(3), abs=1e-12)
    cos_int, sin_int = dd_integral_oracle(1.0, 2, 4 * math.pi / 3)
    assert cos_int == pytest.approx(f * math.cos(4 * math.pi / 3), abs=1e-9)
    assert sin_int == pytest.approx(f * math.sin(4 * math.pi / 3), abs=1e-9)


def test_dd_integral_quadrature_agrees_with_piecewise_sum(rng):
    # spot version of the acceptance-scale comparison
    for _ in range(50):
        omega = float(rng.uniform(0.3, 3.0))
        n_p = int(rng.integers(1, 9))
        tau = float(rng.uniform(0.1, 3.0)) * math.pi / omega
        if abs(math.cos(omega * tau / 2)) < 1e-3:
            continue
        quad = dd_integral_oracle(omega, n_p, tau, method="quad")
        closed = dd_integral_oracle(omega, n_p, tau, method="closed")
        assert quad == pytest.approx(closed, abs=1e-9)


def test_filter_examples():
    assert filter_f(1.0, 1, 2 * math.pi) == pytest.approx(4.0)
    assert filter_f(1.0, 1, 1.5 * math.pi) == pytest.approx(2 + math.sqrt(2))
    assert filter_f(1.0, 3, math.pi) == pytest.approx(-6.0)
    assert filter_f(1.0, 4, math.pi) == pytest.approx(8.0)
    assert filter_f(1.0, 2, 0.0) == 0.0


def test_filter_singular_limit_magnitude():
    # resonant interval gives |F| = 2 n_p / omega
    for n_p in (3, 5, 8):
        assert abs(filter_f(2.0, n_p, math.pi / 2)) == pytest.approx(2 * n_p / 2.0)


@pytest.mark.parametrize("n_p", [1, 3, 5, 7])
@pytest.mark.parametrize("tau_star", [math.pi, 3 * math.pi])
def test_filter_continuity_across_switchover(n_p, tau_star):
    limit = filter_f(1.0, n_p, tau_star)
    for eps in (-1e-5, 1e-5):
        assert abs(filter_f(1.0, n_p, tau_star + eps) - limit) <= 1e-3


def test_filter_matches_quadrature_recombination(rng):
    for _ in range(100):
        omega = float(rng.uniform(0.3, 3.0))
        n_p = int(rng.integers(1, 9))
        tau = float(rng.uniform(0.05, 3.0)) * math.pi / omega
        if abs(math.cos(omega * tau / 2)) < 1e-3:
            continue
        cos_int, sin_int = dd_integral_oracle(omega, n_p, tau)
        x = n_p * omega * tau / 2
        if n_p % 2:
            recombined = cos_int * math.sin(x) - sin_int * math.cos(x)
        else:
            recombined = cos_int * math.cos(x) + sin_int * math.sin(x)
        assert filter_f(omega, n_p, tau) == pytest.approx(recombined, abs=1e-9)


def test_dirichlet_ratio_limit():
    assert dirichlet_ratio(4, 2 * math.pi) == pytest.approx(-4.0)
    assert dirichlet_ratio(3, 4 * math.pi) == pytest.approx(3.0)
    assert dirichlet_ratio(1, 0.7) == pytest.approx(1.0)


@pytest.mark.parametrize("n_r", [2, 4, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dirichlet_continuity_at_switchover(n_r, k):
    phi_star = 2 * k * math.pi
    limit = dirichlet_ratio(n_r, phi_star)
    for eps in (-1e-5, 1e-5):
        assert abs(dirichlet_ratio(n_r, phi_star + eps) - limit) <= 1e-3


# ---------------------------------------------------------------------------
# phases and transfer strength
# ---------------------------------------------------------------------------

def test_phase_examples():
    sys_p = SystemParams(omega=1.0, a_perp=0.05)
    # positive-polarization timing, one pulse per block
    seq = magic_params("I", +1, 1).to_sequence_params(sys_p, n_r=1)
    assert phases(sys_p, seq).phi == pytest.approx(math.pi / 2)
    seq = magic_params("I", -1, 1).to_sequence_params(sys_p, n_r=1)
    assert phases(sys_p, seq).phi == pytest.approx(3 * math.pi / 2)
    seq = magic_params("II", +1, 1).to_sequence_params(sys_p, n_r=1)
    assert phases(sys_p, seq).phi == pytest.approx(math.pi / 2)


def test_phase_bundle_fields():
    sys_p = SystemParams(omega=2.0, a_perp=0.05)
    seq = SequenceParams(n_p=2, tau=1.0, t_s=0.5, t_w=0.25, t_c=0.125, n_r=3)
    p = phases(sys_p, seq)
    assert p.phi0 == pytest.approx(2.0 * (0.5 + 2 * 1.0))
    assert p.phi1 == pytest.approx(2.0 * (0.5 + 0.25 + 2 * 2 * 1.0))
    assert p.phi_big == pytest.approx(2.0 * (2 * 0.5 + 0.25 + 4 * 2 * 1.0 + 0.125))
    assert 0 <= p.phi < 2 * math.pi
    assert p.theta == pytest.approx(p.phi / 2 + math.pi / 4)


def test_alpha_zero_coupling():
    sys_p = SystemParams(omega=1.0, a_perp=0.0)
    seq = magic_params("I", +1, 1).to_sequence_params(sys_p, n_r=1)
    assert alpha(sys_p, seq) == 0.0


def test_alpha_factor_by_factor():
    sys_p = SystemParams(omega=1.0, a_perp=0.05)
    seq = magic_params("I", +1, 1).to_sequence_params(sys_p, n_r=1)
    assert abs(alpha(sys_p, seq)) == pytest.approx(2 * 0.05 * 1 * 1 * 4)


def test_alpha_max():
    assert alpha_max(2, 8, 0.05, 1.0) == pytest.approx(3.2)


# ---------------------------------------------------------------------------
# approximate channel and steady-state results
# ---------------------------------------------------------------------------

def test_kraus_approx_zero_coupling():
    pair = kraus_approx(0.0, math.pi / 2, 1.2, n_r=1)
    expected = -np.diag([np.exp(-0.6j), np.exp(0.6j)])
    assert np.allclose(pair.m_up, expected)
    assert np.allclose(pair.m_down, 0.0)


def test_kraus_approx_full_swap():
    pair = kraus_approx(math.pi, math.pi / 2, 0.8, n_r=1)
    assert abs(pair.m_up[0, 0]) == pytest.approx(1.0)
    assert abs(pair.m_up[1, 1]) == pytest.approx(0.0, abs=1e-15)
    assert abs(pair.m_down[1, 0]) == pytest.approx(0.0, abs=1e-15)
    assert abs(pair.m_down[0, 1]) == pytest.approx(1.0)


@given(st.floats(-6.0, 6.0), st.floats(0.0, 2 * math.pi),
       st.floats(0.0, 40.0), st.integers(1, 6))
def test_kraus_approx_always_cptp(a, theta, phi_big, n_r):
    pair = kraus_approx(a, theta, phi_big, n_r)
    assert pair.cptp_defect() < 1e-15


def test_stable_polarization_special_angles():
    assert stable_polarization(0.7, math.pi / 2) == pytest.approx(1.0)
    assert stable_polarization(0.7, math.pi) == pytest.approx(-1.0)
    assert stable_polarization(1.3, 3 * math.pi / 4) == pytest.approx(0.0, abs=1e-15)
    assert stable_polarization(0.0, 1.0) == 0.0


@given(st.floats(0.01, 3.0), st.floats(0.0, 2 * math.pi))
def test_stable_polarization_odd_under_sin_cos_swap(a, theta):
    # theta -> 3 pi/2 - theta swaps the sine and cosine magnitudes
    assert stable_polarization(a, 3 * math.pi / 2 - theta) == pytest.approx(
        -stable_polarization(a, theta), abs=1e-12)
    assert stable_polarization(a, math.pi / 2 - theta) == pytest.approx(
        -stable_polarization(a, theta), abs=1e-12)


def test_lambda_examples():
    assert lambda_analytic(0.0, 1.234) == 1.0
    a = 0.8
    assert lambda_analytic(a, math.pi / 2) == pytest.approx(math.cos(a / 2) ** 2)
    assert lambda_analytic(math.pi, math.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_series_examples():
    series = polarization_series_analytic(1.0, 0.5, 3)
    assert series[0] == 0.0
    assert series[2] == pytest.approx(0.75)
    assert np.all(polarization_series_analytic(0.7, 0.0, 5)[1:] == 0.7)
    with pytest.raises(ValueError):
        polarization_series_analytic(1.0, 0.5, 0)


def test_gamma_analytic_examples():
    t_rep = 14 * math.pi
    assert gamma_analytic(math.exp(-1.0), 2, t_rep) == pytest.approx(1 / (2 * t_rep))
    assert gamma_analytic(1.0, 3, t_rep) == 0.0
    assert gamma_analytic(0.0, 1, t_rep) == pytest.approx(1 / t_rep)
    with pytest.raises(ValueError):
        gamma_analytic(1.5, 1, t_rep)


def test_gamma_analytic_matches_measured_rate():
    from hyperpol.engine import PolarizationSeries, measured_rate

    lam = math.cos(0.1) ** 2
    t_rep = 10.0
    series = PolarizationSeries(polarization_series_analytic(1.0, lam, 400))
    measured = measured_rate(series, 1.0, t_rep)
    assert measured == pytest.approx(gamma_analytic(lam, 1, t_rep), rel=0.02)


def test_gamma_opt_linear_regime():
    a_perp = 0.05
    for am in (1e-3, 1e-2):
        assert gamma_opt_approx(am, a_perp) == pytest.approx(
            a_perp * am / (4 * math.pi), rel=1e-3)


def test_gamma_opt_universal_maximum():
    a_perp = 1.0
    xs = np.linspace(0.05, 4.0, 4000)
    ys = np.array([gamma_opt_approx(x, a_perp) for x in xs]) / (2 * a_perp / math.pi)
    i = int(np.argmax(ys))
    assert ys[i] == pytest.approx(0.27, abs=0.01)
    assert xs[i] == pytest.approx(1.84, abs=0.02)


def test_gamma_opt_branch_divergence_resolved():
    # past the log-branch divergence the reach branch takes over
    assert gamma_opt_approx(3.5, 0.1) == pytest.approx(0.1 / math.pi / 3.5)
    with pytest.raises(ValueError):
        gamma_opt_approx(0.0, 0.1)


def test_summarize_consistency():
    sys_p = SystemParams(omega=1.0, a_perp=0.05)
    seq = magic_params("I", +1, 4).to_sequence_params(sys_p, n_r=2)
    s = summarize(sys_p, seq)
    assert s.p_s == pytest.approx(1.0)
    assert s.alpha == pytest.approx(
        2 * 0.05 * s.dirichlet * math.sin(phases(sys_p, seq).phi1 / 2) * s.f_value)
    assert 0.0 <= s.lam <= 1.0
    doc = s.to_dict()
    assert set(doc) == {"f_value", "dirichlet", "alpha", "p_s", "lambda", "gamma"}


@given(st.integers(0, 2 ** 31 - 1))
def test_summary_outputs_bounded(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    sys_p = SystemParams(omega=float(rng.uniform(0.3, 3.0)),
                         a_perp=float(rng.uniform(0.0, 0.3)),
                         a_z=float(rng.uniform(-0.3, 0.3)))
    seq = SequenceParams(n_p=int(rng.integers(1, 9)),
                         tau=float(rng.uniform(0.0, 3.0)) * math.pi,
                         t_s=float(rng.uniform(0.0, 2.0)) * math.pi,
                         t_w=float(rng.uniform(0.0, 2.0)) * math.pi,
                         t_c=float(rng.uniform(0.0, 2.0)) * math.pi,
                         n_r=int(rng.integers(1, 9)))
    s = summarize(sys_p, seq)
    assert 0.0 <= s.lam <= 1.0
    assert abs(s.p_s) <= 1.0
    assert s.gamma >= 0.0


def summary_bytes(f, sys_p, seq):
    """The hex of every field f(sys_p, seq) returns, or the type and text of what it raises."""
    try:
        return [float.hex(v) for v in f(sys_p, seq)]
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)


def assert_summary_is_the_composition(sys_p, seq):
    assert summary_bytes(summarize, sys_p, seq) == summary_bytes(summarize_composed, sys_p, seq)


WIDE_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, 2 * math.pi, 3 * math.pi, 1e308, math.inf, -1.0]),
    st.floats(0.0, 1e6), st.floats())


@settings(max_examples=400)
@given(st.floats(1e-3, 1e3), st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 1e308])),
       st.integers(0, 100), WIDE_TIMES, WIDE_TIMES, WIDE_TIMES, WIDE_TIMES,
       st.integers(0, 100))
def test_summarize_is_the_composition_of_the_closed_forms(omega, a_perp, n_p, tau, t_s, t_w,
                                                          t_c, n_r):
    assert_summary_is_the_composition(SystemParams(omega=omega, a_perp=a_perp),
                                      SequenceParams(n_p=n_p, tau=tau, t_s=t_s, t_w=t_w,
                                                     t_c=t_c, n_r=n_r))


@pytest.mark.parametrize("n_p", [1, 2, 3, 4])
@pytest.mark.parametrize("offset", [0.0, 1e-9, -4e-7])
def test_summarize_is_the_composition_where_cos_half_vanishes(n_p, offset):
    # omega tau = pi (1 + offset): F takes its singular limit, odd and even n_p
    sys_p = SystemParams(omega=2.0, a_perp=0.05)
    seq = SequenceParams(n_p=n_p, tau=math.pi / 2 * (1 + offset), t_s=0.7, t_w=1.9, n_r=3)
    assert abs(math.cos(sys_p.omega * seq.tau / 2)) < SINGULAR_EPS
    assert_summary_is_the_composition(sys_p, seq)


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_summarize_is_the_composition_at_phi_2k_pi(k, n_r):
    # T = 4 n_p tau = 2 k pi: the Dirichlet factor takes its limit
    seq = SequenceParams(n_p=1, tau=k * math.pi / 2, n_r=n_r)
    sys_p = SystemParams(omega=1.0, a_perp=0.05)
    assert abs(math.sin(phases(sys_p, seq).phi_big / 2)) < SINGULAR_EPS
    assert_summary_is_the_composition(sys_p, seq)


def test_summarize_is_the_composition_without_coupling():
    seq = magic_params("I", +1, 2).to_sequence_params(SystemParams(1.0, 0.05), n_r=2)
    summary = summarize(SystemParams(omega=1.0, a_perp=0.0), seq)
    assert (summary.alpha, summary.p_s, summary.lam, summary.gamma) == (0.0, 0.0, 1.0, 0.0)
    assert_summary_is_the_composition(SystemParams(omega=1.0, a_perp=0.0), seq)


@pytest.mark.parametrize("omega,a_perp,fields,message", [
    # omega*tau, omega*T and alpha all overflow: omega*tau is named
    (1e300, 1e308, {"tau": 1e10, "t_w": 1e300},
     "filter phase omega*tau overflows (omega=1e+300, tau=10000000000.0)"),
    # omega*T and alpha: omega*T is named
    (1.0, 1e308, {"tau": 1.0, "t_w": 1e308, "t_c": 1e308},
     "timing phase omega*T overflows (omega=1.0, T=inf)"),
    # alpha alone
    (1.0, 1e308, {"tau": 2 * math.pi, "t_s": 1.5 * math.pi, "t_w": 1.5 * math.pi},
     "transfer strength alpha overflows (a_perp=1e+308, dirichlet=1.0, f_value=4.0)"),
    # 2 a_perp is inf and F is 0: alpha is NaN
    (1.0, 1e308, {"tau": 0.0, "t_s": 1.0},
     "transfer strength alpha overflows (a_perp=1e+308, dirichlet=1.0, f_value=0.0)"),
])
def test_summarize_names_the_first_overflow(omega, a_perp, fields, message):
    sys_p = SystemParams(omega=omega, a_perp=a_perp)
    seq = SequenceParams(n_p=1, **fields)
    assert summary_bytes(summarize, sys_p, seq) == (ValueError, message)
    assert_summary_is_the_composition(sys_p, seq)


def test_window_and_sidebands():
    row = magic_params("I", +1, 1)
    for n_r in (1, 4):
        delta, sides = window_and_sidebands(row, n_r, omega=1.0)
        assert delta == pytest.approx((2 / 7) / (n_r * math.pi))
        assert sides == [pytest.approx(2 / 7), pytest.approx(-2 / 7)]
    row = magic_params("II", -1, 2)
    delta, sides = window_and_sidebands(row, 2, omega=1.0)
    assert delta == pytest.approx((2 / 11) / (2 * math.pi))
    assert sides[0] == pytest.approx(2 / 11)


def test_window_scales_with_np():
    for n_p in (3, 5, 8):
        row = magic_params("I", +1, n_p)
        delta, sides = window_and_sidebands(row, 1, omega=1.0)
        assert delta == pytest.approx(2 / ((2 * n_p + 1) * math.pi))
