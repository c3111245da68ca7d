"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live).
"""

import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hyperpol import analytic
from hyperpol.analytic import (
    dd_integral_oracle,
    dirichlet_ratio,
    filter_f,
    gamma_opt_approx,
    polarization_series_analytic,
    summarize,
)
from hyperpol.catalog import finite_pulse_tau, magic_params
from hyperpol.engine import cycle_kraus, evaluate_exact, mixed_state, simulate
from hyperpol.linalg import operator_distance, unitarity_defect
from hyperpol.params import SystemParams
from hyperpol.sweep import find_tau_res
from hyperpol.timeline import render_unit

from oracles import random_params, trotter_propagate

GOLDEN = json.loads((Path(__file__).parent / "data" / "table1.json").read_text())

ALL_FAMILIES = [(method, sign) for method in ("I", "II") for sign in (+1, -1)]
NP_SET = (1, 2, 3, 4, 8)


def report(num: int, description: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d} [{tag}] {description}{suffix}")
    assert passed, f"criterion {num}: {description}{suffix}"


def test_criterion_01_cptp_and_unitarity(rng):
    from hyperpol.engine import kraus, propagate

    worst_u = 0.0
    worst_c = 0.0
    for _ in range(50):
        sys_p, seq_p = random_params(rng, finite_ok=False)
        u = propagate(sys_p, render_unit(sys_p, seq_p))
        worst_u = max(worst_u, unitarity_defect(u))
        worst_c = max(worst_c, kraus(u).cptp_defect())
    report(1, "unitarity <= 1e-11 and Kraus CPTP <= 1e-12 over 50 random draws",
           worst_u <= 1e-11 and worst_c <= 1e-12,
           f"worst unitarity {worst_u:.2e}, worst CPTP {worst_c:.2e}")


def test_criterion_02_table_reproduction():
    mismatches = []
    for entry in GOLDEN["rows"]:
        row = magic_params(entry["method"], entry["sign"], entry["n_p"])
        ok = (row.tau == Fraction(entry["tau"])
              and row.t_s == Fraction(entry["t_s"])
              and row.t_w == Fraction(entry["t_w"])
              and row.t_c == Fraction(entry["t_c"])
              and row.gamma_window == Fraction(entry["gamma_window"])
              and row.sideband_fractions[0] == Fraction(entry["sideband_fraction"]))
        if not ok:
            mismatches.append((entry["method"], entry["sign"], entry["n_p"]))
    report(2, "all published magic rows regenerate bit-exactly as rationals",
           not mismatches, f"{len(GOLDEN['rows'])} rows, mismatches: {mismatches}")


def test_criterion_03_perfect_polarization_at_magic_points():
    sys_p = SystemParams(omega=1.0, a_perp=0.05)
    failures = []
    for method, sign in ALL_FAMILIES:
        for n_p in NP_SET:
            seq = magic_params(method, sign, n_p).to_sequence_params(sys_p, n_r=1)
            res = evaluate_exact(sys_p, seq)
            s = summarize(sys_p, seq)
            ok = (math.copysign(1, res.p_s) == sign and abs(res.p_s) >= 0.98
                  and s.p_s == pytest.approx(float(sign), abs=1e-9))
            if not ok:
                failures.append((method, sign, n_p, res.p_s, s.p_s))
    report(3, "exact |P_s| >= 0.98 with the row's sign and analytic P_s = +-1 "
              "at every magic point", not failures, str(failures))


def test_criterion_04_dynamics_agreement():
    sys_p = SystemParams(omega=1.0, a_perp=0.05)
    worst = 0.0
    for method, sign, n_p in [("I", +1, 1), ("I", -1, 1), ("I", +1, 2), ("I", -1, 2),
                              ("II", +1, 1), ("II", -1, 1), ("II", +1, 2), ("II", -1, 2)]:
        for n_r in (2, 4):
            seq = magic_params(method, sign, n_p).to_sequence_params(sys_p, n_r=n_r)
            exact = simulate(cycle_kraus(sys_p, seq), mixed_state(), 200).values
            s = summarize(sys_p, seq)
            ana = polarization_series_analytic(float(sign), s.lam, 200)
            worst = max(worst, float(np.sqrt(np.mean((exact - ana) ** 2))))
    report(4, "RMS(exact vs analytic dynamics) <= 0.05 over 200 cycles",
           worst <= 0.05, f"worst RMS {worst:.4f}")


def test_criterion_05_universal_rate_maximum():
    a_perp = 0.025
    sys_p = SystemParams(omega=1.0, a_perp=a_perp)
    unit = 2 * a_perp / math.pi
    ok = True
    details = []
    for method in ("I", "II"):
        best = (-1.0, 0.0)
        for n_p in range(1, 26):
            seq = magic_params(method, +1, n_p).to_sequence_params(sys_p, n_r=1)
            res = evaluate_exact(sys_p, seq)
            value = res.gamma / unit
            if value > best[0]:
                best = (value, analytic.alpha_max(1, n_p, a_perp, 1.0))
        details.append(f"{method}: max {best[0]:.3f} at alpha_max {best[1]:.2f}")
        ok = ok and 0.24 <= best[0] <= 0.30 and 1.6 <= best[1] <= 2.1
    # the closed-form curve must peak at the published point as well
    xs = np.linspace(0.2, 4.0, 2000)
    ys = np.array([gamma_opt_approx(x, a_perp) for x in xs]) / unit
    i = int(np.argmax(ys))
    ok = ok and 0.24 <= ys[i] <= 0.30 and 1.6 <= xs[i] <= 2.1
    details.append(f"curve: {ys[i]:.3f} at {xs[i]:.2f}")
    report(5, "rate maximum in [0.24, 0.30] (units 2 A_perp/pi) at "
              "alpha_max in [1.6, 2.1]", ok, "; ".join(details))


def test_criterion_06_linear_regime_slope():
    a_perp = 0.002
    sys_p = SystemParams(omega=1.0, a_perp=a_perp)
    gamma0 = a_perp ** 2 / math.pi
    xs, ys = [], []
    for n_p in (8, 12, 16, 20):
        for n_r in (1, 2):
            assert analytic.alpha_max(n_r, n_p, a_perp, 1.0) <= 0.5
            seq = magic_params("I", +1, n_p).to_sequence_params(sys_p, n_r=n_r)
            res = evaluate_exact(sys_p, seq)
            xs.append(n_r * n_p * gamma0)
            ys.append(res.gamma)
    xs, ys = np.array(xs), np.array(ys)
    slope = float(xs @ ys / (xs @ xs))
    report(6, "slope of gamma vs N_R N_p gamma0 within 15% of 1 "
              "for alpha_max <= 0.5", abs(slope - 1) <= 0.15, f"slope {slope:.3f}")


def test_criterion_07_finite_pulse_resonance_shift():
    sys_p = SystemParams(omega=1.0, a_perp=0.01)
    tolerance = 0.01 * math.pi
    failures = []
    for method, n_p, n_r in [("I", 1, 8), ("I", 2, 4), ("II", 1, 8)]:
        seq = magic_params(method, +1, n_p).to_sequence_params(sys_p, n_r=n_r)
        for tau_pi_frac in (0.1, 0.2, 0.4):
            tau_pi = tau_pi_frac * math.pi
            expected = seq.tau - tau_pi / n_p
            found = find_tau_res(sys_p, seq, tau_pi,
                                 search_halfwidth=0.08 * math.pi,
                                 grid_step=0.01 * math.pi)
            if abs(found - expected) > tolerance:
                failures.append((method, n_p, n_r, tau_pi_frac,
                                 (found - expected) / math.pi))
    report(7, "find_tau_res returns tau_ideal - tau_pi/n_p within 0.01 pi",
           not failures, str(failures))


def test_criterion_08_robustness_ordering():
    sys_p = SystemParams(omega=1.0, a_perp=0.01)
    configs = [("I", +1, 1, 13), ("I", -1, 1, 10), ("II", +1, 1, 8)]

    def evaluate(tau_pi):
        out = {}
        for method, sign, n_p, n_r in configs:
            seq = magic_params(method, sign, n_p).to_sequence_params(sys_p, n_r=n_r)
            if tau_pi > 0:
                seq = replace(seq, tau=finite_pulse_tau(seq.tau, tau_pi, n_p),
                              tau_pi=tau_pi)
            res = evaluate_exact(sys_p, seq)
            out[(method, n_r)] = (abs(res.p_s), res.gamma)
        return out

    ideal = evaluate(0.0)
    rates = [v[1] for v in ideal.values()]
    rates_close = max(rates) / min(rates) <= 1.10
    wide = evaluate(0.4 * math.pi)
    pulsepol = wide[("II", 8)][0]
    ordering = (wide[("I", 13)][0] > pulsepol) and (wide[("I", 10)][0] > pulsepol)
    report(8, "both timed variants keep |P_s| above the zero-wait protocol at "
              "tau_pi = 0.4 pi and match its ideal-pulse rate within 10%",
           rates_close and ordering,
           f"ideal-rate spread {max(rates) / min(rates):.3f}; |P_s| at 0.4 pi: "
           f"{wide[('I', 13)][0]:.3f}, {wide[('I', 10)][0]:.3f} vs {pulsepol:.3f}")


def _rate_profile(row, n_r, omegas, a_perp=0.005):
    seq = row.to_sequence_params(SystemParams(omega=1.0, a_perp=a_perp), n_r=n_r)
    rates = np.array(
        [summarize(SystemParams(omega=w, a_perp=a_perp), seq).gamma for w in omegas])
    return rates, seq.rep_duration()


def _central_half_width(omegas, rates, level):
    """Half-width of the lobe around omega = 1 at `level` of its peak."""
    mask = np.abs(omegas - 1.0) <= (omegas[-1] - omegas[0]) / 6
    idx = np.nonzero(mask)[0]
    i0 = idx[int(np.argmax(rates[idx]))]
    target = level * rates[i0]
    crossings = []
    for direction in (+1, -1):
        found = None
        i = i0
        while 0 < i < len(rates) - 1:
            j = i + direction
            if rates[i] >= target > rates[j]:
                t = (rates[i] - target) / (rates[i] - rates[j])
                found = omegas[i] + t * (omegas[j] - omegas[i])
                break
            i = j
        if found is None:
            return None
        crossings.append(found)
    return (crossings[0] - crossings[1]) / 2


def test_criterion_09_window_width():
    failures = []
    for n_p in (1, 4):
        for n_r in (1, 4):
            row = magic_params("I", +1, n_p)
            t_hat = float(row.total_rep() - (row.t_c if n_r == 1 else 0))
            span = 3.0 * 4 / (n_r * t_hat * math.pi)
            omegas = np.linspace(1 - span, 1 + span, 1501)
            rates, t_rep = _rate_profile(row, n_r, omegas)
            # the quoted window is where the synchronization amplitude falls
            # to 0.45 of its peak, i.e. the rate falls to 0.45^2
            half = _central_half_width(omegas, rates, 0.45 ** 2)
            predicted = 4.0 / (n_r * t_rep)
            if half is None or abs(half / predicted - 1) > 0.25:
                failures.append((n_p, n_r, half, predicted))
    report(9, "central-lobe width matches 4/(N_R T) within 25%",
           not failures, str(failures))


def test_criterion_10_sideband_positions():
    failures = []
    for method, sign, n_p in [("I", +1, 1), ("I", -1, 1), ("I", +1, 4),
                              ("II", +1, 1), ("II", -1, 2), ("II", +1, 6)]:
        row = magic_params(method, sign, n_p)
        fraction = float(row.sideband_fractions[0])
        for direction in (+1, -1):
            center = 1 + direction * fraction
            width = 0.35 * fraction
            omegas = np.linspace(center - width, center + width, 1001)
            rates, _ = _rate_profile(row, 4, omegas)
            i = int(np.argmax(rates))
            offset = abs(omegas[i] - 1.0)
            interior = 0 < i < len(rates) - 1
            if not interior or abs(offset - fraction) > 0.10 * fraction:
                failures.append((method, sign, n_p, direction, offset, fraction))
    report(10, "first sideband peaks sit at the catalog fractions within 10%",
           not failures, str(failures))


def test_criterion_11_oracle_suites(rng):
    # filter function versus adaptive quadrature, 1000 draws
    worst_f = 0.0
    draws = 0
    while draws < 1000:
        omega = float(rng.uniform(0.3, 3.0))
        n_p = int(rng.integers(1, 9))
        tau = float(rng.uniform(0.02, 3.0)) * math.pi / omega
        if abs(math.cos(omega * tau / 2)) < 1e-3:
            continue
        draws += 1
        cos_int, sin_int = dd_integral_oracle(omega, n_p, tau)
        x = n_p * omega * tau / 2
        if n_p % 2:
            recombined = cos_int * math.sin(x) - sin_int * math.cos(x)
        else:
            recombined = cos_int * math.cos(x) + sin_int * math.sin(x)
        worst_f = max(worst_f, abs(filter_f(omega, n_p, tau) - recombined))

    # exact propagator versus the Strang-splitting oracle, 20 draws,
    # step 1e-3 of the shortest segment capped at 1e-3 absolute
    from hyperpol.engine import propagate

    worst_u = 0.0
    for _ in range(20):
        sys_p, seq_p = random_params(rng)
        tl = render_unit(sys_p, seq_p)
        shortest = min((s.duration for s in tl.segments if s.duration > 0), default=1.0)
        dt = min(1e-3, 1e-3 * shortest)
        worst_u = max(worst_u, operator_distance(
            propagate(sys_p, tl), trotter_propagate(sys_p, tl, dt_max=dt)))

    # singular-limit continuity at the switchovers
    worst_c = 0.0
    for n_p in (1, 3, 5, 7):
        for tau_star in (math.pi, 3 * math.pi):
            limit = filter_f(1.0, n_p, tau_star)
            for eps in (-1e-5, 1e-5):
                worst_c = max(worst_c, abs(filter_f(1.0, n_p, tau_star + eps) - limit))
    for n_r in (2, 4, 8):
        for k in (1, 2, 3):
            limit = dirichlet_ratio(n_r, 2 * k * math.pi)
            for eps in (-1e-5, 1e-5):
                worst_c = max(worst_c, abs(
                    dirichlet_ratio(n_r, 2 * k * math.pi + eps) - limit))

    ok = worst_f <= 1e-9 and worst_u <= 1e-6 and worst_c <= 1e-3
    report(11, "filter vs quadrature <= 1e-9 (1000 draws), propagator vs "
               "Trotter <= 1e-6 (20 draws), singular-limit continuity <= 1e-3",
           ok, f"filter {worst_f:.2e}, propagator {worst_u:.2e}, continuity {worst_c:.2e}")
