"""Closed-form predictions for the sequential polarization protocol.

Contains the DD filter function F, the repetition synchronization factor,
the timing phases, the transfer strength alpha, the approximate per-cycle
Kraus pair, the steady polarization, the per-cycle contraction factor
lambda, the polarization rate and its weak-coupling approximation, and the
frequency window / sideband predictions.

Two removable singularities are handled explicitly because the optimal
working points sit exactly on them: the filter F at cos(omega tau/2) = 0
and the repetition synchronization factor sin(Nr Phi/2)/sin(Phi/2) at
Phi = 2 k pi.  Both switch to their analytic limits within a 1e-6
proximity of the singular point.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .params import SequenceParams, SystemParams

SINGULAR_EPS = 1e-6


# ---------------------------------------------------------------------------
# DD filter and repetition factor
# ---------------------------------------------------------------------------

def filter_f(omega: float, n_p: int, tau: float) -> float:
    """Resonance filter F of an n_p-pulse DD block.

    Even/odd branch in n_p; at cos(omega tau/2) ~ 0 the (removable)
    singular limit is returned, which is where the resonant pulse
    intervals live for n_p >= 2.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    u = omega * tau
    if not math.isfinite(u):
        raise ValueError(f"filter phase omega*tau overflows (omega={omega!r}, tau={tau!r})")
    sin2 = math.sin(u / 4) ** 2
    cos_half = math.cos(u / 2)
    if abs(cos_half) < SINGULAR_EPS:
        # L'Hopital limit; numerator zeros coincide by parity
        if n_p % 2:
            return 4 * n_p * sin2 * math.sin(n_p * u / 2) / (omega * math.sin(u / 2))
        return 4 * n_p * sin2 * math.cos(n_p * u / 2) / (omega * math.sin(u / 2))
    if n_p % 2:
        return 4 * math.cos(n_p * u / 2) * sin2 / (omega * cos_half)
    return -4 * math.sin(n_p * u / 2) * sin2 / (omega * cos_half)


def dirichlet_ratio(n_r: int, phi: float) -> float:
    """Repetition synchronization factor sin(n_r phi/2)/sin(phi/2).

    At phi = 2 k pi the signed limit n_r cos(n_r k pi)/cos(k pi) is used.
    """
    half = phi / 2
    s = math.sin(half)
    if abs(s) < SINGULAR_EPS:
        k = round(half / math.pi)
        return n_r * math.cos(n_r * k * math.pi) / math.cos(k * math.pi)
    return math.sin(n_r * half) / s


# ---------------------------------------------------------------------------
# Timing phases and transfer strength
# ---------------------------------------------------------------------------

class PhaseBundle(NamedTuple):
    phi0: float     # omega (t_s + n_p tau), first DDX to first DDY
    phi1: float     # omega (t_s + t_w + 2 n_p tau), first DDX to second DDX
    phi_big: float  # omega T for one repetition, T = 2 t_s + t_w + 4 n_p tau + t_c
    phi: float      # polarization-control angle, reduced to [0, 2 pi)
    theta: float    # phi/2 + pi/4


def phases(sys: SystemParams, seq: SequenceParams) -> PhaseBundle:
    w = sys.omega
    phi0 = w * (seq.t_s + seq.n_p * seq.tau)
    phi1 = w * (seq.t_s + seq.t_w + 2 * seq.n_p * seq.tau)
    t_rep = seq.rep_duration()
    phi_big = w * t_rep
    if not math.isfinite(phi_big):
        raise ValueError(f"timing phase omega*T overflows (omega={w!r}, T={t_rep!r})")
    phi = (((-1) ** seq.n_p + 1) / 2 * math.pi - phi0) % (2 * math.pi)
    return PhaseBundle(phi0=phi0, phi1=phi1, phi_big=phi_big, phi=phi,
                       theta=phi / 2 + math.pi / 4)


def alpha(sys: SystemParams, seq: SequenceParams) -> float:
    """Transfer strength per initialization cycle (sign preserved)."""
    p = phases(sys, seq)
    return (2 * sys.a_perp
            * dirichlet_ratio(seq.n_r, p.phi_big)
            * math.sin(p.phi1 / 2)
            * filter_f(sys.omega, seq.n_p, seq.tau))


def alpha_max(n_r: int, n_p: int, a_perp: float, omega: float) -> float:
    """Largest achievable |alpha| for fixed n_r * n_p."""
    return 4 * n_r * n_p * a_perp / omega


# ---------------------------------------------------------------------------
# Approximate channel and its consequences
# ---------------------------------------------------------------------------

def kraus_approx(alpha: float, theta: float, phi_big: float, n_r: int = 1):
    """First-order analytic Kraus pair (m_up, m_down) of the nuclear channel.

    phi_big is the per-repetition precession angle; the pair carries the
    total phase n_r*phi_big and the (-1)^n_r global sign, neither of which
    is observable through the channel.
    """
    from .engine import KrausPair  # local import to avoid a cycle

    chi = alpha * math.sin(theta) / 2
    eta = alpha * math.cos(theta) / 2
    half = n_r * phi_big / 2
    sign = (-1) ** n_r
    m_up = sign * np.array(
        [[np.exp(-1j * half) * math.cos(eta), 0],
         [0, np.exp(1j * half) * math.cos(chi)]], dtype=complex)
    m_down = -sign * np.array(
        [[0, -np.exp(-1j * (theta + half)) * math.sin(chi)],
         [1j * np.exp(1j * (theta + half)) * math.sin(eta), 0]], dtype=complex)
    return KrausPair(m_up=m_up, m_down=m_down)


def stable_polarization(alpha: float, theta: float) -> float:
    """Steady polarization of the population recursion; 0 at zero coupling."""
    up = math.sin(alpha * math.sin(theta) / 2) ** 2
    down = math.sin(alpha * math.cos(theta) / 2) ** 2
    if up + down == 0.0:
        return 0.0
    return (up - down) / (up + down)


def lambda_analytic(alpha: float, theta: float) -> float:
    """Per-cycle contraction factor of the polarization deficit."""
    return abs(math.cos(alpha * math.sin(theta)) + math.cos(alpha * math.cos(theta))) / 2


def polarization_series_analytic(p_s: float, lam: float, n: int) -> np.ndarray:
    """P(N) = P_s (1 - lam^(N-1)) for N = 1..n (mixed initial state)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    exponents = np.arange(n, dtype=float)
    return p_s * (1.0 - lam ** exponents)


def gamma_analytic(lam: float, n_r: int, t_rep: float) -> float:
    """Polarization rate min(-ln lam, 1) / (n_r T); zero at lam = 1."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    if lam == 1.0:
        return 0.0
    decay = 1.0 if lam == 0.0 else min(-math.log(lam), 1.0)
    return decay / (n_r * t_rep)


def gamma_opt_approx(alpha_max: float, a_perp: float) -> float:
    """Weak-coupling optimal rate at the magic working points.

    Sole function of alpha_max (in units 2 a_perp/pi it peaks near 0.27
    at alpha_max ~ 1.84); the min resolves the log branch divergence at
    alpha_max >= pi.
    """
    if alpha_max <= 0:
        raise ValueError("alpha_max must be positive")
    reach = 1.0 / alpha_max
    c = math.cos(alpha_max / 2)
    if c <= 0:
        return a_perp / math.pi * reach
    decay = -math.log(c) / (alpha_max / 2)
    return a_perp / math.pi * min(decay, reach)


# ---------------------------------------------------------------------------
# Summary + frequency window
# ---------------------------------------------------------------------------

class AnalyticSummary(NamedTuple):
    f_value: float
    dirichlet: float
    alpha: float
    p_s: float
    lam: float
    gamma: float

    def to_dict(self) -> dict:
        return {
            "f_value": self.f_value,
            "dirichlet": self.dirichlet,
            "alpha": self.alpha,
            "p_s": self.p_s,
            "lambda": self.lam,
            "gamma": self.gamma,
        }


def summarize(sys: SystemParams, seq: SequenceParams) -> AnalyticSummary:
    f = filter_f(sys.omega, seq.n_p, seq.tau)  # first: its overflow names omega*tau
    p = phases(sys, seq)
    d = dirichlet_ratio(seq.n_r, p.phi_big)
    a = 2 * sys.a_perp * d * math.sin(p.phi1 / 2) * f
    lam = lambda_analytic(a, p.theta)
    return AnalyticSummary(
        f_value=f,
        dirichlet=d,
        alpha=a,
        p_s=stable_polarization(a, p.theta),
        lam=lam,
        gamma=gamma_analytic(lam, seq.n_r, seq.rep_duration()),
    )


def window_and_sidebands(row, n_r: int, omega: float = 1.0) -> tuple[float, list[float]]:
    """Frequency window 4/(n_r T) and first sideband offsets for a magic row.

    Offsets are fractional detunings of omega scaled back to rad/time; the
    row's T always includes the compensation wait t_c (the printed-window
    convention), so the result does not depend on the n_r = 1 special case.
    """
    t_rep = float(row.total_rep()) * math.pi / omega
    delta_omega = 4.0 / (n_r * t_rep)
    sidebands = [float(f) * omega for f in row.sideband_fractions]
    return delta_omega, sidebands
