"""Magic sequence catalog: timing recipes that polarize perfectly.

Each row is derived, not transcribed: the polarization-control angle is
pinned to pi/2 (positive) or 3pi/2 (negative) while the three factors of
the transfer strength are simultaneously maximized.  All times are exact
rationals in units of pi/omega.

Method I tunes the three waits t_s, t_w, t_c independently at a resonant
pulse interval; Method II keeps all waits at zero and tunes only tau,
picking the congruence representative closest to resonance (PulsePol is
the n_p = 1 positive row of Method II).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .params import SequenceParams, SystemParams

METHOD_I = "I"
METHOD_II = "II"

PHI_TARGET = {+1: Fraction(1, 2), -1: Fraction(3, 2)}  # phi in units of pi


def resonant_tau(n_p: int) -> list[Fraction]:
    """Pulse intervals resonant with the nuclear precession, in pi/omega."""
    if n_p < 1:
        raise ValueError("n_p must be >= 1")
    if n_p == 1:
        return [Fraction(2)]
    if n_p == 2:
        return [Fraction(4, 3), Fraction(8, 3)]
    return [Fraction(1)]


def nearest_integer(x: Fraction) -> int:
    """Nearest integer, ties (x = n + 1/2) broken toward even n."""
    lo = math.floor(x)
    frac = x - lo
    if frac > Fraction(1, 2):
        return lo + 1
    if frac < Fraction(1, 2):
        return lo
    return lo if lo % 2 == 0 else lo + 1


@dataclass(frozen=True)
class MagicRow:
    """One catalog entry; all times are Fractions in units of pi/omega."""

    method: str
    sign: int
    n_p: int
    tau: Fraction
    t_s: Fraction
    t_w: Fraction
    t_c: Fraction
    gamma_window: Fraction          # window, units omega/(n_r pi)
    sideband_fractions: tuple[Fraction, Fraction]  # first +/- offsets as fractions of omega

    def total_rep(self) -> Fraction:
        """Single-repetition duration 2 t_s + t_w + 4 n_p tau + t_c, in pi/omega."""
        return 2 * self.t_s + self.t_w + 4 * self.n_p * self.tau + self.t_c

    def to_sequence_params(self, sys: SystemParams, n_r: int) -> SequenceParams:
        """Instantiate at a reference frequency; t_c drops out when n_r = 1."""
        unit = math.pi / sys.omega
        t_c = Fraction(0) if n_r == 1 else self.t_c
        return SequenceParams(
            n_p=self.n_p,
            tau=float(self.tau) * unit,
            t_s=float(self.t_s) * unit,
            t_w=float(self.t_w) * unit,
            t_c=float(t_c) * unit,
            n_r=n_r,
        )

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "sign": self.sign,
            "n_p": self.n_p,
            "tau": _rational_time(self.tau),
            "t_s": _rational_time(self.t_s),
            "t_w": _rational_time(self.t_w),
            "t_c": _rational_time(self.t_c),
            "gamma_window": str(self.gamma_window),
            "sideband_fractions": [str(f) for f in self.sideband_fractions],
        }


def _rational_time(x: Fraction) -> str:
    return f"{x} pi/omega"


def _method_one_waits(sign: int, n_p: int, tau: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Minimal nonnegative waits from the three synchronization congruences.

    In units of pi: the control angle must sit at its half-integer target,
    the inter-block phase at an odd integer, and the full-repetition phase
    at an even integer; each wait is the minimal representative mod 2.
    """
    parity_term = Fraction(((-1) ** n_p + 1) // 2)
    t_s = (parity_term - n_p * tau - PHI_TARGET[sign]) % 2
    t_w = (1 - t_s - 2 * n_p * tau) % 2
    t_c = (-2 * t_s - t_w - 4 * n_p * tau) % 2
    return t_s, t_w, t_c


def _method_two_tau(sign: int, n_p: int) -> Fraction:
    """Single-constraint tau family with the representative nearest resonance.

    With all waits zero the inter-block and full-repetition conditions are
    automatic, leaving tau = (4k + c)/(2 n_p) in pi/omega with c fixed by
    parity and sign; k is the nearest integer to the resonance condition.
    """
    if n_p % 2 == 0:
        c = 1 if sign > 0 else 3
    else:
        c = 3 if sign > 0 else 1
    best = None
    for target in resonant_tau(n_p):
        k = nearest_integer((2 * n_p * target - c) / 4)
        tau = Fraction(4 * k + c, 2 * n_p)
        distance = abs(tau - target)
        if best is None or distance < best[0]:
            best = (distance, tau)
    return best[1]


def magic_params(method: str, sign: int, n_p: int,
                 prefer_second_resonance: bool = False) -> MagicRow:
    """Generate one catalog row.

    prefer_second_resonance switches Method I at n_p = 2 to the 8/3
    pulse-interval variant instead of the default 4/3.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if n_p < 1:
        raise ValueError("n_p must be >= 1")
    if method == METHOD_I:
        taus = resonant_tau(n_p)
        tau = taus[1] if prefer_second_resonance and len(taus) > 1 else taus[0]
        t_s, t_w, t_c = _method_one_waits(sign, n_p, tau)
    elif method == METHOD_II:
        tau = _method_two_tau(sign, n_p)
        t_s = t_w = t_c = Fraction(0)
    else:
        raise ValueError(f"unknown method {method!r}")

    total = 2 * t_s + t_w + 4 * n_p * tau + t_c
    sideband = Fraction(4) / total
    window = Fraction(4) / total
    if method == METHOD_II and n_p == 1:
        # the published window for the PulsePol-family rows is half the
        # 4/(n_r T) estimate that fits every other row
        window = Fraction(2) / total
    return MagicRow(
        method=method,
        sign=sign,
        n_p=n_p,
        tau=tau,
        t_s=t_s,
        t_w=t_w,
        t_c=t_c,
        gamma_window=window,
        sideband_fractions=(sideband, -sideband),
    )


def full_table(n_p_values=(1, 2, 3, 4, 5, 6, 7, 8)) -> list[MagicRow]:
    rows = []
    for method in (METHOD_I, METHOD_II):
        for sign in (+1, -1):
            for n_p in n_p_values:
                rows.append(magic_params(method, sign, n_p))
    return rows


def finite_pulse_tau(tau_ideal: float, tau_pi: float, n_p: int) -> float:
    """Resonance-restoring pulse interval tau_ideal - tau_pi/n_p."""
    if tau_pi < 0:
        raise ValueError("tau_pi must be nonnegative")
    shifted = tau_ideal - tau_pi / n_p
    if shifted <= 0:
        raise ValueError(f"pulse duration {tau_pi} leaves no free interval "
                         f"(shifted tau {shifted} <= 0)")
    return shifted
