"""Parameter dataclasses for the polarization protocol and their JSON form.

Times in config files may be given either as plain numbers or as strings
like "3/2 pi/omega", which are resolved against the system's Larmor
frequency at load time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

IDEAL = "ideal"
FINITE = "finite"

_PI_OVER_OMEGA = re.compile(r"^\s*([0-9.eE/+-]+)\s*pi\s*/\s*omega\s*$")


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the electron-nuclear pair (rad/time)."""

    omega: float
    a_perp: float
    a_z: float = 0.0

    def __post_init__(self):
        for name in ("omega", "a_perp", "a_z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.a_perp < 0:
            raise ValueError(f"a_perp must be nonnegative, got {self.a_perp}")

    def to_dict(self) -> dict:
        return {"omega": self.omega, "a_perp": self.a_perp, "a_z": self.a_z}


@dataclass(frozen=True)
class PulseModel:
    """Pulse rendering model: zero-width or rectangular with Rabi drive.

    For the finite model tau_pi is the pi-pulse duration; half-pi pulses
    last tau_pi/2 and the Rabi frequency is pi/tau_pi.  Construction refuses
    an unknown kind, a non-finite tau_pi and, for finite pulses, tau_pi <= 0.
    """

    kind: str = IDEAL
    tau_pi: float = 0.0

    def __post_init__(self):
        if self.kind not in (IDEAL, FINITE):
            raise ValueError(f"unknown pulse model kind {self.kind!r}")
        if not math.isfinite(self.tau_pi):
            raise ValueError(f"tau_pi not finite: {self.tau_pi}")
        if self.kind == FINITE and not self.tau_pi > 0:
            raise ValueError("finite pulse model needs tau_pi > 0")

    @property
    def rabi(self) -> float:
        if self.kind != FINITE:
            raise ValueError("ideal pulses have no Rabi frequency")
        return math.pi / self.tau_pi

    @classmethod
    def ideal(cls) -> "PulseModel":
        return cls(IDEAL, 0.0)

    @classmethod
    def finite(cls, tau_pi: float) -> "PulseModel":
        return cls(FINITE, tau_pi)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == FINITE:
            d["tau_pi"] = self.tau_pi
        return d


@dataclass(frozen=True)
class SequenceParams:
    """All timing knobs of one protocol cycle.

    n_p pi pulses at interval tau inside each DD block, waits t_s/t_w/t_c
    between blocks, n_r repetitions per electron initialization.

    `violations` is the one rule for a runnable sequence: counts >= 1, finite
    nonnegative times and, for finite pulses, tau >= tau_pi (each pi pulse
    fits inside its cell); the pulse model checks tau_pi itself.  Construction
    does not check, so the closed forms can be evaluated anywhere; rendering,
    sweep points and the command line refuse a sequence with violations.
    """

    n_p: int
    tau: float
    t_s: float = 0.0
    t_w: float = 0.0
    t_c: float = 0.0
    n_r: int = 1
    pulse_model: PulseModel = field(default_factory=PulseModel.ideal)

    def violations(self) -> list[str]:
        problems = []
        if self.n_p < 1:
            problems.append(f"n_p must be >= 1, got {self.n_p}")
        if self.n_r < 1:
            problems.append(f"n_r must be >= 1, got {self.n_r}")
        for name in ("tau", "t_s", "t_w", "t_c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                problems.append(f"{name} not finite: {value}")
            elif value < 0:
                problems.append(f"{name} negative: {value}")
        if self.pulse_model.kind == FINITE and self.tau < self.pulse_model.tau_pi:
            problems.append(f"tau {self.tau} shorter than the pi-pulse duration "
                            f"tau_pi {self.pulse_model.tau_pi}")
        return problems

    def to_dict(self) -> dict:
        return {
            "n_p": self.n_p,
            "tau": self.tau,
            "t_s": self.t_s,
            "t_w": self.t_w,
            "t_c": self.t_c,
            "n_r": self.n_r,
            "pulse_model": self.pulse_model.to_dict(),
        }


def whole_number(name: str, value) -> int:
    """An integral count such as n_p; 2.0 is accepted, 1.5 is refused, not truncated."""
    number = float(value)
    if not math.isfinite(number) or abs(number - round(number)) > 1e-9:
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(round(number))


def resolve_time(value, omega: float) -> float:
    """Accept a number, a numeric string, or an "x pi/omega" string (x decimal or p/q)."""
    if isinstance(value, str):
        m = _PI_OVER_OMEGA.match(value)
        try:
            if m:
                return float(Fraction(m.group(1))) * math.pi / omega
            return float(Fraction(value.strip()))
        except (OverflowError, ValueError, ZeroDivisionError) as err:
            raise ValueError(f"cannot parse time {value!r}; expected a number "
                             f"or e.g. '3/2 pi/omega'") from err
    return float(value)


def system_from_dict(d: dict) -> SystemParams:
    return SystemParams(
        omega=float(d["omega"]),
        a_perp=float(d["a_perp"]),
        a_z=float(d.get("a_z", 0.0)),
    )


def sequence_from_dict(d: dict, omega: float) -> SequenceParams:
    pm = d.get("pulse_model", {})
    kind = pm.get("kind", IDEAL)
    tau_pi = resolve_time(pm["tau_pi"], omega) if kind == FINITE else 0.0
    return SequenceParams(
        n_p=whole_number("n_p", d["n_p"]),
        tau=resolve_time(d["tau"], omega),
        t_s=resolve_time(d.get("t_s", 0.0), omega),
        t_w=resolve_time(d.get("t_w", 0.0), omega),
        t_c=resolve_time(d.get("t_c", 0.0), omega),
        n_r=whole_number("n_r", d.get("n_r", 1)),
        pulse_model=PulseModel(kind, tau_pi),
    )


def config_from_dict(d: dict) -> tuple[SystemParams, SequenceParams]:
    sys_params = system_from_dict(d["system"])
    seq_params = sequence_from_dict(d["sequence"], sys_params.omega)
    return sys_params, seq_params
