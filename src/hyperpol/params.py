"""Parameter dataclasses for the polarization protocol and their JSON form.

Times in config files may be given either as plain numbers or as strings
like "3/2 pi/omega", which are resolved against the system's Larmor
frequency at load time.  JSON booleans are refused wherever a number is
read.

The pulse is one number, the pi-pulse duration `SequenceParams.tau_pi`:
0 means zero-width pulses.  In JSON it stays the object
{"kind": "ideal"} or {"kind": "finite", "tau_pi": ...}.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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
        # frozen, so the hash is computed once: every propagator memo key holds one
        object.__setattr__(self, "_hash", hash((self.omega, self.a_perp, self.a_z)))

    def __hash__(self) -> int:
        return self._hash

    def to_dict(self) -> dict:
        return {"omega": self.omega, "a_perp": self.a_perp, "a_z": self.a_z}


@dataclass(frozen=True)
class SequenceParams:
    """All timing knobs of one protocol cycle.

    n_p pi pulses at interval tau inside each DD block, waits t_s/t_w/t_c
    between blocks, n_r repetitions per electron initialization.  tau_pi is
    the pi-pulse duration of rectangular pulses (half-pi pulses last
    tau_pi/2, the Rabi frequency is pi/tau_pi); tau_pi = 0 means zero-width
    pulses.

    `violations` is the one rule for a runnable sequence: counts >= 1, finite
    nonnegative times (tau_pi included), for finite pulses tau >= tau_pi
    (each pi pulse fits inside its cell), and a finite cycle duration.
    Construction does not check, so the closed forms can be evaluated
    anywhere; rendering, sweep points and the command line refuse a
    sequence with violations.
    """

    n_p: int
    tau: float
    t_s: float = 0.0
    t_w: float = 0.0
    t_c: float = 0.0
    n_r: int = 1
    tau_pi: float = 0.0

    def violations(self) -> list[str]:
        problems = []
        if self.n_p < 1:
            problems.append(f"n_p must be >= 1, got {self.n_p}")
        if self.n_r < 1:
            problems.append(f"n_r must be >= 1, got {self.n_r}")
        for name in ("tau", "t_s", "t_w", "t_c", "tau_pi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                problems.append(f"{name} not finite: {value}")
            elif value < 0:
                problems.append(f"{name} negative: {value}")
        if self.tau_pi > 0 and self.tau < self.tau_pi:
            problems.append(f"tau {self.tau} shorter than the pi-pulse duration "
                            f"tau_pi {self.tau_pi}")
        if not problems:
            # finite times can still add up to more than a float holds
            cycle = self.n_r * self.rep_duration() + self.n_r * 4 * self.tau_pi
            if not math.isfinite(cycle):
                problems.append(f"cycle duration n_r (2 t_s + t_w + 4 n_p tau + t_c "
                                f"+ 4 tau_pi) not finite: {cycle}")
        return problems

    def rep_duration(self) -> float:
        """One repetition, 2 t_s + t_w + 4 n_p tau + t_c, without the pulse widths."""
        return 2 * self.t_s + self.t_w + 4 * self.n_p * self.tau + self.t_c

    def to_dict(self) -> dict:
        return {
            "n_p": self.n_p,
            "tau": self.tau,
            "t_s": self.t_s,
            "t_w": self.t_w,
            "t_c": self.t_c,
            "n_r": self.n_r,
            "pulse_model": ({"kind": FINITE, "tau_pi": self.tau_pi} if self.tau_pi
                            else {"kind": IDEAL}),
        }


def _number(name: str, value) -> float:
    """float(value), refusing a JSON boolean rather than reading it as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def whole_number(name: str, value) -> int:
    """An integral count such as n_p; 2.0 is accepted, 1.5 is refused, not truncated."""
    number = _number(name, value)
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
    return _number("time", value)


def json_object(key: str, value) -> dict:
    """value, which a config must hold as a JSON object under `key`; else a ValueError naming it."""
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a JSON object, got {value!r:.40}")
    return value


def json_array(key: str, value) -> list:
    """value, which a config must hold as a JSON array under `key`; else a ValueError naming it."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON array, got {value!r:.40}")
    return value


def system_from_dict(d: dict) -> SystemParams:
    d = json_object("system", d)
    return SystemParams(
        omega=_number("omega", d["omega"]),
        a_perp=_number("a_perp", d["a_perp"]),
        a_z=_number("a_z", d.get("a_z", 0.0)),
    )


def sequence_from_dict(d: dict, omega: float) -> SequenceParams:
    """The sequence of a config; an ideal pulse model ignores any tau_pi it carries."""
    d = json_object("sequence", d)
    pm = json_object("pulse_model", d.get("pulse_model", {}))
    kind = pm.get("kind", IDEAL)
    if kind not in (IDEAL, FINITE):
        raise ValueError(f"unknown pulse model kind {kind!r}")
    tau_pi = resolve_time(pm["tau_pi"], omega) if kind == FINITE else 0.0
    if kind == FINITE and not 0 < tau_pi < math.inf:
        raise ValueError(f"finite pulse model needs a finite tau_pi > 0, got {tau_pi}")
    return SequenceParams(
        n_p=whole_number("n_p", d["n_p"]),
        tau=resolve_time(d["tau"], omega),
        t_s=resolve_time(d.get("t_s", 0.0), omega),
        t_w=resolve_time(d.get("t_w", 0.0), omega),
        t_c=resolve_time(d.get("t_c", 0.0), omega),
        n_r=whole_number("n_r", d.get("n_r", 1)),
        tau_pi=tau_pi,
    )


def config_from_dict(d: dict) -> tuple[SystemParams, SequenceParams]:
    sys_params = system_from_dict(d["system"])
    seq_params = sequence_from_dict(d["sequence"], sys_params.omega)
    return sys_params, seq_params
