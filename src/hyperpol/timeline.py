"""Rendering of the protocol into piecewise-constant Hamiltonian segments.

One initialization cycle is n_r repetitions of

    DDX, wait t_s, DDY, wait t_w, DDX, wait t_s, DDY, wait t_c

where DDX is a half-pi(+y) pulse, n_p repeats of [tau/2, pi(-x), tau/2],
and a closing half-pi(+y); DDY is the same with pi(+y) pulses sandwiched
by half-pi(+x).  Free intervals inside the DD blocks evolve under the full
hyperfine Hamiltonian; the waits are hyperfine-free nuclear precession.

Pulses are rectangular drives at Rabi frequency pi/tau_pi with the
system Hamiltonian kept on; at tau_pi = 0 they have zero width, and every
duration below reduces exactly to the ideal layout.  Each pi pulse is
centered inside its tau cell (free halves shrink to (tau - tau_pi)/2, so
the pulse train's period stays tau regardless of the pulse width), while
the half-pi edges extend the block by tau_pi/2 each and all waits keep
their nominal durations.  With this layout the resonance-restoring
interval tau_ideal - tau_pi/n_p makes every inter-block phase equal its
ideal-pulse value: the 4 n_p shortened cells per repetition give back
exactly the 8 half-pi insertions.

A timeline keeps this nesting as a tree of `Repeat` blocks (the repetition
n_r times; inside each DD block the [tau/2, pi, tau/2] cell n_p times),
which the engine composes by repeated squaring.  Its `segments` property
flattens the tree into time order, for the oracles and for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import SequenceParams, SystemParams

FREE_HYPERFINE = "free_hyperfine"
FREE_NUCLEAR = "free_nuclear"
PULSE = "pulse"

PI = math.pi
HALF_PI = math.pi / 2


@dataclass(frozen=True)
class Segment:
    kind: str
    duration: float
    axis: str | None = None   # pulse only: one of +x, -x, +y, -y
    angle: float | None = None  # pulse only: pi or pi/2


@dataclass(frozen=True)
class Repeat:
    """The parts of `body` in time order, run `count` times in a row."""

    body: tuple[Segment | Repeat, ...]
    count: int = 1

    def flatten(self) -> tuple[Segment, ...]:
        once: list[Segment] = []
        for part in self.body:
            once.extend(part.flatten() if isinstance(part, Repeat) else (part,))
        return tuple(once) * self.count


@dataclass(frozen=True)
class Timeline:
    """One cycle as a tree of blocks; `segments` flattens it in time order."""

    structure: Repeat
    nominal_T: float
    actual_T: float

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self.structure.flatten()


def _pulse(axis: str, angle: float, seq: SequenceParams) -> Segment:
    duration = angle / (math.pi / seq.tau_pi) if seq.tau_pi else 0.0
    return Segment(PULSE, duration, axis=axis, angle=angle)


def _dd_block(pi_axis: str, half_axis: str, seq: SequenceParams) -> Repeat:
    free = Segment(FREE_HYPERFINE, (seq.tau - seq.tau_pi) / 2)
    half = _pulse(half_axis, HALF_PI, seq)
    cell = Repeat((free, _pulse(pi_axis, PI, seq), free), seq.n_p)
    return Repeat((half, cell, half))


def render_unit(sys: SystemParams, seq: SequenceParams) -> Timeline:
    """Timeline for one initialization cycle (n_r protocol repetitions)."""
    problems = seq.violations()
    if problems:
        raise ValueError("invalid sequence: " + "; ".join(problems))

    ddx = _dd_block("-x", "+y", seq)
    ddy = _dd_block("+y", "+x", seq)
    wait_s = Segment(FREE_NUCLEAR, seq.t_s)
    structure = Repeat(
        (ddx, wait_s, ddy, Segment(FREE_NUCLEAR, seq.t_w),
         ddx, wait_s, ddy, Segment(FREE_NUCLEAR, seq.t_c)),
        seq.n_r,
    )

    nominal_T = seq.n_r * seq.rep_duration()
    # pi pulses live inside their cells; only the half-pi edges add time
    pulse_time = seq.n_r * 8 * (seq.tau_pi / 2)
    return Timeline(structure, nominal_T=nominal_T, actual_T=nominal_T + pulse_time)
