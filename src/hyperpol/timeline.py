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

A timeline is this one form and nothing else: n_p, n_r, the five DD leaf
segments (the half-pi and pi pulses of each block and the free half cell),
indexed by the constants below, and the three waits as durations
(t_s, t_w, t_c).  Every render with the same n_p and n_r differs only in
its leaves and waits, and the DD leaves depend on tau and tau_pi alone
(`dd_leaves`).  The engine composes the cycle from the DD leaves'
propagators and the waits' diagonal phases and raises the cell and the
repetition to their counts by repeated squaring; `segments`, the flat list
in time order with each wait a FREE_NUCLEAR segment, is derived from the
counts, the leaves and the waits on demand, for the oracles and for
inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .params import SequenceParams, SystemParams, cycle_durations

FREE_HYPERFINE = "free_hyperfine"
FREE_NUCLEAR = "free_nuclear"
PULSE = "pulse"

PI = math.pi
HALF_PI = math.pi / 2


class Segment(NamedTuple):
    kind: str
    duration: float
    axis: str | None = None   # pulse only: one of +x, -x, +y, -y
    angle: float | None = None  # pulse only: pi or pi/2


# the DD leaves of a rendered cycle, by index in Timeline.leaves
HALF_X, FREE, PI_X, HALF_Y, PI_Y = range(5)


@dataclass(frozen=True)
class Timeline:
    """One cycle: its counts, its durations, its five DD leaf segments (see HALF_X ...)
    and its waits (t_s, t_w, t_c)."""

    n_p: int
    n_r: int
    nominal_T: float
    actual_T: float
    leaves: tuple[Segment, ...]
    waits: tuple[float, float, float]

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The cycle's segments in time order, each wait a FREE_NUCLEAR segment."""
        half_x, free, pi_x, half_y, pi_y = self.leaves
        wait_s, wait_w, wait_c = (Segment(FREE_NUCLEAR, t) for t in self.waits)
        ddx = (half_x, *(free, pi_x, free) * self.n_p, half_x)
        ddy = (half_y, *(free, pi_y, free) * self.n_p, half_y)
        return (*ddx, wait_s, *ddy, wait_w, *ddx, wait_s, *ddy, wait_c) * self.n_r


def check_sequence(seq: SequenceParams) -> None:
    """Raise ValueError("invalid sequence: ...") listing the rules seq breaks (see
    SequenceParams.violations); return when it is runnable."""
    problems = seq.violations()
    if problems:
        raise ValueError("invalid sequence: " + "; ".join(problems))


def dd_leaves(seq: SequenceParams) -> tuple[Segment, ...]:
    """The five DD leaves HALF_X ... PI_Y of a runnable sequence: they depend on tau
    and tau_pi alone."""
    tau_pi = seq.tau_pi
    rabi = math.pi / tau_pi if tau_pi else math.inf  # a zero-width pulse takes no time
    half, whole = HALF_PI / rabi, PI / rabi
    return (Segment(PULSE, half, "+y", HALF_PI), Segment(FREE_HYPERFINE, (seq.tau - tau_pi) / 2),
            Segment(PULSE, whole, "-x", PI), Segment(PULSE, half, "+x", HALF_PI),
            Segment(PULSE, whole, "+y", PI))


def render_unit(sys: SystemParams, seq: SequenceParams) -> Timeline:
    """Timeline for one initialization cycle (n_r protocol repetitions)."""
    check_sequence(seq)
    return Timeline(seq.n_p, seq.n_r, *cycle_durations(seq), dd_leaves(seq),
                    (seq.t_s, seq.t_w, seq.t_c))
