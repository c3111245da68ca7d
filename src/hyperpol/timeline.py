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

A timeline keeps this nesting apart from its durations.  Its shape is the
tree of repeated blocks (the repetition n_r times; inside each DD block
the [tau/2, pi, tau/2] cell n_p times), with indices into its leaves in
place of the segments: every render with the same n_p and n_r has an
equal shape, and only the eight leaf segments are the point's own.  The
engine composes the blocks of one shape for a whole stack of timelines
and raises each to its count by repeated squaring.  The `Repeat` tree
(`structure`) and the flat segment list in time order (`segments`) are
views derived from the shape and the leaves on demand, for the oracles
and for inspection; a timeline built from a hand-made tree takes the
tree's shape and its segments as leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

from .params import SequenceParams, SystemParams

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


# A block of a shape: (parts in time order, count), each part a block or the
# index of a leaf segment.
Shape = tuple[tuple[Union[int, "Shape"], ...], int]


@dataclass(frozen=True)
class Timeline:
    """One cycle: a shape, the leaf segments its indices name, and its durations.

    Timeline(tree, nominal_T, actual_T) with a `Repeat` tree in place of the
    shape takes the tree's shape and its segments, in time order, as leaves.
    """

    shape: Shape
    nominal_T: float
    actual_T: float
    leaves: tuple[Segment, ...] = ()

    def __post_init__(self):
        if isinstance(self.shape, Repeat):
            leaves: list[Segment] = []
            object.__setattr__(self, "shape", _shape_of(self.shape, leaves))
            object.__setattr__(self, "leaves", tuple(leaves))

    @property
    def structure(self) -> Repeat:
        """The cycle as a tree of `Repeat` blocks."""
        return _tree(self.shape, self.leaves)

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self.structure.flatten()


def _shape_of(tree: Repeat, leaves: list[Segment]) -> Shape:
    """The shape of `tree`, whose segments are appended to `leaves` in time order."""
    parts = []
    for part in tree.body:
        if isinstance(part, Repeat):
            parts.append(_shape_of(part, leaves))
        else:
            parts.append(len(leaves))
            leaves.append(part)
    return tuple(parts), tree.count


def _tree(shape: Shape, leaves: tuple[Segment, ...]) -> Repeat:
    parts, count = shape
    return Repeat(tuple(leaves[p] if isinstance(p, int) else _tree(p, leaves) for p in parts),
                  count)


# the leaves of a rendered cycle, by index in Timeline.leaves
HALF_X, FREE, PI_X, HALF_Y, PI_Y, WAIT_S, WAIT_W, WAIT_C = range(8)


def render_unit(sys: SystemParams, seq: SequenceParams) -> Timeline:
    """Timeline for one initialization cycle (n_r protocol repetitions)."""
    problems = seq.violations()
    if problems:
        raise ValueError("invalid sequence: " + "; ".join(problems))

    # DDX: half-pi(+y), n_p cells of [tau/2, pi(-x), tau/2], half-pi(+y); DDY likewise
    ddx = ((HALF_X, ((FREE, PI_X, FREE), seq.n_p), HALF_X), 1)
    ddy = ((HALF_Y, ((FREE, PI_Y, FREE), seq.n_p), HALF_Y), 1)
    shape = ((ddx, WAIT_S, ddy, WAIT_W, ddx, WAIT_S, ddy, WAIT_C), seq.n_r)
    tau_pi = seq.tau_pi
    rabi = math.pi / tau_pi if tau_pi else math.inf  # a zero-width pulse takes no time
    half, whole = HALF_PI / rabi, PI / rabi
    leaves = (Segment(PULSE, half, "+y", HALF_PI), Segment(FREE_HYPERFINE, (seq.tau - tau_pi) / 2),
              Segment(PULSE, whole, "-x", PI), Segment(PULSE, half, "+x", HALF_PI),
              Segment(PULSE, whole, "+y", PI), Segment(FREE_NUCLEAR, seq.t_s),
              Segment(FREE_NUCLEAR, seq.t_w), Segment(FREE_NUCLEAR, seq.t_c))

    nominal_T = seq.n_r * seq.rep_duration()
    # pi pulses live inside their cells; only the half-pi edges add time
    pulse_time = seq.n_r * 8 * (seq.tau_pi / 2)
    return Timeline(shape, nominal_T, nominal_T + pulse_time, leaves)
