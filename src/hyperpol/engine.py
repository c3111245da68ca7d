"""Exact numerical evolution of the protocol.

Composes the per-cycle 4x4 unitary in the protocol's one form: the DD
cell, raised to n_p by repeated squaring, then the two DD blocks, then the
repetition of DDX, t_s, DDY, t_w, DDX, t_s, DDY, t_c, raised to n_r; the
nuclear Kraus pair is its first block column, projected back to an
isometry by one Newton-Schulz step (see _isometries).  The five DD leaves
(timeline.HALF_X ... PI_Y) are exponentiated; a wait evolves under
omega I_z alone, so its propagator is the diagonal diag(e^(-+i omega t/2)),
computed from its duration with the bytes hermitian_expm would give it
(see _wait_phases) and applied as a diagonal 4x4 product.  One walk serves
a whole stack of groups, each a run of points that differ only in their
waits: each distinct (system, DD leaf) is exponentiated once, one
exponential per generator (hyperfine, a zero-width pulse's spin or a drive
at one Rabi frequency), each group composes its DD blocks once, and the
groups of one n_p and n_r compose as one stacked product; a DD block that
all of them share is composed once.  `propagate` is the walk of one
timeline, its five DD leaves and its three wait durations, as a group of
one point.  A walk keeps its DD leaves' propagators per (system, segment)
in a memo that a caller of single points may pass on from point to point,
as robustness scans and the resonant-interval search's steps do; a batch's
walk covers its chunk and keeps nothing.  The waits never enter the memo.
One table outlives a walk, bounded and a pure function of its keys: in
linalg.hermitian_expm each generator's eigendecomposition, keyed by its
bytes (up to linalg.SPECTRA_LIMIT, cleared when full), so a new duration of
a generator seen before costs no eigh.  segment_propagator refuses a
segment whose phase |eigenvalue x duration| reaches PHASE_LIMIT, where the
propagator is finite but holds no digit of the phase modulo 2 pi, and a
walk refuses a wait whose phase |omega t/2| does with the same message.
The channel acts on vec(rho) as a complex 4x4 transfer matrix T, and on
the nuclear Bloch vector as the real affine map r -> M r + c (Nielsen and
Chuang, Quantum Computation and Quantum Information, 8.3.2), read from the
Pauli form of its real Bloch map R = Re(B T B^-1), the 4x4 real matrix that
moves the nuclear state's populations and transverse Bloch components
(p_up, x, y, p_down) one cycle on.  One real 3x3 eig of M and one solve
give the steady polarization P_s, the z of the fixed point (I - M)^-1 c,
and the contraction factor.  The rate comes from the first 1 - 1/e
crossing of the series, with no cap on its length, read from M's
closed-form mode sum P(n) = P_s + Re sum_k w_k mu_k^(n-1), whose cost does
not grow with n.  A table of the integer powers mu_k^j, j = 0 ... RATE_BLOCK,
is computed once, and block 0, the first RATE_BLOCK cycles, is evaluated
whole from it.  Where block 0 holds no crossing, exact bounds of the sum
rule out ranges of later blocks, cutting each range they cannot rule out
into SPLIT parts whose bounds take each mode once at each edge that
neighbouring parts share; a single block they cannot rule out is read as
one product of the table with one anchor t_k mu_k^n per mode, with no
exp or cos per cycle.  `simulate` writes the series itself through R,
whose real products cost a quarter to a fifth of the complex ones, a block
of SERIES_BLOCK cycles at a time, each read with one set of read-out rows
r R^j built by doubling.

`evaluate_exact_batch` solves many points at once.  Up to BATCH_SIZE (256)
points are checked, grouped by everything but their waits (system, tau,
tau_pi, n_p, n_r), and walked as one stack: each group renders its DD
leaves once, and each point reads only its three wait durations.  The
stack is checked for unitarity together; the points' Bloch maps share one
eig and one solve, and their blocks 0 one evaluation.  The points with no
crossing in block 0 search the later blocks together, each leaving at its
own crossing.  A stack's largest arrays are the table of the modes' powers,
3 x (RATE_BLOCK + 1) complex (3.1 KB) per point, 799 KB for a stack of 256
points, which the points that search the later blocks keep, and block 0's
terms, 3 x (RATE_BLOCK - 1) complex per point (774 KB), freed before the
search; a read's products are formed one mode at a time.  A full stack of
later crossings peaks near 3 times 774 KB.  `evaluate_exact` propagates its
point through `propagate` and shares the rest with the batch, with the
same bytes.  Sweeps and the resonant-interval search's grid go through the
batch; robustness scans and the search's golden-section steps go one
point at a time, through a memo they share.

A point alone is a stack of one through the same code, and at that size
each numpy call costs about its fixed overhead, so the walk and the solve
keep their calls few: the drive and Zeeman operators are constants, each
generator's eigenvectors are kept with their adjoint, a leaf that every
point shares is a view of its memo entry, each block is one stacked
product (the cell and the repetition then one matrix_power), one Gram
product U^dagger U serves the unitarity check and the projection, and R
and its Pauli form come from one product with a constant matrix.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import ID2, ID4, SX, SY, SZ, hermitian_expm, kron2
from .params import SequenceParams, SystemParams
from .timeline import (FREE_HYPERFINE, PULSE, Segment, Timeline, check_sequence, cycle_durations,
                       dd_leaves, render_unit)

UNITARITY_TOL = 1e-10
SERIES_BLOCK = 1024
RATE_BLOCK = 64  # cycles per block of the rate read-out (see _rate_cycles)
MEMO_LIMIT = 256  # (system, DD leaf) propagators a memo holds; waits are never kept
BATCH_SIZE = 256  # points per stacked mode solve and rate read-out
SPLIT = 16  # parts per range of later blocks in the rate search
PHASE_LIMIT = 2.0 ** 52  # a segment phase this large holds no digits modulo 2 pi

E_FRACTION = 1.0 - math.exp(-1.0)


class BelowThresholdError(RuntimeError):
    """Series never reached the 1 - 1/e rate threshold."""

    def __init__(self, max_fraction: float):
        super().__init__(f"series never reached 1-1/e of the steady value "
                         f"(max fraction {max_fraction:.3e})")
        self.max_fraction = max_fraction


@dataclass(frozen=True)
class KrausPair:
    """Per-initialization nuclear channel operators (2x2 each)."""

    m_up: np.ndarray
    m_down: np.ndarray

    def cptp_defect(self) -> float:
        total = self.m_up.conj().T @ self.m_up + self.m_down.conj().T @ self.m_down
        return float(np.max(np.abs(total - ID2)))


@dataclass
class PolarizationSeries:
    """Polarization <2 I_z> per initialization cycle; values[i] is cycle i+1."""

    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def mixed_state() -> np.ndarray:
    return ID2 / 2


_NUCLEAR_Z = kron2(ID2, SZ)  # I_z in the 4x4 product space
_DRIVE_BY_AXIS = {axis: kron2(spin, ID2)  # the electron spin each pulse axis turns
                  for axis, spin in (("+x", SX), ("-x", -SX), ("+y", SY), ("-y", -SY))}


def hyperfine_hamiltonian(sys: SystemParams) -> np.ndarray:
    """omega I_z + S_z (a_perp I_x + a_z I_z) in the 4x4 product space."""
    nuclear = sys.a_perp * SX + sys.a_z * SZ
    # kron2(SZ, nuclear): the same broadcast product, without kron2's shape checks
    return sys.omega * _NUCLEAR_Z + (SZ[:, None, :, None] * nuclear[None, :, None, :]).reshape(4, 4)


def _generator(sys: SystemParams, seg: Segment) -> tuple:
    """What the segment's Hamiltonian depends on: segments with equal keys share one."""
    if seg.kind == PULSE:
        if seg.duration == 0.0:
            return PULSE, seg.axis
        return PULSE, seg.axis, sys, seg.angle / seg.duration
    return seg.kind, sys


def segment_propagator(sys: SystemParams, segments: Sequence[Segment],
                       hyperfine: dict) -> np.ndarray:
    """Propagators (k, 4, 4) of k segments that share one generator (see _generator).

    One hermitian_expm call exponentiates the generator over all their
    durations; a zero-width pulse turns its spin by its angle instead.
    Raises ValueError naming the system and the duration when an eigenvalue
    times a duration overflows, or when the phase is finite but holds no
    digits modulo 2 pi (see _refuse_lost_phases).  `hyperfine` keeps each system's
    hyperfine_hamiltonian for the next call, so a walk that passes one dict
    builds it once for the free evolution and every drive of a system.
    """
    seg = segments[0]
    if seg.kind == FREE_HYPERFINE:
        h = _hyperfine(sys, hyperfine)
    elif seg.kind == PULSE:
        h = _DRIVE_BY_AXIS[seg.axis]
        if seg.duration == 0.0:
            return hermitian_expm(h, [s.angle for s in segments])
        # rectangular drive, system Hamiltonian stays on during the pulse
        h = _hyperfine(sys, hyperfine) + seg.angle / seg.duration * h
    else:
        raise ValueError(f"unknown segment kind {seg.kind!r}")
    durations = [s.duration for s in segments]
    u = hermitian_expm(h, durations)
    if not np.isfinite(u).all():  # exp(-i inf) is NaN: an eigenvalue times the duration overflowed
        raise _overflow(sys, durations[int(np.isfinite(u).all(axis=(1, 2)).argmin())])
    _refuse_lost_phases(sys, segments)
    return u


def _overflow(sys: SystemParams, t: float) -> ValueError:
    """The error of a segment of duration t whose phase H*t overflows."""
    return ValueError(f"segment phase H*t overflows (omega={sys.omega!r}, "
                      f"a_perp={sys.a_perp!r}, a_z={sys.a_z!r}, t={t!r})")


def _hyperfine(sys: SystemParams, memo: dict) -> np.ndarray:
    """hyperfine_hamiltonian(sys), built once and kept in `memo` by system."""
    h = memo.get(sys)
    if h is None:
        h = memo[sys] = hyperfine_hamiltonian(sys)
    return h


class _LostPhaseError(ValueError):
    """A segment phase that is finite but holds no digits modulo 2 pi (see _refuse_lost_phases)."""


def _refuse_lost_phases(sys: SystemParams, segments: Sequence[Segment]) -> None:
    """Raise _LostPhaseError, naming the system and the duration, where the largest
    phase |eigenvalue x duration| of segments that share one generator reaches
    PHASE_LIMIT: there the float spacing is 1 rad or more, so exp(-i H t)
    holds no digits of the phase modulo 2 pi, though it is finite.  The
    hyperfine Hamiltonian's eigenvalues, one block per electron spin
    s = +-1/2, are +-|(s a_perp, omega + s a_z)|/2; a drive adds at most its
    half angle (pi/2 rad), below the float spacing there.  A zero-width
    pulse, a turn by its angle, has no such phase.
    """
    radius = math.hypot(sys.a_perp / 2, abs(sys.omega) + abs(sys.a_z) / 2) / 2
    longest = max([s.duration for s in segments])
    if radius * longest >= PHASE_LIMIT:
        raise _lost_phase(sys, longest)


def _lost_phase(sys: SystemParams, t: float) -> _LostPhaseError:
    """The error of a segment of duration t whose phase H*t holds no digits modulo 2 pi."""
    return _LostPhaseError(f"segment phase H*t holds no digits modulo 2 pi (omega={sys.omega!r}, "
                           f"a_perp={sys.a_perp!r}, a_z={sys.a_z!r}, t={t!r})")


class _Group(NamedTuple):
    """Points that differ only in their waits: one system, n_p, n_r and five DD leaves."""

    sys: SystemParams
    n_p: int
    n_r: int
    leaves: tuple[Segment, ...]  # the DD leaves HALF_X ... PI_Y
    waits: list[tuple[float, float, float]]  # (t_s, t_w, t_c) of each point


def propagate(sys: SystemParams, timeline: Timeline,
              cache: dict | None = None) -> np.ndarray:
    """Cycle propagator: the ordered product of segment propagators.

    Each block of the cycle is composed once (later parts on the left), and
    the cell and the repetition are raised to their counts by repeated
    squaring.  The DD leaves' propagators are kept in `cache`, keyed by
    (sys, segment), so a caller that passes one dict to each of its points,
    as a robustness scan does, exponentiates each distinct DD leaf once for
    all of them; without one, the memo lasts for this call.  The waits, the
    timeline's three durations, are diagonal phases and never enter the
    memo.  The dict is cleared whenever it would grow past MEMO_LIMIT
    entries, and the cached arrays are read-only.  Blocks are not stored.
    This is _walk on a group of one point.
    """
    return _walk([_Group(sys, timeline.n_p, timeline.n_r, timeline.leaves, [timeline.waits])],
                 cache)[0]


def _walk(groups: list[_Group], cache: dict | None) -> np.ndarray:
    """Cycle propagators (k, 4, 4) of the k points of the groups, walked as one stack,
    in the order of the groups and of their points.

    Every distinct (system, DD leaf) of the stack is read from `cache`
    (None, as the batch passes, for a memo of this walk alone) or, once,
    exponentiated: one segment_propagator call per generator covers all its
    missing leaves, and they join the memo as in propagate once every call
    has returned.  The waits bypass the memo: each point's three
    durations are diagonal phases (see _wait_phases).  A walk that refuses a
    leaf or a wait keeps nothing, and it names a DD leaf's phase that
    overflows, or a generator whose eigh fails, before a wait's phase that
    overflows, and either before a phase that holds no digits, a DD leaf's
    before a wait's.  The groups are then gathered by (n_p, n_r), and each
    gathering composes its cycles as one stack (see _cycle).  Each matrix
    has the bytes of its own 4x4 products.
    """
    if cache is None:
        cache = {}
    systems: dict = {}  # sys -> {segment: its row in keys and known}
    keys: list = []  # (sys, segment) of each row
    counts = defaultdict(list)  # (n_p, n_r) -> (group, leaf rows) of its groups
    for g, (sys, n_p, n_r, leaves, _) in enumerate(groups):
        seen = systems.setdefault(sys, {})
        rows = []
        for seg in leaves:  # one hash per leaf: a new segment takes the next row
            row = seen.setdefault(seg, len(keys))
            if row == len(keys):
                keys.append((sys, seg))
            rows.append(row)
        counts[n_p, n_r].append((g, rows))
    known = [cache.get(key) for key in keys]
    missing = defaultdict(list)  # generator -> rows of its segments that are not in the memo
    for row, u in enumerate(known):
        if u is None:
            missing[_generator(*keys[row])].append(row)
    hyperfine = {}  # sys -> its hyperfine Hamiltonian, built once per walk
    stacks, lost = [], None
    for misses in missing.values():
        try:
            stacks.append((misses, segment_propagator(
                keys[misses[0]][0], [keys[row][1] for row in misses], hyperfine)))
        except _LostPhaseError as err:  # a later overflow or failed eigh is named first
            lost = lost or err
    phases = _wait_phases(groups)
    if not phases.imag.max() < PHASE_LIMIT:  # the largest wait phase, omega t / 2, or NaN
        try:
            _refuse_waits(groups, phases)
        except _LostPhaseError as err:
            lost = lost or err
    if lost is not None:
        raise lost
    for misses, stack in stacks:  # kept only once every generator's segments are solved
        for row, u in zip(misses, stack):
            u.flags.writeable = False
            known[row] = u
            if len(cache) >= MEMO_LIMIT:
                cache.clear()
            cache[keys[row]] = u
    waits = _wait_propagators(phases)
    sizes = [len(group.waits) for group in groups]
    starts = list(itertools.accumulate(sizes, initial=0))  # each group's first point
    out = np.empty(waits.shape[1:], dtype=complex)
    # a product that overflows is NaN, which the unitarity check reports
    with np.errstate(over="ignore", invalid="ignore"):
        for (n_p, n_r), members in counts.items():
            at = [i for g, _ in members for i in range(starts[g], starts[g + 1])]
            out[at] = _cycle(n_p, n_r, [rows for _, rows in members],
                             [sizes[g] for g, _ in members], known, waits[:, at])
    return out


def _wait_phases(groups: list[_Group]) -> np.ndarray:
    """The phases (3, k, 2) of the k points' waits t_s, t_w and t_c: -i w t for the
    eigenvalues w = +omega/2 and -omega/2 of a wait's Hamiltonian omega I_z, the
    nuclear spin up and down.

    Their exponentials are the diagonal of hermitian_expm(omega I_z, t), omega I_z
    built as tests/oracles.py::nuclear_hamiltonian builds it, byte for byte:
    hermitian_expm multiplies -1j by eigh's eigenvalues and the result by t,
    and omega/2 times -1j (+-1) gives the rates -1j w with the same bytes,
    since every product with a zero part is exact; exp(+-0 + 0i)
    is 1 + 0i, so a zero wait is the exact identity.  eigh returns +-omega/2
    exactly for omega between about 1e-157 and 1e157; beyond, where LAPACK
    rescales the matrix, these phases are the exact ones and hermitian_expm's
    differ in their last digits.
    """
    half, durations = [], []
    for group in groups:
        half += [group.sys.omega / 2] * len(group.waits)
        durations += group.waits
    rates = np.array(half)[:, None] * _MINUS_I_SIGNS
    return rates * np.array(durations, dtype=float).T[:, :, None]


_MINUS_I_SIGNS = -1j * np.array([1.0, -1.0])  # -1j w / (omega/2), nuclear spin up and down
_NUCLEAR_SPIN = np.array([0, 1, 0, 1])  # of each basis state |electron, nucleus>


def _wait_propagators(phases: np.ndarray) -> np.ndarray:
    """The diagonal propagators (3, k, 4, 4) of waits whose phases (3, k, 2) _wait_phases gives."""
    waits = np.zeros(phases.shape[:2] + (16,), dtype=complex)
    waits[..., ::5] = np.exp(phases)[..., _NUCLEAR_SPIN]  # the diagonal
    return waits.reshape(phases.shape[:2] + (4, 4))


def _refuse_waits(groups: list[_Group], phases: np.ndarray) -> None:
    """Raise for the first point whose waits' phases (see _wait_phases) are refused: a
    ValueError naming its first wait whose phase overflows, else a _LostPhaseError
    naming its longest wait, where a phase |omega t / 2| reaches PHASE_LIMIT (see
    _refuse_lost_phases)."""
    points = [(group.sys, waits) for group in groups for waits in group.waits]
    reach = np.abs(phases.imag)  # (wait, point, spin): |omega t / 2|
    overflows = ~np.isfinite(reach).all(axis=2)  # (wait, point): inf, or NaN as t = nan gives
    if overflows.any():
        k = int(overflows.any(axis=0).argmax())
        sys, waits = points[k]
        raise _overflow(sys, waits[int(overflows[:, k].argmax())])
    lost = (reach >= PHASE_LIMIT).any(axis=(0, 2))
    if lost.any():
        sys, waits = points[int(lost.argmax())]
        raise _lost_phase(sys, max(waits, key=abs))


def _cycle(n_p: int, n_r: int, rows: list[list[int]], sizes: list[int],
           known: list[np.ndarray], waits: np.ndarray) -> np.ndarray:
    """Cycle propagators (k, 4, 4) of the k points of groups that share n_p and n_r.

    rows hold each group's five DD leaves (see timeline.HALF_X ...) as
    indices into known, the stack's distinct leaf propagators (4, 4): equal
    indices, equal segments; sizes hold each group's number of points, and
    waits (3, k, 4, 4) the points' wait propagators, diagonal (see
    _wait_phases).  A leaf that every group shares is (1, 4, 4), a view of
    its propagator, any other one row per group, and the DD blocks compose
    as (1, 4, 4) when all their parts do, their (1, 4, 4) parts
    broadcasting otherwise; blocks of one row per group are repeated for
    each group's points.  Each block multiplies its parts in product
    order, later parts on the left, starting from the first itself, and
    matrix_power raises the cell to n_p and the repetition to n_r.
    """
    leaves, table = [], None
    for column in zip(*rows):
        if column.count(column[0]) == len(column):
            leaves.append(known[column[0]][None])
        else:
            if table is None:
                table = np.array(known)
            leaves.append(table[list(column)])
    half_x, free, pi_x, half_y, pi_y = leaves
    ddx = half_x @ (np.linalg.matrix_power(free @ (pi_x @ free), n_p) @ half_x)
    ddy = half_y @ (np.linalg.matrix_power(free @ (pi_y @ free), n_p) @ half_y)
    wait_s, wait_w, wait_c = waits
    # a block of one row per group is repeated for its points where some group holds several
    ddx, ddy = (np.repeat(dd, sizes, axis=0) if 1 < len(dd) < len(wait_s) else dd
                for dd in (ddx, ddy))
    u = ddx
    for part in (wait_s, ddy, wait_w, ddx, wait_s, ddy, wait_c):
        u = part @ u
    return np.linalg.matrix_power(u, n_r)


def kraus(u: np.ndarray) -> KrausPair:
    """Kraus pair (<up|U|up>, <down|U|up>) of the electron-reset channel, from the
    projected isometry of U (see _isometries), as the batch takes it."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    (defect,), (k,) = _isometries(u[None])
    if not defect <= UNITARITY_TOL:  # NaN fails too
        raise ValueError(f"input is not unitary (defect {defect:.3e})")
    return KrausPair(m_up=k[:2], m_down=k[2:])


def _isometries(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitarity defects (k,) and projected Kraus isometries (k, 4, 2) of stacked propagators u.

    The defect is the largest |entry| of G - 1, G = U^dagger U.  The isometry
    K = U[:, :2], the Kraus pair, takes one Newton-Schulz step K (3 I - K^dagger K) / 2,
    K^dagger K = G[:2, :2] (Higham, Functions of Matrices, SIAM 2008, ch. 8),
    which squares its defect: unprojected, the channel leaks the defect of
    a composed cycle (about 3e-14) per cycle, and P_s is off by that over
    the gap instead of a few eps over it.
    """
    g = u.conj().swapaxes(1, 2) @ u
    defect = np.maximum.reduce(np.abs(g - ID4), axis=(1, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # on a U the check refuses
        return defect, u[:, :, :2] @ ((3 * ID2 - g[:, :2, :2]) / 2)


def cycle_kraus(sys: SystemParams, seq: SequenceParams) -> KrausPair:
    """kraus of the sequence's cycle propagator; one that is not unitary is refused
    with evaluate_exact's message (see _not_unitary)."""
    (defect,), (k,) = _isometries(propagate(sys, render_unit(sys, seq))[None])
    if not defect <= UNITARITY_TOL:  # NaN fails too
        raise _not_unitary(defect, seq)
    return KrausPair(m_up=k[:2], m_down=k[2:])


def _not_unitary(defect: float, seq: SequenceParams) -> ValueError:
    """The error of a cycle propagator whose defect fails the check, naming the
    sequence's counts, one of more than 17 digits as its float (n_r=3e+307)."""
    n_p, n_r = (repr(n) if len(str(n)) <= 17 else repr(float(n)) for n in (seq.n_p, seq.n_r))
    return ValueError(f"cycle propagator is not unitary (defect {defect:.3e}, n_p={n_p}, "
                      f"n_r={n_r})")


def _channels(m: np.ndarray) -> np.ndarray:
    """Transfer matrices (k, 4, 4) on row-major vec(rho) of stacked Kraus pairs
    m (k, 2, 2, 2), m[:, 0] the up and m[:, 1] the down operator:
    kron2(m_up, m_up.conj()) + kron2(m_down, m_down.conj()) for each."""
    terms = m[:, :, :, None, :, None] * m.conj()[:, :, None, :, None, :]
    return (terms[:, 0] + terms[:, 1]).reshape(-1, 4, 4)


def _superop(k: KrausPair) -> np.ndarray:
    """Channel as a 4x4 matrix on row-major vec(rho)."""
    return _channels(np.stack([k.m_up, k.m_down])[None])[0]


# B: row-major vec(rho) -> its real coordinates (p_up, x, y, p_down), the two populations and
# the transverse Bloch components x = tr(rho sx), y = tr(rho sy); _BLOCH_INV is its inverse
_BLOCH = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1j, -1j, 0], [0, 0, 0, 1]])
_BLOCH_INV = np.array([[1, 0, 0, 0], [0, 0.5, -0.5j, 0], [0, 0.5, 0.5j, 0], [0, 0, 0, 1]])
_READOUT = np.array([[1.0, 0.0, 0.0, -1.0]])  # <2 I_z> = p_up - p_down, the read-out row
# P: (p_up, x, y, p_down) -> the Pauli coordinates (tr rho, x, y, z), z = p_up - p_down;
# _PAULI_INV is its inverse.  A channel's R in Pauli form is [[1, 0], [c, M]]
_PAULI = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                   [1.0, 0.0, 0.0, -1.0]])
_PAULI_INV = np.array([[0.5, 0.0, 0.0, 0.5], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                       [0.5, 0.0, 0.0, -0.5]])
# row-major vec(T) -> (vec R, vec Q): vec(A T C) = vec(T) (A kron C^T)^T
_TO_REAL = np.concatenate([np.kron(_BLOCH, _BLOCH_INV.T),
                           np.kron(_PAULI @ _BLOCH, (_BLOCH_INV @ _PAULI_INV).T)]).T.copy()


def _bloch_maps(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Bloch maps R and their Pauli forms Q, both (k, 4, 4), of stacked transfer matrices t.

    R = Re(B T B^-1) acts on (p_up, x, y, p_down), the nuclear Bloch vector
    with z = p_up - p_down kept as its two populations, and Q = P R P^-1 on
    (tr rho, x, y, z).  Both come from one product of vec(T) with a constant
    16 x 32 matrix.  Each T must keep rho Hermitian, as every channel built
    from Kraus operators does: then B T B^-1 is real and Re drops only
    rounding.  A T that does not (an imaginary part above UNITARITY_TOL)
    raises ValueError, since its series would not be the one the modes of
    its affine map give.
    The population entries of R are T's own, and reading p_up - p_down keeps
    the cancellation between the two populations' rounding that a z row
    alone loses: over 1e6 to 1e8 cycles of amplitude damping, N_s read
    through z alone erred several times more.
    """
    rq = t.reshape(-1, 1, 16) @ _TO_REAL
    imag = np.maximum.reduce(np.abs(rq.imag), axis=None, initial=0.0)
    if imag > UNITARITY_TOL:  # NaN passes, as it does through the real parts
        raise ValueError(f"transfer matrix does not keep rho Hermitian "
                         f"(imaginary part {imag:.3e} in its Bloch map)")
    rq = rq.real.reshape(-1, 2, 4, 4)
    return rq[:, 0], rq[:, 1]


def _read(rows: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """rows @ x cut at m entries, in products of at most SERIES_BLOCK/2 rows.

    rows is (n, 4), n >= 2, and x (4,).  One 1024x4 product goes through
    BLAS's multithreaded matrix-vector kernel, which took milliseconds with
    two threads against microseconds with one; a 512x4 product runs on one
    thread either way.  numpy multiplies a single row by its dot kernel,
    which rounds differently from the matrix-vector kernel of longer
    products, so every product holds at least two rows.
    """
    half = SERIES_BLOCK // 2
    chunks = [(rows[a:a + half] @ x[:, None])[:, 0] for a in range(0, min(m, len(rows)), half)]
    return np.concatenate(chunks)[:m]


def simulate(k: KrausPair, rho0: np.ndarray, n: int) -> PolarizationSeries:
    """Polarization for cycles 1..n; cycle 1 is the freshly prepared state.

    Block powers of the real Bloch map R (see _bloch_maps) on the Bloch
    state of rho0, the real part of B vec(rho0): the read-out rows r R^j
    are built by doubling, [r] to [r, r R], then each block of rows times
    R^m, while R^m is squared, up to min(n, SERIES_BLOCK) rows and never
    fewer than two (see _read), so R^SERIES_BLOCK comes from the same
    squarings.  _read reads every block with these rows, block 0 from the
    state itself, and the state jumps by R^SERIES_BLOCK once per later
    block.  A shorter series is a prefix of a longer one, byte for byte.
    The rate is not read from this series but from M's mode sum (see
    _rate_cycles), which agrees with it to rounding.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = (_BLOCH @ np.asarray(rho0, dtype=complex).reshape(4)).real
    values = np.empty(n)
    rows, power = _READOUT, _bloch_maps(_superop(k)[None])[0][0]
    while len(rows) < max(2, min(n, SERIES_BLOCK)):
        rows = np.concatenate([rows, rows @ power])
        power = power @ power
    for start in range(0, n, SERIES_BLOCK):
        if start:
            x = power @ x
        values[start:start + SERIES_BLOCK] = _read(rows, x, n - start)
    return PolarizationSeries(values=values)


def _modes(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modes mu (k, 3), eigenvectors V (k, 3, 3) and a = V^-1 c (k, 3) of stacked Pauli forms q.

    One cycle moves the nuclear Bloch vector (x, y, z) by the real affine map
    r -> M r + c, read from R's Pauli form Q = P R P^-1 (see _bloch_maps) as
    M = Q[1:, 1:] and c = Q[1:, 0].  One eig of the real (k, 3, 3) stack of M
    and one solve serve the whole stack.  eig returns complex modes unless every mode of
    the stack is real; they are made complex either way, so that a point's
    bytes do not depend on the points stacked with it.  The right-hand side
    is a stack of 3x1 matrices: before numpy 2.0, solve reads a b with
    b.ndim == a.ndim - 1 as a stack of vectors.
    """
    mu, vecs = np.linalg.eig(q[:, 1:, 1:])
    if mu.dtype.kind != "c":
        mu, vecs = mu.astype(complex), vecs.astype(complex)
    return mu, vecs, np.linalg.solve(vecs, q[:, 1:, :1])[..., 0]


def _spectral_summary(mu: np.ndarray, vecs: np.ndarray,
                      a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_s, lambda) (k,) and the weights w (k, 3) of each stacked point's modes (see _modes).

    From the mixed start (r = 0), the Bloch vector after n - 1 cycles is
    sum_k V_k a_k (1 - mu_k^(n-1)) / (1 - mu_k), so P(n) = P_s + Re sum_k
    w_k mu_k^(n-1) with w_k = -V[z, k] a_k / (1 - mu_k) and P_s = -Re sum_k w_k,
    the z of the fixed point (I - M)^-1 c.  A mode within UNITARITY_TOL of 1
    is steady and adds nothing: an identity channel keeps P_s = 0.  lambda
    is the largest |mu_k| among the other modes whose weight exceeds
    UNITARITY_TOL, the factor by which P_s - P(n) shrinks per cycle for
    large n; it is 1.0 when no mode moves.  numpy adds fewer than eight
    floats in order from +0, so P_s is never -0.
    """
    gap = 1.0 - mu
    gap[np.abs(gap) <= UNITARITY_TOL] = np.inf  # a steady mode's share is 0
    share = vecs[:, 2] * (a / gap)  # -w
    p_s = np.add.reduce(share.real, axis=1)
    # a point with no moving mode keeps the initial -1, which abs turns into 1.0
    lam = np.abs(np.maximum.reduce(np.abs(mu), axis=1, where=np.abs(share) > UNITARITY_TOL,
                                   initial=-1.0))
    return p_s, lam, -share


def steady_state(k: KrausPair) -> tuple[float, float]:
    """Steady polarization and contraction factor of the channel: (P_s, lambda).

    P_s is the z of the fixed point of the channel's affine Bloch map
    r -> M r + c, summed over the modes of M that are not steady (see
    _spectral_summary); lambda is the largest |mu_k| among the moving modes
    whose weight exceeds UNITARITY_TOL, 1.0 when no mode moves.  This is
    _solve's solve on a stack of one.
    """
    _, q = _bloch_maps(_superop(k)[None])
    (p_s,), (lam,) = (a.tolist() for a in _spectral_summary(*_modes(q))[:2])
    return p_s, lam


def measured_rate(series: PolarizationSeries, p_s: float, t_cycle: float) -> float:
    """Rate 1/(N_s t_cycle) from the first crossing of 1 - 1/e of P_s.

    t_cycle is the actual duration of one full initialization cycle (all
    n_r repetitions, pulse widths included).  The crossing cycle is found
    by linear interpolation; N_s counts the evolutions elapsed up to it
    (cycle 1 carries the freshly mixed state, so crossing at cycle N means
    N - 1 cycles of wall time), clamped at >= 1.  This is _crossings on a
    stack of one series.
    """
    if abs(p_s) <= 1e-6:
        # nothing to normalize against: the channel does not polarize
        raise BelowThresholdError(0.0)
    fractions = np.asarray(series.values) / p_s
    above = fractions >= E_FRACTION
    if not above.any():
        raise BelowThresholdError(float(np.max(fractions, initial=-math.inf)))
    (n_s,) = _crossings(fractions[None], above[None], 0.0, 0).tolist()
    return 1.0 / (n_s * t_cycle)


def _crossings(fractions: np.ndarray, above: np.ndarray, lo: np.ndarray, start) -> np.ndarray:
    """N_s (k,) of k rows of fractions P/P_s that each reach 1 - 1/e.

    above is fractions >= E_FRACTION; each row holds the series' entries
    start, start + 1, ... (0-based, entry i is cycle i + 1), and lo holds the
    entries just before them.  lo is a float or (k,) floats, start an int or
    (k,) ints.  The crossing is interpolated between the first entry at or
    above 1 - 1/e and the one before it: max(crossing - 1, 1), the 1-based
    crossing cycle less the fresh cycle 1.  Where start is 0, lo must be 0:
    a crossing on cycle 1 then interpolates to at most 1 and clamps to
    N_s = 1.0.
    """
    i = above.argmax(axis=1)
    at = i + np.arange(0, fractions.size, fractions.shape[1])  # into fractions.ravel()
    flat = fractions.ravel()
    before = np.where(i > 0, flat[at - 1], lo)
    crossing = (start + i) + (E_FRACTION - before) / (flat[at] - before)
    return np.maximum(crossing - 1.0, 1.0)


def _rate_cycles(p_s: np.ndarray, mu: np.ndarray, weights: np.ndarray) -> list[float | None]:
    """Per stacked point, the N_s at which its series from the mixed state first crosses.

    p_s (k,) holds the points' steady polarizations, and mu and weights (k, m)
    the modes and weights of their mode sums P(n) = P_s + Re sum_k w_k mu_k^(n-1)
    (see _spectral_summary), whose fractions P(n)/P_s = 1 + Re sum_k t_k
    mu_k^(n-1), t_k = w_k/P_s, are read.  Block b holds the cycles
    b RATE_BLOCK + 1 ... (b + 1) RATE_BLOCK.  The table of integer powers mu^j,
    j = 0 ... RATE_BLOCK, is computed once for the whole stack, and block 0 is
    evaluated whole from it, from cycle 2 on against the 0 of
    cycle 1, the mixed start, and its crossings are found at once (see
    _crossings), interpolated as measured_rate interpolates the series.  The
    points with no crossing there keep their part of the table and search
    the later blocks together (see _later_blocks).  There is no cap on the
    cycle count; None means the mode sum never reaches 1 - 1/e.
    """
    terms = (weights / p_s[:, None]).T  # (mode, point), as every array of the read-out
    powers = mu.T[:, :, None] ** _POWERS
    values = 1.0 + np.add.reduce(terms[:, :, None] * powers[:, :, 1:RATE_BLOCK], axis=0).real
    above = values >= E_FRACTION
    hit = np.logical_or.reduce(above, axis=1)
    if hit.all():
        return _crossings(values, above, 0.0, 1).tolist()
    crossed = iter(_crossings(values[hit], above[hit], 0.0, 1).tolist())
    rows = (~hit).nonzero()[0]
    del values, above
    later = iter(_later_blocks(terms[:, rows], mu.T[:, rows], powers, rows))
    return [next(crossed) if is_hit else next(later) for is_hit in hit.tolist()]


_POWERS = np.arange(RATE_BLOCK + 1.0)  # the exponents j of the table mu^j


def _later_blocks(terms: np.ndarray, mu: np.ndarray, powers: np.ndarray,
                  rows: np.ndarray) -> list[float | None]:
    """N_s of stacked points whose block 0 holds no crossing, from their mode sums.

    terms and mu (m, k) are the terms t_k = w_k/P_s and modes of the k points'
    fractions P(n)/P_s = 1 + Re sum_k t_k mu_k^(n-1) (see _rate_cycles), and
    rows their rows in the table powers (m, K, RATE_BLOCK + 1) of mu_k^j.
    Each point searches the blocks from 1 on, leftmost first, with no end,
    from the open range [1, inf); _parts cuts each range it reaches into
    parts.  _range_bound rules parts out; the search goes on in the leftmost
    part it cannot, and the parts to its right wait their turn.  The bounds
    are bounds of the function read, so nothing left of a read block reaches
    1 - 1/e.  A single block the bound cannot rule out is read (see
    _block_fractions), with the cycle before it as the lower end of a
    crossing on its first cycle; a read block without a crossing sends the
    point on to the range waiting to its right.

    A point leaves at its crossing, or as None when, at the start of an
    open range past the first, _tail_bound shows that no later cycle can
    reach 1 - 1/e.  The bounds of all the points searching are evaluated
    as one stack; each point searches until it sits on a block to read, and
    then those blocks are read as one stack, their crossings found at once
    (see _crossings).  Far out, |mu| > 1 overflows the bounds: an infinite
    or NaN bound rules nothing out.
    """
    found: list[float | None] = [None] * terms.shape[1]
    lo, hi = [1.0] * len(found), [math.inf] * len(found)  # each point's range of blocks [lo, hi)
    later = [[] for _ in found]  # the ranges to its right, nearest last
    searching, reading = list(range(len(found))), []  # reading: (point, its block to read)
    modes = _search_modes(terms, mu)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while searching or reading:
            while searching:
                at, searching = searching, []
                opened = [i for i in at if hi[i] == math.inf and lo[i] > 1]
                if opened:  # past the first range: does any later cycle reach 1 - 1/e?
                    reach = _tail_bound(*modes[:4, :, opened],
                                        np.array([lo[i] for i in opened])[:, None] * RATE_BLOCK)
                    never = {i for i, r in zip(opened, reach.tolist()) if r < E_FRACTION}
                    if never:  # the mode sum never does: the point leaves with None
                        at = [i for i in at if i not in never]
                        if not at:
                            continue
                edges = _parts(np.array([lo[i] for i in at])[:, None],
                               np.array([hi[i] for i in at])[:, None])
                bound = _range_bound(*modes[:, :, at], edges * RATE_BLOCK - 1)
                ruled = bound < E_FRACTION
                ruled |= edges[:, 1:] == edges[:, :-1]  # an empty part holds nothing to read
                for i, parts, ends in zip(at, ruled.tolist(), edges.tolist()):
                    if False in parts:  # go on in the leftmost part kept; the rest of the range waits
                        p = parts.index(False)
                        first, stop = ends[p], ends[p + 1]
                        if stop < hi[i]:
                            later[i].append((stop, hi[i]))
                        if stop - first == 1:
                            reading.append((i, first))
                            continue
                        lo[i], hi[i] = first, stop
                    elif hi[i] < math.inf:
                        lo[i], hi[i] = later[i].pop()
                    else:  # every doubling part is ruled out: the open range goes on past them
                        lo[i] = ends[-1]
                    searching.append(i)
            if not reading:
                break
            reading.sort()
            at = [i for i, _ in reading]
            starts = np.array([b for _, b in reading]) * RATE_BLOCK
            reading = []
            # the cycles b RATE_BLOCK ... (b + 1) RATE_BLOCK: the one before the block, then it
            values = _block_fractions(*modes[:4, :, at], powers, rows[at], starts[:, None] - 1.0)
            above = values[:, 1:] >= E_FRACTION
            hit = np.logical_or.reduce(above, axis=1)
            crossed = values[:, 1:], above, values[:, 0], starts
            if not hit.all():
                crossed = [x[hit] for x in crossed]
            crossed = iter(_crossings(*crossed).tolist())
            for i, is_hit in zip(at, hit.tolist()):
                if is_hit:
                    found[i] = next(crossed)
                else:
                    lo[i], hi[i] = later[i].pop()
                    searching.append(i)
    return found


def _search_modes(terms: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """What _range_bound reads of k points' terms t_k and modes mu_k (m, k), and
    _block_fractions and _tail_bound of its first four rows: the rows (5, m, k, 1) |t_k|,
    log |mu_k|, arg t_k, arg mu_k and 2 |arg mu_k|."""
    turn = np.angle(mu)
    with np.errstate(divide="ignore"):  # log 0 is -inf
        return np.array([np.abs(terms), np.log(np.abs(mu)), np.angle(terms), turn,
                         2 * np.abs(turn)])[..., None]


def _parts(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Edges (k, SPLIT + 1) of the parts of k ranges of blocks [lo, hi), lo and hi (k, 1).

    A range is cut into SPLIT equal parts with whole-block edges, and an open
    one (hi = inf) into SPLIT doubling parts [lo, 2 lo), [2 lo, 4 lo), ...
    A part with equal edges is empty.
    """
    opened = hi == math.inf
    if opened.all():
        return lo * _DOUBLING
    equal = lo + np.floor((hi - lo) * _EQUAL)  # NaN where open: those rows are not used
    return np.where(opened, lo * _DOUBLING, equal) if opened.any() else equal


_DOUBLING = 2.0 ** np.arange(SPLIT + 1)
_EQUAL = np.arange(SPLIT + 1) / SPLIT


def _range_bound(size: np.ndarray, log_rho: np.ndarray, phase: np.ndarray, turn: np.ndarray,
                 spin: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Upper bounds (k, p) of the fractions 1 + Re sum t_k mu_k^n over the closed ranges of
    exponents n_i ... n_(i+1), i < p, per stacked point.

    The mode terms t_k = w_k/P_s and mu_k of k points are given by size
    |t_k|, log_rho log |mu_k|, phase arg t_k, turn arg mu_k and spin
    2 |arg mu_k|, each (m, k, 1), and n (k, p + 1) holds the ranges' edges,
    which neighbours share: each mode is evaluated once at each edge.  A term
    is at most r_k = |t_k| max(|mu_k|^a, |mu_k|^z) over a range a ... z; and,
    because its phase turns by |arg mu_k| per cycle, at most the larger of
    its two end values plus 2 (z - a) |arg mu_k| r_k, which makes the real
    positive modes monotone.  Where |mu_k|^n falls below e^-400, the edge
    takes e^-400 in its place, which keeps exp off its slow subnormal path;
    a negative end value may then sit up to |t_k| e^-400 (2e-174 |t_k|) below
    the term's, which for |t_k| < 1e157 is under the rounding of the 1 the sum
    starts from.
    """
    reach = n * log_rho  # (mode, point, edge), in place below
    np.maximum(reach, -400.0, out=reach)
    np.exp(reach, out=reach)
    reach *= size
    value = n * turn
    value += phase
    np.cos(value, out=value)
    value *= reach
    top = np.maximum(reach[..., :-1], reach[..., 1:])
    ends = np.maximum(value[..., :-1], value[..., 1:])
    ends += (n[:, 1:] - n[:, :-1]) * spin * top
    np.minimum(top, ends, out=ends)
    return np.add.reduce(ends, axis=0, initial=1.0)


def _block_fractions(size: np.ndarray, log_rho: np.ndarray, phase: np.ndarray,
                     turn: np.ndarray, powers: np.ndarray, rows: np.ndarray,
                     n: np.ndarray) -> np.ndarray:
    """The fractions 1 + Re sum_k A_k mu_k^j (k, RATE_BLOCK + 1), j = 0 ... RATE_BLOCK, of
    k stacked points from their anchors A_k = t_k mu_k^n, n (k, 1), and their rows of the
    table powers, the modes given as for _range_bound without spin: one
    block's cycles, and the cycle before it, as one product with the table."""
    scale = n * log_rho
    np.exp(scale, out=scale)
    scale *= size
    angle = n * turn
    angle += phase
    anchors = scale * np.cos(angle) + 1j * (scale * np.sin(angle))
    sums = None
    for a, p in zip(anchors, powers):  # mode by mode, each product in its own copy of the rows
        term = p[rows].astype(complex, copy=False)
        term *= a
        if sums is None:
            sums = term
        else:
            sums += term
    return 1.0 + sums.real


def _tail_bound(size: np.ndarray, log_rho: np.ndarray, phase: np.ndarray, turn: np.ndarray,
                a: np.ndarray) -> np.ndarray:
    """Upper bounds (k,) of the fractions 1 + Re sum t_k mu_k^n over every n >= a, per stacked
    point.

    The modes are given as for _range_bound, without spin, and a is (k, 1).  A
    term that turns is at most |t_k| |mu_k|^a while |mu_k| <= 1, and unbounded past 1.
    One that does not turn is |t_k| cos(arg t_k) |mu_k|^n, monotone in n: at
    most the larger of its value at a and its limit, 0 for |mu_k| < 1,
    itself for |mu_k| = 1 and an infinity of its sign past 1.
    """
    reach = size * np.exp(a * log_rho)
    value = reach * np.cos(phase)
    limit = np.where(log_rho < 0, 0.0, np.where(log_rho == 0, value, np.copysign(np.inf, value)))
    limit[value == 0] = 0.0
    bound = np.where(turn == 0, np.maximum(value, limit),
                     np.where((log_rho <= 0) | (size == 0), reach, np.inf))
    return np.add.reduce(bound, axis=0, initial=1.0)[:, 0]


class ExactResult(NamedTuple):
    p_s: float
    lambda_est: float
    gamma: float | None
    n_s: float | None
    t_cycle: float

    def to_dict(self) -> dict:
        return {
            "p_s": self.p_s,
            "lambda": self.lambda_est,
            "gamma": self.gamma,
            "n_s": self.n_s,
            "t_cycle": self.t_cycle,
        }


def evaluate_exact(sys: SystemParams, seq: SequenceParams,
                   use_nominal_duration: bool = False,
                   with_rate: bool = True, cache: dict | None = None) -> ExactResult:
    """Steady polarization, contraction factor and rate for one configuration.

    The rate normalization uses the pulse-inclusive cycle duration unless
    use_nominal_duration is set.  gamma comes from the first 1 - 1/e
    crossing of the series, however many cycles it takes, read by
    _rate_cycles from M's closed-form mode sum, interpolated as measured_rate
    interpolates simulate's series of cycle_kraus's channel, with which it
    agrees to rounding; the blocks past the crossing are never evaluated.
    gamma is None when the channel does not polarize (|P_s| below
    threshold), when the mode sum never reaches 1 - 1/e of P_s (see
    _later_blocks), or when with_rate is off.
    `cache` is handed to `propagate`: one dict shared by the points of a
    robustness scan lets them reuse each other's DD-leaf propagators.
    After propagate, this is the tail of evaluate_exact_batch on a stack of
    one, with the same bytes; its ValueError is raised.
    """
    timeline = render_unit(sys, seq)
    u = propagate(sys, timeline, cache)
    t_cycle = timeline.nominal_T if use_nominal_duration else timeline.actual_T
    (result,) = _solve(u[None], [seq], [t_cycle], with_rate)
    if isinstance(result, ValueError):
        raise result
    return result


def evaluate_exact_batch(points: Iterable[tuple[SystemParams, SequenceParams]]
                         ) -> Iterator[ExactResult | ValueError]:
    """evaluate_exact (with its defaults) for each (system, sequence) pair of
    `points`, yielded in order.

    A point whose evaluation raises ValueError (a sequence that cannot be
    rendered, a generator whose eigh fails, a segment whose phase overflows
    or holds no digits modulo 2 pi, a propagator that is not unitary)
    yields that error in its place; the
    other points are unaffected: a stacked walk that raises is halved until
    each refused point is walked alone (see _walk_halving).
    `points` is read BATCH_SIZE at a time, so memory does not grow with
    their number.
    A chunk's points are rendered one by one into their counts and leaf
    segments, then walked as one stack (see _walk), which exponentiates
    each distinct (system, DD leaf) of the chunk once and keeps no memo
    past the chunk: the points of one n_p and n_r compose their blocks
    together.
    The stacked propagators share one unitarity check, one stacked real eig
    and solve for their modes (see _modes), and _rate_cycles' evaluation of
    their blocks 0.  The results are those of evaluate_exact, byte for
    byte, whatever the stack holds.
    """
    points = iter(points)
    while chunk := list(itertools.islice(points, BATCH_SIZE)):
        yield from _evaluate_chunk(chunk)


def _evaluate_chunk(points: list) -> list[ExactResult | ValueError]:
    """evaluate_exact_batch on one chunk of at most BATCH_SIZE points, as a list."""
    results: list = [None] * len(points)
    valid = []
    for i, (sys, seq) in enumerate(points):
        try:
            check_sequence(seq)
        except ValueError as err:
            results[i] = err
        else:
            valid.append(i)
    at, u = _walk_halving(points, valid, results) if valid else ([], None)
    if at:
        sequences = [points[i][1] for i in at]
        solved = _solve(u, sequences, [cycle_durations(seq)[1] for seq in sequences])
        for i, result in zip(at, solved):
            results[i] = result
    return results


def _walk_halving(points: list, at: list[int], results: list) -> tuple[list[int], np.ndarray]:
    """The indices of the points at `at` that walk, in walk order, and their cycle propagators.

    The points are grouped by everything but their waits, (system, tau,
    tau_pi, n_p, n_r), each group renders its five DD leaves once, and the
    groups are walked as one stack.  A stack the walk refuses (a failed eigh
    or a refused phase) is halved, in its walk order, and each half is
    grouped and walked the same way, so one refused point among k costs at
    most 2 ceil(log2 k) + 1 walks; a point walked alone that is refused
    gets its error in `results`.
    """
    members: dict = {}  # (sys, tau, tau_pi, n_p, n_r) -> the indices of its points
    for i in at:
        sys, seq = points[i]
        members.setdefault((sys, seq.tau, seq.tau_pi, seq.n_p, seq.n_r), []).append(i)
    at = list(itertools.chain.from_iterable(members.values()))
    try:
        return at, _walk([_group(points, group) for group in members.values()], None)
    except ValueError as err:
        if len(at) == 1:
            results[at[0]] = err
            return [], np.empty((0, 4, 4), complex)
    half = len(at) // 2
    (first, u), (second, v) = (_walk_halving(points, part, results)
                               for part in (at[:half], at[half:]))
    return first + second, np.concatenate((u, v))


def _group(points: list, at: list[int]) -> _Group:
    """The group of the points at these indices, which share all but their waits."""
    sys, seq = points[at[0]]
    return _Group(sys, seq.n_p, seq.n_r, dd_leaves(seq),
                  [(s.t_s, s.t_w, s.t_c) for s in (points[i][1] for i in at)])


def _solve(u: np.ndarray, sequences: list[SequenceParams], t_cycles: list[float],
           with_rate: bool = True) -> list[ExactResult | ValueError]:
    """ExactResult of each stacked cycle propagator u (k, 4, 4), from one stacked
    unitarity check and projection (see _isometries), Bloch map and mode solve
    (see _modes); sequences and t_cycles are the points' own and their cycle
    durations.  A propagator that is not unitary gets a ValueError naming its
    unprojected defect and its sequence's n_p and n_r: a block power that
    overflows reads defect nan."""
    defects, k = _isometries(u)
    results: list = [None if d <= UNITARITY_TOL else _not_unitary(d, seq)  # NaN fails too
                     for d, seq in zip(defects.tolist(), sequences)]
    solved = [i for i, r in enumerate(results) if r is None]
    if not solved:
        return results
    if len(solved) < len(u):
        k = k[solved]
    _, q = _bloch_maps(_channels(k.reshape(-1, 2, 2, 2)))
    mu, vecs, a = _modes(q)
    p_s, lam, weights = _spectral_summary(mu, vecs, a)
    rated = (np.abs(p_s) > 1e-6).nonzero()[0] if with_rate else []
    cycles: list[float | None] = [None] * len(solved)
    if len(rated):
        modes = p_s, mu, weights
        if len(rated) < len(solved):
            modes = [x[rated] for x in modes]
        for j, c in zip(rated.tolist(), _rate_cycles(*modes)):
            cycles[j] = c
    for i, p, lam_i, c in zip(solved, p_s.tolist(), lam.tolist(), cycles):
        t_cycle = t_cycles[i]
        gamma = None if c is None else 1.0 / (c * t_cycle)
        n_s = None if gamma is None else 1.0 / (gamma * t_cycle)
        results[i] = ExactResult(p_s=p, lambda_est=lam_i, gamma=gamma, n_s=n_s, t_cycle=t_cycle)
    return results
