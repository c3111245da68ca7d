"""Exact numerical evolution of the protocol.

Composes the per-cycle 4x4 unitary from the propagators of the
timeline's eight leaf segments in the protocol's one form: the DD cell,
raised to n_p by repeated squaring, then the two DD blocks, then the
repetition of DDX, t_s, DDY, t_w, DDX, t_s, DDY, t_c, raised to n_r; the
nuclear Kraus pair is its first block column.  One walk serves a whole
stack of timelines: each distinct (system, leaf segment) is exponentiated
once, one exponential per generator (hyperfine, nuclear, a zero-width
pulse's spin or a drive at one Rabi frequency), and the timelines of one
n_p and n_r compose each block as one stacked product over all their
points; a block whose leaf segments all the points share is composed
once.  `propagate` is the walk of one timeline.  The segment
propagators are memoized per (system, segment) in a dict the caller may
pass: sweeps, scans and searches share one across their points, so
neighbouring points that differ in one wait exponentiate only that wait.
One table outlives a walk, bounded and a pure function of its keys: in
linalg.hermitian_expm each generator's eigendecomposition, keyed by its
bytes (up to linalg.SPECTRA_LIMIT, cleared when full), so a new duration
of a generator seen before costs no eigh.  A walk refuses a segment whose
phase |eigenvalue x duration| reaches PHASE_LIMIT, where the propagator is
finite but holds no digit of the phase modulo 2 pi.
The channel acts on vec(rho) as a complex 4x4 transfer matrix T, and on
the nuclear Bloch vector as the real affine map r -> M r + c (Nielsen and
Chuang, Quantum Computation and Quantum Information, 8.3.2), read from the
Pauli form of its real Bloch map R = Re(B T B^-1), the 4x4 real matrix that
moves the nuclear state's populations and transverse Bloch components
(p_up, x, y, p_down) one cycle on.  One real 3x3 eig of M and one solve
give the steady polarization P_s, the z of the fixed point (I - M)^-1 c,
and the contraction factor.  The series itself is read through R, whose
real products cost a quarter to a fifth of the complex ones.  The rate
comes from the first 1 - 1/e crossing of that series, with no cap on its
length, read out lazily: the first block of SERIES_BLOCK cycles is
evaluated one doubling level of read-out rows at a time (cycles 1-2, 3-4,
5-8, ...), the crossings of a whole level are found as array operations,
and the search stops at the level that holds the crossing.  Only when the
first block has none do R's own modes bound the series over ranges of
later blocks, cutting each range they cannot rule out into SPLIT parts,
and the single blocks the bound cannot rule out are evaluated with exact
powers of R.  `simulate` evaluates the whole series
through the same read-out.

`evaluate_exact_batch` solves many points at once.  Up to BATCH_SIZE (256)
points are rendered, walked as one stack and checked for unitarity
together; their Bloch maps share one eig and one solve, and their first
blocks are read level by level across the stack, each point leaving it at
the level that holds its crossing.  The points with no crossing in their
first block search the later blocks together, each leaving at its own
crossing.  A stack's largest arrays are the first block's read-out rows,
SERIES_BLOCK x 4 floats (32 KB) per point still in it: 8 MB for a stack of
256 points that all cross late.  `evaluate_exact` propagates
its point through `propagate` and shares the rest with the batch, with the
same bytes.  Sweeps and every step of the resonant-interval search go
through the batch; only robustness scans still go one point at a time.

A point alone is a stack of one through the same code, and at that size
each numpy call costs about its fixed overhead, so the walk and the solve
keep their calls few: the drive and Zeeman operators are constants, each
generator's eigenvectors are kept with their adjoint, a leaf that every
point shares is a view of its memo entry, each block is one stacked
product (the cell and the repetition then one matrix_power), R and its
Pauli form come from one product with a constant matrix, and the mode
terms and eig residual behind the later-block search are computed only
for the points that reach it.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import ID2, SX, SY, SZ, hermitian_expm, kron2, unitarity_defect
from .params import SequenceParams, SystemParams
from .timeline import FREE_HYPERFINE, FREE_NUCLEAR, PULSE, Segment, Timeline, render_unit

UNITARITY_TOL = 1e-10
SERIES_BLOCK = 1024
MEMO_LIMIT = 256
BATCH_SIZE = 256  # points per stacked mode solve and first-block read-out
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
    params: dict = field(default_factory=dict)

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


def nuclear_hamiltonian(sys: SystemParams) -> np.ndarray:
    """omega I_z only (hyperfine-free waits)."""
    return sys.omega * _NUCLEAR_Z


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
    times a duration overflows.  `hyperfine` keeps each system's
    hyperfine_hamiltonian for the next call, so a walk that passes one dict
    builds it once for the free evolution and every drive of a system.
    """
    seg = segments[0]
    if seg.kind == FREE_HYPERFINE:
        h = _hyperfine(sys, hyperfine)
    elif seg.kind == FREE_NUCLEAR:
        h = nuclear_hamiltonian(sys)
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
        finite = np.isfinite(u).all(axis=(1, 2))
        raise ValueError(f"segment phase H*t overflows (omega={sys.omega!r}, "
                         f"a_perp={sys.a_perp!r}, a_z={sys.a_z!r}, "
                         f"t={durations[int(finite.argmin())]!r})")
    return u


def _hyperfine(sys: SystemParams, memo: dict) -> np.ndarray:
    """hyperfine_hamiltonian(sys), built once and kept in `memo` by system."""
    h = memo.get(sys)
    if h is None:
        h = memo[sys] = hyperfine_hamiltonian(sys)
    return h


def _refuse_lost_phases(sys: SystemParams, segments: Sequence[Segment]) -> None:
    """Raise ValueError, naming the system and the duration, where the largest
    phase |eigenvalue x duration| of segments that share one generator reaches
    PHASE_LIMIT: there the float spacing is 1 rad or more, so exp(-i H t)
    holds no digits of the phase modulo 2 pi, though it is finite.  A nuclear
    wait's eigenvalues are +-omega/2 and the hyperfine Hamiltonian's, one
    block per electron spin s = +-1/2, are +-|(s a_perp, omega + s a_z)|/2;
    a drive adds at most its half angle (pi/2 rad), below the float spacing
    there.
    """
    seg = segments[0]
    if seg.kind == FREE_NUCLEAR:
        radius = abs(sys.omega) / 2
    elif seg.kind == PULSE and seg.duration == 0.0:
        return  # a turn by its angle
    else:
        radius = math.hypot(sys.a_perp / 2, abs(sys.omega) + abs(sys.a_z) / 2) / 2
    longest = max([s.duration for s in segments])
    if radius * longest >= PHASE_LIMIT:
        raise ValueError(f"segment phase H*t holds no digits modulo 2 pi (omega={sys.omega!r}, "
                         f"a_perp={sys.a_perp!r}, a_z={sys.a_z!r}, t={longest!r})")


def propagate(sys: SystemParams, timeline: Timeline,
              cache: dict | None = None) -> np.ndarray:
    """Cycle propagator: the ordered product of segment propagators.

    Each block of the cycle is composed once (later parts on the left), and
    the cell and the repetition are raised to their counts by repeated
    squaring.  The leaf segments' propagators are kept in `cache`, keyed by
    (sys, segment), so a caller that passes one dict to every point of a
    sweep exponentiates each distinct segment once for the whole sweep;
    without one, the memo lasts for this call.  The dict is cleared whenever it would grow past
    MEMO_LIMIT entries, and the cached arrays are read-only.  Blocks are not
    stored.  This is _walk on a stack of one.
    """
    return _walk([(sys, timeline)], cache)[0]


def _walk(points: list[tuple[SystemParams, Timeline]], cache: dict | None) -> np.ndarray:
    """Cycle propagators (k, 4, 4) of k (system, timeline) pairs, walked as one stack.

    Every distinct (system, leaf segment) of the stack is read from `cache`
    or, once, exponentiated: one segment_propagator call per generator
    covers all its missing segments, and they join the memo as in
    propagate once no segment's phase overflows or holds no digits modulo
    2 pi (see _refuse_lost_phases): a refused walk keeps nothing.  The
    points are then grouped by (n_p, n_r), and each group
    composes its cycles as one stack (see _cycle).  Each matrix has the
    bytes of its own 4x4 products.
    """
    if cache is None:
        cache = {}
    systems: dict = {}  # sys -> {segment: its row in keys and known}
    keys: list = []  # (sys, segment) of each row
    groups = defaultdict(list)  # (n_p, n_r) -> (point, leaf rows) of its points
    for i, (sys, timeline) in enumerate(points):
        seen = systems.setdefault(sys, {})
        rows = []
        for seg in timeline.leaves:  # one hash per leaf: a new segment takes the next row
            row = seen.setdefault(seg, len(keys))
            if row == len(keys):
                keys.append((sys, seg))
            rows.append(row)
        groups[timeline.n_p, timeline.n_r].append((i, rows))
    known = [cache.get(key) for key in keys]
    missing = defaultdict(list)  # generator -> rows of its segments that are not in the memo
    for row, u in enumerate(known):
        if u is None:
            missing[_generator(*keys[row])].append(row)
    hyperfine = {}  # sys -> its hyperfine Hamiltonian, built once per walk
    stacks = []
    for misses in missing.values():
        segments = [keys[row][1] for row in misses]
        stacks.append((misses, segments,
                       segment_propagator(keys[misses[0]][0], segments, hyperfine)))
    for misses, segments, _ in stacks:  # once no phase overflows, and before any is kept
        _refuse_lost_phases(keys[misses[0]][0], segments)
    for misses, _, stack in stacks:
        for row, u in zip(misses, stack):
            u.flags.writeable = False
            known[row] = u
            if len(cache) >= MEMO_LIMIT:
                cache.clear()
            cache[keys[row]] = u
    out = np.empty((len(points), 4, 4), dtype=complex)
    # a product that overflows is NaN, which the unitarity check reports
    with np.errstate(over="ignore", invalid="ignore"):
        for (n_p, n_r), members in groups.items():
            at, rows = zip(*members)
            out[list(at)] = _cycle(n_p, n_r, rows, known)
    return out


def _cycle(n_p: int, n_r: int, rows: Sequence[list[int]],
           known: list[np.ndarray]) -> np.ndarray:
    """Cycle propagators of a stack of k points that share n_p and n_r.

    rows hold each of the k points' eight leaves (see timeline.HALF_X ...)
    as indices into known, the stack's distinct leaf propagators (4, 4):
    equal indices, equal segments.  A leaf that every point shares is
    (1, 4, 4), a view of its propagator, any other (k, 4, 4), and a block
    composes as (1, 4, 4) when all its parts do, its (1, 4, 4) parts
    broadcasting otherwise.  Each block multiplies its parts in product
    order, later parts on the left, starting from the first itself, and
    matrix_power raises the cell to n_p and the repetition to n_r.
    Returns (k, 4, 4), or (1, 4, 4) when the points share every leaf.
    """
    leaves, table = [], None
    for column in zip(*rows):
        if column.count(column[0]) == len(column):
            leaves.append(known[column[0]][None])
        else:
            if table is None:
                table = np.array(known)
            leaves.append(table[list(column)])
    half_x, free, pi_x, half_y, pi_y, wait_s, wait_w, wait_c = leaves
    ddx = half_x @ (np.linalg.matrix_power(free @ (pi_x @ free), n_p) @ half_x)
    ddy = half_y @ (np.linalg.matrix_power(free @ (pi_y @ free), n_p) @ half_y)
    u = ddx
    for part in (wait_s, ddy, wait_w, ddx, wait_s, ddy, wait_c):
        u = part @ u
    return np.linalg.matrix_power(u, n_r)


def kraus(u: np.ndarray) -> KrausPair:
    """Kraus pair (<up|U|up>, <down|U|up>) of the electron-reset channel."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    defect = unitarity_defect(u)
    if not defect <= UNITARITY_TOL:  # NaN fails too
        raise ValueError(f"input is not unitary (defect {defect:.3e})")
    return KrausPair(m_up=u[:2, :2].copy(), m_down=u[2:, :2].copy())


def cycle_kraus(sys: SystemParams, seq: SequenceParams) -> KrausPair:
    return kraus(propagate(sys, render_unit(sys, seq)))


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
_MIXED_BLOCH = np.array([0.5, 0.0, 0.0, 0.5])  # the mixed start (p_up, x, y, p_down)
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
    raises ValueError, since its series would not be the one T's modes give.
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


def _level(rows: np.ndarray, power: np.ndarray, x: np.ndarray, start: int):
    """One doubling level of the first block's read-out, for a stack of points.

    rows (k, m, 4) are the real read-out rows r R^j, j < m, of each point's
    Bloch map R (see _bloch_maps) and power (k, 4, 4) is R^m; the first
    level starts from the single row r = _READOUT and R.  Returns the rows
    for j < 2m and P from the Bloch state x at the cycles from start + 1 to
    2m, where start is the count already read: 0 on the first level, which
    reads cycles 1-2, m after it.  The next level takes power @ power,
    R^(2m), which a consumer squares only for the points that go on.  A
    level holds the same rows whatever the series length, so a consumer
    that stops early pays for no later level.
    Every level has at least two rows: numpy multiplies a single row by its
    dot kernel, which rounds differently from the matrix-vector kernel of
    longer products.
    """
    rows = np.concatenate([rows, rows @ power], axis=1)
    return rows, rows[:, start:] @ x


def _read(rows: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """rows @ x cut at m entries, in products of at most SERIES_BLOCK/2 rows.

    rows (n, 4) and x (4,), or stacks of them: rows (k, n, 4) and x (k, 4),
    each point's entries with the bytes of its own product.  One 1024x4
    product goes through BLAS's multithreaded matrix-vector kernel, which
    took milliseconds with two threads against microseconds with one; a
    512x4 product runs on one thread either way.
    """
    half = SERIES_BLOCK // 2
    chunks = [(rows[..., a:a + half, :] @ x[..., None])[..., 0]
              for a in range(0, min(m, rows.shape[-2]), half)]
    return np.concatenate(chunks, axis=-1)[..., :m]


def simulate(k: KrausPair, rho0: np.ndarray, n: int, params: dict | None = None) -> PolarizationSeries:
    """Polarization for cycles 1..n; cycle 1 is the freshly prepared state.

    Block powers of the real Bloch map R (see _bloch_maps) on the Bloch
    state of rho0, the real part of B vec(rho0): the first block of
    SERIES_BLOCK cycles is read level by level through _level, as a stack
    of one, while its read-out rows r R^j are built by doubling, and the
    state then jumps by R^SERIES_BLOCK once per later block, which _read
    reads with the same rows.  A shorter series is a prefix of a longer
    one, byte for byte, and _rate_cycles reads its first block through the
    same _level.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = (_BLOCH @ np.asarray(rho0, dtype=complex).reshape(4)).real
    values = np.empty(n)
    rows, power, start = _READOUT[None], _bloch_maps(_superop(k)[None])[0], 0
    while start < min(n, SERIES_BLOCK):
        if start:
            power = power @ power
        rows, level = _level(rows, power, x, start)
        values[start:rows.shape[1]] = level[0, :n - start]
        start = rows.shape[1]
    rows, power = rows[0], (power @ power)[0]  # R^SERIES_BLOCK when later blocks follow
    for start in range(SERIES_BLOCK, n, SERIES_BLOCK):
        x = power @ x
        values[start:start + SERIES_BLOCK] = _read(rows, x, n - start)
    return PolarizationSeries(values=values, params=params or {})


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
                      a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_s, lambda) of each stacked point from its modes (see _modes): two (k,) arrays.

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
    return p_s, lam


def _series_modes(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four terms of the series that stacked Bloch maps r (k, 4, 4) read, and its drift.

    Returns the modes mu and weights w (k, 4) of R's own eig, from the mixed
    start P(n) = Re sum w mu^(n-1), and the drift (k,).  These are R's, not
    M's: a Kraus pair's CPTP defect (about 1e-14) leaves R a trace defect
    that the affine map r -> M r + c leaves out, and over the 1/gap cycles
    of a slow point the series R reads strays from M's mode sum by about
    defect / gap.  Bounded by M's modes instead, the later-block search
    read 10 635 blocks on the 201 x 201 README map against 382, and 11 395
    against 128 at a_perp = 1e3.  The drift is R's residual against its
    modes times sum |coefficients| of the mixed start: R^(n-1) applied to
    the mixed start strays from the mode sum by about (n - 1) drift,
    because each cycle adds the residual of every mode it carries.  eig
    returns complex modes unless every mode of the stack is real; they are
    made complex either way.
    """
    mu, vecs = np.linalg.eig(r)
    if mu.dtype.kind != "c":
        mu, vecs = mu.astype(complex), vecs.astype(complex)
    coeffs = np.linalg.solve(vecs, _MIXED_BLOCH[None, :, None])[..., 0]
    residual = np.abs(r @ vecs - vecs * mu[:, None, :]).max(axis=(1, 2))
    return mu, (vecs[:, 0] - vecs[:, 3]) * coeffs, residual * np.abs(coeffs).sum(axis=1)


def steady_state(k: KrausPair) -> tuple[float, float]:
    """Steady polarization and contraction factor of the channel: (P_s, lambda).

    P_s is the z of the fixed point of the channel's affine Bloch map
    r -> M r + c, summed over the modes of M that are not steady (see
    _spectral_summary); lambda is the largest |mu_k| among the moving modes
    whose weight exceeds UNITARITY_TOL, 1.0 when no mode moves.  This is
    _solve's solve on a stack of one.
    """
    _, q = _bloch_maps(_superop(k)[None])
    (p_s,), (lam,) = (a.tolist() for a in _spectral_summary(*_modes(q)))
    return p_s, lam


def measured_rate(series: PolarizationSeries, p_s: float, t_cycle: float) -> float:
    """Rate 1/(N_s t_cycle) from the first crossing of 1 - 1/e of P_s.

    t_cycle is the actual duration of one full initialization cycle (all
    n_r repetitions, pulse widths included).  The crossing cycle is found
    by linear interpolation; N_s counts the evolutions elapsed up to it
    (cycle 1 carries the freshly mixed state, so crossing at cycle N means
    N - 1 cycles of wall time), clamped at >= 1.
    """
    if abs(p_s) <= 1e-6:
        # nothing to normalize against: the channel does not polarize
        raise BelowThresholdError(0.0)
    fractions = np.asarray(series.values) / p_s
    n_s = _first_crossing(fractions)
    if n_s is None:
        raise BelowThresholdError(float(np.max(fractions, initial=-math.inf)))
    return 1.0 / (n_s * t_cycle)


def _first_crossing(fractions: np.ndarray) -> float | None:
    """N_s if the fraction series P/P_s (entry i is cycle i + 1) reaches 1 - 1/e, else None."""
    above = np.nonzero(fractions >= E_FRACTION)[0]
    if len(above) == 0:
        return None
    i = int(above[0])
    if i == 0:
        return 1.0
    lo = fractions[i - 1]
    # entries i-1, i hold cycles i, i+1; the 1-based crossing cycle is i + t
    crossing = float(i + (E_FRACTION - lo) / (fractions[i] - lo))
    return max(crossing - 1.0, 1.0)


def _crossings(fractions: np.ndarray, above: np.ndarray, lo: np.ndarray, start) -> np.ndarray:
    """N_s (k,) of k rows of fractions P/P_s that each reach 1 - 1/e.

    above is fractions >= E_FRACTION; each row holds the series' entries
    start, start + 1, ... (0-based, entry i is cycle i + 1), and lo (k,) holds
    the entries just before them.  start is an int or (k,) ints.  The
    crossing is interpolated between the first entry at or above 1 - 1/e and
    the one before it, as measured_rate does, in float64 arrays whose
    elementwise IEEE operations give the bytes of its scalar ones:
    max(crossing - 1, 1).  Where start is 0, lo must be 0: a crossing on
    cycle 1 then interpolates to at most 1 and clamps to N_s = 1.0, the
    value measured_rate gives it.
    """
    i = above.argmax(axis=1)
    at = i + np.arange(0, fractions.size, fractions.shape[1])  # into fractions.ravel()
    flat = fractions.ravel()
    before = np.where(i > 0, flat[at - 1], lo)
    crossing = (start + i) + (E_FRACTION - before) / (flat[at] - before)
    return np.maximum(crossing - 1.0, 1.0)


def _rate_cycles(r: np.ndarray, p_s: np.ndarray) -> list[float | None]:
    """Per stacked point, the N_s at which simulate's series from the mixed state first crosses.

    In the first block that is the value measured_rate reads from a series
    long enough to hold the crossing, byte for byte.  Past it, _later_blocks
    finds the same crossing from states reached by one matrix_power jump
    each, where simulate steps block by block, so the values agree to
    rounding, not to the byte: at the README base, 1/N_s differs by 1.7e-13
    (t_s = 0.1 pi), 1.2e-14 (0.35 pi), 2.2e-13 (0.6 pi, past 2^21 cycles)
    and 9.4e-15 (1.85 pi) relative.  There is no cap on the cycle count;
    None means the mode sum never reaches 1 - 1/e (see _later_blocks).

    r (k, 4, 4) holds the points' real Bloch maps (see _bloch_maps) and p_s
    their steady polarizations.
    The first block of SERIES_BLOCK cycles is read level by level through
    simulate's own _level, across the stack; each level's crossings are
    found at once (see _crossings), and a point leaves the stack at the
    first level that holds its crossing.  The points that have none in the
    first block go on together to _later_blocks, which starts from the rows
    and power the stack built and from their mode terms and drift (see
    _series_modes), computed for those points alone: a point that crosses
    early never pays for them.
    """
    found: list[float | None] = [None] * len(r)
    active, lo = np.arange(len(r)), np.zeros(len(r))  # 0 before cycle 1 (see _crossings)
    rows, power, start = _READOUT[None].repeat(len(r), axis=0), r, 0
    while True:
        rows, values = _level(rows, power, _MIXED_BLOCH, start)
        fractions = values / p_s[:, None]
        above = fractions >= E_FRACTION
        hit = np.logical_or.reduce(above, axis=1)
        left = (~hit).nonzero()[0]
        if len(left) < len(hit):
            crossed = (fractions, above, lo, active)
            if len(left):
                j = hit.nonzero()[0]
                crossed = [x[j] for x in crossed]
            for i, n_s in zip(crossed[3].tolist(), _crossings(*crossed[:3], start).tolist()):
                found[i] = n_s
            if len(left) == 0:
                return found
            rows, power, active, p_s, fractions = (
                x[left] for x in (rows, power, active, p_s, fractions))
        start = rows.shape[1]
        power = power @ power
        if start == SERIES_BLOCK:
            del values, fractions, above  # the search holds the rows; free the rest of the level
            mu, weights, drift = _series_modes(r[active])
            later = _later_blocks(rows, power, mu, weights, p_s, drift)
            for i, n_s in zip(active.tolist(), later):
                found[i] = n_s
            return found
        lo = fractions[:, -1]


def _later_blocks(rows: np.ndarray, power: np.ndarray, mu: np.ndarray, weights: np.ndarray,
                  p_s: np.ndarray, drift: np.ndarray) -> list[float | None]:
    """N_s of stacked points whose first block holds no crossing, from the blocks after it.

    rows (k, SERIES_BLOCK, 4) are the first block's read-out rows r R^j of
    the points' Bloch maps R and power (k, 4, 4) is R^SERIES_BLOCK; mu and
    weights (k, 4) are the terms of their series (see _series_modes).  Block b holds the
    cycles b SERIES_BLOCK + 1 ... (b + 1) SERIES_BLOCK.  Each point searches the
    blocks from 1 on, leftmost first, with no end, from the open range
    [1, inf); _parts cuts each range it reaches into parts.  _range_bound
    rules parts out; the search goes on in the leftmost part it cannot, and
    the parts to its right wait their turn.

    The bound holds for the mode sum; the series read by matrix products
    strays from it by about m drift / |P_s| in cycle 1 + m (see
    _series_modes), so a part is ruled out only when its bound stays below
    1 - 1/e by twice that.  Where eig is exact (an amplitude damping
    channel) the drift is rounding alone while the powers still round more,
    and only the re-read of the block before, below, catches a crossing the
    bound missed.  A single
    block the bound cannot rule out is read: its state is one jump from the
    mixed start, matrix_power(R^SERIES_BLOCK, b - 1), then one step of
    R^SERIES_BLOCK, and its rows are read like simulate's later blocks, so
    N_s does not depend on which blocks the search read before.  Should the block already open above 1 - 1/e, after
    an entry above it too, the bound missed the crossing by rounding and
    the block before is read instead.  A read block without a crossing
    sends the point on to the range waiting to its right.

    A point leaves at its crossing, or as None when, at the start of an
    open range past the first, _tail_bound shows that no later cycle can
    reach 1 - 1/e: the mode sum never reaches it.  That test has no slack,
    which grows without end.  The bounds of all the points searching are
    evaluated as one stack; each point searches until it sits on a block to
    read, and then those blocks are read as one stack, their crossings
    found at once (see _crossings).  Far out, |mu| > 1 overflows the bounds:
    an infinite or NaN bound rules nothing out.
    """
    terms = weights / p_s[:, None]
    modes = np.stack([np.abs(terms), np.abs(mu), np.angle(terms), np.angle(mu),
                      2 * np.abs(np.angle(mu))], axis=1)[:, :, None]  # (point, what, 1, mode)
    slack = 2 * drift / np.abs(p_s)
    found: list[float | None] = [None] * len(rows)
    span = [(1.0, math.inf) for _ in found]  # each point's current range of blocks [lo, hi)
    later = [[] for _ in found]  # the ranges to its right, nearest last
    searching, reading = list(range(len(found))), []  # reading: (point, its block to read)
    with np.errstate(over="ignore", invalid="ignore"):
        while searching or reading:
            while searching:
                at, searching = searching, []
                opened = [i for i in at if span[i][1] == math.inf and span[i][0] > 1]
                if opened:  # past the first range: does any later cycle reach 1 - 1/e?
                    starts = np.array([span[i][0] for i in opened])[:, None, None]
                    reach = _tail_bound(*modes[opened, :4].swapaxes(0, 1), starts * SERIES_BLOCK)
                    never = {i for i, r in zip(opened, reach[:, 0].tolist()) if r < E_FRACTION}
                    if never:  # the mode sum never does: the point leaves with None
                        at = [i for i in at if i not in never]
                        if not at:
                            continue
                lo, hi = np.array([span[i] for i in at]).T[:, :, None]
                edges = _parts(lo, hi)
                a, z = edges[:, :-1] * SERIES_BLOCK, edges[:, 1:] * SERIES_BLOCK - 1
                bound = _range_bound(*modes[at].swapaxes(0, 1), a, z)  # cycles 1 + a .. 1 + z
                kept = ~(bound + slack[at, None] * z < E_FRACTION) & (z >= a)
                p, k = kept.argmax(axis=1), np.arange(len(at))
                for i, any_kept, first, stop, end in zip(
                        at, kept.any(axis=1).tolist(), edges[k, p].tolist(),
                        edges[k, p + 1].tolist(), edges[:, -1].tolist()):
                    if any_kept:  # go on in the leftmost kept part; the rest of the range waits
                        if stop < span[i][1]:
                            later[i].append((stop, span[i][1]))
                        if stop - first == 1:
                            reading.append((i, int(first)))
                        else:
                            span[i] = (first, stop)
                            searching.append(i)
                    elif span[i][1] < math.inf:
                        span[i] = later[i].pop()
                        searching.append(i)
                    else:  # every doubling part is ruled out: the open range goes on past them
                        span[i] = (end, math.inf)
                        searching.append(i)
            if not reading:
                break
            at, reading = sorted(reading), []
            point = [i for i, _ in at]
            starts = np.array([b * SERIES_BLOCK for _, b in at])
            # the rows of every point in order are the rows themselves, not a copy of them
            rows_at = rows if point == list(range(len(rows))) else rows[point]
            power_at, p_at = power[point], p_s[point]
            jumps = np.array([np.linalg.matrix_power(power[i], b - 1) for i, b in at])
            before = jumps @ _MIXED_BLOCH
            last = (rows_at[:, -1:] @ before[..., None])[:, 0, 0] / p_at
            values = _read(rows_at, (power_at @ before[..., None])[..., 0],
                           SERIES_BLOCK) / p_at[:, None]
            above = values >= E_FRACTION
            # a block that opens above 1 - 1/e after an entry above it too: the bound
            # missed the crossing by rounding, and the block before is read instead
            back = (starts > SERIES_BLOCK) & (last >= E_FRACTION) & above[:, 0]
            hit = above.any(axis=1) & ~back
            crossed = values, above, last, starts
            if not hit.all():
                crossed = [x[hit] for x in crossed]
            crossed = iter(_crossings(*crossed).tolist())
            for (i, b), is_back, is_hit in zip(at, back.tolist(), hit.tolist()):
                if is_back:
                    reading.append((i, b - 1))
                elif is_hit:
                    found[i] = next(crossed)
                else:
                    span[i] = later[i].pop()
                    searching.append(i)
    return found


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


def _range_bound(size: np.ndarray, rho: np.ndarray, phase: np.ndarray, turn: np.ndarray,
                 spin: np.ndarray, a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Upper bounds (k, p) of the mode sum Re sum t_k mu_k^n over n = a..z, per stacked point.

    The mode terms t_k = w_k/P_s and mu_k of k points are given by size
    |t_k|, rho |mu_k|, phase arg t_k, turn arg mu_k and spin 2 |arg mu_k|,
    each (k, 1, 4), and a and z (k, p) are the ends of p ranges per point.
    A term is at most r_k = |t_k| max(|mu_k|^a, |mu_k|^z); and, because its
    phase turns by |arg mu_k| per cycle, at most the larger of its two end
    values plus 2 (z - a) |arg mu_k| r_k, which makes the real positive modes
    monotone.
    """
    a, z = a[..., None], z[..., None]  # (point, range, mode)
    first, last = size * rho ** a, size * rho ** z
    reach = np.maximum(first, last)
    ends = np.maximum(first * np.cos(phase + a * turn), last * np.cos(phase + z * turn))
    return np.minimum(reach, ends + (z - a) * spin * reach).sum(axis=2)


def _tail_bound(size: np.ndarray, rho: np.ndarray, phase: np.ndarray, turn: np.ndarray,
                a: np.ndarray) -> np.ndarray:
    """Upper bounds (k, 1) of the mode sum over every n >= a, per stacked point.

    The modes are given as for _range_bound, without spin, and a is (k, 1, 1).  A term that
    turns is at most |t_k| |mu_k|^a while |mu_k| <= 1, and unbounded past 1.
    One that does not turn is |t_k| cos(arg t_k) |mu_k|^n, monotone in n: at
    most the larger of its value at a and its limit, 0 for |mu_k| < 1,
    itself for |mu_k| = 1 and an infinity of its sign past 1.
    """
    reach = size * rho ** a
    value = reach * np.cos(phase)
    limit = np.where(rho < 1, 0.0, np.where(rho == 1, value, np.copysign(np.inf, value)))
    limit[value == 0] = 0.0
    bound = np.where(turn == 0, np.maximum(value, limit),
                     np.where((rho <= 1) | (size == 0), reach, np.inf))
    return bound.sum(axis=-1)


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
    crossing of simulate's series, however many cycles it takes, found by
    _rate_cycles from the first block and the later blocks whose mode bound
    reaches 1 - 1/e; the rest of the series is never evaluated.  In the
    first block gamma is what measured_rate reads from a series that holds
    the crossing; past it the two agree to rounding only (see _rate_cycles).
    gamma is None when the channel does not polarize (|P_s| below
    threshold), when the mode sum never reaches 1 - 1/e of P_s (see
    _later_blocks), or when with_rate is off.
    `cache` is handed to `propagate`: one dict shared by the points of a
    sweep lets them reuse each other's segment propagators.
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


def evaluate_exact_batch(points: Iterable[tuple[SystemParams, SequenceParams]],
                         cache: dict | None = None) -> Iterator[ExactResult | ValueError]:
    """evaluate_exact (with its defaults) for each (system, sequence) pair of
    `points`, yielded in order.

    A point whose evaluation raises ValueError (a sequence that cannot be
    rendered, a generator whose eigh fails, a segment whose phase overflows
    or holds no digits modulo 2 pi, a propagator that is not unitary)
    yields that error in its place; the
    other points are unaffected: when the stacked walk raises, each point is
    walked alone.
    `points` is read BATCH_SIZE at a time, so memory does not grow with
    their number.
    A chunk's points are rendered one by one into their counts and leaf
    segments, then walked as one stack through the shared `cache` (see
    _walk): the points of one n_p and n_r compose their blocks together.
    The stacked propagators share one unitarity check, one stacked real eig
    and solve for their modes (see _modes), and _rate_cycles' read-out of
    their first blocks.  The results are those of evaluate_exact, byte for
    byte, whatever the stack holds.
    """
    points = iter(points)
    while chunk := list(itertools.islice(points, BATCH_SIZE)):
        yield from _evaluate_chunk(chunk, cache)


def _evaluate_chunk(points: list, cache: dict | None) -> list[ExactResult | ValueError]:
    """evaluate_exact_batch on one chunk of at most BATCH_SIZE points, as a list."""
    results: list = [None] * len(points)
    rendered = {}  # by point index, for the points that render
    for i, (sys, seq) in enumerate(points):
        try:
            rendered[i] = (sys, render_unit(sys, seq))
        except ValueError as err:
            results[i] = err
    try:
        at, u = list(rendered), _walk(list(rendered.values()), cache)
    except ValueError:  # a failed eigh or an overflowing phase stops the stack: walk each point alone
        walked = {}
        for i, point in rendered.items():
            try:
                (walked[i],) = _walk([point], cache)
            except ValueError as err:
                results[i] = err
        at, u = list(walked), np.array(list(walked.values()))
    if at:
        solved = _solve(u, [points[i][1] for i in at], [rendered[i][1].actual_T for i in at])
        for i, result in zip(at, solved):
            results[i] = result
    return results


def _solve(u: np.ndarray, sequences: list[SequenceParams], t_cycles: list[float],
           with_rate: bool = True) -> list[ExactResult | ValueError]:
    """ExactResult of each stacked cycle propagator u (k, 4, 4), from one stacked
    unitarity check, Bloch map and mode solve (see _modes); sequences and t_cycles are
    the points' own and their cycle durations.  A propagator that is not
    unitary gets a ValueError naming its defect and its sequence's n_p and
    n_r: a block power that overflows reads defect nan."""
    results: list = [
        None if d <= UNITARITY_TOL else  # NaN fails too
        ValueError(f"cycle propagator is not unitary (defect {d:.3e}, n_p={seq.n_p!r}, "
                   f"n_r={seq.n_r!r})")
        for d, seq in zip(unitarity_defect(u).tolist(), sequences)]
    solved = [i for i, r in enumerate(results) if r is None]
    if not solved:
        return results
    if len(solved) < len(u):
        u = u[solved]
    r, q = _bloch_maps(_channels(u[:, :, :2].reshape(-1, 2, 2, 2)))  # Kraus pairs: 1st block column
    mu, vecs, a = _modes(q)
    p_s, lam = _spectral_summary(mu, vecs, a)
    rated = (np.abs(p_s) > 1e-6).nonzero()[0] if with_rate else []
    cycles: list[float | None] = [None] * len(solved)
    if len(rated):
        modes = r, p_s
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
