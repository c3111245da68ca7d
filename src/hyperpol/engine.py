"""Exact numerical evolution of the protocol.

Composes segment propagators into the per-cycle 4x4 unitary block by
block along the timeline's shape, raising each repeated block to its count
by repeated squaring, and extracts the nuclear Kraus pair from its first
block column.  One walk serves a whole stack of timelines: each distinct
(system, leaf segment) is exponentiated once, one exponential per
generator (hyperfine, nuclear, a zero-width pulse's spin or a drive at one
Rabi frequency), and the timelines of one shape compose its blocks as
stacked products over all their points; a block whose leaf segments all
the points share is composed once.  `propagate` is the walk of one
timeline.  The segment
propagators are memoized per (system, segment) in a dict the caller may
pass: sweeps, scans and searches share one across their points, so
neighbouring points that differ in one wait exponentiate only that wait.
The channel acts on vec(rho) as a 4x4 transfer matrix: one
eigen-decomposition of it gives the steady polarization, the contraction
factor and the series length the rate needs.  The rate comes
from the first 1 - 1/e crossing of that series, read out lazily: the first
block of SERIES_BLOCK cycles is evaluated one doubling level of read-out
rows at a time (cycles 1-2, 3-4, 5-8, ...) and the search stops at the
level that holds the crossing.  Only when the first block has none do the
modes bound the series over each later block, and the blocks the bound
cannot rule out are evaluated with exact powers of the transfer matrix.
`simulate` evaluates the whole series through the same read-out.

`evaluate_exact_batch` solves many points at once.  Up to BATCH_SIZE
points are rendered, walked as one stack and checked for unitarity
together; their transfer matrices share one eig and one solve, and their
first blocks are read level by level across the stack, each point leaving
it at the level that holds its crossing.  A point with no crossing in its
first block searches the later blocks alone.  `evaluate_exact` propagates
its point through `propagate` and shares the rest with the batch, with the
same bytes.  Sweeps and every step of the resonant-interval search go
through the batch; only robustness scans still go one point at a time.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import ID2, ID4, SX, SY, SZ, hermitian_expm, kron2, unitarity_defect
from .params import SequenceParams, SystemParams
from .timeline import FREE_HYPERFINE, FREE_NUCLEAR, PULSE, Segment, Timeline, render_unit

UNITARITY_TOL = 1e-10
MAX_RATE_CYCLES = 2 ** 21
SERIES_BLOCK = 1024
MEMO_LIMIT = 256
BATCH_SIZE = 64  # points per stacked mode solve and first-block read-out

IZ = SZ
IX = SX

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

    def to_csv(self, path) -> None:
        import json

        with open(path, "w") as fh:
            fh.write("# " + json.dumps(self.params, sort_keys=True) + "\n")
            fh.write("cycle,polarization\n")
            for i, v in enumerate(self.values, start=1):
                fh.write(f"{i},{v:.17g}\n")


def mixed_state() -> np.ndarray:
    return ID2 / 2


_MIXED = mixed_state().reshape(4)  # vec(rho) of the mixed start


def hyperfine_hamiltonian(sys: SystemParams) -> np.ndarray:
    """omega I_z + S_z (a_perp I_x + a_z I_z) in the 4x4 product space."""
    nuclear = sys.a_perp * IX + sys.a_z * IZ
    return sys.omega * kron2(ID2, IZ) + kron2(SZ, nuclear)


def nuclear_hamiltonian(sys: SystemParams) -> np.ndarray:
    """omega I_z only (hyperfine-free waits)."""
    return sys.omega * kron2(ID2, IZ)


_SPIN_BY_AXIS = {"+x": SX, "-x": -SX, "+y": SY, "-y": -SY}


def _generator(sys: SystemParams, seg: Segment) -> tuple:
    """What the segment's Hamiltonian depends on: segments with equal keys share one."""
    if seg.kind == PULSE:
        if seg.duration == 0.0:
            return PULSE, seg.axis
        return PULSE, seg.axis, sys, seg.angle / seg.duration
    return seg.kind, sys


def segment_propagator(sys: SystemParams, segments: Sequence[Segment]) -> np.ndarray:
    """Propagators (k, 4, 4) of k segments that share one generator (see _generator).

    One hermitian_expm call exponentiates the generator over all their
    durations; a zero-width pulse turns its spin by its angle instead.
    Raises ValueError naming the system and the duration when an eigenvalue
    times a duration overflows.
    """
    seg = segments[0]
    if seg.kind == FREE_HYPERFINE:
        h = hyperfine_hamiltonian(sys)
    elif seg.kind == FREE_NUCLEAR:
        h = nuclear_hamiltonian(sys)
    elif seg.kind == PULSE:
        h = kron2(_SPIN_BY_AXIS[seg.axis], ID2)
        if seg.duration == 0.0:
            return hermitian_expm(h, [s.angle for s in segments])
        # rectangular drive, system Hamiltonian stays on during the pulse
        h = hyperfine_hamiltonian(sys) + seg.angle / seg.duration * h
    else:
        raise ValueError(f"unknown segment kind {seg.kind!r}")
    durations = [s.duration for s in segments]
    u = hermitian_expm(h, durations)
    finite = np.isfinite(u).all(axis=(1, 2))
    if not finite.all():  # exp(-i inf) is NaN: an eigenvalue times the duration overflowed
        raise ValueError(f"segment phase H*t overflows (omega={sys.omega!r}, "
                         f"a_perp={sys.a_perp!r}, a_z={sys.a_z!r}, "
                         f"t={durations[int(finite.argmin())]!r})")
    return u


def propagate(sys: SystemParams, timeline: Timeline,
              cache: dict | None = None) -> np.ndarray:
    """Cycle propagator: the ordered product of segment propagators.

    Each block of the timeline's shape is composed once (later parts on the
    left) and raised to its count by repeated squaring.  The leaf segments'
    propagators are kept in `cache`, keyed by (sys, segment), so a caller
    that passes one dict to every point of a sweep exponentiates each
    distinct segment once for the whole sweep; without one, the memo lasts
    for this call.  The dict is cleared whenever it would grow past
    MEMO_LIMIT entries, and the cached arrays are read-only.  Blocks are not
    stored.  This is _walk on a stack of one.
    """
    return _walk([(sys, timeline)], cache)[0]


def _walk(points: list[tuple[SystemParams, Timeline]], cache: dict | None) -> np.ndarray:
    """Cycle propagators (k, 4, 4) of k (system, timeline) pairs, walked as one stack.

    Every distinct (system, leaf segment) of the stack is read from `cache`
    or, once, exponentiated: one segment_propagator call per generator
    covers all its missing segments, and they join the memo as in
    propagate.  The points are then grouped by shape, and each group
    composes its shape's blocks from the stacked leaf propagators (see
    _compose).  Each matrix has the bytes of its own 4x4 products.
    """
    if cache is None:
        cache = {}
    systems: dict = {}  # sys -> {segment: its row in the stack's leaf table}
    keys: list = []  # (sys, segment) of each row
    groups = defaultdict(list)  # shape -> (point, leaf rows) of its points
    for i, (sys, timeline) in enumerate(points):
        seen = systems.setdefault(sys, {})
        for seg in timeline.leaves:
            if seg not in seen:
                seen[seg] = len(keys)
                keys.append((sys, seg))
        groups[timeline.shape].append((i, [seen[seg] for seg in timeline.leaves]))
    known = [cache.get(key) for key in keys]
    missing = defaultdict(list)  # generator -> rows of its segments that are not in the memo
    for row, u in enumerate(known):
        if u is None:
            missing[_generator(*keys[row])].append(row)
    for misses in missing.values():
        segments = [keys[row][1] for row in misses]
        for row, u in zip(misses, segment_propagator(keys[misses[0]][0], segments)):
            u.flags.writeable = False
            known[row] = u
            if len(cache) >= MEMO_LIMIT:
                cache.clear()
            cache[keys[row]] = u
    table = np.array(known).reshape(-1, 4, 4)
    out = np.empty((len(points), 4, 4), dtype=complex)
    for shape, members in groups.items():
        at, rows = zip(*members)
        rows = np.array(rows, dtype=np.intp)
        out[list(at)] = _compose([shape], rows, table[rows.T])[0]
    return out


def _compose(blocks: list[tuple], rows: np.ndarray, leaves: np.ndarray) -> list[np.ndarray]:
    """The propagators of blocks of one shape that have as many parts and the same count.

    leaves (n, k, 4, 4) holds the propagators of the shape's n leaf segments
    for a stack of k points, and rows (k, n) their rows in the stack's leaf
    table: equal rows, equal segments.  A block gets (k, 4, 4), or (1, 4, 4)
    when its leaf rows are the same for every point: it is composed once.
    The blocks' distinct sub-blocks are composed first, those of one form as
    one stack; then the blocks' parts multiply as one stack, in product
    order (later parts on the left, the first onto ID4), and one
    matrix_power raises the product to the count.  An empty block is the
    identity.
    """
    if not blocks[0][0]:
        return [ID4[None]] * len(blocks)
    forms = defaultdict(dict)  # (parts, count) -> the distinct sub-blocks of that form
    for block in blocks:
        for part in block[0]:
            if not isinstance(part, int):
                forms[len(part[0]), part[1]][part] = None
    done = {}
    for subs in forms.values():
        done.update(zip(subs, _compose(list(subs), rows, leaves)))
    sizes = [1 if len(rows) > 1 and _same_leaves(block, rows) else len(rows) for block in blocks]
    u = ID4
    for column in zip(*(parts for parts, _ in blocks)):
        factors = [leaves[part, :k] if isinstance(part, int) else done[part]
                   for part, k in zip(column, sizes)]
        if len(factors) > 1:  # one stack: a (1, 4, 4) part of a block of k points is repeated
            factors = [np.concatenate([v if len(v) == k else v.repeat(k, axis=0)
                                       for v, k in zip(factors, sizes)])]
        u = factors[0] @ u  # a (1, 4, 4) factor of a lone block broadcasts
    w = np.linalg.matrix_power(u, blocks[0][1])
    return [w[a:a + k] for a, k in zip(itertools.accumulate(sizes, initial=0), sizes)]


def _same_leaves(block: tuple, rows: np.ndarray) -> bool:
    """Whether every point of the stack has the same leaf rows in `block`."""
    used = sorted(set(_leaf_indices(block)))
    return bool((rows[1:, used] == rows[0, used]).all())


def _leaf_indices(block: tuple) -> list[int]:
    """The leaf indices a shape's block holds, at any depth."""
    return [i for part in block[0]
            for i in ((part,) if isinstance(part, int) else _leaf_indices(part))]


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


_READOUT = np.array([[1, 0, 0, -1]], dtype=complex)  # <2 I_z> read-out of vec(rho)


def _level(rows: np.ndarray, power: np.ndarray, x: np.ndarray, start: int):
    """One doubling level of the first block's read-out, for a stack of points.

    rows (k, m, 4) are the read-out rows r T^j, j < m, of each point's
    transfer matrix T and power (k, 4, 4) is T^m; the first level starts from
    the single row r and T.  Returns the rows for j < 2m, T^(2m) and P from
    state x at the cycles from start + 1 to 2m, where start is the count
    already read: 0 on the first level, which reads cycles 1-2, m after it.
    A level holds the same rows whatever the series length, so a consumer
    that stops early pays for no later level.  Every level has at least two
    rows: numpy multiplies a single row by its dot kernel, which rounds
    differently from the matrix-vector kernel of longer products.
    """
    rows = np.concatenate([rows, rows @ power], axis=1)
    return rows, power @ power, (rows[:, start:] @ x).real


def _read(rows: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """Re(rows @ x) cut at m entries, in products of at most SERIES_BLOCK/2 rows.

    One 1024x4 product goes through BLAS's multithreaded matrix-vector
    kernel, which took milliseconds with two threads against microseconds
    with one; a 512x4 product runs on one thread either way.
    """
    half = SERIES_BLOCK // 2
    chunks = [rows[a:a + half] @ x for a in range(0, min(m, len(rows)), half)]
    return np.concatenate(chunks).real[:m]


def simulate(k: KrausPair, rho0: np.ndarray, n: int, params: dict | None = None) -> PolarizationSeries:
    """Polarization for cycles 1..n; cycle 1 is the freshly prepared state.

    Block powers of the transfer matrix T: the first block of SERIES_BLOCK
    cycles is read level by level through _level, as a stack of one, while
    its read-out rows r T^j are built by doubling, and the state then jumps
    by T^SERIES_BLOCK once per later block, which _read reads with the same
    rows.  A shorter series is a prefix of a longer one, byte for byte, and
    _rate_cycles reads its first block through the same _level.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.asarray(rho0, dtype=complex).reshape(4)
    values = np.empty(n)
    rows, power, start = _READOUT[None], _superop(k)[None], 0
    while start < min(n, SERIES_BLOCK):
        rows, power, level = _level(rows, power, x, start)
        values[start:rows.shape[1]] = level[0, :n - start]
        start = rows.shape[1]
    rows, power = rows[0], power[0]
    for start in range(SERIES_BLOCK, n, SERIES_BLOCK):
        x = power @ x
        values[start:start + SERIES_BLOCK] = _read(rows, x, n - start)
    return PolarizationSeries(values=values, params=params or {})


def _modes(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues mu, eigenvectors and mixed-start coefficients of stacked transfer matrices.

    t is (k, 4, 4); vec(rho) of point i after n - 1 cycles is
    sum_m coeffs[i, m] mu[i, m]^(n-1) vecs[i, :, m].  One eig and one solve
    serve the whole stack; the right-hand side is a 4x1 matrix that solve
    broadcasts over it.
    """
    mu, vecs = np.linalg.eig(t)
    return mu, vecs, np.linalg.solve(vecs, _MIXED[:, None])[..., 0]


def _weighted_modes(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues mu and weights w, both (k, 4): P(n) = Re sum w mu^(n-1) from the mixed start."""
    mu, vecs, coeffs = _modes(t)
    return mu, (vecs[:, 0] - vecs[:, 3]) * coeffs


def _spectrum(k: KrausPair) -> tuple[float, float, float]:
    """(P_s, lambda, sum of |w_k| over the moving modes) of one channel; see steady_state."""
    mu, weights = _weighted_modes(_superop(k)[None])
    return tuple(column[0] for column in _spectral_summary(mu, weights))


def _spectral_summary(mu: np.ndarray, weights: np.ndarray) -> tuple[list, list, list]:
    """_spectrum of each stacked point from its weighted modes (k, 4): lists of floats.

    P_s and the spread keep the bytes of the per-point sums
    weights[steady].sum().real and np.abs(weights[moving]).sum().  numpy
    adds fewer than eight floats in order from +0, and a running sum from +0
    is never -0, so adding +0 in place of the entries left out changes
    nothing.  Four complex entries it adds as (w0 + w1) + (w2 + w3).
    """
    steady = np.abs(mu - 1.0) <= UNITARITY_TOL
    size = np.abs(weights)
    moving = ~steady & (size > UNITARITY_TOL)
    lam = np.where(moving, np.abs(mu), -np.inf).max(axis=1)
    lam = np.where(moving.any(axis=1), lam, 1.0)
    w = np.where(steady, weights.real, 0.0)
    p_s = w.sum(axis=1)
    full = steady.all(axis=1)
    if full.any():
        p_s[full] = 0.0 + ((w[full, 0] + w[full, 1]) + (w[full, 2] + w[full, 3]))
    spread = np.where(moving, size, 0.0).sum(axis=1)
    return p_s.tolist(), lam.tolist(), spread.tolist()


def steady_state(k: KrausPair) -> tuple[float, float]:
    """Steady polarization and contraction factor of the channel: (P_s, lambda).

    From the mixed start, P(n) = Re sum_k w_k mu_k^(n-1) over the eigenvalues
    mu_k of the transfer matrix.  P_s is the weight on the mu = 1 eigenspace
    (|mu - 1| <= UNITARITY_TOL).  lambda is the largest |mu_k| among the other
    modes whose weight exceeds UNITARITY_TOL, the factor by which P_s - P(n)
    shrinks per cycle for large n; it is 1.0 when no mode moves.
    """
    p_s, lam, _ = _spectrum(k)
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


def _first_crossing(fractions: np.ndarray, start: int = 0, lo: float | None = None) -> float | None:
    """N_s if the fraction series P/P_s first reaches 1 - 1/e in this chunk, else None.

    fractions are the series' entries start, start + 1, ... (0-based; entry i
    is cycle i + 1), and lo is entry start - 1 (unused when start is 0).
    """
    above = np.nonzero(fractions >= E_FRACTION)[0]
    if len(above) == 0:
        return None
    i = int(above[0])
    if start + i == 0:
        return 1.0
    lo = fractions[i - 1] if i else lo
    # entries i-1, i hold cycles i, i+1; the 1-based crossing cycle is i + t
    crossing = float(start + i + (E_FRACTION - lo) / (fractions[i] - lo))
    return max(crossing - 1.0, 1.0)


def _series_length(p_s: float, lam: float, spread: float) -> int:
    """Cycles of the rate series: the smallest n with spread * lam^(n-1) <= |P_s|/e,
    which bounds |P(n) - P_s|, clamped to [256, MAX_RATE_CYCLES]."""
    target = abs(p_s) / math.e
    if spread <= target or lam <= 0.0:
        n = 1
    elif lam >= 1.0:
        n = MAX_RATE_CYCLES
    else:
        n = 1 + math.ceil(math.log(target / spread) / math.log(lam))
    return min(max(n, 256), MAX_RATE_CYCLES)


def _rate_cycles(t: np.ndarray, mu: np.ndarray, weights: np.ndarray, p_s: np.ndarray,
                 n: np.ndarray) -> list[float | None]:
    """Per stacked point, the N_s at which simulate(k, mixed_state(), n) first crosses, or None.

    In the first block that is the value measured_rate reads from the
    series, byte for byte.  Past it, _later_blocks finds the same crossing
    from states reached by matrix_power jumps, where simulate steps block
    by block, so the values agree to rounding, not to the byte: at the
    README base, 1/N_s differs by 8.6e-15 (t_s = 0.1 pi), 4.5e-14 (0.35 pi)
    and 4.8e-15 (1.85 pi) relative.

    t (k, 4, 4) holds the points' transfer matrices, mu and weights their
    modes, p_s and n their steady polarizations and series lengths.  The
    first block of SERIES_BLOCK cycles is read level by level through
    simulate's own _level, across the stack, and a point leaves the stack at
    the first level that holds its crossing or that reaches the end of its
    series.  Only a point whose series is longer than one block and has no
    crossing in it goes on, alone, to _later_blocks, which starts from the
    rows and power the stack built.
    """
    found: list[float | None] = [None] * len(t)
    active, p_col, lo = np.arange(len(t)), p_s[:, None], p_s  # lo is unread at start 0
    rows, power, start = _READOUT[None].repeat(len(t), axis=0), t, 0
    shortest = n.min()
    while True:
        rows, power, values = _level(rows, power, _MIXED, start)
        fractions = values / p_col
        above = fractions >= E_FRACTION
        end = rows.shape[1]
        if end > shortest:  # entry i of the level is cycle start + i + 1: past a series of n < end
            above &= np.arange(start, end) < n[:, None]
        hit = above.any(axis=1)
        for j in hit.nonzero()[0]:
            found[active[j]] = _first_crossing(fractions[j], start, lo[j])
        start = end
        going = ~hit & (n > start)
        if start == SERIES_BLOCK:
            for j in going.nonzero()[0]:
                found[active[j]] = _later_blocks(mu[active[j]], weights[active[j]], p_s[j],
                                                 int(n[j]), rows[j], power[j])
            return found
        left = going.nonzero()[0]
        if len(left) == 0:
            return found
        if len(left) < len(going):
            rows, power, active, p_col, p_s, n, fractions = (
                a[left] for a in (rows, power, active, p_col, p_s, n, fractions))
        lo = fractions[:, -1]


def _later_blocks(mu: np.ndarray, weights: np.ndarray, p_s: float, n: int,
                  rows: np.ndarray, power: np.ndarray) -> float | None:
    """N_s of one point whose first block holds no crossing, from the blocks after it.

    rows are the first block's read-out rows r T^j and power is
    T^SERIES_BLOCK.  In cycles 1 + m, m = a..b, of a later block, the term
    Re(w_k mu_k^m)/P_s of the fraction P/P_s is at most
    r_k = |w_k/P_s| max(|mu_k|^a, |mu_k|^b); and, because its phase turns by
    |arg mu_k| per cycle, at most the larger of its two block-end values plus
    2 (b - a) |arg mu_k| r_k, which makes the real positive modes monotone.
    Blocks whose summed bound stays below 1 - 1/e by more than the mode sum's
    rounding (eigenvalues off by up to UNITARITY_TOL, raised to the n-th
    power) cannot hold the crossing.  The others are read like simulate's
    later blocks, each reached from the last by a matrix_power jump.
    """
    first = np.arange(SERIES_BLOCK, n, SERIES_BLOCK)
    last = np.minimum(first + SERIES_BLOCK, n) - 1
    terms = weights / p_s
    m = np.stack([first, last])[:, :, None]  # (block end, block, mode)
    moduli = np.abs(terms) * np.abs(mu) ** m
    reach = moduli.max(axis=0)
    ends = (moduli * np.cos(np.angle(terms) + m * np.angle(mu))).max(axis=0)
    turn = 2 * (SERIES_BLOCK - 1) * np.abs(np.angle(mu)) * reach
    bound = np.minimum(reach, ends + turn).sum(axis=1)
    slack = n * UNITARITY_TOL * float(np.abs(terms).sum())
    x, at = _MIXED, 0  # x is the state at the start of block `at`
    for b in np.nonzero(bound >= E_FRACTION - slack)[0] + 1:
        before = np.linalg.matrix_power(power, b - 1 - at) @ x
        lo = (rows[-1] @ before).real / p_s
        x, at = power @ before, b
        start = int(b) * SERIES_BLOCK
        n_s = _first_crossing(_read(rows, x, n - start) / p_s, start, lo)
        if n_s is not None:
            return n_s
    return None


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
    crossing of simulate's series of _series_length cycles, found by
    _rate_cycles from the first block and the blocks whose mode bound
    reaches 1 - 1/e; the rest of the series is never evaluated.  In the
    first block gamma is what measured_rate reads from that series; past
    it the two agree to rounding only (see _rate_cycles).  gamma is None
    when the channel does not polarize (|P_s| below threshold), when the
    series does not reach 1 - 1/e of P_s within MAX_RATE_CYCLES, or when
    with_rate is off.
    `cache` is handed to `propagate`: one dict shared by the points of a
    sweep lets them reuse each other's segment and block propagators.
    After propagate, this is the tail of evaluate_exact_batch on a stack of
    one, with the same bytes; its ValueError is raised.
    """
    timeline = render_unit(sys, seq)
    u = propagate(sys, timeline, cache)
    t_cycle = timeline.nominal_T if use_nominal_duration else timeline.actual_T
    (result,) = _solve(u[None], [t_cycle], with_rate)
    if isinstance(result, ValueError):
        raise result
    return result


def evaluate_exact_batch(points: Iterable[tuple[SystemParams, SequenceParams]],
                         cache: dict | None = None) -> Iterator[ExactResult | ValueError]:
    """evaluate_exact (with its defaults) for each (system, sequence) pair of
    `points`, yielded in order.

    A point whose evaluation raises ValueError (a sequence that cannot be
    rendered, a generator whose eigh fails, a segment whose phase overflows,
    a propagator that is not unitary) yields that error in its place; the
    other points are unaffected: when the stacked walk raises, each point is
    walked alone.
    `points` is read BATCH_SIZE at a time, so memory does not grow with
    their number.
    A chunk's points are rendered one by one into their shapes and leaf
    segments, then walked as one stack through the shared `cache` (see
    _walk): the points of one shape compose its blocks together.  The
    stacked propagators share one unitarity check, one stacked eig and
    solve for their modes, and _rate_cycles' read-out of their first
    blocks.  The results are those of evaluate_exact, byte for byte.
    """
    points = iter(points)
    while chunk := list(itertools.islice(points, BATCH_SIZE)):
        yield from _evaluate_chunk(chunk, cache)


def _evaluate_chunk(points: list, cache: dict | None) -> list[ExactResult | ValueError]:
    """evaluate_exact_batch on one chunk of at most BATCH_SIZE points, as a list."""
    results: list = [None] * len(points)
    rendered, t_cycles = {}, {}  # by point index, for the points that render
    for i, (sys, seq) in enumerate(points):
        try:
            timeline = render_unit(sys, seq)
        except ValueError as err:
            results[i] = err
            continue
        rendered[i] = (sys, timeline)
        t_cycles[i] = timeline.actual_T
    try:
        u = dict(zip(rendered, _walk(list(rendered.values()), cache)))
    except ValueError:  # a failed eigh or an overflowing phase stops the stack: walk each point alone
        u = {}
        for i, point in rendered.items():
            try:
                (u[i],) = _walk([point], cache)
            except ValueError as err:
                results[i] = err
    if u:
        solved = _solve(np.array(list(u.values())), [t_cycles[i] for i in u])
        for i, result in zip(u, solved):
            results[i] = result
    return results


def _solve(u: np.ndarray, t_cycles: list[float],
           with_rate: bool = True) -> list[ExactResult | ValueError]:
    """ExactResult of each stacked cycle propagator u (k, 4, 4), or the ValueError
    kraus raises on it, from one stacked unitarity check, transfer matrix and
    mode solve; t_cycles are the points' cycle durations."""
    defects = unitarity_defect(u)
    results: list = [None if d <= UNITARITY_TOL else  # NaN fails too
                     ValueError(f"input is not unitary (defect {d:.3e})") for d in defects]
    solved = [i for i, r in enumerate(results) if r is None]
    if not solved:
        return results
    if len(solved) < len(u):
        u = u[solved]
    t = _channels(u[:, :, :2].reshape(-1, 2, 2, 2))  # first block column: the Kraus pairs
    mu, weights = _weighted_modes(t)
    p_s, lam, spread = _spectral_summary(mu, weights)
    rated = [j for j, p in enumerate(p_s) if with_rate and abs(p) > 1e-6]
    cycles: list[float | None] = [None] * len(solved)
    if rated:
        if len(rated) < len(solved):
            t, mu, weights = t[rated], mu[rated], weights[rated]
        n = np.array([_series_length(p_s[j], lam[j], spread[j]) for j in rated])
        found = _rate_cycles(t, mu, weights, np.array([p_s[j] for j in rated]), n)
        for j, c in zip(rated, found):
            cycles[j] = c
    for j, i in enumerate(solved):
        t_cycle = t_cycles[i]
        gamma = None if cycles[j] is None else 1.0 / (cycles[j] * t_cycle)
        n_s = None if gamma is None else 1.0 / (gamma * t_cycle)
        results[i] = ExactResult(p_s=p_s[j], lambda_est=lam[j], gamma=gamma, n_s=n_s,
                                 t_cycle=t_cycle)
    return results
