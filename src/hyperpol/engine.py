"""Exact numerical evolution of the protocol.

Composes segment propagators into the per-cycle 4x4 unitary block by
block along the timeline's nesting, raising each repeated block to its
count by repeated squaring, and extracts the nuclear Kraus pair from its
first block column.  The channel acts on vec(rho) as a 4x4 transfer
matrix: one eigen-decomposition of it gives the steady polarization, the
contraction factor and the series length the rate needs, and exact powers
of it give the polarization series from which the rate is measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import ID2, ID4, SX, SY, SZ, hermitian_expm, kron2
from .params import SequenceParams, SystemParams
from .timeline import FREE_HYPERFINE, FREE_NUCLEAR, PULSE, Repeat, Segment, Timeline, render_unit

UNITARITY_TOL = 1e-10
MAX_RATE_CYCLES = 2 ** 21
SERIES_BLOCK = 1024

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


def polarization(rho: np.ndarray) -> float:
    """<2 I_z> = rho_uu - rho_dd."""
    return float(np.real(rho[0, 0] - rho[1, 1]))


def hyperfine_hamiltonian(sys: SystemParams) -> np.ndarray:
    """omega I_z + S_z (a_perp I_x + a_z I_z) in the 4x4 product space."""
    nuclear = sys.a_perp * IX + sys.a_z * IZ
    return sys.omega * kron2(ID2, IZ) + kron2(SZ, nuclear)


def nuclear_hamiltonian(sys: SystemParams) -> np.ndarray:
    """omega I_z only (hyperfine-free waits)."""
    return sys.omega * kron2(ID2, IZ)


_SPIN_BY_AXIS = {"+x": SX, "-x": -SX, "+y": SY, "-y": -SY}


def segment_propagator(sys: SystemParams, seg: Segment) -> np.ndarray:
    if seg.kind == FREE_HYPERFINE:
        return hermitian_expm(hyperfine_hamiltonian(sys), seg.duration)
    if seg.kind == FREE_NUCLEAR:
        return hermitian_expm(nuclear_hamiltonian(sys), seg.duration)
    if seg.kind == PULSE:
        spin = kron2(_SPIN_BY_AXIS[seg.axis], ID2)
        if seg.duration == 0.0:
            return hermitian_expm(spin, seg.angle)
        # rectangular drive, system Hamiltonian stays on during the pulse
        rabi = seg.angle / seg.duration
        return hermitian_expm(hyperfine_hamiltonian(sys) + rabi * spin, seg.duration)
    raise ValueError(f"unknown segment kind {seg.kind!r}")


def propagate(sys: SystemParams, timeline: Timeline) -> np.ndarray:
    """Cycle propagator: the ordered product of segment propagators.

    Each block of `timeline.structure` is composed once (later parts on the
    left) and raised to its count by repeated squaring; equal segments and
    equal blocks are evaluated once.
    """
    cache: dict[Segment | Repeat, np.ndarray] = {}

    def compose(node: Segment | Repeat) -> np.ndarray:
        u = cache.get(node)
        if u is None:
            if isinstance(node, Repeat):
                u = ID4.copy()
                for part in node.body:
                    u = compose(part) @ u
                u = np.linalg.matrix_power(u, node.count)
            else:
                u = segment_propagator(sys, node)
            cache[node] = u
        return u

    return compose(timeline.structure)


def kraus(u: np.ndarray) -> KrausPair:
    """Kraus pair (<up|U|up>, <down|U|up>) of the electron-reset channel."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    defect = linalg.unitarity_defect(u)
    if not defect <= UNITARITY_TOL:  # NaN fails too
        raise ValueError(f"input is not unitary (defect {defect:.3e})")
    return KrausPair(m_up=u[:2, :2].copy(), m_down=u[2:, :2].copy())


def cycle_kraus(sys: SystemParams, seq: SequenceParams) -> KrausPair:
    return kraus(propagate(sys, render_unit(sys, seq)))


def _superop(k: KrausPair) -> np.ndarray:
    """Channel as a 4x4 matrix on row-major vec(rho)."""
    return np.kron(k.m_up, k.m_up.conj()) + np.kron(k.m_down, k.m_down.conj())


def simulate(k: KrausPair, rho0: np.ndarray, n: int, params: dict | None = None) -> PolarizationSeries:
    """Polarization for cycles 1..n; cycle 1 is the freshly prepared state.

    Block powers of the transfer matrix T: the read-out rows of T^j for
    j < SERIES_BLOCK are built by doubling, and the state then jumps by
    T^SERIES_BLOCK once per block.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    block = min(n, SERIES_BLOCK)
    rows = np.array([[1, 0, 0, -1]], dtype=complex)  # <2 I_z> read-out of vec(rho)
    power = _superop(k)
    while len(rows) < block:
        rows = np.vstack([rows, rows @ power])
        power = power @ power
    rows = rows[:block]
    x = np.asarray(rho0, dtype=complex).reshape(4)
    values = np.empty(n)
    for start in range(0, n, block):
        values[start:start + block] = (rows @ x).real[:n - start]
        x = power @ x
    return PolarizationSeries(values=values, params=params or {})


def _modes(k: KrausPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues mu, eigenvectors and mixed-start coefficients of the transfer matrix.

    vec(rho) after n - 1 cycles is sum_k coeffs[k] mu[k]^(n-1) vecs[:, k].
    """
    mu, vecs = np.linalg.eig(_superop(k))
    return mu, vecs, np.linalg.solve(vecs, mixed_state().reshape(4))


def _spectrum(k: KrausPair) -> tuple[float, float, float]:
    """(P_s, lambda, sum of |w_k| over the moving modes); see steady_state."""
    mu, vecs, coeffs = _modes(k)
    weights = (vecs[0] - vecs[3]) * coeffs
    steady = np.abs(mu - 1.0) <= UNITARITY_TOL
    moving = ~steady & (np.abs(weights) > UNITARITY_TOL)
    lam = float(np.max(np.abs(mu[moving]))) if moving.any() else 1.0
    return float(weights[steady].sum().real), lam, float(np.abs(weights[moving]).sum())


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
    above = np.nonzero(fractions >= E_FRACTION)[0]
    if len(above) == 0:
        raise BelowThresholdError(float(np.max(fractions, initial=-math.inf)))
    i = int(above[0])
    if i == 0:
        n_s = 1.0
    else:
        lo, hi = fractions[i - 1], fractions[i]
        # entries i-1, i hold cycles i, i+1; the 1-based crossing cycle is i + t
        crossing = i + (E_FRACTION - lo) / (hi - lo)
        n_s = max(crossing - 1.0, 1.0)
    return 1.0 / (n_s * t_cycle)


@dataclass(frozen=True)
class ExactResult:
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
                   with_rate: bool = True) -> ExactResult:
    """Steady polarization, contraction factor and rate for one configuration.

    The rate normalization uses the pulse-inclusive cycle duration unless
    use_nominal_duration is set.  gamma is None when the channel does not
    polarize (|P_s| below threshold), when the series does not reach
    1 - 1/e of P_s within MAX_RATE_CYCLES, or when with_rate is off.
    """
    timeline = render_unit(sys, seq)
    pair = kraus(propagate(sys, timeline))
    p_s, lam, spread = _spectrum(pair)
    t_cycle = timeline.nominal_T if use_nominal_duration else timeline.actual_T
    gamma = None
    if with_rate and abs(p_s) > 1e-6:
        # smallest n with spread * lam^(n-1) <= |P_s|/e, which bounds |P(n) - P_s|
        target = abs(p_s) / math.e
        if spread <= target or lam <= 0.0:
            n = 1
        elif lam >= 1.0:
            n = MAX_RATE_CYCLES
        else:
            n = 1 + math.ceil(math.log(target / spread) / math.log(lam))
        series = simulate(pair, mixed_state(), min(max(n, 256), MAX_RATE_CYCLES))
        try:
            gamma = measured_rate(series, p_s, t_cycle)
        except BelowThresholdError:
            pass
    n_s = None if gamma is None else 1.0 / (gamma * t_cycle)
    return ExactResult(p_s=p_s, lambda_est=lam, gamma=gamma, n_s=n_s, t_cycle=t_cycle)
