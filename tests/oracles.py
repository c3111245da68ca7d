"""Independent numerical oracles used by the test suite.

The Trotter oracle rebuilds segment propagators from symmetric (Strang)
splitting with closed-form Pauli-rotation factors only, so it shares no
code path with the spectral exponentials under test.  The series oracle
steps vec(rho) through the channel's complex 4x4 transfer matrix one cycle
at a time, where the engine reads the series through block powers of its
real Bloch map; the transfer-matrix oracle takes the steady polarization
and the contraction factor from one complex eig of that 4x4 matrix, where
the engine solves the real 3x3 affine Bloch map, and the fixed-point
oracle solves that affine map once more in exact rationals from its float
entries, so that what remains of the engine's error is its own rounding,
not a second solve's.  The DD integral
oracle integrates the pulse-shape function by adaptive quadrature (scipy,
a test-only dependency) to check the closed-form filter F.  The sweep
oracles are the plain forms of two per-point steps of a sweep: the CSV
rows through the csv module, and grid points through dataclasses.replace.
The closed-form and validity oracles are the plain forms of the two
per-point checks that the package writes out for speed: the analytic
summary as a composition of the public closed forms, and the sequence
rules checked one by one, every time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from hyperpol.analytic import (AnalyticSummary, dirichlet_ratio, filter_f, gamma_analytic,
                               lambda_analytic, phases, stable_polarization)
from hyperpol.params import SequenceParams, SystemParams, whole_number
from hyperpol.sweep import SEQUENCE_FLOAT_FIELDS, SEQUENCE_INT_FIELDS, SYSTEM_FIELDS
from hyperpol.timeline import FREE_HYPERFINE, FREE_NUCLEAR, PULSE, Segment, Timeline

ID2 = np.eye(2, dtype=complex)


def operator_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max entry magnitude of A - B (used for oracle comparisons)."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------------------
# DD pulse-shape function and filter integrals
# ---------------------------------------------------------------------------

def f_dd(t: float, n_p: int, tau: float) -> int:
    """Pulse-shape sign (+1/-1) of an n_p-pulse DD block at time t.

    +1 on [0, tau/2), (-1)^k on [(2k-1) tau/2, (2k+1) tau/2) and
    (-1)^n_p on the trailing half interval.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if t < 0 or t > n_p * tau:
        raise ValueError(f"t={t} outside [0, {n_p * tau}]")
    k = min(math.floor(t / tau + 0.5), n_p)
    return -1 if k % 2 else 1


def _piece_edges(n_p: int, tau: float) -> np.ndarray:
    inner = [(2 * k - 1) * tau / 2 for k in range(1, n_p + 1)]
    return np.array([0.0, *inner, n_p * tau])


def dd_integral_oracle(omega: float, n_p: int, tau: float,
                       method: str = "quad") -> tuple[float, float]:
    """Integrals of f_DD(t) cos(omega t) and f_DD(t) sin(omega t) over the block.

    method="quad" sums adaptive quadrature over the constant-sign pieces
    (the independent oracle); method="closed" evaluates the closed forms
    built from the filter function.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if tau == 0:
        return 0.0, 0.0
    if method == "closed":
        f = filter_f(omega, n_p, tau)
        x = n_p * omega * tau / 2
        if n_p % 2:
            return f * math.sin(x), -f * math.cos(x)
        return f * math.cos(x), f * math.sin(x)
    if method != "quad":
        raise ValueError(f"unknown method {method!r}")

    edges = _piece_edges(n_p, tau)
    cos_int = 0.0
    sin_int = 0.0
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        sign = -1 if min(k, n_p) % 2 else 1
        c, _ = quad(lambda t: math.cos(omega * t), a, b, limit=200)
        s, _ = quad(lambda t: math.sin(omega * t), a, b, limit=200)
        cos_int += sign * c
        sin_int += sign * s
    return cos_int, sin_int


# ---------------------------------------------------------------------------
# Strang-splitting propagators
# ---------------------------------------------------------------------------

_AXIS_VECTORS = {
    "+x": (1.0, 0.0, 0.0),
    "-x": (-1.0, 0.0, 0.0),
    "+y": (0.0, 1.0, 0.0),
    "-y": (0.0, -1.0, 0.0),
}


def pauli_rotation(vec, t: float) -> np.ndarray:
    """exp(-i t (vx sx + vy sy + vz sz)) with s = sigma/2, closed form."""
    vx, vy, vz = vec
    norm = math.sqrt(vx * vx + vy * vy + vz * vz)
    if norm == 0.0 or t == 0.0:
        return ID2.copy()
    phi = norm * t / 2.0
    nx, ny, nz = vx / norm, vy / norm, vz / norm
    c, s = math.cos(phi), math.sin(phi)
    return np.array(
        [[c - 1j * s * nz, -s * (ny + 1j * nx)],
         [s * (ny - 1j * nx), c + 1j * s * nz]], dtype=complex)


def _coupling_half(sys: SystemParams, t: float) -> np.ndarray:
    """exp(-i t S_z (a_perp I_x + a_z I_z)) as two opposite nuclear rotations."""
    upper = pauli_rotation((sys.a_perp / 2, 0.0, sys.a_z / 2), t)
    lower = pauli_rotation((-sys.a_perp / 2, 0.0, -sys.a_z / 2), t)
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = upper
    out[2:, 2:] = lower
    return out


def _drift(sys: SystemParams, seg: Segment, t: float) -> np.ndarray:
    """Commuting one-body factors: nuclear Zeeman, plus the drive for pulses."""
    u = np.kron(ID2, pauli_rotation((0.0, 0.0, sys.omega), t))
    if seg.kind == PULSE and seg.duration > 0.0:
        rabi = seg.angle / seg.duration
        vx, vy, vz = _AXIS_VECTORS[seg.axis]
        u = np.kron(pauli_rotation((rabi * vx, rabi * vy, rabi * vz), t), ID2) @ u
    return u


def trotter_segment(sys: SystemParams, seg: Segment, dt_max: float = 1e-3) -> np.ndarray:
    """Strang-splitting propagator of one segment."""
    if seg.kind == PULSE and seg.duration == 0.0:
        vx, vy, vz = _AXIS_VECTORS[seg.axis]
        return np.kron(pauli_rotation((vx, vy, vz), seg.angle), ID2)
    if seg.duration == 0.0:
        return np.eye(4, dtype=complex)
    if seg.kind == FREE_NUCLEAR:
        return np.kron(ID2, pauli_rotation((0.0, 0.0, sys.omega), seg.duration))
    if seg.kind not in (FREE_HYPERFINE, PULSE):
        raise ValueError(f"unknown segment kind {seg.kind!r}")
    n = max(1, math.ceil(seg.duration / dt_max))
    dt = seg.duration / n
    half = _drift(sys, seg, dt / 2)
    step = half @ _coupling_half(sys, dt) @ half
    return np.linalg.matrix_power(step, n)


def trotter_propagate(sys: SystemParams, timeline: Timeline, dt_max: float = 1e-3) -> np.ndarray:
    u = np.eye(4, dtype=complex)
    cache: dict[Segment, np.ndarray] = {}
    for seg in timeline.segments:
        prop = cache.get(seg)
        if prop is None:
            prop = trotter_segment(sys, seg, dt_max)
            cache[seg] = prop
        u = prop @ u
    return u


def random_params(rng: np.random.Generator, finite_ok: bool = True) -> tuple[SystemParams, SequenceParams]:
    """Moderate random draw of a full configuration."""
    sys_p = SystemParams(
        omega=float(rng.uniform(0.5, 2.0)),
        a_perp=float(rng.uniform(0.0, 0.2)),
        a_z=float(rng.uniform(-0.2, 0.2)),
    )
    n_p = int(rng.integers(1, 4))
    tau = float(rng.uniform(0.5, 2.0)) * math.pi
    if finite_ok and rng.random() < 0.5:
        tau_pi = float(rng.uniform(0.05, 0.25)) * math.pi
    else:
        tau_pi = 0.0
    seq_p = SequenceParams(
        n_p=n_p,
        tau=tau,
        t_s=float(rng.uniform(0.0, 2.0)) * math.pi,
        t_w=float(rng.uniform(0.0, 2.0)) * math.pi,
        t_c=float(rng.uniform(0.0, 2.0)) * math.pi,
        n_r=int(rng.integers(1, 3)),
        tau_pi=tau_pi,
    )
    return sys_p, seq_p


# ---------------------------------------------------------------------------
# Polarization series, one cycle at a time
# ---------------------------------------------------------------------------

def stepped_series(m_up: np.ndarray, m_down: np.ndarray, rho0: np.ndarray, n: int) -> np.ndarray:
    """<2 I_z> at cycles 1..n of the channel rho -> sum M rho M^dagger over the Kraus pair.

    Row-major vec(rho) is stepped by the complex transfer matrix
    kron(M, conj M) summed over the pair, one cycle at a time; cycle 1 is rho0.
    """
    t = np.kron(m_up, m_up.conj()) + np.kron(m_down, m_down.conj())
    x = np.asarray(rho0, dtype=complex).reshape(4)
    values = np.empty(n)
    for i in range(n):
        values[i] = (x[0] - x[3]).real
        x = t @ x
    return values


# ---------------------------------------------------------------------------
# Steady state from the modes of the complex transfer matrix
# ---------------------------------------------------------------------------

STEADY_TOL = 1e-10  # a mode this close to 1 is steady
MIXED_VEC = (ID2 / 2).reshape(4)  # row-major vec(rho) of the mixed start


def transfer_modes(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues mu, eigenvectors and mixed-start coefficients of stacked transfer matrices.

    t is (k, 4, 4), each acting on row-major vec(rho); vec(rho) of point i after
    n - 1 cycles is sum_m coeffs[i, m] mu[i, m]^(n-1) vecs[i, :, m].
    """
    mu, vecs = np.linalg.eig(t)
    return mu, vecs, np.linalg.solve(vecs, MIXED_VEC[None, :, None])[..., 0]


def transfer_weights(vecs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Weights w (k, 4) of transfer_modes' modes: from the mixed start P(n) = Re sum w mu^(n-1)."""
    return (vecs[:, 0] - vecs[:, 3]) * coeffs


def transfer_summary(mu: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_s, lambda) of each stacked point from its weighted modes (k, m): two (k,) arrays.

    P_s is the weight on the modes within STEADY_TOL of 1; lambda is the
    largest |mu| among the other modes whose weight exceeds STEADY_TOL, and
    1.0 when no mode moves.
    """
    steady = np.abs(mu - 1.0) <= STEADY_TOL
    moving = ~steady & (np.abs(weights) > STEADY_TOL)
    lam = np.array([float(np.max(np.abs(m[s]))) if s.any() else 1.0 for m, s in zip(mu, moving)])
    return np.array([float(w[s].sum().real) for w, s in zip(weights, steady)]), lam


def exact_fixed_z(q: np.ndarray) -> float:
    """z of the fixed point (I - M)^-1 c of the affine Bloch map in the Pauli form q (4, 4),
    M = q[1:, 1:] and c = q[1:, 0] (see engine._bloch_maps), solved by Gaussian
    elimination in exact rationals from q's float entries and rounded once."""
    rows = [[Fraction(int(i == j)) - Fraction(q[1 + i, 1 + j]) for j in range(3)]
            + [Fraction(q[1 + i, 0])] for i in range(3)]
    for k in range(3):
        pivot = next(i for i in range(k, 3) if rows[i][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, 3):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    x = [Fraction(0)] * 3
    for i in (2, 1, 0):
        x[i] = (rows[i][3] - sum(rows[i][j] * x[j] for j in range(i + 1, 3))) / rows[i][i]
    return float(x[2])


# ---------------------------------------------------------------------------
# Sweep rows and points
# ---------------------------------------------------------------------------

def _csv_text(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def csv_rows(fh, rows) -> None:
    """The rows of a ResultTable, each field formatted and then written by csv.writer."""
    csv.writer(fh, lineterminator="\n").writerows([_csv_text(v) for v in row] for row in rows)


def apply_point_replace(sys: SystemParams, seq: SequenceParams,
                        names: tuple[str, ...], values: tuple[float, ...]):
    """sweep.apply_point through dataclasses.replace followed by SequenceParams.violations."""
    sys_kwargs = {}
    seq_kwargs = {}
    for name, value in zip(names, values):
        if name in SYSTEM_FIELDS:
            sys_kwargs[name] = float(value)
        elif name in SEQUENCE_FLOAT_FIELDS:
            seq_kwargs[name] = float(value)
        elif name in SEQUENCE_INT_FIELDS:
            seq_kwargs[name] = whole_number(name, value)
    if sys_kwargs:
        sys = replace(sys, **sys_kwargs)
    if seq_kwargs:
        seq = replace(seq, **seq_kwargs)
    problems = seq.violations()
    if problems:
        raise ValueError("invalid sequence: " + "; ".join(problems))
    return sys, seq


# ---------------------------------------------------------------------------
# Closed-form summary and sequence rules
# ---------------------------------------------------------------------------

def summarize_composed(sys: SystemParams, seq: SequenceParams) -> AnalyticSummary:
    """analytic.summarize as the composition of the public closed forms; alpha
    is refused where it overflows, which lambda_analytic would meet as a math
    domain error."""
    f = filter_f(sys.omega, seq.n_p, seq.tau)
    p = phases(sys, seq)
    d = dirichlet_ratio(seq.n_r, p.phi_big)
    a = 2 * sys.a_perp * d * math.sin(p.phi1 / 2) * f
    if not math.isfinite(a):
        raise ValueError(f"transfer strength alpha overflows (a_perp={sys.a_perp!r}, "
                         f"dirichlet={d!r}, f_value={f!r})")
    lam = lambda_analytic(a, p.theta)
    return AnalyticSummary(
        f_value=f,
        dirichlet=d,
        alpha=a,
        p_s=stable_polarization(a, p.theta),
        lam=lam,
        gamma=gamma_analytic(lam, seq.n_r, seq.rep_duration()),
    )


def violations_by_rule(seq: SequenceParams) -> list[str]:
    """SequenceParams.violations checked rule by rule, with nothing kept."""
    problems = []
    if seq.n_p < 1:
        problems.append(f"n_p must be >= 1, got {seq.n_p}")
    if seq.n_r < 1:
        problems.append(f"n_r must be >= 1, got {seq.n_r}")
    for name in ("tau", "t_s", "t_w", "t_c", "tau_pi"):
        value = getattr(seq, name)
        if not math.isfinite(value):
            problems.append(f"{name} not finite: {value}")
        elif value < 0:
            problems.append(f"{name} negative: {value}")
    if seq.tau_pi > 0 and seq.tau < seq.tau_pi:
        problems.append(f"tau {seq.tau} shorter than the pi-pulse duration "
                        f"tau_pi {seq.tau_pi}")
    if not problems:
        cycle = seq.n_r * seq.rep_duration() + seq.n_r * 4 * seq.tau_pi
        if not math.isfinite(cycle):
            problems.append(f"cycle duration n_r (2 t_s + t_w + 4 n_p tau + t_c "
                            f"+ 4 tau_pi) not finite: {cycle}")
    return problems
