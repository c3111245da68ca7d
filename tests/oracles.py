"""Independent numerical oracles used by the test suite.

The Trotter oracle rebuilds segment propagators from symmetric (Strang)
splitting with closed-form Pauli-rotation factors only, so it shares no
code path with the spectral exponentials under test.
"""

from __future__ import annotations

import math

import numpy as np

from hyperpol.params import SequenceParams, SystemParams
from hyperpol.timeline import FREE_HYPERFINE, FREE_NUCLEAR, PULSE, Segment, Timeline

ID2 = np.eye(2, dtype=complex)

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
