"""Small dense complex linear algebra for the electron-nuclear spin pair.

Everything here acts on 2x2 (single spin-1/2) or 4x4 (electron (x) nucleus)
complex matrices.  The global basis order is |e-up,n-up>, |e-up,n-down>,
|e-down,n-up>, |e-down,n-down>, i.e. the electron factor comes first in
every tensor product.

Matrix exponentials of Hermitian generators are evaluated by spectral
decomposition, so the returned propagators are unitary up to rounding
without any step-size tuning.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# spin-1/2 operators
SX = SIGMA_X / 2
SY = SIGMA_Y / 2
SZ = SIGMA_Z / 2

def _as_square(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two 2x2 matrices, electron factor first."""
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"kron2 needs two 2x2 matrices, got {a.shape} and {b.shape}")
    # the products np.kron forms, without its general-shape bookkeeping
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def hermiticity_defect(h: np.ndarray) -> float:
    """Max entry magnitude of H - H^dagger."""
    h = _as_square(h)
    return float(np.max(np.abs(h - h.conj().T)))


def unitarity_defect(u: np.ndarray) -> float:
    """Max entry magnitude of U^dagger U - 1."""
    u = _as_square(u)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def operator_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max entry magnitude of A - B (used for oracle comparisons)."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def hermitian_expm(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Unitary exp(-i H t) for a Hermitian generator H.

    Raises ValueError if H is not Hermitian within HERMITICITY_TOL.
    Exact identity for t = 0.
    """
    h = _as_square(h)
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"generator is not Hermitian (defect {defect:.3e})")
    if t == 0.0:
        return np.eye(h.shape[0], dtype=complex)
    # eigh of the Hermitian part keeps the factorization exactly unitary
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * np.exp(-1j * w * t)) @ v.conj().T
