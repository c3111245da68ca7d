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

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

HERMITICITY_TOL = 1e-12
SPECTRA_LIMIT = 256  # generators whose eigendecompositions hermitian_expm keeps
_SPECTRA: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

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


def unitarity_defect(u: np.ndarray) -> float | np.ndarray:
    """Max entry magnitude of U^dagger U - 1; for a stack (k, n, n), one per matrix (k,)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {u.shape}")
    defect = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))
    return float(defect) if u.ndim == 2 else defect


def hermitian_expm(h: np.ndarray, t: ArrayLike = 1.0) -> np.ndarray:
    """Unitary exp(-i H t) for a Hermitian generator H.

    t may be an array of durations: the result then stacks one propagator
    per duration (shape t.shape + H.shape) from a single eigh of H, each
    with the bytes of its own scalar call.  Raises ValueError if H is not
    Hermitian within HERMITICITY_TOL.  Exact identity where t = 0.

    The eigendecomposition of each generator is kept in a table keyed by
    H's bytes, so a generator seen before (the same system's hyperfine
    Hamiltonian at a new duration, say) is neither checked nor diagonalized
    again: equal bytes in give the eigh they gave before.  The table holds
    read-only arrays and is cleared whenever it would grow past
    SPECTRA_LIMIT entries.
    """
    h = _as_square(h)
    key = h.tobytes()
    spectrum = _SPECTRA.get(key)
    if spectrum is None:
        defect = hermiticity_defect(h)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"generator is not Hermitian (defect {defect:.3e})")
    t = np.asarray(t, dtype=float)
    still = t == 0.0
    zeros = np.count_nonzero(still)
    if zeros == t.size:
        return np.broadcast_to(np.eye(h.shape[0], dtype=complex), t.shape + h.shape).copy()
    if spectrum is None:
        spectrum = _spectrum(key, h)
    w, v = spectrum
    u = (v * np.exp(-1j * w * t[..., None])[..., None, :]) @ v.conj().T
    if zeros:
        u[still] = np.eye(h.shape[0])
    return u


def _spectrum(key: bytes, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian part of h, stored read-only in _SPECTRA under key."""
    # eigh of the Hermitian part keeps the factorization exactly unitary
    spectrum = np.linalg.eigh((h + h.conj().T) / 2)
    for a in spectrum:
        a.flags.writeable = False
    if len(_SPECTRA) >= SPECTRA_LIMIT:
        _SPECTRA.clear()
    _SPECTRA[key] = spectrum
    return spectrum
