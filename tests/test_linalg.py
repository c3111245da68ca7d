import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperpol import linalg
from hyperpol.linalg import (
    ID2,
    ID4,
    SX,
    SZ,
    hermitian_expm,
    hermiticity_defect,
    kron2,
    operator_distance,
    unitarity_defect,
)

from oracles import trotter_segment
from hyperpol.params import SystemParams
from hyperpol.timeline import FREE_HYPERFINE, Segment


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_kron_identity():
    assert operator_distance(kron2(ID2, ID2), ID4) == 0.0


def test_kron_sz_embedding():
    expected = np.diag([0.5, 0.5, -0.5, -0.5])
    assert operator_distance(kron2(SZ, ID2), expected) == 0.0


def test_kron_sx_sx_corner_entry():
    m = kron2(SX, SX)
    assert m[0, 3] == pytest.approx(0.25)
    assert m[3, 0] == pytest.approx(0.25)


def test_kron2_is_bitwise_np_kron(rng):
    signed_zeros = np.array([[0.0, -0.0], [-0.0 - 0.0j, 1j]])
    pairs = [(signed_zeros, signed_zeros.conj()), (SX, SZ)]
    for _ in range(2000):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pairs.append((a, b * 10.0 ** rng.integers(-300, 300)))
    for a, b in pairs:
        assert kron2(a, b).tobytes() == np.kron(a, b).tobytes()


def test_kron_rejects_wrong_dims():
    with pytest.raises(ValueError):
        kron2(ID4, ID2)
    with pytest.raises(ValueError):
        kron2(np.ones(3), ID2)


def test_expm_zero_time_is_exact_identity():
    g = random_hermitian(np.random.default_rng(0), 4)
    assert operator_distance(hermitian_expm(g, 0.0), ID4) == 0.0


def test_expm_nuclear_pi_rotation():
    u = hermitian_expm(SZ, np.pi)
    expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
    assert operator_distance(u, expected) < 1e-14


def test_expm_matches_trotter_oracle():
    sys_p = SystemParams(omega=1.0, a_perp=0.1, a_z=0.0)
    h = sys_p.omega * kron2(ID2, SZ) + sys_p.a_perp * kron2(SZ, SX)
    u = hermitian_expm(h, 1.0)
    oracle = trotter_segment(sys_p, Segment(FREE_HYPERFINE, 1.0), dt_max=1e-4)
    assert operator_distance(u, oracle) < 1e-6


def test_expm_rejects_non_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        hermitian_expm(bad, 1.0)


def test_unitarity_defect_values():
    assert unitarity_defect(ID4) == 0.0
    assert unitarity_defect(np.diag([1, 1, 1, 2.0])) == pytest.approx(3.0)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([2, 4]),
       st.floats(-100.0, 100.0))
def test_expm_inverse_property(seed, dim, t):
    g = random_hermitian(np.random.default_rng(seed), dim)
    u = hermitian_expm(g, t) @ hermitian_expm(g, -t)
    assert operator_distance(u, np.eye(dim)) < 1e-12


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([2, 4]),
       st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
def test_expm_composition_property(seed, dim, t1, t2):
    g = random_hermitian(np.random.default_rng(seed), dim)
    lhs = hermitian_expm(g, t1 + t2)
    rhs = hermitian_expm(g, t1) @ hermitian_expm(g, t2)
    assert operator_distance(lhs, rhs) < 1e-10


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([2, 4]), st.floats(-10.0, 10.0))
def test_expm_eigenvalues_on_unit_circle(seed, dim, t):
    g = random_hermitian(np.random.default_rng(seed), dim)
    eigs = np.linalg.eigvals(hermitian_expm(g, t))
    assert np.max(np.abs(np.abs(eigs) - 1.0)) < 1e-10


@given(st.integers(0, 2 ** 31 - 1), st.floats(-20.0, 20.0))
def test_expm_output_unitarity_property(seed, t):
    g = random_hermitian(np.random.default_rng(seed), 4)
    assert unitarity_defect(hermitian_expm(g, t)) <= 1e-12


def test_adjoint_involution(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert operator_distance(m.conj().T.conj().T, m) == 0.0


def test_hermiticity_defect_reports_max_entry():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    assert hermiticity_defect(m) == pytest.approx(1.0)
