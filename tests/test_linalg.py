import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitint.linalg import (
    SIGMA_PLUS,
    SIGMA_X,
    ContractViolationError,
    SingularMatrixError,
    dagger,
    expm,
    frobenius,
    hermitian_eigendecomposition,
    inv_sqrt_hpd,
    is_hermitian,
    is_traceless,
    is_unitary,
    random_traceless_hermitian,
    sqrt_hpd,
    unitary_step,
)


def test_eigendecomposition_diagonal():
    w, Q = hermitian_eigendecomposition(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(w, [1.0, 3.0])
    # column-permuted identity up to phases
    assert np.allclose(np.abs(Q), [[0, 1], [1, 0]])


def test_eigendecomposition_identity():
    w, Q = hermitian_eigendecomposition(np.eye(2, dtype=complex))
    assert np.allclose(w, [1.0, 1.0])
    assert is_unitary(Q, 1e-12)


def test_eigendecomposition_symmetric_2x2():
    M = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    w, Q = hermitian_eigendecomposition(M)
    assert np.allclose(w, [1.0, 3.0])
    # eigenvectors (1, -/+ 1)/sqrt(2) up to phase
    for col, expected in zip(Q.T, ([1, -1], [1, 1])):
        v = np.asarray(expected) / np.sqrt(2)
        assert min(np.linalg.norm(col - v), np.linalg.norm(col + v)) < 1e-12


def test_eigendecomposition_reconstruction():
    rng = np.random.default_rng(0)
    for N in (2, 4, 8):
        M = random_traceless_hermitian(rng, N, 3.0)
        w, Q = hermitian_eigendecomposition(M)
        assert frobenius(M - (Q * w) @ dagger(Q)) <= 1e-12 * max(frobenius(M), 1.0)
        assert np.all(np.diff(w) >= 0)


def test_eigendecomposition_rejects_bad_input():
    with pytest.raises(ContractViolationError):
        hermitian_eigendecomposition(np.ones((2, 3), dtype=complex))
    with pytest.raises(ContractViolationError):
        hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_sqrt_hpd_basics():
    assert np.allclose(sqrt_hpd(np.eye(3, dtype=complex)), np.eye(3))
    assert np.allclose(sqrt_hpd(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))
    # I + z z^H with z = (1, 0): diag(2, 1) -> diag(sqrt 2, 1)
    R = sqrt_hpd(np.diag([2.0, 1.0]).astype(complex))
    assert np.allclose(R, np.diag([np.sqrt(2.0), 1.0]))
    assert frobenius(R @ R - np.diag([2.0, 1.0])) < 1e-12 * np.sqrt(5.0)


def test_sqrt_hpd_names_offending_eigenvalue():
    with pytest.raises(SingularMatrixError, match="eigenvalue"):
        sqrt_hpd(np.diag([1.0, -2.0]).astype(complex))


@pytest.mark.parametrize("N", [2, 4, 8])
def test_sqrt_inverse_pair_random_hpd(N):
    rng = np.random.default_rng(N)
    for _ in range(10):
        A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        M = A @ dagger(A) + 0.1 * np.eye(N)
        scale = 1e-12 * frobenius(M)
        assert frobenius(sqrt_hpd(M) @ sqrt_hpd(M) - M) <= scale
        assert frobenius(sqrt_hpd(M) @ inv_sqrt_hpd(M) - np.eye(N)) <= scale


def test_expm_zero_and_pauli():
    assert np.allclose(expm(np.zeros((3, 3), dtype=complex)), np.eye(3))
    # exp(i theta sigma_x) = cos(theta) I + i sin(theta) sigma_x
    theta = np.pi / 2
    assert np.allclose(expm(1j * theta * SIGMA_X), 1j * SIGMA_X, atol=1e-14)


def test_unitary_step_matches_expm_and_checks_input():
    H = random_traceless_hermitian(np.random.default_rng(5), 4)
    assert frobenius(unitary_step(H, 0.7) - expm(-0.7j * H)) < 1e-13
    with pytest.raises(ContractViolationError, match="not Hermitian"):
        unitary_step(np.array([[1.0, 2.0], [0.0, -1.0]]), 0.1)


def test_expm_nilpotent_truncates():
    # SIGMA_PLUS has entries 0/2: exp(z SIGMA_PLUS / 2) = I + z SIGMA_PLUS / 2
    U = expm(5.0 * SIGMA_PLUS / 2.0)
    assert np.allclose(U, np.array([[1.0, 5.0], [0.0, 1.0]]))
    assert abs(np.linalg.det(U) - 1.0) < 1e-14


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), N=st.integers(2, 6))
def test_expm_antihermitian_is_unitary(seed, N):
    H = random_traceless_hermitian(np.random.default_rng(seed), N, 2.0)
    assert is_unitary(expm(-1j * H), 1e-12)


def test_predicates():
    assert is_unitary(np.eye(3, dtype=complex))
    assert not is_unitary(2 * np.eye(3, dtype=complex))
    assert is_hermitian(SIGMA_X)
    assert not is_hermitian(SIGMA_PLUS)
    assert is_traceless(SIGMA_X)
    assert not is_traceless(np.eye(2, dtype=complex))
