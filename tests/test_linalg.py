import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from unitint import linalg, riccati
from unitint.linalg import (
    _expm1,
    _matmul,
    _running_product,
    _unitary_step,
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


def _anti_hermitian(rng, shape, N, theta):
    """-i X for random Hermitian X with ||X||_F = theta, one per entry of the array theta (over leading shape)."""
    G = rng.standard_normal(shape + (N, N)) + 1j * rng.standard_normal(shape + (N, N))
    X = (G + dagger(G)) / 2.0
    return -1j * X * (theta / np.linalg.norm(X, axis=(-2, -1)))[..., None, None]


@pytest.mark.parametrize("N", range(2, 9))
def test_expm1_matches_expm_and_is_unitary(N):
    # theta from 0 to 50 takes 0 to 10 squarings.  Measured at 20 draws per
    # theta and N 2-8: ||P - expm||_F and ||P^H P - I||_F <= 5.3e-16 up to
    # theta 1 and <= 2.9e-16 theta above it, and ||E - (exp(A) - I)||_F <=
    # 1.9e-16 theta against a long-double Taylor sum, down to theta 1e-12
    rng = np.random.default_rng(N)
    theta = np.array([0.0, 1e-12, 1e-6, 1e-3, 0.05, 0.0896, 0.0897, 0.2, 0.5, 1.0, 3.0, 10.0, 20.0, 50.0])
    A = _anti_hermitian(rng, (20, len(theta)), N, theta)
    E, got = _expm1(A)
    assert E.shape == A.shape and np.allclose(got, theta, rtol=1e-14, atol=0.0)
    P = E + np.eye(N)
    scale = 1e-15 * np.maximum(theta, 1.0)
    reference = np.array([[scipy.linalg.expm(a) for a in row] for row in A])
    assert np.all(np.linalg.norm(P - reference, axis=(-2, -1)) <= scale)
    assert np.all(np.linalg.norm(dagger(P) @ P - np.eye(N), axis=(-2, -1)) <= scale)
    small = theta <= 1.0
    Al = A[:, small].astype(np.clongdouble)
    term, series = Al, Al.copy()
    for k in range(2, 40):
        term = term @ Al / k
        series += term
    defect = np.linalg.norm((E[:, small] - series).astype(complex), axis=(-2, -1))
    assert np.all(defect <= 5e-16 * theta[small])
    # each matrix's E depends on that matrix alone, not on the stack
    assert all(np.array_equal(_expm1(A[3, k : k + 1])[0][0], E[3, k]) for k in range(len(theta)))


@pytest.mark.parametrize("N", [2, 4, 5])
def test_expm1_squares_a_fully_scaled_stack_matrix_by_matrix(N):
    # every matrix needs 2 to 4 squarings, so the first two run on the whole
    # stack: each E equals the one-matrix call's bit for bit, complex and
    # real (the precession's generators)
    rng = np.random.default_rng(N)
    norms = rng.uniform(0.2, 1.0, 12)
    G = rng.standard_normal((12, N, N))
    G -= G.mT
    real = G * (norms / np.linalg.norm(G, axis=(-2, -1)))[:, None, None]
    for stack in (_anti_hermitian(rng, (12,), N, norms), real):
        E, theta = _expm1(stack)
        assert np.all(theta > 2 * 0.0896)
        for k in range(len(stack)):
            assert np.array_equal(_expm1(stack[k : k + 1])[0][0], E[k])


@pytest.mark.parametrize("N", [2, linalg._REAL_N, linalg._REAL_N + 1])
def test_real_path_kernels_equal_the_complex_products(N, monkeypatch):
    # _matmul, _expm1 and _running_product (matrix and vector states) run
    # their complex products as real ones at N <= _REAL_N only, equal
    # numpy's complex matmul to roundoff, and do not depend on the chunks:
    # chunks of 7 matrices give the one-chunk results bit for bit
    built, real_form = [], linalg._real_form
    monkeypatch.setattr(linalg, "_real_form", lambda B: built.append(B.shape) or real_form(B))
    rng = np.random.default_rng(N)
    K, u = 40, 2.0**-53
    X = rng.standard_normal((K, N, N)) + 1j * rng.standard_normal((K, N, N))
    B = rng.standard_normal((K, N, N)) + 1j * rng.standard_normal((K, N, N))
    A = _anti_hermitian(rng, (K,), N, rng.uniform(0.01, 3.0, K))
    v = np.empty((K + 1, N), dtype=complex)
    v[0] = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    results = []
    for chunk in (K + 1, 7):
        monkeypatch.setattr(linalg, "_REAL_BYTES", 32 * N * N * chunk)
        P = _expm1(A)[0] + np.eye(N)
        results.append((_matmul(X, B), _matmul(dagger(X), dagger(B)), P, _running_product(P), _running_product(P, v.copy())))
    assert bool(built) == (N <= linalg._REAL_N)
    for one, chunked in zip(*results):
        assert np.array_equal(one, chunked)
    XB, XhBh, P, U, Uv = results[0]
    # each entry within 8 N u (|X| |B|), twice the product's error bound
    for got, left, right in ((XB, X, B), (XhBh, dagger(X), dagger(B))):
        assert np.all(np.abs(got - left @ right) <= 8 * N * u * (np.abs(left) @ np.abs(right)))
    monkeypatch.setattr(linalg, "_REAL_N", 0)  # the complex products
    assert np.all(np.linalg.norm(P - (_expm1(A)[0] + np.eye(N)), axis=(-2, -1)) <= 1e-15 * np.maximum(_expm1(A)[1], 1.0))
    want, want_v = np.empty_like(U), v.copy()
    want[0] = np.eye(N)
    for j in range(K):
        want[j + 1], want_v[j + 1] = P[j] @ want[j], P[j] @ want_v[j]
    # unitary steps: the chains part by at most 8 N u per step
    assert np.abs(U - want).max() <= 8 * N * u * K and np.abs(Uv - want_v).max() <= 8 * N * u * K * np.abs(v[0]).max()


def test_expm1_of_zero_is_exactly_zero():
    # no squaring, no warning (a RuntimeWarning fails the suite), and the
    # steps built on it are exactly I
    for N in (1, 2, 5, 8):
        E, theta = _expm1(np.zeros((3, N, N), dtype=complex))
        assert not E.any() and not theta.any()
        assert np.array_equal(_unitary_step(np.zeros((N, N)), 0.3), np.eye(N))
        P, spread = riccati._magnus4(np.zeros((3, N, N)), np.arange(3)[:, None], 0.3)
        assert np.array_equal(P[0], np.eye(N)) and spread[0] == 0.0


@pytest.mark.parametrize("N", range(2, 9))
def test_magnus_guard_near_pi_refuses_what_eigh_refuses(N):
    # steps drawn with their exact spread dt (lambda_max - lambda_min) in
    # [0.9 pi, 1.1 pi], half of them traceless (for N = 2 the bound is then
    # the spread itself): the norm bound is never below the spread, and the
    # steps _magnus4 refuses are the steps whose eigh spread reaches pi, at
    # their exact spread
    rng = np.random.default_rng(100 + N)
    count, dt = 400, 0.5
    X = 1j * _anti_hermitian(rng, (count,), N, np.ones(count))
    X[::2] -= np.trace(X[::2], axis1=-2, axis2=-1)[:, None, None] / N * np.eye(N)
    w = np.linalg.eigvalsh(X)
    X *= (rng.uniform(0.9, 1.1, count) * np.pi / (dt * (w[:, -1] - w[:, 0])))[:, None, None]
    H, idx = np.concatenate((X, X, X)), np.arange(3 * count).reshape(3, count)
    P, spread = riccati._magnus4(H, idx, dt)
    A = riccati._omega(H, idx, dt)  # the exponents -i dt Omega
    w = np.linalg.eigh(1j * A)[0]
    exact = w[:, -1] - w[:, 0]
    assert np.all(riccati._BOUND * _expm1(A)[1] >= exact)
    refused = spread >= np.pi
    assert np.array_equal(refused, exact >= np.pi) and 0 < refused.sum() < count
    assert np.allclose(spread[refused], exact[refused], rtol=1e-14, atol=0.0)
    assert np.all(spread[~refused] >= exact[~refused] * (1.0 - 1e-14))


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
