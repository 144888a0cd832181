"""Dense complex linear algebra shared by the propagation modules.

Everything here operates on plain ``numpy`` complex arrays.  Matrices are
small (dimension <= ~64), so robustness and explicit tolerances win over
speed.  All tolerances are keyword parameters with the defaults used
throughout the package: 1e-10 for structural predicates.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

PREDICATE_TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Raising/lowering combinations without the conventional 1/2: entries are 0/2,
# so exp(z * SIGMA_PLUS / 2) is unit triangular with off-diagonal entry z.
SIGMA_PLUS = SIGMA_X + 1j * SIGMA_Y
SIGMA_MINUS = SIGMA_X - 1j * SIGMA_Y
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class ContractViolationError(ValueError):
    """An input does not satisfy a documented precondition."""


class SingularMatrixError(ValueError):
    """A matrix required to be positive definite has a tiny eigenvalue."""


def dagger(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose; a stack of matrices is transposed matrix by matrix."""
    return M.conj().mT


def frobenius(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def _require_square(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ContractViolationError(f"expected a square matrix, got shape {M.shape}")
    return M


def is_unitary(M: np.ndarray, tol: float = PREDICATE_TOL) -> bool:
    M = _require_square(M)
    return frobenius(dagger(M) @ M - np.eye(M.shape[0])) <= tol


def is_hermitian(M: np.ndarray, tol: float = PREDICATE_TOL) -> bool:
    M = _require_square(M)
    return frobenius(M - dagger(M)) <= tol


def is_traceless(M: np.ndarray, tol: float = PREDICATE_TOL) -> bool:
    return abs(complex(np.trace(np.asarray(M)))) <= tol


def unitarity_defect(M: np.ndarray) -> float:
    M = _require_square(M)
    return frobenius(dagger(M) @ M - np.eye(M.shape[0]))


def _require_hermitian(M: np.ndarray, tol: float = PREDICATE_TOL) -> np.ndarray:
    M = _require_square(M)
    if not is_hermitian(M, tol):
        raise ContractViolationError(
            f"matrix is not Hermitian within {tol:g}: defect "
            f"{frobenius(M - dagger(M)):.3e}"
        )
    return M


def hermitian_eigendecomposition(
    M: np.ndarray, tol: float = PREDICATE_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unitary eigenvector matrix of Hermitian M.

    Raises ContractViolationError for non-square or non-Hermitian input.
    """
    M = _require_hermitian(M, tol)
    w, Q = np.linalg.eigh(M)
    return w, Q


def sqrt_hpd(M: np.ndarray, eig_floor: float = 1e-12) -> np.ndarray:
    """Hermitian square root of a Hermitian positive-definite matrix."""
    w, Q = hermitian_eigendecomposition(M)
    if w[0] <= eig_floor:
        raise SingularMatrixError(
            f"matrix is not positive definite: smallest eigenvalue {w[0]:.3e} "
            f"<= {eig_floor:g}"
        )
    return (Q * np.sqrt(w)) @ dagger(Q)


def inv_sqrt_hpd(M: np.ndarray, eig_floor: float = 1e-12) -> np.ndarray:
    """Hermitian inverse square root of a Hermitian positive-definite matrix."""
    w, Q = hermitian_eigendecomposition(M)
    if w[0] <= eig_floor:
        raise SingularMatrixError(
            f"matrix is not positive definite: smallest eigenvalue {w[0]:.3e} "
            f"<= {eig_floor:g}"
        )
    return (Q / np.sqrt(w)) @ dagger(Q)


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring, via scipy)."""
    return scipy.linalg.expm(_require_square(M))


def unitary_step(H: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) for Hermitian H, by the step exponential _expm1.

    Unitary to roundoff, which keeps unitarity drift out of propagators
    built from it.
    """
    return _unitary_step(_require_hermitian(H), dt)


def _unitary_step(H: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt), or a stack of them, without the check, for H Hermitian by construction."""
    return _expm1((-1j * dt) * H)[0] + np.eye(H.shape[-1])


# 1/k! for the step exponential's degree-9 Taylor polynomial, and the norm up
# to which that polynomial is exp(A) within a relative backward error of
# 2^-53 (theta_9 of Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009)
# 970, section 3).
_TAYLOR = 1.0 / np.cumprod(np.arange(1.0, 10.0))
_THETA_9 = 0.0896


def _expm1(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, theta): E = exp(A) - I and theta = ||A||_F, per matrix of a stack A.

    The one step exponential of the solvers and the oracle: the Magnus
    steps (riccati._magnus4), est_error's doubled steps and the oracle's
    steps (_unitary_step) take it, with A = -i dt Omega (real A = dt Omega
    for the precession's real generator).  E is the degree-9
    Taylor polynomial T(A) - I, by Paterson-Stockmeyer in four stacked
    matmuls: with A2 = A A and A3 = A2 A,
        E = B0 + A3 (B1 + A3 (B2 + c9 A3)),
    B0 = c1 A + c2 A2, B1 = c3 I + c4 A + c5 A2, B2 = c6 I + c7 A + c8 A2
    and c_k = 1/k! (Moler & Van Loan, SIAM Rev. 45 (2003) 3, method 3).  A
    matrix whose theta exceeds _THETA_9 is scaled by 2^-s, the least s that
    brings it below, and squared back s times, E <- E E + 2 E, alone: each
    matrix's E depends on that matrix only, so not on the stack it is in.
    E has no I term, so its roundoff scales with theta, and a zero A gives
    E = 0 exactly.  A must be finite.  Leading axes broadcast.
    """
    shape = A.shape
    N = shape[-1]
    A = A.reshape((-1, N, N))
    theta = np.linalg.norm(A, axis=(-2, -1))
    s = np.maximum(np.frexp(theta / _THETA_9)[1], 0)  # theta 2^-s < _THETA_9
    if s.any():
        A = A * np.ldexp(1.0, -s)[:, None, None]
    c = _TAYLOR
    A2 = A @ A
    A3 = A2 @ A
    E = c[8] * A3 + c[7] * A2 + c[6] * A
    E.reshape(-1, N * N)[:, :: N + 1] += c[5]  # + c6 I, on the diagonal
    E = A3 @ E + c[4] * A2 + c[3] * A
    E.reshape(-1, N * N)[:, :: N + 1] += c[2]
    E = A3 @ E + c[1] * A2 + A
    for r in range(1, s.max(initial=0) + 1):
        scaled = np.flatnonzero(s >= r)
        F = E[scaled]
        E[scaled] = F @ F + 2.0 * F
    return E.reshape(shape), theta.reshape(shape[:-2])


def _running_product(M: np.ndarray, U: np.ndarray | None = None) -> np.ndarray:
    """U with U[0] = I and U[j + 1] = M[j] U[j], one np.dot per step over the first axis of M.

    A given U (at least len(M) + 1 long, step axis first) continues the
    product from its own U[0], written in place; its states may be matrices
    or vectors.  The Riccati paths' Magnus product, the oracle and the
    precession chain here.  np.dot has less call overhead than np.matmul
    for one small matrix, with the same result.
    """
    if U is None:
        U = np.empty((len(M) + 1,) + M.shape[1:], dtype=complex)
        U[0] = np.eye(M.shape[-1])
    for step, a, b in zip(M, U, U[1:]):
        np.dot(step, a, out=b)
    return U


def blockdiag(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[[A, 0], [0, B]]; stacks (leading axes before the matrix ones) broadcast."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    (a0, a1), (b0, b1) = A.shape[-2:], B.shape[-2:]
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    out = np.zeros(lead + (a0 + b0, a1 + b1), dtype=complex)
    out[..., :a0, :a1] = A
    out[..., a0:, a1:] = B
    return out


def random_traceless_hermitian(
    rng: np.random.Generator, N: int, scale: float = 1.0
) -> np.ndarray:
    """Seeded random Hermitian traceless matrix with Frobenius norm ~ scale."""
    G = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    H = (G + dagger(G)) / 2.0
    H -= np.trace(H) / N * np.eye(N)
    nrm = frobenius(H)
    if nrm > 0:
        H *= scale / nrm
    return H
