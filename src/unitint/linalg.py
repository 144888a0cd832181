"""Dense complex linear algebra shared by the propagation modules.

Everything here operates on plain ``numpy`` complex arrays.  Matrices are
small (dimension <= ~64), so robustness and explicit tolerances win over
speed.  All tolerances are keyword parameters with the defaults used
throughout the package: 1e-10 for structural predicates, 1e-12 for
algebraic residuals.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

PREDICATE_TOL = 1e-10
ALGEBRA_TOL = 1e-12

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
    return M.conj().T


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
    """exp(-i H dt) for Hermitian H, via eigendecomposition.

    Exactly unitary up to roundoff, which keeps unitarity drift out of
    propagators built from it.
    """
    return _unitary_step(_require_hermitian(H), dt)


def _unitary_step(H: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) without the Hermiticity check, for H Hermitian by construction."""
    w, Q = np.linalg.eigh(H)
    return (Q * np.exp(-1j * w * dt)) @ dagger(Q)


def blockdiag(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    out = np.zeros((A.shape[0] + B.shape[0], A.shape[1] + B.shape[1]), dtype=complex)
    out[: A.shape[0], : A.shape[1]] = A
    out[A.shape[0] :, A.shape[1] :] = B
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
