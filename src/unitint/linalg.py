"""Dense complex linear algebra shared by the propagation modules.

Everything here operates on plain ``numpy`` complex arrays.  Matrices are
small (dimension <= ~64).  All tolerances are keyword parameters with the
defaults used throughout the package: 1e-10 for structural predicates.

At the register sizes solves run at (N = 2 to 8) the cost of the solvers'
stacked products is call overhead, not flops: numpy's stacked complex
matmul calls BLAS zgemm once per matrix.  So the solvers' kernels (the
step exponential _expm1, the chain _running_product and the product
_matmul) run a complex product of order N <= _REAL_N as one real matmul
on the float view, against the product's real form (_real_form), which
keeps complex multiplication's error bound (Higham, SIAM J. Matrix Anal.
Appl. 13 (1992) 681); above it they run the complex products.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

PREDICATE_TOL = 1e-10
# The largest order whose complex products run on the real path: the real
# form wins at N 2 to 6 and loses from N 16 (measured per N, for _expm1,
# the chain and whole solves, in CHANGES.md).
_REAL_N = 6
# Bytes of real forms per call of a real-path kernel: the temporaries of a
# larger call fault in fresh pages each time, which costs more than the
# chunks' calls.
_REAL_BYTES = 1 << 17

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
    products: with A2 = A A and A3 = A2 A,
        E = B0 + A3 (B1 + A3 (B2 + c9 A3)),
    B0 = c1 A + c2 A2, B1 = c3 I + c4 A + c5 A2, B2 = c6 I + c7 A + c8 A2
    and c_k = 1/k! (Moler & Van Loan, SIAM Rev. 45 (2003) 3, method 3).  A
    matrix whose theta exceeds _THETA_9 is scaled by 2^-s, the least s that
    brings it below, and squared back s times, E <- E E + 2 E, alone: each
    matrix's E depends on that matrix only, so not on the stack it is in.
    A squaring that every matrix of the stack takes runs on the whole
    stack, with the same products.
    A complex A of order N <= _REAL_N takes the real path (_taylor), in
    chunks of _chunk(N) matrices: the products run on the float view, A
    and A3 are each embedded once (_real_form), and the Horner products are
    taken as E A3, which equals A3 E since both are polynomials in A.
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
    if _real_path(A):
        A = np.ascontiguousarray(A)  # the float view reads a contiguous last axis
        E, step = np.empty_like(A), _chunk(N)
        for a in range(0, len(A), step):
            E[a : a + step] = _taylor(A[a : a + step], s[a : a + step], True)
    else:
        E = _taylor(A, s, False)
    return E.reshape(shape), theta.reshape(shape[:-2])


def _taylor(A: np.ndarray, s: np.ndarray, real: bool) -> np.ndarray:
    """_expm1's E for a scaled stack A (K, N, N), squared back s times, on the real path or not."""
    if real:
        RA = _real_form(A)
        A2 = _times(A, RA)
        A3 = _times(A2, RA)
        R3 = _real_form(A3)

        def horner(E):  # E A3, which is A3 E
            return _times(E, R3)

        def square(E):
            return _times(E, _real_form(E))
    else:
        A2 = A @ A
        A3 = A2 @ A

        def horner(E):
            return A3 @ E

        def square(E):
            return E @ E
    N = A.shape[-1]
    c = _TAYLOR
    E = c[8] * A3 + c[7] * A2 + c[6] * A
    E.reshape(-1, N * N)[:, :: N + 1] += c[5]  # + c6 I, on the diagonal
    E = horner(E) + c[4] * A2 + c[3] * A
    E.reshape(-1, N * N)[:, :: N + 1] += c[2]
    E = horner(E) + c[1] * A2 + A
    for r in range(1, s.max(initial=0) + 1):
        if r <= s.min():  # every matrix: the whole stack, with no gather
            E = square(E) + 2.0 * E
            continue
        scaled = np.flatnonzero(s >= r)
        F = E[scaled]
        E[scaled] = square(F) + 2.0 * F
    return E


def _running_product(M: np.ndarray, U: np.ndarray | None = None) -> np.ndarray:
    """U with U[0] = I and U[j + 1] = M[j] U[j], one np.dot per step over the first axis of M.

    A given U (at least len(M) + 1 long, step axis first) continues the
    product from its own U[0], written in place; its states may be matrices
    or vectors.  The Riccati paths' Magnus product, the oracle and the
    precession chain here.  np.dot has less call overhead than np.matmul
    for one small matrix, with the same result.  Complex steps of order
    N <= _REAL_N take the real path, _chunk(N) steps at a time: the
    transposed states S_j = U_j^T chain as S_j+1 = S_j M_j^T, one real
    np.dot per step of S_j's float view against the real form of M_j^T,
    and go back to U once per chunk.  Each state depends on its step and
    the state before alone, so not on the chunks or on the blocks of U a
    caller continues.
    """
    if U is None:
        U = np.empty((len(M) + 1,) + M.shape[1:], dtype=complex)
        U[0] = np.eye(M.shape[-1])
    if not _real_path(M):
        for step, a, b in zip(M, U, U[1:]):
            np.dot(step, a, out=b)
        return U
    size = _chunk(M.shape[-1])
    for a in range(0, len(M), size):
        R = _real_form(M[a : a + size].mT)
        S = np.empty((len(R) + 1,) + U.shape[:0:-1], dtype=complex)  # the transposed states' shape
        S[0] = U[a].T
        Sf = S.view(float)
        for step, x, y in zip(R, Sf, Sf[1:]):
            np.dot(x, step, out=y)
        U[a + 1 : a + len(S)] = np.swapaxes(S[1:], 1, -1)
    return U


def _matmul(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X @ B for two stacks (K, M, N) and (K, N, P), on the real path for complex ones of order N <= _REAL_N.

    The real path runs _chunk(N) pairs per real matmul of X's float view
    against B's real form; otherwise X @ B.
    """
    if not (_real_path(B) and np.iscomplexobj(X)):
        return X @ B
    X = np.ascontiguousarray(X)  # the float view reads a contiguous last axis
    out = np.empty(X.shape[:-1] + B.shape[-1:], dtype=complex)
    size = _chunk(B.shape[-2])
    for a in range(0, len(out), size):
        np.matmul(X[a : a + size].view(float), _real_form(B[a : a + size]), out=out[a : a + size].view(float))
    return out


def _real_path(B: np.ndarray) -> bool:
    """Whether products by the complex stack B run on the real path: order N <= _REAL_N."""
    return B.dtype == complex and B.shape[-2] <= _REAL_N


def _chunk(N: int) -> int:
    """Matrices of order N per call of a real-path kernel: _REAL_BYTES of real forms."""
    return max(1, _REAL_BYTES // (32 * N * N))


def _real_form(B: np.ndarray) -> np.ndarray:
    """The real form R (..., 2N, 2P) of a complex stack B (..., N, P): X.view(float) @ R equals (X @ B).view(float).

    Row 2j of R is row j of B and row 2j + 1 row j of i B, as (re, im)
    pairs.  B may be any view, a transposed one included.
    """
    *lead, N, P = B.shape
    R = np.empty((*lead, N, 2, 2 * P))
    R[..., 0, :].view(complex)[...] = B
    np.multiply(B, 1j, out=R[..., 1, :].view(complex))
    return R.reshape(*lead, 2 * N, 2 * P)


def _times(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """X B for a complex stack X and R = _real_form(B): one real matmul on X's float view."""
    return (X.view(float) @ R).view(complex)


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
