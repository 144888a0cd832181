"""Time-dependent N-level Hamiltonians and their block partitions.

A Hamiltonian is represented by an evaluator callable at arbitrary time t,
so integrators are free to choose their own quadrature points.  Evaluated
matrices must be Hermitian and traceless (within 1e-10); the partition into
an (N-n) x (N-n) upper block, an (N-n) x n coupling block V and an n x n
lower block is the interface every solver consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import (
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    frobenius,
    is_hermitian,
    is_traceless,
    random_traceless_hermitian,
)

MODEL_TOL = 1e-10

# Levi-Civita symbol on three indices.
EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPSILON[_i, _j, _k] = 1.0
    EPSILON[_i, _k, _j] = -1.0


class ModelError(ValueError):
    """An evaluated model matrix violates a structural requirement."""


@dataclass(frozen=True)
class BlockedHamiltonian:
    """H(t) of dimension N with the (N-n, n) block partition."""

    N: int
    n: int
    evaluator: Callable[[float], np.ndarray]

    def __post_init__(self):
        if not (1 <= self.n <= self.N // 2):
            raise ModelError(f"block size n={self.n} outside 1..N/2 for N={self.N}")

    def matrix(self, t: float) -> np.ndarray:
        M = np.asarray(self.evaluator(t), dtype=complex)
        if M.shape != (self.N, self.N):
            raise ModelError(f"evaluator returned shape {M.shape}, expected {(self.N, self.N)}")
        return M

    def blocks_at(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Htop, V, Hbot) at time t, validating Hermiticity and tracelessness."""
        M = self.matrix(t)
        if not is_hermitian(M, MODEL_TOL):
            raise ModelError(f"H(t={t}) is not Hermitian within {MODEL_TOL:g}")
        if not is_traceless(M, MODEL_TOL):
            raise ModelError(f"H(t={t}) is not traceless within {MODEL_TOL:g}")
        m = self.N - self.n
        return M[:m, :m], M[:m, m:], M[m:, m:]

    def blocks_unchecked(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Same partition without validation; for use inside hot loops."""
        M = self.matrix(t)
        m = self.N - self.n
        return M[:m, :m], M[:m, m:], M[m:, m:]


@dataclass(frozen=True)
class SpinHalfField:
    """Magnetic field B(t) driving H(t) = -(1/2) sigma . B(t)."""

    B: Callable[[float], np.ndarray]

    def hamiltonian(self) -> BlockedHamiltonian:
        def evaluate(t):
            b = np.asarray(self.B(t), dtype=float)
            return -0.5 * (b[0] * SIGMA_X + b[1] * SIGMA_Y + b[2] * SIGMA_Z)

        return BlockedHamiltonian(N=2, n=1, evaluator=evaluate)


def spin_half(B) -> BlockedHamiltonian:
    """Spin-1/2 Hamiltonian from a constant 3-vector or a callable B(t)."""
    if callable(B):
        return SpinHalfField(B=B).hamiltonian()
    b = np.asarray(B, dtype=float)
    return SpinHalfField(B=lambda t: b).hamiltonian()


def rotating_spin_half(B0: float, B1: float, omega: float) -> BlockedHamiltonian:
    """Rotating transverse field: B(t) = (B1 cos wt, B1 sin wt, B0)."""
    return spin_half(
        lambda t: np.array([B1 * np.cos(omega * t), B1 * np.sin(omega * t), B0])
    )


@dataclass(frozen=True)
class SO5Coefficients:
    """Antisymmetric real 5x5 coefficient matrix F(t), indices 1..5."""

    F: Callable[[float], np.ndarray]

    def at(self, t: float) -> np.ndarray:
        F = np.asarray(self.F(t), dtype=float)
        if F.shape != (5, 5):
            raise ModelError(f"F(t) has shape {F.shape}, expected (5, 5)")
        if frobenius(F + F.T) > 1e-12:
            raise ModelError(f"F(t={t}) is not antisymmetric within 1e-12")
        return F


def so5_coefficients(F) -> SO5Coefficients:
    """SO5Coefficients from a constant 5x5 array or a callable F(t)."""
    if callable(F):
        return SO5Coefficients(F=F)
    Fc = np.asarray(F, dtype=float)
    return SO5Coefficients(F=lambda t: Fc)


def so5_from_params(params: dict) -> SO5Coefficients:
    """SO5Coefficients from scenario params: F, or F + F_cos cos(wt) + F_sin sin(wt)."""
    F0 = np.asarray(params["F"], dtype=float)
    if "F_cos" not in params and "F_sin" not in params:
        return so5_coefficients(F0)
    Fc = np.asarray(params.get("F_cos", np.zeros((5, 5))), dtype=float)
    Fs = np.asarray(params.get("F_sin", np.zeros((5, 5))), dtype=float)
    w = float(params.get("omega", 1.0))
    return so5_coefficients(lambda t: F0 + Fc * np.cos(w * t) + Fs * np.sin(w * t))


def _so5_kron_form(F: np.ndarray) -> np.ndarray:
    """The two-qubit Hamiltonian of F in tensor-product form, qubit 1 = leftmost:
    F21 s2z - F31 s2y + F32 s2x - F4i s1z s2i + F5i s1x s2i - F54 s1y.
    """
    I2 = np.eye(2, dtype=complex)
    kron = np.kron
    H = (
        F[1, 0] * kron(I2, SIGMA_Z)
        - F[2, 0] * kron(I2, SIGMA_Y)
        + F[2, 1] * kron(I2, SIGMA_X)
        - F[4, 3] * kron(SIGMA_Y, I2)
    )
    for i in range(3):
        H = H - F[3, i] * kron(SIGMA_Z, PAULI[i]) + F[4, i] * kron(SIGMA_X, PAULI[i])
    return H


# so5_matrix is linear in F: generator [a, b] is the kron form at the unit F e_a e_b^T.
_SO5_GENERATORS = np.array([_so5_kron_form(E) for E in np.eye(25).reshape(25, 5, 5)]).reshape(
    5, 5, 4, 4
)


def so5_matrix(F: np.ndarray) -> np.ndarray:
    """The 4x4 two-qubit Hamiltonian for one antisymmetric F sample.

    Equals ``_so5_kron_form(F)``, computed as one contraction of F with the
    precomputed (5, 5, 4, 4) generator tensor.
    """
    return np.tensordot(F, _SO5_GENERATORS, axes=2)


def so5_blocks_from_formula(F: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal/coupling blocks written directly in terms of F.

    Upper/lower diagonal blocks are (-/+ F4k - (1/2) eps_ijk Fij) sigma_k and
    the coupling block is i F54 I + F5i sigma_i.  Cross-checked against
    so5_matrix in the test suite; explicit index loops on purpose.
    """
    Htop = np.zeros((2, 2), dtype=complex)
    Hbot = np.zeros((2, 2), dtype=complex)
    for k in range(3):
        coeff = 0.0
        for i in range(3):
            for j in range(3):
                coeff -= 0.5 * EPSILON[i, j, k] * F[i, j]
        Htop = Htop + (-F[3, k] + coeff) * PAULI[k]
        Hbot = Hbot + (+F[3, k] + coeff) * PAULI[k]
    V = 1j * F[4, 3] * np.eye(2, dtype=complex)
    for i in range(3):
        V = V + F[4, i] * PAULI[i]
    return Htop, V, Hbot


def build_so5(coeffs: SO5Coefficients) -> BlockedHamiltonian:
    """BlockedHamiltonian (N=4, n=2) for an SO(5)-symmetric two-qubit model."""
    return BlockedHamiltonian(N=4, n=2, evaluator=lambda t: so5_matrix(coeffs.at(t)))


def constant_hamiltonian(M: np.ndarray, n: int = 1) -> BlockedHamiltonian:
    M = np.asarray(M, dtype=complex)
    return BlockedHamiltonian(N=M.shape[0], n=n, evaluator=lambda t: M)


def trig_random(
    N: int,
    n: int = 1,
    seed: int = 0,
    harmonics: int = 2,
    omega: float = 1.0,
    scale: float = 0.5,
) -> BlockedHamiltonian:
    """Smooth seeded random Hamiltonian: a trigonometric polynomial in t.

    H(t) = A0 + sum_k (Ak cos k w t + Bk sin k w t) with Hermitian traceless
    coefficient matrices; bounded and reproducible, which is all tests need.
    """
    rng = np.random.default_rng(seed)
    A0 = random_traceless_hermitian(rng, N, scale)
    Ak = [random_traceless_hermitian(rng, N, scale / (k + 1)) for k in range(harmonics)]
    Bk = [random_traceless_hermitian(rng, N, scale / (k + 1)) for k in range(harmonics)]

    def evaluate(t):
        H = A0.copy()
        for k in range(harmonics):
            H += Ak[k] * np.cos((k + 1) * omega * t)
            H += Bk[k] * np.sin((k + 1) * omega * t)
        return H

    return BlockedHamiltonian(N=N, n=n, evaluator=evaluate)


def piecewise_constant(times, matrices, n: int = 1) -> BlockedHamiltonian:
    """Piecewise-constant schedule; each piece samples from the left edge."""
    times = np.asarray(times, dtype=float)
    matrices = [np.asarray(M, dtype=complex) for M in matrices]
    if len(matrices) != len(times):
        raise ModelError("need one matrix per breakpoint")
    N = matrices[0].shape[0]

    def evaluate(t):
        idx = int(np.searchsorted(times, t, side="right") - 1)
        idx = max(0, min(idx, len(matrices) - 1))
        return matrices[idx]

    return BlockedHamiltonian(N=N, n=n, evaluator=evaluate)


def _matrix_from_pairs(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ModelError("matrix entries must be nested [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def from_config(config: dict) -> BlockedHamiltonian:
    """Build a BlockedHamiltonian from the scenario-JSON description.

    Families: constant, spin_half, so5, trig_random, piecewise.  Matrix
    entries appear as [re, im] pairs; fields and F as plain real arrays.
    """
    family = config.get("family")
    params = config.get("params", {})
    n = int(config.get("n", 1))
    if family == "constant":
        return constant_hamiltonian(_matrix_from_pairs(params["matrix"]), n=n)
    if family == "spin_half":
        if "omega" in params:
            return rotating_spin_half(
                float(params.get("B0", 0.0)),
                float(params.get("B1", 0.0)),
                float(params["omega"]),
            )
        return spin_half(np.asarray(params["B"], dtype=float))
    if family == "so5":
        return build_so5(so5_from_params(params))
    if family == "trig_random":
        return trig_random(
            int(config["N"]),
            n=n,
            seed=int(config.get("seed", params.get("seed", 0))),
            harmonics=int(params.get("harmonics", 2)),
            omega=float(params.get("omega", 1.0)),
            scale=float(params.get("scale", 0.5)),
        )
    if family == "piecewise":
        matrices = [_matrix_from_pairs(M) for M in params["matrices"]]
        return piecewise_constant(params["times"], matrices, n=n)
    raise ModelError(f"unknown hamiltonian family: {family!r}")
