"""Brute-force propagator used as ground truth.

Midpoint-exponential stepping: U_{k+1} = exp(-i H(t_k + dt/2) dt) U_k.
Second order for time-dependent H, exact for constant H, and exactly unitary
per step (up to the exponential's roundoff), so unitarity drift observed
elsewhere cannot be blamed on the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import BlockedHamiltonian, ModelError
from .linalg import _unitary_step, dagger, frobenius, is_hermitian


@dataclass
class PropagationResult:
    times: np.ndarray
    U_samples: np.ndarray
    est_error: float

    @property
    def U_final(self) -> np.ndarray:
        return self.U_samples[-1]


@dataclass(frozen=True)
class ComparisonResult:
    """Plain and global-phase-insensitive Frobenius distances."""

    plain: float
    phase_insensitive: float


def _evaluator(h):
    if isinstance(h, BlockedHamiltonian):
        return h.matrix
    return lambda t: np.asarray(h(t), dtype=complex)


def _propagate_once(evaluate, t_end: float, steps: int) -> np.ndarray:
    dt = t_end / steps
    N = evaluate(0.0).shape[0]
    U_samples = np.zeros((steps + 1, N, N), dtype=complex)
    U_samples[0] = np.eye(N)
    for k in range(steps):
        t_mid = (k + 0.5) * dt
        H = evaluate(t_mid)
        if not is_hermitian(H, 1e-10):
            raise ModelError(f"H(t={t_mid}) is not Hermitian within 1e-10")
        U_samples[k + 1] = _unitary_step(H, dt) @ U_samples[k]
    return U_samples


def propagate(h, t_end: float, steps: int, estimate_error: bool = True) -> PropagationResult:
    """Propagate i dU/dt = H(t) U from U(0) = I.

    `h` is a BlockedHamiltonian or a plain evaluator t -> matrix.  The error
    estimate compares the endpoint against a run with doubled step count.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    evaluate = _evaluator(h)
    U_samples = _propagate_once(evaluate, t_end, steps)
    est_error = 0.0
    if estimate_error:
        U_fine = _propagate_once(evaluate, t_end, 2 * steps)
        est_error = frobenius(U_fine[-1] - U_samples[-1])
    return PropagationResult(
        times=np.linspace(0.0, t_end, steps + 1),
        U_samples=U_samples,
        est_error=est_error,
    )


def compare(U_a: np.ndarray, U_b: np.ndarray) -> ComparisonResult:
    """Frobenius distance, plain and minimized over a global phase.

    The phase-insensitive distance is min over unit phases of
    ||U_a - e^{i phi} U_b||_F; trace-subtraction bookkeeping in the
    factorized solvers can differ from the oracle by exactly such a phase.
    """
    if U_a.shape != U_b.shape:
        raise ValueError(f"shape mismatch: {U_a.shape} vs {U_b.shape}")
    plain = frobenius(U_a - U_b)
    overlap = complex(np.trace(dagger(U_a) @ U_b))
    # materialize the optimally-phased difference; the closed form
    # sqrt(||A||^2 + ||B||^2 - 2|tr|) loses half the digits near zero
    phase = np.conj(overlap) / abs(overlap) if overlap != 0.0 else 1.0
    return ComparisonResult(plain=plain, phase_insensitive=frobenius(U_a - phase * U_b))
