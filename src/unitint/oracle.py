"""Brute-force propagator used as ground truth.

Midpoint-exponential stepping: U_{k+1} = exp(-i H(t_k + dt/2) dt) U_k.
Second order for time-dependent H, exact for constant H, and exactly unitary
per step (up to the exponential's roundoff), so unitarity drift observed
elsewhere cannot be blamed on the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import BlockedHamiltonian, checked_stack
from .linalg import _running_product, _unitary_step, dagger, frobenius


@dataclass
class PropagationResult:
    times: np.ndarray
    U_samples: np.ndarray

    @property
    def U_final(self) -> np.ndarray:
        return self.U_samples[-1]


@dataclass(frozen=True)
class ComparisonResult:
    """Plain and global-phase-insensitive Frobenius distances."""

    plain: float
    phase_insensitive: float


def propagate(h, t_end: float, steps: int) -> PropagationResult:
    """Propagate i dU/dt = H(t) U from U(0) = I.

    `h` is a BlockedHamiltonian or a plain evaluator t -> matrix.  H is read
    once per step, at the midpoints, before the first step; the first read
    fixes N, and checked_stack names the first midpoint that breaks the model
    contract.  The step exponentials are one call of the solvers' stacked
    Taylor step exponential (linalg._unitary_step, by _expm1), with no
    decomposition.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    dt = t_end / steps
    ts = (np.arange(steps) + 0.5) * dt
    H = h.read(ts) if isinstance(h, BlockedHamiltonian) else checked_stack("H", ts, h)
    U_samples = _running_product(_unitary_step(H, dt))
    return PropagationResult(times=np.linspace(0.0, t_end, steps + 1), U_samples=U_samples)


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
