"""Matrix Riccati dynamics for the base-manifold coordinate z(t).

The (N-n) x n coordinate z obeys

    i dz/dt = Htop z + V - z (V^H z + Hbot),

integrated with classical fixed-step RK4 from z(0) = 0.  Every solver path
steps through one driver, ``_drive``, which is the only place restarts
happen: when ||z||_F would exceed the restart threshold the path folds its
current factors into the accumulated evolution and integration resumes from
z = 0; the product structure U = U_segment U_accum makes that exact.  The
SO(5) two-qubit case reduces to four real parameters and gets its own
right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import BlockedHamiltonian, SO5Coefficients
from .linalg import PAULI, dagger

DEFAULT_Z_MAX = 10.0
# Restarts closer together than this many grid steps indicate the trajectory
# hugs the coordinate singularity; bail out instead of thrashing.
MIN_STEPS_BETWEEN_RESTARTS = 4


class StiffnessError(RuntimeError):
    """Restarts requested too frequently near the coordinate singularity."""


@dataclass
class RiccatiTrajectory:
    """Uniform time grid with z samples and evolution-restart records.

    ``restarts`` holds (time, accumulated evolution operator) pairs; z is
    reset to zero at each restart time, so the stored sample there is the
    start of a fresh segment.
    """

    times: np.ndarray
    z_samples: np.ndarray  # (len(times), N-n, n) complex
    restarts: list = field(default_factory=list)
    est_error: float = 0.0

    @property
    def restart_times(self) -> np.ndarray:
        return np.array([t for t, _ in self.restarts])


def riccati_rhs(h_blocks, z: np.ndarray) -> np.ndarray:
    """dz/dt = -i [Htop z + V - z (V^H z + Hbot)]."""
    Htop, V, Hbot = h_blocks
    if z.shape != V.shape:
        raise ValueError(f"z has shape {z.shape}, expected {V.shape}")
    return -1j * (Htop @ z + V - z @ (dagger(V) @ z + Hbot))


def rk4_step(f, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta 4 step for dy/dt = f(t, y)."""
    k1 = f(t, y)
    k2 = f(t + dt / 2.0, y + dt / 2.0 * k1)
    k3 = f(t + dt / 2.0, y + dt / 2.0 * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite peak raises StiffnessError
def _drive(advance, fold, y0, t_end: float, steps: int, Z_max: float):
    """Fixed-step driver shared by every solver path; restarts happen here only.

    A path supplies a chart of two functions.  ``advance(t, dt, y)`` returns
    ``(y_new, peak, extra)``: the state one grid step later, the coordinate
    norm compared with Z_max, and the path's record of that step.
    ``fold(t, y)`` folds the current segment into the path's accumulated
    evolution and returns the zero state.  When a step's peak reaches Z_max
    the segment is folded, the stored state at that grid node becomes the
    zero state, and the step is retaken from it.

    Returns (times, states, extras): states[k] is the state at times[k] and
    extras[k] the record of the step from times[k] to times[k + 1].
    Raises StiffnessError when a peak is not finite, when restarts come
    fewer than MIN_STEPS_BETWEEN_RESTARTS steps apart, or when the step
    retaken from the zero state reaches Z_max again.
    """
    dt = t_end / steps
    times = np.linspace(0.0, t_end, steps + 1)
    states, extras = [y0], []
    y, last_restart = y0, None
    for k in range(steps):
        t = times[k]
        y_new, peak, extra = advance(t, dt, y)
        if not peak < Z_max:
            if not np.isfinite(peak):
                problem = f"coordinate norm is {peak}"
            elif last_restart is not None and k - last_restart < MIN_STEPS_BETWEEN_RESTARTS:
                problem = f"restart requested again after {k - last_restart} steps"
            else:
                last_restart = k
                y = states[k] = fold(t, y)
                y_new, peak, extra = advance(t, dt, y)
                problem = None if peak < Z_max else (
                    f"coordinate norm reaches {peak:.3g} within one step of a restart"
                )
            if problem:
                raise StiffnessError(
                    f"{problem} at t={t:.6g} (step {k}): trajectory passes too near "
                    "the coordinate singularity"
                )
        y = y_new
        states.append(y)
        extras.append(extra)
    return times, states, extras


def integrate_riccati(
    h: BlockedHamiltonian,
    t_end: float,
    steps: int,
    Z_max: float = DEFAULT_Z_MAX,
) -> RiccatiTrajectory:
    """Integrate z(t) on a uniform grid of `steps` RK4 steps.

    Returns the trajectory produced by the full factored solve, so restart
    records carry genuinely accumulated (unitary) evolution operators and the
    step-doubling error estimate of the z integration.
    """
    from .factorization import solve_factored  # deferred: factorization builds on us

    return solve_factored(h, t_end, steps, Z_max=Z_max).trajectory


def so5_rhs(F: np.ndarray, z: np.ndarray) -> np.ndarray:
    """dz_mu/dt = F[5,mu](1 - z.z) + 2 F[mu,nu] z_nu + 2 F[5,nu] z_nu z_mu.

    z holds (z1, z2, z3, z4); F is the antisymmetric 5x5 coefficient matrix
    with 0-based indices, so F[4, mu] is the row coupling to the pole.
    """
    z = np.asarray(z, dtype=float)
    zz = float(z @ z)
    return F[4, :4] * (1.0 - zz) + 2.0 * (F[:4, :4] @ z) + 2.0 * float(F[4, :4] @ z) * z


def so5_z_matrix(z: np.ndarray) -> np.ndarray:
    """Quaternionic rendering z4 I - i z_i sigma_i as a 2x2 complex matrix."""
    out = z[3] * np.eye(2, dtype=complex)
    for i in range(3):
        out = out - 1j * z[i] * PAULI[i]
    return out


def so5_z_params(zmat: np.ndarray) -> np.ndarray:
    """Inverse of so5_z_matrix; valid for matrices in the quaternionic span."""
    z4 = complex(np.trace(zmat)) / 2.0
    zi = [complex(np.trace(zmat @ PAULI[i])) * 0.5j for i in range(3)]
    return np.array([zi[0].real, zi[1].real, zi[2].real, z4.real])


def integrate_so5(
    coeffs: SO5Coefficients,
    t_end: float,
    steps: int,
    Z_max: float = DEFAULT_Z_MAX,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Integrate the four-real-parameter SO(5) Riccati form.

    Returns (times, z samples of shape (steps+1, 4), restart times).  The
    restart rule matches the matrix form: the quaternionic rendering has
    ||z||_F = sqrt(2 z.z), so restarts trigger at the same trajectory points.
    """
    restarts: list = []

    def f(t, y):
        return so5_rhs(coeffs.at(t), y)

    def advance(t, dt, z):
        z_half = rk4_step(f, t, z, dt / 2.0)
        z_new = rk4_step(f, t + dt / 2.0, z_half, dt / 2.0)
        return z_new, np.sqrt(2.0 * np.maximum(z_half @ z_half, z_new @ z_new)), None

    def fold(t, z):
        restarts.append(t)
        return np.zeros(4)

    times, states, _ = _drive(advance, fold, np.zeros(4), t_end, steps, Z_max)
    return times, np.array(states), restarts
