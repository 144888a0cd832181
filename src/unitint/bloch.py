"""Stereographic Bloch maps and the linear precession picture.

The base coordinate z maps to a real unit vector m by inverse stereographic
projection: a 3-vector for a single spin, a 5-vector for the SO(5) two-qubit
model.  In both cases the nonlinear Riccati flow becomes linear precession
dm/dt = Omega(t) m with an antisymmetric generator, Omega = -[B]x for
spin-1/2 and 2F for SO(5), which has no coordinate pole.  One integrator
(precess), stepped by the Riccati paths' driver on their node schedule, and
one cross-check core serve both models; cross-checking the two pictures,
including across Riccati restarts, is the point of this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factorization import FactoredResult, base_coordinate, solve_factored
from .hamiltonian import (
    _SO5_GENERATORS,
    EPSILON,
    F_CONTRACT,
    MODEL_TOL,
    ModelError,
    SO5Coefficients,
    build_so5,
    checked_stack,
    so5_matrix,
    spin_half,
)
from .linalg import PAULI
from .riccati import DEFAULT_Z_MAX, _drive, _sweep, so5_z_params


def project5(z: np.ndarray) -> np.ndarray:
    """The stereographic map: m_mu = -2 z_mu/(1+z.z), m_last = (1-z.z)/(1+z.z).

    Four reals give the SO(5) unit 5-vector.  A stack of parameter rows
    (leading axes before the last) gives a stack of vectors.
    """
    z = np.asarray(z, dtype=float)
    g = 1.0 + (z[..., None, :] @ z[..., :, None])[..., 0]
    return np.concatenate((-2.0 * z / g, (2.0 - g) / g), axis=-1)


def project2(z: complex) -> np.ndarray:
    """Unit 3-vector from a complex scalar: project5 of (Re z, -Im z).

    That is m+ = -2 z*/(1+|z|^2), m3 = (1-|z|^2)/(1+|z|^2); an array of
    scalars gives a stack of vectors along a new last axis.
    """
    z = np.asarray(z)
    return project5(np.stack((z.real, -z.imag), axis=-1))


def precess(omega, t_end: float, steps: int) -> np.ndarray:
    """RK4 trajectory of dm/dt = omega(t) m from the pole m = (0, ..., 0, 1).

    omega(t) is the antisymmetric d x d generator, read once per node of
    _drive's schedule (t, t + dt/2 and t + dt of the uniform grid), with d
    from the first node.  The reads are checked as one stack before any step:
    ModelError names the first node whose generator is not d x d, not finite
    or not antisymmetric within 1e-12.  The unit vector has no pole, so there
    are no restarts.
    """
    def read(ts):
        values = [np.asarray(omega(t), dtype=float) for t in ts]
        d = len(values[0]) if values[0].ndim else 1
        return checked_stack("Omega", ts, values, (d, d), F_CONTRACT)

    return _precess(read, t_end, steps)[0]


def _precess(read, t_end: float, steps: int, breakpoints=()):
    """(m, omega) at the grid nodes: one _sweep of rk4_step on np.matmul from the pole.

    read(ts) gives the generators at the nodes of _drive's schedule.  Z_max
    is infinite, so the sweep never restarts, and omega at a jump is the
    fresh read.
    """
    _, dt, values, index = _drive(read, t_end, steps, breakpoints)
    m = _sweep(np.matmul, values, index, np.eye(values.shape[-1])[-1], dt, np.inf)[0]
    return m, values[np.append(index[0], index[2, -1])]


@dataclass
class CrosscheckReport:
    """Outcome of comparing the Riccati-mapped and linear Bloch pictures."""

    times: np.ndarray
    m_riccati: np.ndarray
    m_linear: np.ndarray
    max_deviation: float
    norm_drift: float
    restarts: int
    kappa: float  # least-squares kappa in dm/dt = kappa Omega m along m_riccati
    fd_residual: float  # max |dm/dt - Omega m| along m_riccati, centered differences


def _crosscheck(result: FactoredResult, omegas) -> CrosscheckReport:
    """Compare a factored solve's Riccati picture with precession under the stack omegas(ts)."""
    times = result.times
    if result.h.N == 2:
        m_ric = project2(base_coordinate(result.U_samples, 2, 1)[:, 0, 0])
    else:
        m_ric = project5(so5_z_params(base_coordinate(result.U_samples, 4, 2)))
    m_lin, W = _precess(omegas, times[-1], len(times) - 1, result.h.breakpoints)
    dm = (m_ric[2:] - m_ric[:-2]) / (times[2:] - times[:-2])[:, None]
    rhs = (W[1:-1] @ m_ric[1:-1, :, None])[..., 0]
    den = float(np.sum(rhs * rhs))
    return CrosscheckReport(
        times=times,
        m_riccati=m_ric,
        m_linear=m_lin,
        max_deviation=float(np.max(np.linalg.norm(m_ric - m_lin, axis=1))),
        norm_drift=float(np.max(np.abs(np.linalg.norm(m_lin, axis=1) - 1.0))),
        restarts=len(result.restarts),
        kappa=float(np.sum(dm * rhs)) / den if den > 0 else float("nan"),
        fd_residual=float(np.max(np.abs(dm - rhs), initial=0.0)),
    )


def crosscheck_su2(
    B, t_end: float, steps: int, Z_max: float = DEFAULT_Z_MAX
) -> CrosscheckReport:
    """Compare the Riccati picture with linear precession for a spin-1/2 field B(t)."""
    return crosscheck_pictures(solve_factored(spin_half(B), t_end, steps, Z_max=Z_max))


def crosscheck_so5(
    coeffs: SO5Coefficients, t_end: float, steps: int, Z_max: float = DEFAULT_Z_MAX
) -> CrosscheckReport:
    """Compare the Riccati picture with the linear 5-vector equation dm/dt = 2 F m.

    F is recovered from the solve's checked H (crosscheck_pictures), so the
    two pictures read the model once.
    """
    return crosscheck_pictures(solve_factored(build_so5(coeffs), t_end, steps, Z_max=Z_max))


def crosscheck_pictures(result: FactoredResult) -> CrosscheckReport:
    """Cross-check the pictures of a factored solve of a spin-1/2 or SO(5) model.

    ``result.h`` is N = 2, or N = 4 with n = 2 and H in the SO(5) span.  H(t)
    is read as one checked stack (BlockedHamiltonian.read), B(t) or F(t) is
    recovered from it in one pass, and ModelError names the first node whose
    H is invalid or outside the model.
    """
    h = result.h
    if h.N == 2:  # H = -(1/2) sigma.B, so B_i = -Re tr(H sigma_i)
        B = lambda H: -np.trace(H[:, None] @ np.array(PAULI), axis1=-2, axis2=-1).real  # noqa: E731
        return _crosscheck(result, lambda ts: _spin_generator(B(h.read(ts))))
    if (h.N, h.n) == (4, 2):
        return _crosscheck(result, lambda ts: 2.0 * _so5_fields(ts, h.read(ts)))
    raise ValueError(f"cross-check supports N = 2 and SO(5) models, not N={h.N}, n={h.n}")


def _spin_generator(B) -> np.ndarray:
    """Omega = -[B]x (m -> -B x m), Omega_ij = eps_ijk B_k, over any leading axes of B."""
    return np.einsum("ijk,...k->...ij", EPSILON, B)


def _so5_fields(ts, H: np.ndarray) -> np.ndarray:
    """F from a stack of SO(5) two-qubit H = so5_matrix(F) read at ts: each F[a, b], a > b,
    multiplies its own Pauli product, so it is Re tr(G_ab^H H) / 4.  ModelError names the
    first t whose H leaves the SO(5) span.
    """
    # one (25, 16) x (16, 1) product per node: the same rounding for any number of nodes
    GH = _SO5_GENERATORS.conj().reshape(25, 16) @ H.reshape(-1, 16, 1)
    lower = GH.real.reshape(-1, 5, 5) / 4.0
    F = lower - lower.mT
    off = np.linalg.norm(so5_matrix(F) - H, axis=(-2, -1)) > MODEL_TOL
    if off.any():
        raise ModelError(f"H(t={ts[off.argmax()]}) is not an SO(5) two-qubit Hamiltonian")
    return F
