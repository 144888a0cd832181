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
from .riccati import _BLOCK, DEFAULT_Z_MAX, _chain, _drive, so5_z_params

# A step's RK4 step matrix P is unresolved when ||P^H P - I||_F exceeds this.
# For one eigenvalue of the generator, |R(i x)|^2 = 1 - x^6/72 + x^8/576 at
# x = dt |E|: x = 0.5 reads 2e-4, x = 1 (six steps per period) 1.2e-2.
MAX_STEP_DEFECT = 1e-2


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

    Each grid step applies RK4's step matrix for the linear flow (_precess).
    omega(t) is the antisymmetric d x d generator, read once per node of
    _drive's schedule (t, t + dt/2 and t + dt of the uniform grid), with d
    from the first node.  The reads are checked as one stack before any step:
    ModelError names the first node whose generator is not d x d, not finite
    or not antisymmetric within 1e-12.  The unit vector has no pole, so there
    are no restarts; a step whose step matrix is far from orthogonal raises
    StiffnessError.
    """
    return _precess(lambda ts: checked_stack("Omega", ts, omega, contract=F_CONTRACT, dtype=float), t_end, steps)[0]


@np.errstate(over="ignore", invalid="ignore")  # a step matrix that overflows fails the guard
def _precess(read, t_end: float, steps: int, breakpoints=()):
    """(m, omega) at the grid nodes: m <- P_j m from the pole, one RK4 step matrix per step.

    read(ts) gives the generators at the nodes of _drive's schedule, and
    P_j is RK4's step matrix for dm/dt = omega m on the step's three nodes
    (_rk4_propagator), built _BLOCK steps at a time.  The flow is linear
    and m has no pole, so m is chained with no projection and no restart
    (riccati._chain, as the Riccati paths' product).  Each block's defects
    ||P^H P - I||_F are checked in one pass before its steps are taken: a
    step whose defect exceeds MAX_STEP_DEFECT or is not finite raises
    StiffnessError.  omega at a jump is the fresh read.
    """
    _, dt, values, index = _drive(read, t_end, steps, breakpoints)
    m = np.empty((steps + 1, values.shape[-1]))
    m[0] = np.eye(values.shape[-1])[-1]

    def block(a):
        P = _rk4_propagator(values[index[:, a : a + _BLOCK]], dt)
        defects = np.linalg.norm(P.mT @ P - np.eye(m.shape[1]), axis=(-2, -1))  # ||P^H P - I||_F, P real
        # a step fails above the bound or when not finite
        return P, defects, ~(defects <= MAX_STEP_DEFECT), "the RK4 propagator is {:.3g} from unitary (||P^H P - I||_F)"

    _, unresolved = _chain(block, m, dt)
    if unresolved:
        raise unresolved
    return m, values[np.append(index[0], index[2, -1])]


def _rk4_propagator(K: np.ndarray, dt: float) -> np.ndarray:
    """RK4's exact step matrix P for the linear flow dy/dt = K(t) y: riccati.rk4_step(y) = P y.

    K stacks the generator at each step's start, midpoint and end node on
    its first axis, (3, ..., N, N); P is (..., N, N), built in batched calls:

        P = I + dt/6 (K_a + 2 B_2 + 2 B_3 + B_4),
        B_2 = K_m (I + dt/2 K_a), B_3 = K_m (I + dt/2 B_2), B_4 = K_b (I + dt B_3).

    A zero K gives P = I exactly.  Only the precession steps by it; the
    Riccati paths take Magnus steps (riccati._magnus4).
    """
    K_a, K_m, K_b = K
    B2 = K_m + (dt / 2.0) * (K_m @ K_a)
    B3 = K_m + (dt / 2.0) * (K_m @ B2)
    B4 = K_b + dt * (K_b @ B3)
    return (dt / 6.0) * (K_a + 2.0 * (B2 + B3) + B4) + np.eye(K.shape[-1])


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

    The solve and the precession each read the model once per node of the
    schedule (crosscheck_pictures recovers F from a second checked read of
    H), so F is evaluated twice per node.
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
