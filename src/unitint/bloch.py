"""Stereographic Bloch maps and the linear precession pictures.

The base coordinate z maps to a real unit vector by inverse stereographic
projection: a 3-vector for a single spin, a 5-vector for the SO(5) two-qubit
model.  In both cases the nonlinear Riccati flow becomes linear precession
of the unit vector, which has no coordinate pole; cross-checking the two
pictures (including across Riccati restarts) is the point of this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factorization import base_coordinate, solve_factored
from .hamiltonian import (
    _SO5_GENERATORS,
    MODEL_TOL,
    ModelError,
    SO5Coefficients,
    build_so5,
    from_config,
    so5_matrix,
    spin_half,
)
from .linalg import PAULI, frobenius
from .riccati import DEFAULT_Z_MAX, _drive, rk4_step, so5_z_params


def project2(z: complex) -> np.ndarray:
    """Unit 3-vector from a complex scalar: m+ = -2 z*/(1+|z|^2), m3 = (1-|z|^2)/(1+|z|^2).

    An array of scalars gives a stack of vectors along a new last axis.
    """
    z = np.asarray(z)
    g = 1.0 + np.abs(z) ** 2
    m_plus = -2.0 * np.conj(z) / g
    return np.stack((m_plus.real, m_plus.imag, (2.0 - g) / g), axis=-1)


def project5(z: np.ndarray) -> np.ndarray:
    """Unit 5-vector from four reals: m_mu = -2 z_mu/(1+z.z), m5 = (1-z.z)/(1+z.z).

    A stack of parameter rows (leading axes before the last) gives a stack of vectors.
    """
    z = np.asarray(z, dtype=float)
    g = 1.0 + (z[..., None, :] @ z[..., :, None])[..., 0]
    return np.concatenate((-2.0 * z / g, (2.0 - g) / g), axis=-1)


def bloch3_rhs(B: np.ndarray, m: np.ndarray, kappa: float = 1.0) -> np.ndarray:
    """dm/dt = -kappa B x m.

    With H = -(1/2) sigma.B and the projection above, direct computation
    gives kappa = 1; crosscheck_pictures measures it rather than assuming it.
    """
    return -kappa * np.cross(np.asarray(B, float), m)


def bloch5_rhs(F: np.ndarray, m: np.ndarray) -> np.ndarray:
    """dm/dt = 2 F m; antisymmetry of F conserves the norm exactly."""
    return 2.0 * F @ m


def _integrate_linear(f, m0: np.ndarray, t_end: float, steps: int) -> np.ndarray:
    """RK4 trajectory of a linear picture; the unit vector has no pole, so no restarts."""
    _, states, _, _ = _drive(
        lambda t, dt, m: (rk4_step(f, t, m, dt), 0.0, None), m0, t_end, steps, np.inf
    )
    return np.array(states)


def integrate_bloch3(B, t_end: float, steps: int, m0=None, kappa: float = 1.0) -> np.ndarray:
    """RK4 trajectory of the linear 3-vector equation on a uniform grid."""
    Bfun = B if callable(B) else (lambda t, b=np.asarray(B, float): b)
    m = np.array([0.0, 0.0, 1.0]) if m0 is None else np.asarray(m0, float)
    return _integrate_linear(lambda t, y: bloch3_rhs(Bfun(t), y, kappa), m, t_end, steps)


def integrate_bloch5(coeffs: SO5Coefficients, t_end: float, steps: int, m0=None) -> np.ndarray:
    """RK4 trajectory of the linear 5-vector equation on a uniform grid."""
    m = np.array([0.0, 0.0, 0.0, 0.0, 1.0]) if m0 is None else np.asarray(m0, float)
    return _integrate_linear(lambda t, y: bloch5_rhs(coeffs.at(t), y), m, t_end, steps)


@dataclass
class CrosscheckReport:
    """Outcome of comparing the Riccati-mapped and linear Bloch pictures."""

    times: np.ndarray
    m_riccati: np.ndarray
    m_linear: np.ndarray
    max_deviation: float
    norm_drift: float
    restarts: int
    kappa: float | None = None  # measured precession constant (spin-1/2 only)
    fd_residual: float | None = None  # max |dm/dt - 2 F m| by centered differences


def _fit_kappa(times: np.ndarray, m: np.ndarray, Bfun) -> float:
    """Least-squares kappa in dm/dt = -kappa B x m from centered differences."""
    num = 0.0
    den = 0.0
    for k in range(1, len(times) - 1):
        dm = (m[k + 1] - m[k - 1]) / (times[k + 1] - times[k - 1])
        cx = -np.cross(Bfun(times[k]), m[k])
        num += float(dm @ cx)
        den += float(cx @ cx)
    return num / den if den > 0 else float("nan")


def crosscheck_su2(
    B, t_end: float, steps: int, Z_max: float = DEFAULT_Z_MAX
) -> CrosscheckReport:
    """Compare the Riccati picture with linear precession for a spin-1/2 field."""
    Bfun = B if callable(B) else (lambda t, b=np.asarray(B, float): b)
    h = spin_half(Bfun)
    result = solve_factored(h, t_end, steps, Z_max=Z_max)
    m_ric = project2(base_coordinate(result.U_samples, 2, 1)[:, 0, 0])
    m_lin = integrate_bloch3(Bfun, t_end, steps)
    dev = float(np.max(np.linalg.norm(m_ric - m_lin, axis=1)))
    drift = float(np.max(np.abs(np.linalg.norm(m_lin, axis=1) - 1.0)))
    return CrosscheckReport(
        times=result.times,
        m_riccati=m_ric,
        m_linear=m_lin,
        max_deviation=dev,
        norm_drift=drift,
        restarts=len(result.restarts),
        kappa=_fit_kappa(result.times, m_ric, Bfun),
    )


def crosscheck_so5(
    coeffs: SO5Coefficients, t_end: float, steps: int, Z_max: float = DEFAULT_Z_MAX
) -> CrosscheckReport:
    """Compare the Riccati picture with the linear 5-vector equation."""
    h = build_so5(coeffs)
    result = solve_factored(h, t_end, steps, Z_max=Z_max)
    m_ric = project5(so5_z_params(base_coordinate(result.U_samples, 4, 2)))
    m_lin = integrate_bloch5(coeffs, t_end, steps)
    dev = float(np.max(np.linalg.norm(m_ric - m_lin, axis=1)))
    drift = float(np.max(np.abs(np.linalg.norm(m_lin, axis=1) - 1.0)))
    fd = 0.0
    for k in range(1, len(result.times) - 1):
        dm = (m_ric[k + 1] - m_ric[k - 1]) / (result.times[k + 1] - result.times[k - 1])
        fd = max(fd, float(np.max(np.abs(dm - bloch5_rhs(coeffs.at(result.times[k]), m_ric[k])))))
    return CrosscheckReport(
        times=result.times,
        m_riccati=m_ric,
        m_linear=m_lin,
        max_deviation=dev,
        norm_drift=drift,
        restarts=len(result.restarts),
        fd_residual=fd,
    )


def crosscheck_pictures(model, t_end: float, steps: int, Z_max: float = DEFAULT_Z_MAX):
    """Cross-check the pictures of a spin-1/2 or SO(5) two-qubit model.

    ``model`` is a BlockedHamiltonian (N = 2, or N = 4 with n = 2 and H in
    the SO(5) span) or a scenario config of family spin_half or so5, which
    is built once here.  B(t) or F(t) is read back from H(t).
    """
    if isinstance(model, dict):
        family = model.get("family")
        if family not in ("spin_half", "so5"):
            raise ValueError(f"cross-check supports spin_half and so5, not {family!r}")
        model = from_config(model)
    if model.N == 2:
        return crosscheck_su2(lambda t: _spin_field_of(model, t), t_end, steps, Z_max)
    if (model.N, model.n) == (4, 2):
        coeffs = SO5Coefficients(F=lambda t: _so5_field_of(model, t))
        return crosscheck_so5(coeffs, t_end, steps, Z_max)
    raise ValueError(f"cross-check supports N = 2 and SO(5) models, not N={model.N}, n={model.n}")


def _spin_field_of(h, t: float) -> np.ndarray:
    """Recover B(t) from a spin-1/2 Hamiltonian H = -(1/2) sigma.B; ModelError for an invalid H."""
    H = h.checked_matrix(t)
    return np.array([-2.0 * np.real(np.trace(H @ s)) / 2.0 for s in PAULI])


def _so5_field_of(h, t: float) -> np.ndarray:
    """Recover the antisymmetric F(t) from an SO(5) two-qubit H(t) = so5_matrix(F).

    Each F[a, b], a > b, multiplies a distinct two-qubit Pauli product, so it is
    Re tr(G_ab^H H) / 4; ModelError when H leaves the SO(5) span.
    """
    H = h.matrix(t)
    lower = np.tensordot(_SO5_GENERATORS.conj(), H, axes=([2, 3], [0, 1])).real / 4.0
    F = lower - lower.T
    if not frobenius(so5_matrix(F) - H) <= MODEL_TOL:
        raise ModelError(f"H(t={t}) is not an SO(5) two-qubit Hamiltonian")
    return F
