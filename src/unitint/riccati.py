"""Matrix Riccati dynamics for the base-manifold coordinate z(t).

The (N-n) x n coordinate z obeys

    i dz/dt = Htop z + V - z (V^H z + Hbot),

integrated with classical fixed-step RK4 from z(0) = 0.  Every Riccati
solver path steps through one driver, ``_drive``, whose docstring is the one
description of the node schedule: the driver reads the model at t,
t + dt/2 and t + dt, and the path takes one ``rk4_step`` on those node
values.  The driver is also the only place restarts happen: when ||z||_F
would exceed the restart threshold it records a fold, the state the
segment reached, and integration resumes from z = 0.
The product structure U = U_segment U_accum makes that exact; each path
assembles U, its phases and its restart records from the folds once, after
the solve.  The SO(5) two-qubit case reduces to four real parameters and
gets its own right-hand side; on the shared step that reduction holds step
for step, restarts included.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import SO5Coefficients
from .linalg import PAULI, dagger

DEFAULT_Z_MAX = 10.0
# Restarts closer together than this many grid steps indicate the trajectory
# hugs the coordinate singularity; bail out instead of thrashing.
MIN_STEPS_BETWEEN_RESTARTS = 4


class StiffnessError(RuntimeError):
    """The coordinate diverged, or restarts come too often near its singularity.

    ``t`` and ``step`` name the grid step the driver gave up on and ``peak``
    the coordinate norm that step reached.
    """

    def __init__(self, message: str, t: float, step: int, peak: float):
        super().__init__(message)
        self.t, self.step, self.peak = t, step, peak


def riccati_rhs(h_blocks, z: np.ndarray) -> np.ndarray:
    """dz/dt = -i [Htop z + V - z (V^H z + Hbot)]."""
    Htop, V, Hbot = h_blocks
    if z.shape != V.shape:
        raise ValueError(f"z has shape {z.shape}, expected {V.shape}")
    return -1j * (Htop @ z + V - z @ (dagger(V) @ z + Hbot))


def rk4_step(f, y: np.ndarray, dt: float, k1: np.ndarray, x_mid, x_end) -> np.ndarray:
    """One classical Runge-Kutta 4 step for dy/dt = f(x(t), y).

    f takes the model value x at a node, not a time: x_mid and x_end are x at
    t + dt/2 and t + dt, and the caller supplies the first stage k1 =
    f(x(t), y), which a path may carry over from the step before.
    """
    k2 = f(x_mid, y + dt / 2.0 * k1)
    k3 = f(x_mid, y + dt / 2.0 * k2)
    k4 = f(x_end, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite peak raises StiffnessError
def _drive(advance, read, y0, t_end: float, steps: int, Z_max: float, breakpoints=()):
    """Fixed-step driver shared by every Riccati path: it alone reads the model and restarts.

    Node schedule.  The step from t to t + dt reads the model through
    ``read`` (a validating evaluator such as BlockedHamiltonian.blocks_at or
    SO5Coefficients.at) at the nodes t, t + dt/2 and t + dt.  The end node
    carries over as the next step's start node, so a solve makes 2 steps + 1
    reads, and a step retaken after a fold keeps its nodes.  A piecewise model
    jumps at its ``breakpoints``: a node within 1e-12 relative of one snaps
    to it, a step that ends on one reads its end node as the left limit (the
    float just below it), and the next step reads its start node afresh, one
    more read per breakpoint on the grid.

    A path supplies ``advance(dt, y, x, start)``, with x the model's values
    at the three nodes, and returns ``(y_new, peak, extra, end)``: the state
    one grid step later, the coordinate norm compared with Z_max, the path's
    record of the step, and what the path derived at x[2] from y_new.  That
    ``end`` comes back as the next step's ``start``, what the path would
    derive at x[0] from y, so the path need not recompute it; ``start`` is
    None at the first step, for a retaken step and after a breakpoint.

    When a step's peak reaches Z_max the driver records the fold ``(k, y)``,
    with y the state the segment reached at grid node k; the stored state at
    that node becomes y0, which starts the next segment, and the step is
    retaken from it.  The path assembles U, phases and restart records from
    the folds after the solve.

    Returns (times, states, extras, folds): states[k] is the state at
    times[k], extras[k] the record of the step from times[k] to
    times[k + 1], and folds the (k, y) pairs in order.  Raises
    StiffnessError when a peak is not finite, when restarts come fewer than
    MIN_STEPS_BETWEEN_RESTARTS steps apart, or when the step retaken from y0
    reaches Z_max again; ValueError when steps < 1.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = t_end / steps
    times = np.linspace(0.0, t_end, steps + 1)
    breakpoints = np.asarray(breakpoints, dtype=float)
    states, extras, folds = [y0], [], []
    y, x_end, start = y0, None, None
    for k in range(steps):
        t = times[k]
        nodes = np.array([t, t + dt / 2.0, t + dt])
        jump = False
        if breakpoints.size:
            near = breakpoints[np.abs(breakpoints[:, None] - nodes).argmin(axis=0)]
            nodes = np.where(np.abs(near - nodes) <= 1e-12 * np.abs(near), near, nodes)
            jump = nodes[-1] in breakpoints
            if jump:
                nodes[-1] = np.nextafter(nodes[-1], -np.inf)
        x = (read(nodes[0]) if x_end is None else x_end, read(nodes[1]), read(nodes[2]))
        y_new, peak, extra, end = advance(dt, y, x, start)
        if not peak < Z_max:
            if not np.isfinite(peak):
                problem = f"coordinate norm is {peak}"
            elif folds and k - folds[-1][0] < MIN_STEPS_BETWEEN_RESTARTS:
                problem = f"restart requested again after {k - folds[-1][0]} steps"
            else:
                folds.append((k, y))
                y = states[k] = y0
                y_new, peak, extra, end = advance(dt, y, x, None)
                problem = None if peak < Z_max else (
                    f"coordinate norm reaches {peak:.3g} within one step of a restart"
                )
            if problem:
                raise StiffnessError(
                    f"{problem} at t={t:.6g} (step {k}): trajectory passes too near "
                    "the coordinate singularity",
                    t=float(t), step=k, peak=float(peak),
                )
        y = y_new
        states.append(y)
        extras.append(extra)
        x_end, start = (None, None) if jump else (x[2], end)
    return times, states, extras, folds


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
    """Inverse of so5_z_matrix; valid for matrices in the quaternionic span.

    z_i = Re(i tr(zmat sigma_i)/2) and z4 = Re tr(zmat)/2; a stack of
    matrices (leading axes before the 2 x 2 ones) gives a stack of parameters.
    """
    zmat = np.asarray(zmat, dtype=complex)
    zi = (0.5j * np.einsum("...ab,iba->...i", zmat, np.array(PAULI))).real
    z4 = np.trace(zmat, axis1=-2, axis2=-1).real / 2.0
    return np.concatenate((zi, z4[..., None]), axis=-1)


def integrate_so5(
    coeffs: SO5Coefficients,
    t_end: float,
    steps: int,
    Z_max: float = DEFAULT_Z_MAX,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Integrate the four-real-parameter SO(5) Riccati form.

    Returns (times, z samples of shape (steps+1, 4), restart times).  It
    takes the matrix form's step: F is read on _drive's node schedule, z
    takes one classical RK4 step on the three node values, and the restart
    rule compares sqrt(2 z.z), which is ||z||_F of the quaternionic
    rendering, with Z_max at the grid node.  So
    z agrees with so5_z_params of solve_factored(build_so5(coeffs)) to
    roundoff at every node, restarts included.  The error is that of one
    RK4 step per grid step: fourth order in dt, about 16x that of two half
    steps, so twice the steps buy it back.
    """
    def advance(dt, z, x, _):
        F_a, F_m, F_b = x
        z_new = rk4_step(so5_rhs, z, dt, so5_rhs(F_a, z), F_m, F_b)
        return z_new, np.sqrt(2.0 * (z_new @ z_new)), None, None

    times, states, _, folds = _drive(advance, coeffs.at, np.zeros(4), t_end, steps, Z_max)
    return times, np.array(states), [times[k] for k, _ in folds]
