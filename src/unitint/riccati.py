"""Matrix Riccati dynamics for the base-manifold coordinate z(t).

The (N-n) x n coordinate z obeys

    i dz/dt = Htop z + V - z (V^H z + Hbot),

integrated with classical fixed-step RK4 from z(0) = 0 in projective form:
the state W = [z; I_n] steps under f(K, W) = K W - W (K W)[m:] with
K = -iH (``_projective_rhs``), one right-hand side for every block size and
for every level of the hierarchical peel at once.  Every Riccati solver
path, and the linear Bloch precession, reads its model through one
function, ``_drive``, whose docstring is the one description of the node
schedule: the model is read at t, t + dt/2 and t + dt of every step before
the first, and the path sweeps its coordinate by ``rk4_step`` on those node
values.  Restarts happen in place under one rule, _fold_guard: when the
step from node j takes ||z||_F to the restart threshold, the sweep records
the fold, the state it reached at j, and retakes that step from z = 0; the
hierarchical peel restarts each of its levels on its own under that rule.
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
# Steps of node values per block of _sweep's gathers, solve_factored's batched
# passes and _segments' U assembly: the block bounds their temporaries.
_BLOCK = 2048


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
    f(x(t), y).
    """
    k2 = f(x_mid, y + dt / 2.0 * k1)
    k3 = f(x_mid, y + dt / 2.0 * k2)
    k4 = f(x_end, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _projective_rhs(K: np.ndarray, W: np.ndarray) -> np.ndarray:
    """riccati_rhs in projective form: f(K, W) = K W - W (K W)[m:] for K = -iH and W = [z; I_n].

    z = X Y^-1 with [X; Y] linear, d[X; Y]/dt = K [X; Y], makes the Riccati flow
    of z the top m rows of f (Schiff & Shnider, SIAM J. Numer. Anal. 36 (1999)
    1392).  The bottom n rows are (K W)[m:] - I (K W)[m:], exactly zero, so
    rk4_step keeps W[m:] = I to the bit.  Zero rows of K and W give zero rows
    of f, so a level of the peel can sit in a larger frame as [0; z; 1].
    Leading axes broadcast.
    """
    KW = K @ W
    return KW - W @ KW[..., -W.shape[-1] :, :]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite peak raises StiffnessError
def _sweep(f, values, index, y, dt: float, Z_max: float, norm=lambda y: np.sqrt(np.vdot(y, y).real), gather=None):
    """rk4_step on f over the steps ``index`` names in ``values``, from y, restarting in place.

    ``index`` is (3, steps) into the node stack ``values``: each step's start,
    midpoint and end node, so each step takes its first stage at its own
    start node.  The values are gathered _BLOCK steps at a time, one block
    alive at a time; ``gather``, if given, maps each gathered block in place.
    When the step from node j reaches Z_max in ``norm`` (by default
    ||y||_F), _fold_guard accepts the fold or raises StiffnessError, the
    sweep records (j, the state it reached at j), sets the state at j back to
    the start state y and retakes the step.  Returns (ys, folds): the
    steps + 1 node states, in one array, and the folds in grid order.
    """
    steps = index.shape[1]
    ys = np.empty((steps + 1,) + np.shape(y), np.result_type(y, values))
    ys[0] = start = y
    folds, last = [], 0
    for a in range(0, steps, _BLOCK):
        X = values[index[:, a : a + _BLOCK]]
        if gather is not None:
            gather(X)
        for i, (x_a, x_m, x_b) in enumerate(zip(*X), a):
            while True:
                y_b = rk4_step(f, y, dt, f(x_a, y), x_m, x_b)
                peak = norm(y_b)
                if peak < Z_max:
                    break
                _fold_guard(dt * i, i, last, peak)  # a fold at node i: retake the step from the start state
                folds.append((i, y))
                ys[i] = y = start
                last = i
            ys[i + 1] = y = y_b
        del X, x_a, x_m, x_b  # the block and its last views, before the next block is gathered
    return ys, folds


def _fold_guard(t: float, j: int, start: int, peak: float) -> None:
    """Raise StiffnessError unless a trajectory that started at grid node ``start`` may fold at node j.

    The step from node j (at time t) reached the coordinate norm ``peak``, at
    or above the restart threshold.  The fold is refused when peak is not
    finite, when the trajectory completed no step since its start (j ==
    start: a retaken step runs away), or when it restarted at start > 0 and
    folds again within MIN_STEPS_BETWEEN_RESTARTS steps.  _sweep applies it
    to every fold, and hierarchical_solve to every level of its peel.
    """
    done = j - start
    if not np.isfinite(peak) and (done or not start):
        problem = f"coordinate norm is {peak}"
    elif not done:
        problem = f"coordinate norm reaches {peak:.3g} within one step of a restart"
    elif start and done < MIN_STEPS_BETWEEN_RESTARTS:
        problem = f"restart requested again after {done} steps"
    else:
        return
    raise StiffnessError(
        f"{problem} at t={t:.6g} (step {j}): trajectory passes too near the coordinate singularity",
        t=float(t), step=int(j), peak=float(peak),
    )


def _drive(read, t_end: float, steps: int, breakpoints=()):
    """The fixed-step node schedule shared by every trajectory, read in one call.

    Every Riccati path reads its model here, and so does the linear Bloch
    precession (bloch._precess).  The step from t to t + dt reads the model
    at t, t + dt/2 and t + dt, and its end node is the next step's start
    node: 2 steps + 1 reads.  A piecewise model jumps at its
    ``breakpoints``: a node within 1e-12 relative of one snaps to it, a step
    that ends on one reads its end node as the left limit (the float just
    below it), and the next step reads its start node afresh, one more read
    per breakpoint on the grid.  The schedule is one call of ``read``.
    BlockedHamiltonian.read and SO5Coefficients.read check the model
    contract over the stack: ModelError names the first invalid node in read
    order before any step.  That stack is the only copy of the node values a
    solve holds.

    A (3, steps) integer index names each step's start, midpoint and end
    node in the stack, so every step takes its first stage at its own start
    node, and restarts and breakpoints need no carry.  solve_factored,
    integrate_so5 and the precession sweep one state over it with _sweep,
    which restarts in place; hierarchical_solve steps all its levels'
    [0; z_k; 1] states together as a pipeline of rounds, and its levels
    restart on their own.  Both follow one rule, _fold_guard.  All else a
    path derives from node values is batched over blocks of steps (or a
    round), and the path assembles U, phases and restart records from the
    folds after the solve.

    Returns (times, dt, values, index).  Raises ValueError when steps < 1.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dt = t_end / steps
    times = np.linspace(0.0, t_end, steps + 1)
    nodes = times[:-1] + np.array([[0.0], [dt / 2.0], [dt]])  # (3, steps): start, mid, end
    for b in breakpoints:
        nodes = np.where(np.abs(b - nodes) <= 1e-12 * abs(b), b, nodes)
    jump = np.isin(nodes[2], breakpoints)
    nodes[2, jump] = np.nextafter(nodes[2, jump], -np.inf)
    # per step its start (read only after a jump, else the end node before it), midpoint and end
    fresh = np.ones((steps, 3), dtype=bool)
    fresh[1:, 0] = jump[:-1]
    return times, dt, read(nodes.T[fresh]), (np.cumsum(fresh) - 1).reshape(steps, 3).T


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
    times, dt, values, index = _drive(coeffs.read, t_end, steps)
    zs, folds = _sweep(so5_rhs, values, index, np.zeros(4), dt, Z_max, lambda y: np.sqrt(2 * (y @ y)))
    return times, zs, [times[j] for j, _ in folds]
