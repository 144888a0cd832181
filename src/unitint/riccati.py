"""Matrix Riccati dynamics for the base-manifold coordinate z(t).

The (N-n) x n coordinate z obeys

    i dz/dt = Htop z + V - z (V^H z + Hbot),

the projective image of a linear flow: W = [X; Y] with dW/dt = K W, K =
-iH, gives z = X Y^-1 (_projective_rhs).  So z is the Moebius projection
of the linear state, and need not be normalised at every step.  Every path
takes RK4's exact step matrix for the linear flow, P = _rk4_propagator(K,
dt), built in batched calls over a block of steps, and chains the linear
state V <- P V, one matmul per grid step (linalg._running_product); every
_AHEAD steps the sweep projects the chunk of states, W = [V_top V_bot^-1;
I_n] (_project), and tests them for a fold in batched calls, one scheme
for every block size and for every level of the hierarchical peel.  The
linear Bloch precession chains y <- P y with no projection.  A step whose
P is far from unitary does not resolve the model: _resolved checks each
block of propagators in one pass, and the sweep raises StiffnessError at
the first such step before it takes it.

Every Riccati solver path, and the precession, reads its model through one
function, ``_drive``, whose docstring is the one description of the node
schedule: the model is read at t, t + dt/2 and t + dt of every step before
the first.  Restarts happen in place under one rule, _fold_guard: when the
step from node j takes ||z||_F to the restart threshold, the sweep records
the fold, the state it reached at j, and retakes that step from z = 0.  The
hierarchical peel sweeps its levels one after another, each under that
rule, and hands every restart of a level to the sweep of the level below
it.  The product structure U = U_segment U_accum makes that exact; each
path assembles U, its phases and its restart records from the folds once,
after the solve.  The SO(5) two-qubit case sweeps the 2 x 2 quaternionic z
of build_so5's H and reports its four real parameters.  riccati_rhs,
so5_rhs and rk4_step are the reference formulas the tests check the sweep
against; no solver calls them.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import SO5Coefficients, build_so5
from .linalg import PAULI, _running_product, dagger

DEFAULT_Z_MAX = 10.0
# Restarts closer together than this many grid steps indicate the trajectory
# hugs the coordinate singularity; bail out instead of thrashing.
MIN_STEPS_BETWEEN_RESTARTS = 4
# Steps of node values per block of _sweep's propagators, of the node pass
# (factorization._node_pass) and of solve_factored's fiber, and nodes per
# block of U assembly: the block bounds their temporaries.
_BLOCK = 2048
# Steps _sweep chains between two projections and fold tests of its state.
_AHEAD = 32
# A step's RK4 propagator P is unresolved when ||P^H P - I||_F exceeds this.
# For one eigenvalue of H, |R(i x)|^2 = 1 - x^6/72 + x^8/576 at x = dt |E|:
# x = 0.5 reads 2e-4, x = 1 (six steps per period) 1.2e-2.
MAX_STEP_DEFECT = 1e-2


class StiffnessError(RuntimeError):
    """A step does not resolve the model, the coordinate diverged, or restarts come too often.

    ``t`` and ``step`` name the grid step the driver gave up on and ``peak``
    the coordinate norm that step reached, or for an unresolved step its
    propagator's defect ||P^H P - I||_F.
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
    """One classical Runge-Kutta 4 step for dy/dt = f(x(t), y), the reference formula.

    f takes the model value x at a node, not a time: x_mid and x_end are x at
    t + dt/2 and t + dt, and the caller supplies the first stage k1 =
    f(x(t), y).  No solver calls it: on the linear flow f(K, y) = K y it is
    _rk4_propagator's P y, which the sweeps take.
    """
    k2 = f(x_mid, y + dt / 2.0 * k1)
    k3 = f(x_mid, y + dt / 2.0 * k2)
    k4 = f(x_end, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _projective_rhs(K: np.ndarray, W: np.ndarray) -> np.ndarray:
    """riccati_rhs in projective form: f(K, W) = K W - W (K W)[m:] for K = -iH and W = [z; I_n].

    z = X Y^-1 with [X; Y] linear, d[X; Y]/dt = K [X; Y], makes the Riccati flow
    of z the top m rows of f (Schiff & Shnider, SIAM J. Numer. Anal. 36 (1999)
    1392).  The bottom n rows are (K W)[m:] - I (K W)[m:], exactly zero.
    The sweeps step the linear flow itself (_rk4_propagator); f gives the
    slopes of the swept states.  Leading axes broadcast.
    """
    KW = K @ W
    return KW - W @ KW[..., -W.shape[-1] :, :]


def _rk4_propagator(K: np.ndarray, dt: float) -> np.ndarray:
    """RK4's exact step matrix P for the linear flow dW/dt = K(t) W: rk4_step(W) = P W.

    K stacks the generator at each step's start, midpoint and end node on
    its first axis, (3, ..., N, N); P is (..., N, N), built in batched calls:

        P = I + dt/6 (K_a + 2 B_2 + 2 B_3 + B_4),
        B_2 = K_m (I + dt/2 K_a), B_3 = K_m (I + dt/2 B_2), B_4 = K_b (I + dt B_3).

    A zero K gives P = I exactly.
    """
    K_a, K_m, K_b = K
    B2 = K_m + (dt / 2.0) * (K_m @ K_a)
    B3 = K_m + (dt / 2.0) * (K_m @ B2)
    B4 = K_b + dt * (K_b @ B3)
    P = (dt / 6.0) * (K_a + 2.0 * (B2 + B3) + B4)
    N = P.shape[-1]
    P.reshape(P.shape[:-2] + (N * N,))[..., :: N + 1] += 1.0
    return P


def _project(V: np.ndarray) -> np.ndarray:
    """The Moebius projection of a stack of linear states: W = [V_top V_bot^-1; I_n].

    V is (..., N, n), the states [X; Y] of the linear flow, so W = [z; I_n]
    with z = X Y^-1.  For n = 1 that is one division, and the last row is
    set to exactly 1; for n > 1, one batched inverse.  V is not changed.
    """
    n = V.shape[-1]
    if n == 1:
        W = V / V[..., -1:, :]
        W[..., -1, :] = 1.0
    else:
        W = np.empty_like(V)
        W[..., :-n, :] = V[..., :-n, :] @ np.linalg.inv(V[..., -n:, :])
        W[..., -n:, :] = np.eye(n)
    return W


def _norms(y: np.ndarray) -> np.ndarray:
    """||y_i||_F of each state of the stack y, the states on its first axis."""
    y = y.reshape(len(y), -1)
    return np.sqrt(np.sum(y.real**2 + y.imag**2, axis=1))


def _resolved(P: np.ndarray):
    """(r, defects): the first r steps of the stack P pass the unresolved-step guard.

    P is (steps, N, N) and defects its steps' ||P^H P - I||_F; a step fails
    when its defect exceeds MAX_STEP_DEFECT or is not finite.  One batched
    pass, with no decomposition.
    """
    G = np.conj(P.mT) @ P
    N = G.shape[-1]
    G.reshape(len(G), N * N)[:, :: N + 1] -= 1.0
    defects = np.sqrt(np.sum(G.real**2 + G.imag**2, axis=(-2, -1)))
    bad = ~(defects <= MAX_STEP_DEFECT)
    return (int(bad.argmax()) if bad.any() else len(P)), defects


def _unresolved(t: float, j: int, defect: float) -> StiffnessError:
    """The StiffnessError for grid step j (at time t), whose propagator's defect is ``defect``."""
    return StiffnessError(
        f"unresolved step: the RK4 propagator is {defect:.3g} from unitary (||P^H P - I||_F) "
        f"at t={t:.6g} (step {j}): the grid is too coarse for the model",
        t=float(t), step=int(j), peak=float(defect),
    )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite peak raises StiffnessError
def _sweep(values, index, y, dt: float, Z_max: float, project=None, norm=_norms, generator=None, restarts=()):
    """y <- P_j y by each step's RK4 propagator over the steps ``index`` names, restarting in place.

    ``index`` is (3, steps) into the node stack ``values``: each step's start,
    midpoint and end node.  The values are gathered _BLOCK steps at a time,
    one block alive at a time, mapped to the generator K by ``generator``
    (the values themselves if None; it may work in place on the gathered
    copy) and turned into the block's propagators P in one _rk4_propagator
    call.  _resolved checks the block in one pass, and the sweep raises
    StiffnessError at the first unresolved step, before it takes it.

    The sweep chains the linear state V, one np.matmul per step
    (linalg._running_product), and looks at it every _AHEAD steps, at the
    end of a block and at each handed-down restart.  There the chunk's
    states are y = project(V), in one batched call (_project for the
    Riccati paths; None keeps V itself, as the precession does), and their
    ``norm`` (a stack of states to their norms; by default ||y||_F) is the
    fold test.  When the step from node j is the first to reach Z_max,
    _fold_guard accepts the fold or raises StiffnessError, the sweep
    records (j, the state it reached at j), sets the state at j back to the
    start state y and chains on from there: it retakes the step.  At each
    node j in ``restarts`` (the restarts of the levels above a level of the
    peel) the chunk ends, the sweep records (j, the state it reached at j)
    too and sets the state back to y, with no step retaken, and _fold_guard
    counts its steps from j.  With a projection, each block first scales
    the carried V by a power of two, which keeps it from under- or
    overflowing and leaves every projection as it is, bit for bit.  So the
    states do not depend on _AHEAD or _BLOCK.  V lives in an _AHEAD + 1
    row buffer.  Returns (ys, folds): the steps + 1 node states, in one
    array, and the folds and restarts in grid order.
    """
    steps = index.shape[1]
    ys = np.empty((steps + 1,) + np.shape(y), np.result_type(y, values))
    ys[0] = start = y
    V = np.empty((_AHEAD + 1,) + ys.shape[1:], ys.dtype)  # V[0] is the linear state at node i
    V[0] = start
    cuts = iter(sorted(j for j in restarts if 0 <= j < steps))
    cut = next(cuts, steps)  # the next restart handed down
    folds, last = [], 0
    for a in range(0, steps, _BLOCK):
        X = values[index[:, a : a + _BLOCK]]
        P = _rk4_propagator(X if generator is None else generator(X), dt)
        del X
        ok, defects = _resolved(P)
        if project is not None:  # an exact power of two: no projection changes
            V[0] *= np.ldexp(1.0, -np.frexp(np.abs(V[0]).max())[1])
        i = a
        while i < a + ok:
            if i == cut:  # a restart handed down to node i: start afresh there
                folds.append((i, ys[i].copy()))
                ys[i] = V[0] = start
                last, cut = i, next(cuts, steps)
            c = min(i + _AHEAD, a + ok, cut) - i
            _running_product(P[i - a : i - a + c], V)
            W = V[1 : c + 1] if project is None else project(V[1 : c + 1])
            peaks = norm(W)
            over = ~(peaks < Z_max)
            f = int(over.argmax()) if over.any() else c  # the states before the first fold are kept
            ys[i + 1 : i + f + 1] = W[:f]
            if f == c:
                V[0] = V[c]
                i += c
            else:  # the step from node j reaches Z_max: a fold at j, and the step is retaken
                j = i + f
                _fold_guard(dt * j, j, last, peaks[f])
                folds.append((j, ys[j].copy()))
                ys[j] = V[0] = start
                i = last = j
        if ok < len(P):
            raise _unresolved(dt * (a + ok), a + ok, defects[ok])
    return ys, folds


def _fold_guard(t: float, j: int, start: int, peak: float) -> None:
    """Raise StiffnessError unless a trajectory that started at grid node ``start`` may fold at node j.

    The step from node j (at time t) reached the coordinate norm ``peak``, at
    or above the restart threshold.  The fold is refused when peak is not
    finite, when the trajectory completed no step since its start (j ==
    start: a retaken step runs away), or when it restarted at start > 0 and
    folds again within MIN_STEPS_BETWEEN_RESTARTS steps.  _sweep applies it
    to every fold, on every path and every level of the peel; a restart
    handed down to a level of the peel counts as its start.
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


def _drive(read, t_end: float, steps: int, breakpoints=(), Z_max: float = np.inf):
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
    node in the stack, so every step's propagator reads its own three nodes,
    and restarts and breakpoints need no carry.  Every path builds its RK4
    propagators from those values with _rk4_propagator, in batched calls
    over a block of steps, and checks them with _resolved before it takes
    them.  solve_factored, integrate_so5 and every level of
    hierarchical_solve sweep W = [z; I_n] over an index with
    _projective_sweep (and the precession its vector with _sweep), which
    chains the linear state one matmul per step, projects it and tests it
    for folds once per chunk of steps, and restarts in place under one
    rule, _fold_guard.  solve_factored's fiber reads the values again
    through the index, one Magnus step per grid step.  Where a path needs
    the swept state at every node (the n = 1 phases and the peel), one node
    pass (factorization._node_pass) gives it, in blocks of steps; each level
    of the peel below level 0 reads an H stack of its own in this layout,
    the node stack of the level above it.  The path assembles U, phases and
    restart records from the folds after the solve.

    Returns (times, dt, values, index).  Every argument is checked before
    the read, so a bad one costs no model evaluation: ValueError when steps
    < 1, when t_end is not finite, or unless the caller's restart threshold
    Z_max is > 0 (infinite is allowed: no fold).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if not Z_max > 0:
        raise ValueError(f"Z_max must be positive, got {Z_max}")
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


def _projective_sweep(values, index, n: int, dt: float, Z_max: float, restarts=()):
    """_sweep of the linear flow from [0; I_n], with K = -iH, W = _project(V) and the fold test on ||z||_F.

    ``values`` is an H stack in _drive's layout, N x N with block size n:
    the model's, or a level of hierarchical_solve's peel, which also passes
    the ``restarts`` of the levels above it.  Returns (W, folds) as _sweep
    does, with W = [z; I_n] at every node.  _drive has checked Z_max.
    """
    m = values.shape[-1] - n
    W0 = np.eye(m + n, n, -m, dtype=complex)
    norm = lambda W: _norms(W[:, :m])  # noqa: E731
    return _sweep(values, index, W0, dt, Z_max, _project, norm, lambda X: np.multiply(X, -1j, out=X), restarts)


def so5_rhs(F: np.ndarray, z: np.ndarray) -> np.ndarray:
    """dz_mu/dt = F[5,mu](1 - z.z) + 2 F[mu,nu] z_nu + 2 F[5,nu] z_nu z_mu, the reference formula.

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
    """Integrate the SO(5) Riccati flow and report its four real parameters.

    Returns (times, z samples of shape (steps+1, 4), restart times).  It is
    the matrix form's sweep: build_so5's H is read on _drive's node schedule
    (F checked as one stack), the 2 x 2 quaternionic z sweeps as W = [z;
    I_2] by _projective_sweep, one step of the linear flow per grid step
    and one batched projection per chunk of steps, and the restart rule
    compares ||z||_F, which is sqrt(2 z.z), with Z_max at the grid node.  The samples are so5_z_params of the swept z, so they equal
    those of solve_factored(build_so5(coeffs)) at every node, restarts
    included.  The error is that of one RK4 step of the linear flow per grid
    step: fourth order in dt.
    """
    times, dt, values, index = _drive(build_so5(coeffs).read, t_end, steps, Z_max=Z_max)
    W, folds = _projective_sweep(values, index, 2, dt, Z_max)
    return times, so5_z_params(W[:, :2]), [times[j] for j, _ in folds]
