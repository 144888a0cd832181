"""Matrix Riccati dynamics for the base-manifold coordinate z(t), read from one unitary product.

The (N-n) x n coordinate z obeys

    i dz/dt = Htop z + V - z (V^H z + Hbot),

the projective image of the linear flow dU/dt = -iH U: for a segment that
starts at grid node s, W_j = U_j U_s^H [0; I_n] = [X; Y] gives z_j = X Y^-1
(_project; _projective_rhs is the same flow written for W = [z; I_n]).  So
every Riccati path integrates one thing, the product U_j = P_{j-1} ... P_0
of unitary fourth-order Magnus steps P_j of H (_magnus4: the Taylor step
exponential linalg._expm1 over _BLOCK steps at a time, with no
decomposition), chained N x N by linalg._running_product, the oracle's
kernel (_product), and reads z from it.  A step whose Magnus exponent
spans pi or more, dt (lambda_max - lambda_min) >= pi, does not resolve the
model: the product stops before it and the path raises StiffnessError
with its t and step.  A norm bound certifies the resolved steps; only a
step it cannot certify takes an eigvalsh for its exact spread.  The linear
Bloch precession takes the same steps, guard and chain (_product of its
real generator stack, unit 1).

Every Riccati solver path, and the linear Bloch precession, reads its model
through one function, ``_drive``, whose docstring is the one description of
the node schedule.  One integration, _integrate (the read, the product and
the fold search), serves solve_factored, hierarchical_solve, integrate_so5
and the picture cross-checks.  Folds follow one rule, _fold_guard, in one search
(_fold_search): when node j + 1 is the first whose ||z||_F reaches the
restart threshold, the segment ends at j and the next starts there from
z = 0.  A segment of the hierarchical peel also ends where the level above
it restarts.  The product does not depend on the folds, so they are exact:
they only move the chart.  The SO(5) two-qubit case reads the 2 x 2
quaternionic z of build_so5's H and reports its four real parameters.
riccati_rhs, so5_rhs and rk4_step are the reference formulas the tests
check the readings against; no solver calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import BlockedHamiltonian, SO5Coefficients, build_so5
from .linalg import PAULI, _expm1, _running_product, dagger

DEFAULT_Z_MAX = 10.0
# Restarts closer together than this many grid steps indicate the trajectory
# hugs the coordinate singularity; bail out instead of thrashing.
MIN_STEPS_BETWEEN_RESTARTS = 4
# Steps of Magnus steps per block of _product, of the node pass
# (factorization._node_pass) and of est_error, and nodes per block of the
# readings: the block bounds their temporaries.
_BLOCK = 2048
# Nodes of the fold search's first window, and of its first after each
# fold; each window after it doubles, up to _BLOCK.
_WINDOW = 64
# lambda_max - lambda_min <= |lambda_max| + |lambda_min| <= sqrt(2) ||Omega||_F
# for Hermitian Omega, rounded up by 1e-9 to cover the roundoff of both sides.
_BOUND = np.sqrt(2.0) * (1.0 + 1e-9)


class StiffnessError(RuntimeError):
    """A step does not resolve the model, the coordinate diverged, or restarts come too often.

    ``t`` and ``step`` name the grid step the driver gave up on and ``peak``
    the coordinate norm that step reached, or for an unresolved step, on
    every path the precession included, the spread dt (lambda_max -
    lambda_min) of its Magnus exponent.
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
    f(x(t), y).  No solver calls it: every path, the precession included,
    takes Magnus steps (_product); criteria 5 and 9 of the acceptance
    suite step by it by hand.
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
    The node pass (factorization._node_pass) takes the slopes of the read
    states from it.  Leading axes broadcast.
    """
    KW = K @ W
    return KW - W @ KW[..., -W.shape[-1] :, :]


def _simpson(q: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Simpson's sum q_a + 4 q_m + q_b of each step, from q at the nodes (first axis) that idx indexes.

    dt/6 times it is the step's integral of q by Simpson's rule: the corner
    phases of solve_factored and every level's phases of hierarchical_solve;
    _magnus4's S is the sum over 6.
    """
    return q[idx[0]] + 4.0 * q[idx[1]] + q[idx[2]]


def _omega(X: np.ndarray, idx: np.ndarray, dt: float, unit=-1j) -> np.ndarray:
    """The fourth-order Magnus exponents A of a stack of steps of dY/dt = unit X Y.

    X is a stack of Hermitian matrices with unit -i (the default), such as
    _drive's node stack of H, or of real antisymmetric generators with
    unit 1 (the precession's Omega).  idx, (3, steps), names each step's
    start, midpoint and end node in it (_drive's index), so X_a, X_m and
    X_b are X at t, t + dt/2 and t + dt, and S is their Simpson sum
    (_simpson).  With C = X_a X_b, C^H = X_b X_a for both kinds, so

        A = (unit dt) (S/6 + (unit dt/12) (C^H - C))

    is unit dt times the Simpson mean plus (unit dt)^2/12 [X_b, X_a], and
    exp(A) is the step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009)
    151).  The formula is linear combinations and one commutator, so it
    commutes with the Lie-algebra map from a spin-1/2 or SO(5) H to its
    Omega.  A is anti-Hermitian for both kinds, so i A is Hermitian.
    """
    X_a, X_b = X[idx[::2]]
    C = X_a @ X_b
    return (unit * dt) * (_simpson(X, idx) / 6.0 + (unit * dt / 12.0) * (dagger(C) - C))


@np.errstate(over="ignore", invalid="ignore")  # an exponent that overflows is an unresolved step
def _magnus4(X: np.ndarray, idx: np.ndarray, dt: float, unit=-1j):
    """(P, spread): the fourth-order Magnus steps P = exp(A) of _omega, and their guard.

    P is I + linalg._expm1(A), so each step is in the group to roundoff
    (unitary for unit -i, orthogonal for a real generator and unit 1), and
    a zero X gives P = I exactly.  The Magnus series converges while the
    spread lambda_max - lambda_min of the Hermitian i A (dt times the
    spread of the step's generator) is below pi.  The spread is at most
    _BOUND ||A||_F, from the norm _expm1 takes anyway, so a step
    whose bound is below pi is resolved with no decomposition, and spread
    reads that bound.  Only a step the bound cannot certify takes an
    eigvalsh, and spread reads its exact spread, so every step at or above
    pi, which the product refuses, reads its exact spread.  A step whose
    exponent is not finite reads inf (and P = I).
    """
    A = _omega(X, idx, dt, unit)
    finite = np.isfinite(A).all(axis=(-2, -1))
    A[~finite] = 0.0
    E, theta = _expm1(A)
    spread = np.where(finite, _BOUND * theta, np.inf)
    unsure = finite & ~(spread < np.pi)
    if unsure.any():
        w = np.linalg.eigvalsh(1j * A[unsure])
        spread[unsure] = w[..., -1] - w[..., 0]
    return E + np.eye(E.shape[-1]), spread


def _product(values, index, dt: float, start: np.ndarray, unit=-1j):
    """(U, error): U_j = P_{j-1} ... P_0 start for the Magnus steps of dY/dt = unit X Y, up to the first unresolved step.

    values and index are _drive's node stack of X and its index, and
    start is I for the Riccati paths' product of H (unit -i), or the pole
    vector e_last for the precession of a real generator stack (unit 1,
    bloch._precess), which then stays in real arithmetic.  The steps are
    built _BLOCK at a time (_magnus4: one stacked step exponential, and an
    eigvalsh only for the steps its norm bound cannot certify) and chained
    one matmul per step (linalg._running_product) into U in place.  A step
    whose spread reaches pi is not taken: U then ends at its start node,
    and error is the StiffnessError that names it, for the caller to raise
    once it has read the nodes before it (so an earlier fold the guard
    refuses comes first); else error is None.
    """
    U = np.empty((index.shape[1] + 1, *start.shape), dtype=np.result_type(values, unit))
    U[0] = start
    for a in range(0, index.shape[1], _BLOCK):
        P, spread = _magnus4(values, index[:, a : a + _BLOCK], dt, unit)
        bad = ~(spread < np.pi)
        r = int(bad.argmax()) if bad.any() else len(P)
        _running_product(P[:r], U[a:])
        if r < len(P):
            return U[: a + r + 1], _unresolved(dt * (a + r), a + r, spread[r])
    return U, None


def _unresolved(t: float, j: int, spread: float) -> StiffnessError:
    """The StiffnessError for grid step j (at time t), whose Magnus exponent spans ``spread``."""
    return StiffnessError(
        f"unresolved step: the Magnus exponent spans {spread:.3g} (dt (lambda_max - lambda_min) >= pi) "
        f"at t={t:.6g} (step {j}): the grid is too coarse for the model",
        t=float(t), step=int(j), peak=float(spread),
    )


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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite peak raises StiffnessError
def _fold_search(op: np.ndarray, n: int, dt: float, Z_max: float, restarts=None):
    """W = [z; I_n] at every node of the operator stack op, segment by segment, with the segments' ends.

    op is (nodes, M, M): the product U_j, or a level's operator in the peel.
    A segment that starts at node s reads W_j = _project(op_j op_s^H [0;
    I_n]) at the nodes after it, in windows that double up to _BLOCK.  When
    node j + 1 is the first whose ||z||_F reaches Z_max (or is not finite),
    _fold_guard accepts a fold at j or raises StiffnessError, and the next
    segment starts at j.  The window's readings from j + 1 on are read again
    in the new segment, and the windows start again at _WINDOW nodes: a
    fold wastes at most one window, which is below _WINDOW or twice the
    nodes read since the fold before, so F folds cost at most 3 S + F
    _WINDOW readings.
    ``restarts`` (the peel's) maps each node j where the level above
    restarts to the operator this level reached there: a segment also ends
    at j, its state there is read from that operator, the next segment
    starts at j, where op_j is the new segment's, and the guard counts its
    steps from j.  The readings are per node, so they do not depend on the
    windows or on _BLOCK, bit for bit.

    Returns (W, folds, starts): W = [z; I_n] at each node, [0; I_n] at each
    segment start; folds holds (j, the state reached at j) for every
    restart in grid order, own and handed down; starts the segments' first
    nodes, 0 first.
    """
    restarts = restarts or {}
    nodes, M = len(op), op.shape[-1]
    m = M - n
    W = np.empty((nodes, M, n), dtype=complex)
    W[0] = start = np.eye(M, n, -m)
    cuts = iter(sorted(restarts))
    cut = next(cuts, nodes)  # the next restart handed down
    folds, starts = [], [0]
    C, i, width = start, 1, _WINDOW  # C = op_s^H [0; I_n]
    while i < nodes:
        b = min(i + width, cut + 1, nodes)
        V = op[i:b] @ C
        if b - 1 == cut:
            V[-1] = restarts[cut] @ C
        Wb = _project(V)
        zz = np.einsum("ijk,ijk->i", Wb[:, :m].conj(), Wb[:, :m]).real  # ||z||_F^2
        over = ~(zz < Z_max**2)
        f = int(over.argmax()) if over.any() else b - i  # the states before the first fold are kept
        W[i : i + f] = Wb[:f]
        if f < b - i:  # node i + f reaches Z_max: a fold at the node before it
            j = i + f - 1
            _fold_guard(dt * j, j, starts[-1], np.sqrt(zz[f]))
            width = _WINDOW
        elif b - 1 == cut:  # a restart handed down to node b - 1: start afresh there
            j, cut = cut, next(cuts, nodes)
        else:
            i, width = b, min(2 * width, _BLOCK)
            continue
        folds.append((j, W[j].copy()))
        W[j] = start
        starts.append(j)
        C, i = dagger(op[j, m:]), j + 1
    return W, folds, starts


def _fold_guard(t: float, j: int, start: int, peak: float) -> None:
    """Raise StiffnessError unless a trajectory that started at grid node ``start`` may fold at node j.

    The step from node j (at time t) reached the coordinate norm ``peak``, at
    or above the restart threshold.  The fold is refused when peak is not
    finite, when the trajectory completed no step since its start (j ==
    start: a step from z = 0 runs away), or when it restarted at start > 0
    and folds again within MIN_STEPS_BETWEEN_RESTARTS steps.  _fold_search
    applies it to every fold, on every path and every level of the peel; a
    restart handed down to a level of the peel counts as its start.
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

    Every trajectory reads its model here.  _integrate reads it for
    solve_factored, hierarchical_solve, integrate_so5, bloch.crosscheck_su2
    and bloch.crosscheck_so5, one read per integration; bloch.precess reads
    its generator here, and bloch.crosscheck_pictures reads a solve's model
    again on the solve's schedule.  The step from t to t + dt reads the model
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
    node in the stack, so every step reads its own three nodes, and
    breakpoints need no carry.  _integrate builds the Magnus steps from
    those values and chains them into one product (_product), from which
    _fold_search reads z and the folds; the precession chains the same
    Magnus steps of a generator stack in the same layout (bloch._precess),
    which the picture cross-checks recover from the H stack.  Where a path
    needs the state at every node (the n = 1 phases and the peel's
    levels), one node pass (factorization._node_pass) gives it, in blocks
    of steps; each level of the peel below level 0 reads an H stack of its
    own in this layout, the node stack of the level above it.
    solve_factored's est_error reads the same values again, two steps at a
    time.

    Returns (times, dt, ts, values, index), with ts the times read, in
    read order (bloch._so5_fields names a node by it).  Every argument is
    checked before the read, so a bad one costs no model evaluation:
    ValueError when steps < 1, when t_end is not finite, or unless the
    caller's restart threshold Z_max is > 0 (infinite is allowed: no fold).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if not Z_max > 0:
        raise ValueError(f"Z_max must be positive, got {Z_max}")
    times, dt, nodes = _nodes(t_end, steps, breakpoints)
    jump = np.isin(nodes[2], breakpoints)
    nodes[2, jump] = np.nextafter(nodes[2, jump], -np.inf)
    # per step its start (read only after a jump, else the end node before it), midpoint and end
    fresh = np.ones((steps, 3), dtype=bool)
    fresh[1:, 0] = jump[:-1]
    ts = nodes.T[fresh]
    return times, dt, ts, read(ts), (np.cumsum(fresh) - 1).reshape(steps, 3).T


def _nodes(t_end: float, steps: int, breakpoints=()):
    """(times, dt, nodes): the grid, and each step's start, midpoint and end time as a (3, steps) array.

    A node within 1e-12 relative of a breakpoint is snapped to it (_drive).
    """
    dt = t_end / steps
    times = np.linspace(0.0, t_end, steps + 1)
    nodes = times[:-1] + np.array([[0.0], [dt / 2.0], [dt]])
    for b in breakpoints:
        nodes = np.where(np.abs(b - nodes) <= 1e-12 * abs(b), b, nodes)
    return times, dt, nodes


def _straddled(t_end: float, steps: int, breakpoints=()) -> bool:
    """Whether a breakpoint lies inside a step of the grid, not on a step's end node.

    _drive snaps only nodes within 1e-12 relative of a breakpoint; a step
    that a breakpoint cuts elsewhere (its midpoint included) integrates
    across the jump and is first order, an error that step doubling does
    not see, since each doubled step straddles the same jump.
    solve_factored's est_error reads nan on such a grid.
    """
    if not breakpoints:
        return False
    nodes = _nodes(t_end, steps, breakpoints)[2]
    return any(((nodes[0] < b) & (b < nodes[2])).any() for b in breakpoints)


@dataclass
class _Integration:
    """One integration of a model: what every Riccati path and picture cross-check reads.

    ``ts``, ``values`` and ``index`` are _drive's read times, node stack and
    index on the grid ``times`` (step dt), U the Magnus product (_product)
    at the grid nodes, and W, folds and starts level 0's _fold_search of U
    at Z_max.  The node stack is the one large part that no result keeps:
    its last reader sets ``values`` to None.
    """

    h: BlockedHamiltonian
    Z_max: float
    times: np.ndarray
    dt: float
    ts: np.ndarray
    values: np.ndarray | None
    index: np.ndarray
    U: np.ndarray
    W: np.ndarray
    folds: list
    starts: list


def _integrate(h: BlockedHamiltonian, t_end: float, steps: int, Z_max: float) -> _Integration:
    """Read H on _drive's node schedule, chain the product and search level 0's folds.

    solve_factored, hierarchical_solve, integrate_so5 and the picture
    cross-checks (bloch.crosscheck_su2, bloch.crosscheck_so5) each read one.
    An unresolved step of the product raises StiffnessError after the
    search, so a fold that the guard refuses before it raises first.
    """
    times, dt, ts, values, index = _drive(h.read, t_end, steps, h.breakpoints, Z_max)
    U, unresolved = _product(values, index, dt, np.eye(h.N))
    W, folds, starts = _fold_search(U, h.n, dt, Z_max)
    if unresolved:
        raise unresolved
    return _Integration(h, Z_max, times, dt, ts, values, index, U, W, folds, starts)


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
    the matrix form's solve, one _integrate of build_so5's H: H is read on
    _drive's node schedule (F checked as one stack), integrated as one
    product of Magnus steps (_product), and the 2 x 2 quaternionic z is
    read from it as W = [z; I_2] by _fold_search, whose restart rule
    compares ||z||_F, which is sqrt(2 z.z), with Z_max at the grid node.
    The samples are so5_z_params of that z, so they equal those of
    solve_factored(build_so5(coeffs)) at every node, restarts included.
    The error is that of the Magnus product: fourth order in dt.
    """
    run = _integrate(build_so5(coeffs), t_end, steps, Z_max)
    return run.times, so5_z_params(run.W[:, :2]), list(run.times[run.starts[1:]])
