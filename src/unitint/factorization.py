"""Evolution-operator assembly from Riccati output.

The evolution operator factors as U = U1 U2: a base-manifold factor U1
built from the nilpotent block-triangular exponentials and unitarized by a
block-diagonal gauge factor, and a block-diagonal fiber factor U2 driven by
Hermitian effective Hamiltonians.  For block size 1 the lower fiber block is
a pure phase (the corner phase) with a clean geometric/dynamical split, and
peeling one level at a time yields the full hierarchical solution
SU(N) -> SU(N-1) -> ... -> U(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import BlockedHamiltonian, _blocks
from .linalg import (
    _running_product,
    _unitary_step,
    blockdiag,
    dagger,
    inv_sqrt_hpd,
    sqrt_hpd,
)
from .riccati import _BLOCK, DEFAULT_Z_MAX, _drive, _fold_guard, _projective_rhs, _sweep, rk4_step


class UnsupportedConfigurationError(ValueError):
    """Operation requires block size 1."""


# ---------------------------------------------------------------------------
# algebra of the factors
# ---------------------------------------------------------------------------


def unitarity_closure(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, gamma1, gamma2) determined by z through unitarity of U.

    w = -gamma1^{-1} z, gamma1 = I + z z^H, gamma2 = I + z^H z.  The gammas
    are Hermitian positive definite for every z, so no invertibility guard is
    needed.
    """
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    m, n = z.shape
    gamma1 = np.eye(m, dtype=complex) + z @ dagger(z)
    gamma2 = np.eye(n, dtype=complex) + dagger(z) @ z
    w = -np.linalg.solve(gamma1, z)
    return w, gamma1, gamma2


def assemble_tilde_U1(z: np.ndarray) -> np.ndarray:
    """Product of the two unit-triangular nilpotent block factors.

    [[I, z], [0, I]] @ [[I, 0], [w^H, I]] with w fixed by unitarity; the
    result has unit determinant (both factors are unit triangular).
    """
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    m, n = z.shape
    w, _, _ = unitarity_closure(z)
    upper = np.block([[np.eye(m, dtype=complex), z], [np.zeros((n, m), dtype=complex), np.eye(n, dtype=complex)]])
    lower = np.block([[np.eye(m, dtype=complex), np.zeros((m, n), dtype=complex)], [dagger(w), np.eye(n, dtype=complex)]])
    return upper @ lower


def gauge_unitarize(
    tilde_U1: np.ndarray, gamma1: np.ndarray, gamma2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unitarize the nilpotent product: U1 = tildeU1 b with b the gauge factor.

    b = (tildeU1^H tildeU1)^{-1/2} is block-diagonal and positive:
    tildeU1^H tildeU1 = blockdiag(gamma1^{-1}, gamma2), so b =
    blockdiag(gamma1^{1/2}, gamma2^{-1/2}).
    """
    b = blockdiag(sqrt_hpd(gamma1), inv_sqrt_hpd(gamma2))
    return tilde_U1 @ b, b


def unitarized_U1(z: np.ndarray) -> np.ndarray:
    """U1 as a function of z alone (any block size), in closed form.

    U1 = [[gamma1^{-1/2}, z gamma2^{-1/2}], [-gamma2^{-1/2} z^H, gamma2^{-1/2}]]
    with gamma1^{-1/2} = I - z f(gamma2) z^H, f(x) = 1/(sqrt(x)(sqrt(x)+1)).
    It equals gauge_unitarize(assemble_tilde_U1(z), gamma1, gamma2)[0].  For a
    column z, gamma2 is the scalar g; otherwise every block follows from one
    SVD z = A diag(s) B^H, on which gamma2 = B diag(1 + s^2) B^H.  A stack of
    coordinates (leading axes before the m x n ones) gives a stack of U1.
    """
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    m, n = z.shape[-2:]
    zh = dagger(z)
    out = np.empty(z.shape[:-2] + (m + n, m + n), dtype=complex)
    if n == 1:
        sg = np.sqrt(1.0 + (zh @ z).real)
        out[..., :m, :m] = np.eye(m) - (z @ zh) / (sg * (sg + 1.0))
        out[..., :m, m:] = z / sg
        out[..., m:, :m] = -zh / sg
        out[..., m:, m:] = 1.0 / sg
        return out
    A, s, Bh = np.linalg.svd(z, full_matrices=False)
    c = np.sqrt(1.0 + s**2)[..., None, :]
    s = s[..., None, :]
    out[..., :m, :m] = np.eye(m) - (A * (s**2 / (c * (c + 1.0)))) @ dagger(A)
    out[..., :m, m:] = (A * (s / c)) @ Bh
    out[..., m:, :m] = -dagger(out[..., :m, m:])
    out[..., m:, m:] = (dagger(Bh) / c) @ Bh
    return out


def gamma1_sqrt_closed(z: np.ndarray) -> np.ndarray:
    """Closed-form gamma1^{1/2} = I + z z^H / (sqrt(g) + 1) for a column z."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    if z.shape[1] != 1:
        raise UnsupportedConfigurationError("closed form requires a column z (n=1)")
    g = 1.0 + (dagger(z) @ z)[0, 0].real
    return np.eye(z.shape[0], dtype=complex) + (z @ dagger(z)) / (np.sqrt(g) + 1.0)


def gamma1_inv_sqrt_closed(z: np.ndarray) -> np.ndarray:
    """Closed-form gamma1^{-1/2} = I - z z^H / (sqrt(g) + g) for a column z."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    if z.shape[1] != 1:
        raise UnsupportedConfigurationError("closed form requires a column z (n=1)")
    g = 1.0 + (dagger(z) @ z)[0, 0].real
    return np.eye(z.shape[0], dtype=complex) - (z @ dagger(z)) / (np.sqrt(g) + g)


def base_coordinate(U: np.ndarray, N: int, n: int) -> np.ndarray:
    """Extract z from a full evolution operator: z = U_topright U_botright^{-1}.

    Valid away from the stereographic pole, where the lower-right block of U
    becomes singular.  A stack of operators gives a stack of coordinates.
    """
    m = N - n
    return U[..., :m, m:] @ np.linalg.inv(U[..., m:, m:])


# ---------------------------------------------------------------------------
# effective Hamiltonians
# ---------------------------------------------------------------------------


def effective_hamiltonian_tilde(h_blocks, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal effective Hamiltonian for the non-unitarized fiber.

    upper = Htop - z V^H, lower = Hbot + V^H z.  Neither block is Hermitian
    or traceless in general.
    """
    Htop, V, Hbot = h_blocks
    return Htop - z @ dagger(V), Hbot + dagger(V) @ z


def effective_hamiltonian_hermitian(
    h_blocks, z: np.ndarray, z_dot: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian effective Hamiltonians (upper, lower) for the unitarized fiber blocks.

    upper = (i/2)[d/dt g1^{-1/2}, g1^{1/2}]
            + (1/2){g1^{-1/2} (Htop - z V^H) g1^{1/2} + h.c.}
    and the analogous expression with g2 and Hbot + z^H V for the lower
    block.  z_dot must be the slope dz/dt at z, riccati_rhs (solve_factored
    passes the top rows of _projective_rhs).  Stacks (leading axes) of
    h_blocks, z and z_dot give stacks of blocks from one batched SVD
    z = A S B^H, S = diag(s) above zeros (n <= m), so g1 = A diag(r1^2) A^H
    and g2 = B diag(r2^2) B^H.  With Ht = A^H Htop A, Hb = B^H Hbot B,
    W = A^H V B, C1 = Ht - S W^H, C2 = Hb + S^H W and R = A^H z_dot B, each
    block is Q (Y + Y^H) Q^H with
        Y_ij = -(i/2) P_ij (r_j - r_i) / ((r_i + r_j) r_i r_j) + (1/2) C_ij r_j / r_i
    for (Q, r, P, C) = (A, r1, R S^H, C1) and (B, r2, S^H R, C2), where
    P + P^H = Q^H (d/dt g) Q.
    """
    Htop, V, Hbot = h_blocks
    m, n = z.shape[-2:]
    A, s, Bh = np.linalg.svd(z)
    Ah, B = dagger(A), dagger(Bh)
    S = s[..., None, :] * np.eye(m, n, dtype=complex)
    Ht, Hb, W = Ah @ Htop @ A, Bh @ Hbot @ B, Ah @ V @ B
    C1, C2 = Ht - S @ dagger(W), Hb + S.mT @ W
    R = Ah @ z_dot @ B
    r2 = np.sqrt(1.0 + s**2)[..., None]  # r as columns: r_i = r, r_j = r.mT
    r1 = np.concatenate((r2, np.ones(r2.shape[:-2] + (m - n, 1))), axis=-2)
    He = []
    for Q, ri, P, C in [(A, r1, R @ S.mT, C1), (B, r2, S.mT @ R, C2)]:
        rj = ri.mT
        Y = P * ((0.5j * (ri - rj)) / ((ri + rj) * ri * rj)) + C * (0.5 * rj / ri)
        He.append(Q @ (Y + dagger(Y)) @ dagger(Q))
    return tuple(He)


def recursion_hamiltonian(h_blocks, z: np.ndarray) -> np.ndarray:
    """The (N-1)-level Hamiltonian obtained by peeling one level (n=1).

    H' = Htop - (z V^H + V z^H)/(sqrt(g)+1)
         - z (z^H V + V^H z) z^H / (2 (sqrt(g)+1)^2),
    whose trace equals -(H_NN + Re(V^H z)); the peeled corner phase restores
    it.  H' is also the upper block of the n=1 Hermitian effective
    Hamiltonian; the formula lives in the peel's level kernel, _peel_level.
    """
    Htop, V, Hbot = h_blocks
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    if z.shape[1] != 1 or V.shape[1] != 1:
        raise UnsupportedConfigurationError("recursion requires block size 1")
    return _corner_node(h_blocks, z)[0][0]


def _corner_node(h_blocks, z: np.ndarray):
    """((upper, lower) fiber blocks, phase rates) for n=1, over any leading axes.

    Both come from one _peel_level call, which needs no slope.  The upper
    block is recursion_hamiltonian's H' = H_next - phi_rate I and the lower
    block the 1 x 1 -mu_rate; together they are
    effective_hamiltonian_hermitian(h_blocks, z, riccati_rhs(h_blocks, z)).
    The rates, stacked on a last axis, are d/dt of (mu, geometric phase,
    Im mu), with Im mu = ln(1 + |z|^2) advancing at -2 Im(V^H z).
    """
    Htop, V, Hbot = h_blocks
    v, zc = V[..., 0], z[..., 0]
    (mu_rate, geo_rate, phi_rate), H_next = _peel_level(Htop, v, Hbot[..., 0, 0], zc)
    upper = H_next - phi_rate[..., None, None] * np.eye(zc.shape[-1])  # undo tau/m = -phi_rate
    rates = np.stack((mu_rate, geo_rate, -2.0 * np.sum(v.conj() * zc, axis=-1).imag), axis=-1)
    return (upper, -mu_rate[..., None, None]), rates


def _peel_level(Htop: np.ndarray, v: np.ndarray, h, z: np.ndarray, mask=None):
    """Everything one level of the n=1 peel needs, from V^H z, |z|^2 and Htop z.

    Htop (m x m), the column v and the corner h partition a traceless
    (m+1)-level H; z is the level's coordinate as a 1-D array.  Leading axes
    broadcast, so one call serves every node of a block or a round.  Returns
    ((mu rate, geometric rate, trace-phase rate), H_next), where H_next is
    recursion_hamiltonian's H' with its trace removed, the rank-2 update
    H' = Htop - z u^H - u z^H, u = a v + (Re(V^H z) a^2 / 2) z, a =
    1/(sqrt(g)+1).  Its trace tau = -h - 2 Re(u^H z) relies on tr Htop = -h;
    the trace phase advances at -tau/m.  None of it needs the slope dz/dt.

    ``mask`` (1-D over the m rows, default all ones) marks the rows the
    level owns when it sits in a larger frame with zero rows and columns
    above it (hierarchical_solve's level frame): the trace is removed on
    those rows only, with m their count, and the zero rows stay zero.

    This is the one definition of the n=1 corner-phase rates, read by both
    solve_factored and hierarchical_solve:
    d(mu)/dt = -(H_NN + Re(V^H z)) and d(geometric)/dt =
    -(-i U1^H dU1/dt)_NN = [z^H (Htop - H_NN I) z + 2 Re(V^H z)(1 - g/2)] / g.
    The sign of the latter is fixed by the split-sum identity
    H_NN + Re(V^H z) = (U1^H H U1)_NN + (-i U1^H dU1/dt)_NN, checked against
    finite differences of U1 in the test suite.
    """
    rows = z.shape[-1]
    mask = np.ones(rows) if mask is None else mask
    m = np.sum(mask, axis=-1)
    hnn = np.real(h)
    vz = np.sum(v.conj() * z, axis=-1)
    zz = np.sum(z.real**2 + z.imag**2, axis=-1)
    Hz = (Htop @ z[..., None])[..., 0]
    re_vz = vz.real
    g = 1.0 + zz
    quad = np.sum(z.conj() * Hz, axis=-1).real - hnn * zz
    geo_rate = (quad + 2.0 * re_vz * (1.0 - g / 2.0)) / g
    a = 1.0 / (np.sqrt(g) + 1.0)
    u = a[..., None] * v + (0.5 * re_vz * a * a)[..., None] * z
    tau = -hnn - 2.0 * np.sum(u.conj() * z, axis=-1).real
    zu = z[..., :, None] * u[..., None, :].conj()
    H_next = Htop - zu
    H_next -= dagger(zu)
    diagonal = H_next.reshape(H_next.shape[:-2] + (rows * rows,))[..., :: rows + 1]
    diagonal -= (tau / m)[..., None] * mask
    return (-(hnn + re_vz), geo_rate, -tau / m), H_next


# ---------------------------------------------------------------------------
# direct factored solve (any block size)
# ---------------------------------------------------------------------------


@dataclass
class FactoredResult:
    """Full time series produced by solve_factored.

    U_samples are the complete evolution operators U(t_k) including all
    accumulated restart factors.  Phase arrays (block size 1 only) are
    cumulative across restarts.
    """

    h: BlockedHamiltonian
    times: np.ndarray
    z_samples: np.ndarray
    U_samples: np.ndarray
    U2_samples: np.ndarray
    restarts: list = field(default_factory=list)
    est_error: float = 0.0
    mu_total: np.ndarray | None = None
    phase_geometric: np.ndarray | None = None
    phase_dynamical: np.ndarray | None = None
    imag_mu: np.ndarray | None = None


def _magnus4(He_a: np.ndarray, He_m: np.ndarray, He_b: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order Magnus step exp(-i dt [S + (i dt/12)[He_a, He_b]]) for i dU/dt = He U.

    He_a, He_m and He_b are the Hermitian He at t, t + dt/2 and t + dt, and
    S = (He_a + 4 He_m + He_b)/6 their Simpson mean; the exponent is
    Hermitian, so the step is unitary to roundoff.  A stack of He (leading
    axes) takes one batched eigh.  (Blanes, Casas, Oteo & Ros, Phys. Rep.
    470 (2009) 151.)
    """
    S = (He_a + 4.0 * He_m + He_b) / 6.0
    return _unitary_step(S + (1j * dt / 12.0) * (He_a @ He_b - He_b @ He_a), dt)


def solve_factored(
    h: BlockedHamiltonian,
    t_end: float,
    steps: int,
    Z_max: float = DEFAULT_Z_MAX,
) -> FactoredResult:
    """Solve i dU/dt = H U through the base/fiber factorization.

    H is read on _drive's node schedule (t, t + dt/2 and t + dt per step,
    breakpoints of a piecewise model included) in one BlockedHamiltonian.read
    before the first step (ModelError for a non-Hermitian, non-traceless or
    non-finite model).  The solve is one sweep, then one batched pass over
    each segment between restarts.

    - The sweep: W = [z; I_n] takes one rk4_step per grid step on
      _projective_rhs f with K = -iH at the three nodes, one right-hand side
      for every n.  When a step takes ||z||_F, the norm of W's top m rows,
      to Z_max, _sweep restarts in place: it records the fold and the state
      the segment reached, and retakes the step from z = 0.
    - The batched pass, over each segment's steps in blocks of at most
      _BLOCK: _node_states gives W at the three nodes of each step (the
      midpoint by cubic Hermite interpolation) and f at the start and end
      node, and f at the midpoint completes the slopes; the segment's last
      step ends at the state it reached.  The fiber kernel runs at the three
      node sets: _corner_node (the level kernel _peel_level that
      hierarchical_solve cascades, which needs no slope) for n = 1,
      effective_hamiltonian_hermitian with one SVD and the slopes' top rows
      for n > 1.  The fiber's Hermitian effective Hamiltonian
      blockdiag(upper, lower) at the three nodes gives one fourth-order
      Magnus step per grid step (_magnus4, one batched N x N eigh per block
      of steps); U2, one (steps + 1, N, N) array, is I at each segment's
      start and the running product of the segment's steps after it.
    - For n = 1 the corner phases (mu_total, phase_geometric, imag_mu, and
      phase_dynamical = mu_total - phase_geometric) integrate the three rate
      evaluations by Simpson's rule.  They and est_error are one cumulative
      sum of per-step increments over the grid, across restarts.
    - est_error sums the per-step Simpson defect of z, ||W_new - W - dt/6
      (f(t) + 4 f(t + dt/2) + f(t + dt))||_F (the I_n rows cancel exactly),
      an estimate of the fourth-order error that costs no extra evaluation.
      It leaves out the fiber's Magnus error, so it can read below the
      error in U (0.8 to 9 times it on smooth models).

    After the solve, _segments turns the folds into the restart records and
    U_samples, the stacked U1(z) U2 with each segment multiplied by its
    accumulator.
    """
    n = h.n
    m = h.N - n
    times, dt, values, index = _drive(h.read, t_end, steps, h.breakpoints)
    norm = lambda W: np.sqrt(np.vdot(W[:m], W[:m]).real)  # noqa: E731
    W0 = np.eye(h.N, n, -m, dtype=complex)  # [z; I_n] at z = 0
    W, folds = _sweep(_projective_rhs, values, index, W0, dt, Z_max, norm, lambda X: np.multiply(X, -1j, out=X))
    U2 = np.empty((steps + 1, h.N, h.N), dtype=complex)  # the fiber's running product
    inc = np.zeros((steps + 1, 4 if n == 1 else 1))  # per step's end node: the phases' increments, then the defect
    ends = []  # per fold: (node, z and U2 where the segment ended)
    # per segment: its start node k, its end node e and the state W_e it reached there
    for k, (e, W_e) in zip([0] + [j for j, _ in folds], folds + [(steps, W[-1])]):
        U2[k] = np.eye(h.N)
        for a in range(k, e, _BLOCK):
            b = min(a + _BLOCK, e)
            X = values[index[:, a:b]]
            K = -1j * X
            W3, (f_a, f_b) = _node_states(K, W[a:b], np.concatenate((W[a + 1 : b], [W_e if b == e else W[b]])), dt)
            f_m = _projective_rhs(K[1], W3[1])
            H3, z3 = _blocks(X, n), W3[..., :m, :]
            if n == 1:  # the phases by Simpson's rule
                He, rates = _corner_node(H3, z3)
                inc[a + 1 : b + 1, :3] = (dt / 6.0) * (rates[0] + 4.0 * rates[1] + rates[2])
            else:
                He = effective_hamiltonian_hermitian(H3, z3, np.array((f_a, f_m, f_b))[..., :m, :])
            _running_product(_magnus4(*blockdiag(*He), dt), U2[a:])
            defect = W3[2] - W3[0] - (dt / 6.0) * (f_a + 4.0 * f_m + f_b)
            inc[a + 1 : b + 1, -1] = np.linalg.norm(defect, axis=(-2, -1))
        if e < steps:
            ends.append((e, W_e[:m], U2[e].copy()))
    del values  # the node stack, before U is assembled
    z_samples = np.ascontiguousarray(W[:, :m])
    restarts, U_samples = _segments(times, ends, z_samples, U2)
    sums = np.cumsum(inc, axis=0)
    result = FactoredResult(
        h=h,
        times=times,
        z_samples=z_samples,
        U_samples=U_samples,
        U2_samples=U2,
        restarts=restarts,
        est_error=float(sums[-1, -1]),
    )
    if n == 1:
        mu, geo, imu = sums[:, :3].T
        result.mu_total, result.phase_geometric, result.phase_dynamical, result.imag_mu = (
            mu, geo, mu - geo, imu
        )
    return result


def _node_states(K: np.ndarray, W_a: np.ndarray, W_b: np.ndarray, dt: float):
    """(W3, (f_a, f_b)) of the steps of a projective sweep from W_a to W_b, K = -iH at their nodes.

    K is (3, steps, ..., N, N), and W_a and W_b (steps, ..., N, n) hold each
    step's start and end state: [z; I_n], or a peel level [0_k; z_k; 1] in
    its frame.  A step's start is the step before's end, except where a
    level of the peel restarts.  f_a and f_b are _projective_rhs at the start
    and end node, and W3 stacks W at the start node, the cubic Hermite
    midpoint (W_a + W_b)/2 + dt/8 (f_a - f_b) and the end node.  f is zero on
    the I_n rows and on W's zero rows, so W3 keeps them exactly.
    """
    f = _projective_rhs(K[::2], np.array((W_a, W_b)))
    W_m = 0.5 * (W_a + W_b) + (dt / 8.0) * (f[0] - f[1])
    return np.array((W_a, W_m, W_b)), f


def _segments(times: np.ndarray, ends: list, z: np.ndarray, U2: np.ndarray):
    """Restart records and U at every node from solve_factored's node states z and U2.

    ``ends`` holds (k, z_k, U2_k) per fold: the states the segment before
    node k reached there.  Each fold's U1(z_k) U2_k multiplies the
    accumulator from the left; the restart record is (times[k], the new
    accumulator), and node k starts the new segment.  Then U1(z) U2 is
    assembled _BLOCK nodes at a time, which bounds the temporaries, and each
    segment is multiplied by its accumulator from the right, in place.
    """
    N = U2.shape[-1]
    accums = [np.eye(N, dtype=complex)]
    for _, z_k, U2_k in ends:
        accums.append(unitarized_U1(z_k) @ U2_k @ accums[-1])
    starts = [k for k, _, _ in ends]
    U = np.empty((len(times), N, N), dtype=complex)
    for a in range(0, len(times), _BLOCK):
        U[a : a + _BLOCK] = unitarized_U1(z[a : a + _BLOCK]) @ U2[a : a + _BLOCK]
    for k, end, accum in zip(starts, starts[1:] + [len(times)], accums[1:]):
        U[k:end] = U[k:end] @ accum
    return list(zip(times[starts], accums[1:])), U


# ---------------------------------------------------------------------------
# hierarchical n=1 peel
# ---------------------------------------------------------------------------


@dataclass
class HierarchicalResult:
    """Output of the level-by-level peel.

    ``level_mu`` etc. hold one phase per peeled level (level 0 is the full
    problem): the sum of the level's increments over the grid, across its
    restarts.  ``trace_phases`` hold the per-level overall phases restored
    after trace subtraction.  ``restarts`` holds (t, U(t)) at each fold of
    level 0, the same records as solve_factored's, and ``level_restarts``
    holds (t, level) for every fold of every level, in time order.
    """

    h: BlockedHamiltonian
    times: np.ndarray
    z_samples: np.ndarray  # level-0 coordinate
    U_samples: np.ndarray
    level_mu: np.ndarray  # (steps+1, N-1)
    level_geo: np.ndarray
    level_dyn: np.ndarray
    trace_phases: np.ndarray  # (steps+1, N-1)
    restarts: list = field(default_factory=list)
    level_restarts: list = field(default_factory=list)


def _hier_assemble(zs, phases: np.ndarray, accums=None) -> np.ndarray:
    """U1(z_0) blockdiag(e^{i phi_0} U1(z_1) blockdiag(...) A_1, e^{i mu_0}) A_0 for a state.

    zs[k] is level k's coordinate and phases[..., :, k] its (mu, geometric,
    trace) phases since the level last restarted.  Level by level, innermost
    first, U <- unitarized_U1(z_k) blockdiag(e^{i phi_k} U, e^{i mu_k}) A_k,
    where accums[k] is level k's accumulator A_k (None, or no accums, for the
    identity).  Leading axes stack states.
    """
    e_mu, _, e_phi = np.moveaxis(np.exp(1j * phases)[..., None, None], (-4, -3), (0, 1))
    U = np.ones(phases.shape[:-2] + (1, 1), dtype=complex)
    for k in range(len(zs) - 1, -1, -1):
        U = unitarized_U1(zs[k][..., None]) @ blockdiag(e_phi[k] * U, e_mu[k])
        if accums is not None and accums[k] is not None:
            U = U @ accums[k]
    return U


# Steps a level sweeps per round of hierarchical_solve's pipeline.
_CHUNK = 8


def hierarchical_solve(
    h: BlockedHamiltonian,
    t_end: float,
    steps: int,
    Z_max: float = DEFAULT_Z_MAX,
) -> HierarchicalResult:
    """Solve by peeling one level at a time with block size 1.

    H is read on _drive's node schedule in one BlockedHamiltonian.read before
    the first step (ModelError for a non-Hermitian, non-traceless or
    non-finite model).  The L = N - 1 levels share one N x N frame: level k's
    H sits at [k:, k:] and its state is W_k = [0_k; z_k; 1], so one
    rk4_step on _projective_rhs with K = -iH steps every level at once, and
    ||z_k||_F is the norm of W_k's top N - 1 rows.

    The solve is one pipeline of rounds on _drive's node values.  In round
    r, level k sweeps steps (r - k) _CHUNK to (r - k + 1) _CHUNK of the grid,
    the steps level k - 1 swept in the round before; each step is one
    rk4_step over the (levels, N) state of the levels that have steps to
    take in the round (all L once the pipeline is full).  Then _node_states
    places those levels' three node sets (the midpoint by cubic Hermite
    interpolation on the projective right-hand side, the levels' zero rows
    kept), and one batched _peel_level call on them (the trace removed on
    each level's own rows) gives the phase rates, integrated by Simpson's
    rule, and each level's H_next; shifted one row and one column down, that
    is the next level's H for the next round.  Each level writes its z and phase increments in
    place, at their grid nodes.  The pipeline fills once, so a solve of S
    steps takes S + (L - 1) _CHUNK batched RK4 steps plus at most the rest
    of a round per fold.

    Restarts, per level.  Level 0 restarts at Z_max, so it folds where
    solve_factored folds; the levels below it restart at Z_max / 2, because
    each reads its H from the peel of the levels above it and its error
    grows with its own ||z||.  When level k's step from grid node j reaches
    its threshold, _fold_guard (_sweep's rule too) accepts the fold or
    raises StiffnessError, level k restarts in place from [0_k; 0; 1] at j,
    and the round sweeps again from that step; the levels do not interact
    inside a round, so every other level repeats its steps bit for bit.
    From j on, level k + 1 reads its H from level k's new segment, so it
    restarts at j too, one round later, and so on down to the innermost
    level.  Shallower levels keep stepping.  The guard counts a level's
    steps since its latest restart, its own or one passed down.

    Assembly, after the solve.  Each level keeps an accumulator A_k: on its
    own fold at j, A_k <- U^(k)(j-) A_k, the level's operator at the state
    it reached (with the deeper levels' reached states and accumulators);
    on a restart passed down, A_k <- I.  U_samples is assembled innermost
    level first, U^(k) = U1(z_k) blockdiag(e^{i phi_k} U^(k+1), e^{i mu_k})
    A_k, with each level's phases since its latest restart, _BLOCK nodes at
    a time.  The reported phases are each level's increments summed over
    the grid; ``restarts`` records level 0's folds and ``level_restarts``
    every level's.
    """
    if h.n != 1:
        raise UnsupportedConfigurationError("hierarchical solve peels with n=1")
    N = h.N
    L = N - 1
    levels = np.arange(L)
    mask = levels >= levels[:, None]  # (L, N - 1): level k owns rows k: of the z frame
    start = np.eye(N, 1, -L, dtype=complex)  # W_k at z_k = 0
    chunk = np.arange(_CHUNK)[:, None]
    limit = np.where(levels == 0, Z_max, Z_max / 2)  # each level's restart threshold
    folds = []  # (node, level) of every level's own folds
    reached = {}  # (node, level) -> the z frame row the level reached where it restarts
    times, dt, values, index = _drive(h.read, t_end, steps, h.breakpoints)
    rounds = -(-steps // _CHUNK)  # the rounds each level takes
    W = np.repeat(start[None], L, axis=0)
    H = np.zeros((3, _CHUNK, L, N, N), complex)  # a round's frames; level k's rows above k stay 0
    # at each grid node, level k's z frame in z[:, k] and its phase increments in inc[:, :, k]
    z, inc = np.zeros((steps + 1, L, L), complex), np.zeros((steps + 1, 3, L))
    last = np.zeros(L, int)  # each level's latest restart node
    restart = {}  # step of the round -> the levels that restart where it starts
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite peak raises StiffnessError
        for r in range(rounds + L - 1):
            lo, hi = max(0, r - rounds + 1), min(L, r + 1)  # the levels that step this round
            pos = (r - levels[lo:hi]) * _CHUNK  # the node each starts the round at
            n = np.minimum(steps - pos, _CHUNK)
            if not lo:
                H[:, : n[0], 0] = values[index[:, pos[0] : pos[0] + n[0]]]
            live = chunk < n
            Hr = H[:, :, lo:hi]
            Hr[:, ~live] = 0.0  # K = 0 holds a level still
            w = n.max()
            K = -1j * Hr[:, :w]
            # a restart passes one level down per round, at the same step
            restart = {s: [k + 1 for k in ks if k + 1 < L] for s, ks in restart.items() if ks[0] + 1 < L}
            Wa, Wb, s, y = [], [], 0, W[lo:hi]
            while True:
                for i in range(s, w):
                    if i in restart:
                        y = y.copy()
                        y[np.subtract(restart[i], lo)] = start
                    Wa.append(y)
                    y = rk4_step(_projective_rhs, y, dt, _projective_rhs(K[0, i], y), K[1, i], K[2, i])
                    Wb.append(y)
                ends = np.array(Wb)
                zw = ends[..., :-1, 0]
                peak = np.sqrt(np.sum(zw.real**2 + zw.imag**2, axis=-1))
                over = live[:w] & ~(peak < limit[lo:hi])
                if not over.any():
                    break
                s = int(over.any(axis=1).argmax())  # the earliest fold of the round; on a tie every level there
                for k in (lo + np.flatnonzero(over[s])).tolist():
                    j = int(pos[k - lo]) + s
                    since = [a for a, ks in restart.items() if a <= s and k in ks]
                    _fold_guard(dt * j, j, j - s + max(since) if since else last[k], peak[s, k - lo])
                    folds.append((j, k))
                    restart[s] = sorted(restart.get(s, []) + [k])
                y = Wa[s]
                del Wa[s:], Wb[s:]
            z3 = _node_states(K, np.array(Wa), ends, dt)[0][..., :-1, 0]
            Hm = Hr[:, :w]
            rates, H_next = _peel_level(Hm[..., :-1, :-1], Hm[..., :-1, -1], Hm[..., -1, -1], z3, mask[lo:hi])
            # shifted one row and one column down, level k's H_next is level k + 1's H next round
            H[:, :w, lo + 1 : hi + 1, 1:, 1:] = H_next[:, :, : L - 1 - lo]
            rates = np.array(rates)  # (rate, node set, step, level)
            step, row = np.nonzero(live[:w])  # row: level lo + row
            node = pos[row] + 1 + step
            z[node, lo + row] = zw[step, row]
            inc[node, :, lo + row] = ((dt / 6.0) * (rates[:, 0] + 4.0 * rates[:, 1] + rates[:, 2]))[:, step, row].T
            for s, ks in restart.items():  # level k restarts at the node where its step s starts
                for k in ks:
                    j = int(pos[k - lo]) + s
                    reached[j, k] = (zw[s - 1, k - lo] if s else W[k, :-1, 0]).copy()
                    z[j, k] = 0.0
                    last[k] = max(last[k], j)
            W[lo:hi] = ends[-1]
    phases = np.cumsum(inc, axis=0)
    # level by level, the restart nodes and the accumulator from each on, node 0 first
    starts = [[0] for _ in levels]
    accums = [[np.eye(N - k, dtype=complex)] for k in levels]
    restarts, level_restarts = [], []
    for j, k0 in sorted(folds):  # a fold at level k0 restarts levels k0 .. L - 1 at node j
        group = range(k0, L)
        since = np.stack([phases[j, :, k] - phases[starts[k][-1], :, k] for k in group], axis=-1)
        A = _hier_assemble([reached[j, k][k:] for k in group], since, [accums[k][-1] for k in group])
        for k in group:
            starts[k].append(j)
            accums[k].append(A if k == k0 else np.eye(N - k, dtype=complex))
        level_restarts.append((times[j], k0))
        if k0 == 0:
            restarts.append((times[j], A))
    nodes = np.arange(steps + 1)
    segment = [np.searchsorted(starts[k], nodes, side="right") - 1 for k in levels]
    base = np.stack([phases[np.array(starts[k])[segment[k]], :, k] for k in levels], axis=-1)
    owners = {level for _, level in level_restarts}
    folded = [np.array(accums[k]) if k in owners else None for k in levels]
    U_samples = np.empty((steps + 1, N, N), dtype=complex)
    for a in range(0, steps + 1, _BLOCK):
        b = a + _BLOCK
        U_samples[a:b] = _hier_assemble(
            [z[a:b, k, k:] for k in levels],
            phases[a:b] - base[a:b],
            [None if A is None else A[segment[k][a:b]] for k, A in zip(levels, folded)],
        )
    level_mu, level_geo, trace_phases = np.moveaxis(phases, 1, 0)
    return HierarchicalResult(
        h=h,
        times=times,
        z_samples=z[:, 0, :, None],
        U_samples=U_samples,
        level_mu=level_mu,
        level_geo=level_geo,
        level_dyn=level_mu - level_geo,
        trace_phases=trace_phases,
        restarts=restarts,
        level_restarts=level_restarts,
    )


def schrodinger_residual(h: BlockedHamiltonian, times: np.ndarray, U_samples: np.ndarray) -> float:
    """Max relative residual of i dU/dt = H U by centered differences.

    Skips grid points adjacent to restarts only implicitly: the residual is
    computed on all interior points, so callers should pass restart-free
    stretches when restarts are present.
    """
    dU = (U_samples[2:] - U_samples[:-2]) / (times[2:] - times[:-2])[:, None, None]
    H = h.read(times[1:-1])
    scale = np.maximum(np.linalg.norm(H, axis=(-2, -1)), 1e-30)
    residual = np.linalg.norm(1j * dU - H @ U_samples[1:-1], axis=(-2, -1)) / scale
    return float(np.max(residual, initial=0.0))
