"""The factorization U = U1(z) U2 and its two solvers.

The evolution operator factors as U = U1 U2: a base-manifold factor U1
built from the nilpotent block-triangular exponentials and unitarized by a
block-diagonal gauge factor, and a block-diagonal fiber factor U2 with
Hermitian effective Hamiltonians.  Both solvers read one integration of U
(riccati._integrate: one product of Magnus steps, riccati._product, and its
fold search), and read the factors from it: z by riccati._fold_search and
U2 = U1(z)^H U by _frames; _solve reads both solvers' results from one.
For block size 1 the lower fiber block is a pure phase (the corner phase)
with a clean geometric/dynamical split, and peeling one level at a time,
each level's operator the top block of the fiber above it, yields the full
hierarchical solution SU(N) -> SU(N-1) -> ... -> U(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import BlockedHamiltonian
from .linalg import _expm1, blockdiag, dagger, inv_sqrt_hpd, sqrt_hpd
from .riccati import (
    _BLOCK,
    DEFAULT_Z_MAX,
    _fold_search,
    _integrate,
    _Integration,
    _omega,
    _projective_rhs,
    _simpson,
    _straddled,
)


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
    """Hermitian effective Hamiltonians (upper, lower) for the unitarized fiber blocks, the paper's formula.

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

    No solver calls it: solve_factored's fiber steps are the block diagonal
    of the Magnus step in the frame of z, whose generator this is to fourth
    order.  Criterion 5 and ``unitint verify`` check it; for n = 1 it is
    (recursion_hamiltonian, -d(mu)/dt of _peel_level).
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
    Hamiltonian; the formula lives in the peel's level kernel, _peel_level
    and _next_level.
    """
    Htop, V, Hbot = h_blocks
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    if z.shape[1] != 1 or V.shape[1] != 1:
        raise UnsupportedConfigurationError("recursion requires block size 1")
    return _next_level(Htop, z[:, 0], _peel_level(Htop, V[:, 0], Hbot[0, 0], z[:, 0])[1])


def _peel_level(Htop: np.ndarray, v: np.ndarray, h, z: np.ndarray):
    """One level of the n=1 peel: its phase rates, from V^H z, |z|^2 and Htop z, and its update u.

    Htop (m x m), the column v and the corner h partition a traceless
    (m+1)-level H; z is the level's coordinate as a 1-D array.  Leading axes
    broadcast, so one call serves every node of a block of steps.  Returns
    ((mu rate, geometric rate, trace-phase rate), u), where u = a v +
    (Re(V^H z) a^2 / 2) z, a = 1/(sqrt(g)+1), gives recursion_hamiltonian's
    rank-2 update H' = Htop - z u^H - u z^H (_next_level builds it).  Its
    trace tau = -h - 2 Re(u^H z) relies on tr Htop = -h; the trace phase
    advances at -tau/m.  None of it needs the slope dz/dt.

    This is the one definition of the n=1 corner-phase rates, read by both
    solve_factored and hierarchical_solve:
    d(mu)/dt = -(H_NN + Re(V^H z)) and d(geometric)/dt =
    -(-i U1^H dU1/dt)_NN = [z^H (Htop - H_NN I) z + 2 Re(V^H z)(1 - g/2)] / g.
    The sign of the latter is fixed by the split-sum identity
    H_NN + Re(V^H z) = (U1^H H U1)_NN + (-i U1^H dU1/dt)_NN, checked against
    finite differences of U1 in the test suite.
    """
    m = z.shape[-1]
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
    return (-(hnn + re_vz), geo_rate, -tau / m), u


def _next_level(Htop: np.ndarray, z: np.ndarray, u: np.ndarray, phi_rate=None) -> np.ndarray:
    """recursion_hamiltonian's H' = Htop - z u^H - u z^H, traceless when phi_rate is given.

    z, u and the trace-phase rate phi_rate = -tau/m come from _peel_level,
    over the same leading axes; phi_rate, added on the diagonal, removes the
    trace.  H' is the next level's H in hierarchical_solve's peel.
    """
    rows = z.shape[-1]
    zu = z[..., :, None] * u[..., None, :].conj()
    H_next = Htop - zu
    H_next -= dagger(zu)
    if phi_rate is not None:
        diagonal = H_next.reshape(H_next.shape[:-2] + (rows * rows,))[..., :: rows + 1]
        diagonal += phi_rate[..., None]
    return H_next


# ---------------------------------------------------------------------------
# direct factored solve (any block size)
# ---------------------------------------------------------------------------


@dataclass
class FactoredResult:
    """Full time series produced by solve_factored.

    U_samples are the complete evolution operators U(t_k), the Magnus
    product itself.  Phase arrays (block size 1 only) are cumulative across
    restarts.
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
    non-finite model).  The solve integrates one thing (riccati._integrate:
    the node stack, the product and the fold search, the integration that
    hierarchical_solve reads too), and reads every factor from it.
    cli.run_scenario reads this result and the peel's from one integration
    (_solve).

    - The product (riccati._product): U_j = P_{j-1} ... P_0, with P_j the
      unitary fourth-order Magnus step of H on the step's three nodes
      (_magnus4: one stacked Taylor step exponential, linalg._expm1, per
      block of _BLOCK steps), chained one matmul per step.  U_samples is
      U_j.  A step whose exponent spans pi or more raises StiffnessError
      with its t and step; a norm bound certifies the others, and only a
      step it cannot certify takes an eigvalsh for its exact spread.
    - The base (riccati._fold_search): for the segment that starts at node
      s, z_j is the projection of W_j = U_j U_s^H [0; I_n].  When node
      j + 1 is the first whose ||z||_F reaches Z_max, the segment ends at j
      and the next starts there (StiffnessError for a fold the guard
      refuses).  The restart records are (t_s, U_s).
    - The fiber (_frames): U2_j = U1(z_j)^H U_j U_s^H, with U1 =
      unitarized_U1 evaluated once per node.  It is block-diagonal to
      roundoff, since U1(z_j)'s last n columns span W_j, and U2_samples
      keeps its two diagonal blocks.  So U = U1(z) U2 U_s at every node.
    - For n = 1 the corner phases (mu_total, phase_geometric, imag_mu, and
      phase_dynamical = mu_total - phase_geometric) integrate the rates of
      the peel's level kernel _peel_level by Simpson's rule (_simpson), at
      the nodes of the node pass (_node_pass): W at the start and end nodes
      and the cubic Hermite point at the midpoints.  No other block size
      reads a node.  The phases are cumulative sums of per-step increments
      over the grid, across restarts.
    - est_error (_est_error) is step doubling on the grid's own nodes: each
      pair of steps against one Magnus step of 2 dt on the same three nodes,
      carried to T.  It estimates the error in U and bounds nothing.  It
      reads nan on a one-step grid and on a grid with a breakpoint inside a
      step (riccati._straddled): that step crosses the jump and is first
      order, which step doubling does not see.
    """
    return _solve(h, t_end, steps, Z_max)[0]


def _solve(h: BlockedHamiltonian, t_end: float, steps: int, Z_max: float, peel: bool = False):
    """(FactoredResult, HierarchicalResult or None): solve_factored's reading of one _integrate, and hierarchical_solve's if peel.

    Each result equals its standalone solver's, field for field and bit for
    bit, and the two share one U.  cli.run_scenario reads both paths here.
    The factorized readings of the node stack (est_error and the n = 1
    phases) come first, then the peel (_peel), the stack's last reader,
    which frees it after level 0's node pass.  The fiber U2 is allocated
    last, once the stack and the peel's levels are gone.
    """
    run = _integrate(h, t_end, steps, Z_max)
    n = h.n
    m = h.N - n
    dt, U, W = run.dt, run.U, run.W  # not run.values: the peel frees the node stack
    est_error = float("nan") if _straddled(t_end, steps, h.breakpoints) else _est_error(run.values, run.index, dt, U)
    phases = {}
    if n == 1:  # the phases, by Simpson's rule
        inc = np.zeros((steps + 1, 3))  # per step's end node: the phases' increments
        rates = None
        for a, b, X, Wn, idx in _node_pass(run.values, run.index, W, run.folds, dt)[1]:
            v, z = X[:, :-1, -1], Wn[1:, :-1, 0]
            (mu_rate, geo_rate, _), _ = _peel_level(X[:, :-1, :-1], v, X[:, -1, -1], z)
            rates = _carry(rates, np.stack((mu_rate, geo_rate, -2.0 * np.sum(v.conj() * z, axis=-1).imag), axis=-1))
            inc[a + 1 : b + 1] = (dt / 6.0) * _simpson(rates, idx)
        mu, geo, imu = np.cumsum(inc, axis=0).T
        phases = dict(mu_total=mu, phase_geometric=geo, phase_dynamical=mu - geo, imag_mu=imu)
    hier = _peel(run) if peel else None
    run.values = None  # the node stack, before the fiber is read
    U2 = np.zeros_like(U)
    for a, b, top, bottom in _frames(U, W, run.starts, n):
        U2[a:b, :m, :m], U2[a:b, m:, m:] = top, bottom
    restarts = [(run.times[s], U[s].copy()) for s in run.starts[1:]]
    return FactoredResult(h, run.times, np.ascontiguousarray(W[:, :m]), U, U2, restarts, est_error, **phases), hier


def _frames(op: np.ndarray, W: np.ndarray, starts: list, n: int):
    """The fiber read from an operator stack: (a, b, top, bottom) per block of _BLOCK nodes.

    op and W = [z; I_n] are a level's operators and _fold_search's states,
    and starts its segments' first nodes.  For node j of the segment that
    starts at s, top and bottom are the diagonal blocks of U1(z_j)^H op_j
    op_s^H (_fiber), exactly I at each segment start; its off-diagonal
    blocks are roundoff.
    """
    m = W.shape[-2] - n
    nodes = np.arange(len(op))
    start = np.asarray(starts)[np.searchsorted(starts, nodes, side="right") - 1]
    for a in range(0, len(op), _BLOCK):
        b = min(a + _BLOCK, len(op))
        s = start[a:b]
        top, bottom = _fiber(W[a:b, :m], op[a:b] @ dagger(op[s]) if s.any() else op[a:b])
        fresh = s == nodes[a:b]
        top[fresh], bottom[fresh] = np.eye(m), np.eye(n)
        yield a, b, top, bottom


def _fiber(z: np.ndarray, V: np.ndarray):
    """(top, bottom): the diagonal blocks of U1(z)^H V, for stacks of coordinates z and operators V.

    For a column z, U1 = unitarized_U1(z) is I plus a rank-2 update, so the
    blocks take O(N^2) per node: top = V_tt - z (z^H V_tt / (s (s + 1)) +
    V_bt / s) and bottom = (z^H V_tb + V_bb) / s, with s = sqrt(1 + |z|^2)
    and V_tt, V_bt, V_tb, V_bb V's blocks.  Otherwise U1 takes one batched
    SVD (unitarized_U1) and U1^H V one matmul.
    """
    m, n = z.shape[-2:]
    if n > 1:
        M = dagger(unitarized_U1(z)) @ V
        return M[:, :m, :m], M[:, m:, m:]
    zh = dagger(z)
    sg = np.sqrt(1.0 + (zh @ z).real)
    top = V[:, :m, :m] - z @ ((zh @ V[:, :m, :m]) / (sg * (sg + 1.0)) + V[:, m:, :m] / sg)
    return top, (zh @ V[:, :m, m:] + V[:, m:, m:]) / sg


def _est_error(values, index, dt: float, U: np.ndarray) -> float:
    """Step doubling on the grid's own nodes: ||sum_k (I - U_{2k+2}^H D_k U_{2k})||_F / 15.

    Steps 2k and 2k + 1 read the nodes t_2k, t_2k+1 and t_2k+2, which are
    the Simpson nodes of one step of 2 dt: D_k is that Magnus step, I +
    linalg._expm1(A) with A = _omega of H at 2 dt, with no extra model
    read and no guard (the product's steps passed theirs).  I -
    U_{2k+2}^H D_k U_{2k} is the pair's local error, 15 times its leading order for a
    fourth-order step (Hairer, Norsett & Wanner, Solving ODEs I, II.4),
    carried to t = 0; the sum carries every pair's to one time, so its norm
    estimates the error in U_S.  A pair whose middle node is a breakpoint
    jump is skipped, not differenced across the jump.  With an odd step
    count the last step has no pair of its own: it counts half of the pair
    it forms with the step before.  A one-step grid has no pair, and reads
    nan.  On a piecewise-constant model each Magnus step is exact within a
    piece, so the estimate reads roundoff there.  The sum runs over the
    pairs in grid order, in _BLOCK pairs at a time, and does not depend on
    the block.
    """
    steps, N = index.shape[1], U.shape[-1]
    if steps < 2:
        return float("nan")
    p = np.append(np.arange(0, steps - 1, 2), np.full(steps % 2, steps - 2))  # each pair's first step
    weight = np.where(np.arange(len(p)) < steps // 2, 1.0, 0.5)[:, None, None]  # the odd last step's at 1/2
    keep = index[0, p + 1] == index[2, p]  # no jump at the middle node
    p, weight, total = p[keep], weight[keep], np.zeros((N, N), dtype=complex)
    for a in range(0, len(p), _BLOCK):
        q = p[a : a + _BLOCK]
        A = _omega(values, np.stack((index[0, q], index[2, q], index[2, q + 1])), 2.0 * dt)
        D = _expm1(A)[0] + np.eye(N)
        local = weight[a : a + _BLOCK] * (np.eye(N) - dagger(U[q + 2]) @ (D @ U[q]))
        total = np.concatenate((total[None], local)).sum(axis=0)  # in grid order, for any block
    return float(np.linalg.norm(total)) / 15.0


def _carry(last, own: np.ndarray) -> np.ndarray:
    """A per-node quantity at the rows a block's index reads: the carried node, then the block's own nodes.

    The carried row is last's final row, the quantity at the block before's
    last node (zero in the first block, where last is None); ``own`` holds
    it at the nodes the block adds to the stack (_node_pass).
    """
    return np.concatenate((np.zeros_like(own[:1]) if last is None else last[-1:], own))


def _node_pass(values, index, W: np.ndarray, folds: list, dt: float):
    """The node pass of a level: its node stack and the state W at each node.

    ``values`` and ``index`` are the level's H stack in _drive's layout, and
    W (= [z; I_n] at the grid nodes) and ``folds`` ((j, the state reached
    at j) per restart) its riccati._fold_search.  Each step reads the level at
    its start, midpoint and end node.  Its midpoint and end node are nodes
    of its own.  Its start node is its own only at step 0, after a
    breakpoint jump (where the index reads the start afresh) and at a
    restart, where the state starts afresh; elsewhere it is the step
    before's end node.  So the level's node stack holds 2S + 1 nodes plus
    one per jump or restart.  The state at a step's start and end node is W
    there, except that a step that ends at a restart ends at the state it
    reached; at its midpoint it is the cubic Hermite point (W_a + W_b)/2 +
    dt/8 (f_a - f_b), from the slopes f = _projective_rhs(-iH, W) at the
    start and end node.  f is zero on the I_n rows, so the midpoints keep
    them exactly.  The n = 1 phases of solve_factored and every level of
    hierarchical_solve read the pass; n > 1 solves do not run it.

    Returns (nodes, blocks).  ``nodes`` is the (3, steps) index of each
    step's nodes in the stack, _drive's layout, so a per-node quantity
    stacked in node order is a next level's values.  ``blocks`` yields (a,
    b, X, Wn, idx) per block of _BLOCK steps, over the whole grid: X is H at
    the block's own nodes, the stack's next rows in order; Wn is W at a
    carried row and then at those nodes; and idx, (3, b - a), indexes each
    step's nodes in them.  The carried row is the block before's last node,
    which the block's first step may start from.  A quantity evaluated on
    the own nodes takes it with _carry, so every node is evaluated once.
    """
    steps = index.shape[1]
    cut = np.array([j for j, _ in folds], dtype=int)
    reached = np.array([W_j for _, W_j in folds]).reshape(cut.shape + W.shape[1:])
    fresh = np.ones((steps, 3), dtype=bool)  # whether each step's start, midpoint and end are its own nodes
    fresh[1:, 0] = index[0, 1:] != index[2, :-1]
    fresh[cut, 0] = True
    nodes = (np.cumsum(fresh) - 1).reshape(steps, 3).T

    def blocks():
        Wn = f = None
        for a in range(0, steps, _BLOCK):
            b = min(a + _BLOCK, steps)
            own = fresh[a:b]
            X = values[index[:, a:b].T[own]]
            idx = nodes[:, a:b] - nodes[2, a - 1] if a else nodes[:, a:b] + 1  # row 0 is the carried node
            Wn = _carry(Wn, np.empty((len(X),) + W.shape[1:], W.dtype))
            f = _carry(f, np.empty_like(Wn[1:]))
            starts = idx[0, own[:, 0]]
            Wn[starts] = W[a:b][own[:, 0]]
            Wn[idx[2]] = W[a + 1 : b + 1]
            hit = (a < cut) & (cut <= b)
            Wn[idx[2, cut[hit] - a - 1]] = reached[hit]
            ends = np.concatenate((starts, idx[2]))
            f[ends] = _projective_rhs(-1j * X[ends - 1], Wn[ends])
            Wn[idx[1]] = 0.5 * (Wn[idx[0]] + Wn[idx[2]]) + (dt / 8.0) * (f[idx[0]] - f[idx[2]])
            yield a, b, X, Wn, idx

    return nodes, blocks()


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


def hierarchical_solve(
    h: BlockedHamiltonian,
    t_end: float,
    steps: int,
    Z_max: float = DEFAULT_Z_MAX,
) -> HierarchicalResult:
    """Solve by peeling one level at a time with block size 1.

    H is read on _drive's node schedule in one BlockedHamiltonian.read before
    the first step (ModelError for a non-Hermitian, non-traceless or
    non-finite model), and integrated once by riccati._integrate,
    solve_factored's integration: its product of Magnus steps U_j
    (StiffnessError at an unresolved step) and its fold search, which is
    level 0's.  U_samples is U_j.  cli.run_scenario reads this result and
    solve_factored's from one integration (_solve).  The peel SU(N) -> SU(N - 1) -> ... -> U(1) is a
    cascade of readings of it, the L = N - 1 levels one after another,
    level 0 first.

    - Level k's operator: U_j for level 0; for level k + 1, the top
      (N - k - 1) x (N - k - 1) block of level k's fiber U1(z_k)^H op_j
      op_s^H (_frames), in U(N - k - 1): its scalar phase cancels in z.
      Only one level's operator is alive at a time.
    - Level k's z_k is read from its operator by riccati._fold_search.
      Level 0 restarts at Z_max: its search is solve_factored's, so it
      folds where solve_factored folds; the levels below it restart at
      Z_max / 2.  Every restart of level k, at node j, is handed down to
      level k + 1 with the operator level k + 1 reached there (the top
      block of the fiber of level k's ending segment): level k + 1's
      segment ends at j too, and its operator starts afresh there, at I.
      The shallower levels keep their segments.
    - Level k's phases: its node pass (_node_pass) gives z_k at every
      distinct node of its H stack, block by block, and one batched
      _peel_level call per block gives the level's phase rates,
      integrated by Simpson's rule (_simpson) into the level's increments,
      and, for every level but the innermost, the next level's H stack (its
      trace removed) by _next_level from the same call.  The pass's node
      stack and index are the next level's.  The reported phases are each
      level's increments summed over the grid; ``restarts`` records level
      0's folds as (t, U) and ``level_restarts`` every level's own folds.

    A StiffnessError names the first bad step of the shallowest level that
    fails.
    """
    if h.n != 1:
        raise UnsupportedConfigurationError("hierarchical solve peels with n=1")
    return _peel(_integrate(h, t_end, steps, Z_max))


def _peel(run: _Integration) -> HierarchicalResult:
    """hierarchical_solve's reading of an n = 1 _integrate, whose fold search is level 0's.

    It is the node stack's last reader: it sets run.values to None, and
    the stack is freed once level 0's node pass has read it.
    """
    L, dt, U = run.h.N - 1, run.dt, run.U
    values, index, run.values = run.values, run.index, None
    inc = np.zeros((len(U), 3, L))  # at each grid node, each level's phase increments
    op, handed, folds = U, {}, []
    for k in range(L):
        if k:
            W, reached, starts = _fold_search(op, 1, dt, run.Z_max / 2, handed)
        else:  # level 0: the integration's own search, at Z_max
            W, reached, starts = run.W, run.folds, run.starts
        folds += [(j, k) for j in starts[1:] if j not in handed]
        nodes, blocks = _node_pass(values, index, W, reached, dt)
        H_next = np.empty((nodes[2, -1] + 1, L - k, L - k), complex) if k + 1 < L else None  # the innermost has no next
        rates, c = None, 0  # c: the block's first own node in the stack
        for a, b, X, Wn, idx in blocks:
            z = Wn[1:, :-1, 0]
            rates_own, u = _peel_level(X[:, :-1, :-1], X[:, :-1, -1], X[:, -1, -1], z)
            rates = _carry(rates, np.stack(rates_own, axis=-1))
            inc[a + 1 : b + 1, :, k] = (dt / 6.0) * _simpson(rates, idx)
            if H_next is not None:
                H_next[c : c + len(X)] = _next_level(X[:, :-1, :-1], z, u, rates_own[2])
            c += len(X)
        del blocks, X  # this level's H stack, before the next level's operator is read
        values, index = H_next, nodes
        if H_next is not None:  # the next level's operator, and what it reached at each restart of this one
            m = L - k
            below = np.empty((len(op), m, m), dtype=complex)
            for a, b, top, _ in _frames(op, W, starts, 1):
                below[a:b] = top
            ends = [j for j, _ in reached]
            ops = np.array([handed.get(j, op[j]) for j in ends]).reshape(-1, m + 1, m + 1)
            z_ends = np.array([W_j[:m] for _, W_j in reached]).reshape(-1, m, 1)
            handed = dict(zip(ends, _fiber(z_ends, ops @ dagger(op[starts[:-1]]))[0]))
            op = below
    mu, geo, phi = np.moveaxis(np.cumsum(inc, axis=0), 1, 0)
    restarts = [(run.times[j], U[j].copy()) for j, level in sorted(folds) if level == 0]
    level_restarts = [(run.times[j], level) for j, level in sorted(folds)]
    z0 = np.ascontiguousarray(run.W[:, :-1])
    return HierarchicalResult(run.h, run.times, z0, U, mu, geo, mu - geo, phi, restarts, level_restarts)


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
