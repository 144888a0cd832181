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
hierarchical solution SU(N) -> SU(N-1) -> ... -> U(1).  The phases are
readings of the same operators (_corner_phases): the lift of the corner's
arg and the Pancharatnam sum of the last column.  No solver builds a
level's Hamiltonian: _peel_level and _next_level, the paper's recursion,
serve recursion_hamiltonian and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import BlockedHamiltonian
from .linalg import _expm1, _matmul, blockdiag, dagger, inv_sqrt_hpd, sqrt_hpd
from .riccati import (
    _BLOCK,
    DEFAULT_Z_MAX,
    _fold_search,
    _integrate,
    _Integration,
    _omega,
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
    block.  z_dot must be the slope dz/dt at z, riccati_rhs (or the
    top rows of riccati._projective_rhs).  Stacks (leading axes) of
    h_blocks, z and z_dot give stacks of blocks from one batched SVD
    z = A S B^H, S = diag(s) above zeros (n <= m), so g1 = A diag(r1^2) A^H
    and g2 = B diag(r2^2) B^H.  With Ht = A^H Htop A, Hb = B^H Hbot B,
    W = A^H V B, C1 = Ht - S W^H, C2 = Hb + S^H W and R = A^H z_dot B, each
    block is Q (Y + Y^H) Q^H with
        Y_ij = -(i/2) P_ij (r_j - r_i) / ((r_i + r_j) r_i r_j) + (1/2) C_ij r_j / r_i
    for (Q, r, P, C) = (A, r1, R S^H, C1) and (B, r2, S^H R, C2), where
    P + P^H = Q^H (d/dt g) Q.

    No solver calls it: solve_factored reads the fiber from the Magnus
    product in the frame of z, whose generator this is.  Criterion 5 and
    ``unitint verify`` check it; for n = 1 it is (recursion_hamiltonian,
    -d(mu)/dt of _peel_level).
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
    Hamiltonian.  The formula lives in the level kernel, _peel_level and
    _next_level, which no solver calls: hierarchical_solve reads each
    level's operator from the product instead, and this H' generates it.
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

    These are the paper's n=1 corner-phase rates, whose integrals the
    solvers read from the operators instead (_corner_phases; the tests
    check the readings against them):
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
    trace.  H' is the generator of the next level of hierarchical_solve's
    peel, up to that trace.
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
    product itself.  The phase arrays (block size 1 only) are readings of
    U, one value per grid node from 0 at t = 0, so they do not depend on
    the folds.  ``poles`` holds (t, step, 0) for each step near the pole
    U_NN = 0, where mu takes the principal value (_corner_phases).
    est_error is solve_factored's estimate of its error in U(T); it is None
    in a reading that was asked for none (cli.run_scenario without an
    est_error tolerance).
    """

    h: BlockedHamiltonian
    times: np.ndarray
    z_samples: np.ndarray
    U_samples: np.ndarray
    U2_samples: np.ndarray
    restarts: list = field(default_factory=list)
    est_error: float | None = 0.0
    mu_total: np.ndarray | None = None
    phase_geometric: np.ndarray | None = None
    phase_dynamical: np.ndarray | None = None
    imag_mu: np.ndarray | None = None
    poles: list = field(default_factory=list)


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
    - For n = 1 the corner phases are readings of U (_level0_phases), with
      psi_j = U_j e_N: mu_total is the continuous lift of arg U_NN,
      imag_mu is -ln|U_NN|^2, phase_dynamical is the Pancharatnam sum of
      arg <psi_j|psi_j+1>, Richardson-corrected on pairs of steps to fourth
      order at every node (_corner_phases), and phase_geometric is
      mu_total - phase_dynamical.  None reads H, z or a chart, so the
      phases are the same at any Z_max, bit for bit.  A step near the pole
      U_NN = 0 takes the principal value, and ``poles`` names it.
    - est_error (_est_error) is step doubling on the grid's own nodes: each
      pair of steps against one Magnus step of 2 dt on the same three nodes,
      carried to T.  It estimates the error in U and bounds nothing.  It
      reads nan on a one-step grid and on a grid with a breakpoint inside a
      step (riccati._straddled): that step crosses the jump and is first
      order, which step doubling does not see.
    """
    return _solve(h, t_end, steps, Z_max)[0]


def _solve(h: BlockedHamiltonian, t_end: float, steps: int, Z_max: float, peel: bool = False, estimate: bool = True):
    """(FactoredResult, HierarchicalResult or None): solve_factored's reading of one _integrate, and hierarchical_solve's if peel.

    Each result equals its standalone solver's, field for field and bit for
    bit, and the two share one U and level 0's corner phases (one
    _corner_phases of U).  cli.run_scenario reads both paths here, and asks
    for est_error only under an est_error tolerance: without ``estimate``
    the factorized result's est_error is None.  est_error is the node
    stack's only reader, so the stack is freed before the phases, the peel
    (_peel) and the fiber U2, which read U alone.
    """
    run = _integrate(h, t_end, steps, Z_max)
    n = h.n
    m = h.N - n
    U, W = run.U, run.W
    est_error = None
    if estimate:
        est_error = float("nan") if _straddled(t_end, steps, h.breakpoints) else _est_error(run.values, run.index, run.dt, U)
    run.values = None  # the node stack, before anything else is read
    corner = _corner_phases(U, {}, run.index) if n == 1 else None
    phases = _level0_phases(U, corner, run.times) if n == 1 else {}
    hier = _peel(run, corner) if peel else None
    U2 = np.zeros_like(U)
    for a, b, top, bottom in _frames(U, W, run.starts, n):
        U2[a:b, :m, :m], U2[a:b, m:, m:] = top, bottom
    restarts = [(run.times[s], U[s].copy()) for s in run.starts[1:]]
    return FactoredResult(h, run.times, np.ascontiguousarray(W[:, :m]), U, U2, restarts, est_error, **phases), hier


def _level0_phases(U: np.ndarray, corner: tuple, times: np.ndarray) -> dict:
    """solve_factored's n = 1 phases, from the product U and its _corner_phases ``corner`` on the grid ``times``.

    mu_total and phase_dynamical sum the corner's increments,
    phase_geometric is their difference, imag_mu is -ln|U_NN|^2 (inf at an
    exactly zero corner), and poles names each step near the pole as (t,
    step, 0).
    """
    mu, dyn, poles = corner
    mu, dyn = (np.concatenate(([0.0], np.cumsum(x))) for x in (mu, dyn))  # 0 at node 0
    corner = U[:, -1, -1]
    with np.errstate(divide="ignore"):
        imag_mu = -np.log(corner.real**2 + corner.imag**2)
    poles = [(times[j], int(j), 0) for j in poles]
    return dict(mu_total=mu, phase_geometric=mu - dyn, phase_dynamical=dyn, imag_mu=imag_mu, poles=poles)


def _corner_phases(op: np.ndarray, reached: dict, index: np.ndarray):
    """(mu, dyn, poles): per grid step, a level's corner-phase and dynamical-phase increments, read from its operators.

    op is (S + 1, M, M), the level's operator at the grid nodes (U for
    level 0), and ``reached`` maps each node j where op starts afresh (a
    restart handed down to the level) to the operator its ending segment
    reached there.  A step reads op at its start node and at its end node,
    the reached one at such a j.  With c = op[-1, -1] and psi = op e_last:

    - mu is arg(c_b conj(c_a)), the step's change of arg c.  Where c
      passes near 0 (the pole), arg c is not resolved: a step whose change
      exceeds pi/2, or whose corner is exactly 0 at either end, takes its
      change on the branch nearest 0 mod pi (the principal value), and
      ``poles`` names it.
    - dyn is arg <psi_a|psi_b>, the Pancharatnam-Bargmann form of the
      step's -int <psi|H|psi> dt (Samuel & Bhandari, PRL 60 (1988) 2339;
      Mukunda & Simon, Ann. Phys. 228 (1993) 205), second order.
      Richardson on each pair of steps 2k, 2k + 1 makes it fourth order:
      (4 D_dt - D_2dt)/3, with D_2dt = arg <psi_2k|psi_2k+2>, and each step
      takes half of its pair's correction, so every node is fourth order.
      With an odd step count the last step takes half the correction of
      the pair it forms with the step before.  A pair whose middle node is
      a breakpoint jump (index is _drive's) or a key of ``reached`` keeps
      its plain sum, and so does a one-step grid.

    Neither reads H, z or a chart, so level 0's phases do not depend on
    the folds.  ``poles`` holds the steps, as grid step numbers.
    """
    S = len(op) - 1
    c, psi = op[:, -1, -1], op[:, :, -1]
    c_b, psi_b = c[1:].copy(), psi[1:].copy()
    for j, R in reached.items():
        c_b[j - 1], psi_b[j - 1] = R[-1, -1], R[:, -1]
    turn = c_b * c[:-1].conj()
    mu = np.angle(turn)
    pole = (turn == 0) | (np.abs(mu) > np.pi / 2)
    mu[pole] -= np.pi * np.round(mu[pole] / np.pi)
    p = np.angle(np.vecdot(psi[:-1], psi_b))
    f = np.arange(0, S - 1, 2)  # each pair's first step
    if S % 2 and S > 1:
        f = np.append(f, S - 2)  # the odd last step's pair
    fresh = np.zeros(S + 1, dtype=bool)
    fresh[list(reached)] = True
    keep = (index[0, f + 1] == index[2, f]) & ~fresh[f + 1]
    half = np.where(keep, (p[f] + p[f + 1] - np.angle(np.vecdot(psi[f], psi_b[f + 1]))) / 6.0, 0.0)
    correction = np.zeros(S)
    correction[f[: S // 2]] = half[: S // 2]
    correction[f + 1] = half
    return mu, p + correction, np.flatnonzero(pole)


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
        top, bottom = _fiber(W[a:b, :m], _matmul(op[a:b], dagger(op[s])) if s.any() else op[a:b])
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
        local = weight[a : a + _BLOCK] * (np.eye(N) - _matmul(dagger(U[q + 2]), _matmul(D, U[q])))
        total = np.concatenate((total[None], local)).sum(axis=0)  # in grid order, for any block
    return float(np.linalg.norm(total)) / 15.0


# ---------------------------------------------------------------------------
# hierarchical n=1 peel
# ---------------------------------------------------------------------------


@dataclass
class HierarchicalResult:
    """Output of the level-by-level peel.

    ``level_mu``, ``level_geo`` and ``level_dyn`` hold one column per
    peeled level (level 0 is the full problem), one value per grid node
    from 0 at t = 0.  ``trace_phases`` hold the per-level overall phases
    restored after trace subtraction.  Level 0's phases are readings of U,
    the same as solve_factored's, and do not depend on the folds.  A level
    k >= 1 reads an operator that starts afresh at every restart of the
    levels above it, so its phases are per segment by construction: each
    segment adds what it reads to the value the level reached at its
    start, and they move with the threshold where the shallower levels
    fold.  ``restarts`` holds (t, U(t)) at each fold of level 0, the same
    records as solve_factored's, ``level_restarts`` holds (t, level) for
    every fold of every level, in time order, and ``poles`` (t, step,
    level) for every step near the pole of a level's corner
    (_corner_phases).
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
    poles: list = field(default_factory=list)


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
    - Level k's phases are readings of its operators (_corner_phases),
      with no Hamiltonian of the level: its corner's arg and the
      Pancharatnam sum of op e_last, both less r_k-1, and the trace phase
      r_k - r_k-1.  r_k is the lifted arg det(op_k+1) / (N - k - 1), with
      r_-1 = 0, and it needs no determinant: det(op_k+1) = det(op_k)
      conj(det(op_k,s)) / c_k with c_k the corner of level k's fiber, and
      det U = 1, so its arg changes by minus the summed changes of the
      fibers' corners above it.  At a restart handed down to level k, its
      step ends at the operator the level reached there.  ``restarts``
      records level 0's folds as (t, U) and ``level_restarts`` every
      level's own folds.

    A StiffnessError names the first bad step of the shallowest level that
    fails.
    """
    if h.n != 1:
        raise UnsupportedConfigurationError("hierarchical solve peels with n=1")
    run = _integrate(h, t_end, steps, Z_max)
    return _peel(run, _corner_phases(run.U, {}, run.index))


def _peel(run: _Integration, level0: tuple) -> HierarchicalResult:
    """hierarchical_solve's reading of an n = 1 _integrate, whose fold search is level 0's.

    level0 is _corner_phases of U, level 0's phase increments, which
    solve_factored's phases read too.  It reads U alone: it sets run.values
    to None, which frees the node stack of a run no other reader holds.
    """
    L, S = run.h.N - 1, len(run.U) - 1
    run.values = None
    op, handed, folds, poles = run.U, {}, [], []
    inc = np.zeros((S + 1, 3, L))  # at each grid node, each level's mu, dyn and trace-phase increments
    theta, r_above = np.zeros(S), np.zeros(S)  # per step: the fiber corners' arg change, summed over the levels so far, and r_k-1's
    for k in range(L):
        M = L + 1 - k  # op is M x M
        if k:
            W, reached, starts = _fold_search(op, 1, run.dt, run.Z_max / 2, handed)
            mu, dyn, pole = _corner_phases(op, handed, run.index)
        else:  # level 0: the integration's own search, at Z_max, and the phases of U
            W, reached, starts = run.W, run.folds, run.starts
            mu, dyn, pole = level0
        folds += [(j, k) for j in starts[1:] if j not in handed]
        poles += [(j, k) for j in pole]
        below = np.empty((S + 1, M - 1, M - 1), dtype=complex) if k + 1 < L else None  # r reads the innermost's 1 x 1
        corner = np.empty(S + 1, dtype=complex)  # the fiber's corner c_k at each node
        for a, b, top, bottom in _frames(op, W, starts, 1):
            corner[a:b] = bottom[:, 0, 0]
            if below is not None:
                below[a:b] = top
        corner_b, handed_below = corner[1:], {}
        if reached:  # the fiber each segment reached at its end, from the operator this level reached there
            ends = np.array([j for j, _ in reached])
            ops = np.array([handed.get(j, op[j]) for j in ends])
            tops, bottoms = _fiber(np.array([W_j[:-1] for _, W_j in reached]), ops @ dagger(op[starts[:-1]]))
            corner_b = corner_b.copy()
            corner_b[ends - 1] = bottoms[:, 0, 0]
            handed_below = dict(zip(ends.tolist(), tops))
        theta += np.angle(corner_b * corner[:-1].conj())
        r = -theta / (M - 1)  # det op_k+1 = det op_k conj(det op_k,s) / c_k and det U = 1
        inc[1:, :, k] = np.column_stack((mu, dyn, r)) - r_above[:, None]
        op, handed, r_above = below, handed_below, r
    mu, dyn, phi = np.moveaxis(np.cumsum(inc, axis=0), 1, 0)
    restarts = [(run.times[j], run.U[j].copy()) for j, level in sorted(folds) if level == 0]
    level_restarts = [(run.times[j], level) for j, level in sorted(folds)]
    poles = [(run.times[j], int(j), level) for j, level in sorted(poles)]
    z0 = np.ascontiguousarray(run.W[:, :-1])
    return HierarchicalResult(run.h, run.times, z0, run.U, mu, mu - dyn, dyn, phi, restarts, level_restarts, poles)


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
