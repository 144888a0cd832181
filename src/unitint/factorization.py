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

from .hamiltonian import BlockedHamiltonian
from .linalg import (
    _unitary_step,
    blockdiag,
    dagger,
    frobenius,
    inv_sqrt_hpd,
    sqrt_hpd,
)
from .riccati import DEFAULT_Z_MAX, _drive, riccati_rhs, rk4_step


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
    """Hermitian effective Hamiltonians for the unitarized fiber blocks.

    upper = (i/2)[d/dt g1^{-1/2}, g1^{1/2}]
            + (1/2){g1^{-1/2} (Htop - z V^H) g1^{1/2} + h.c.}
    and the analogous expression with g2 and Hbot + z^H V for the lower
    block.  z_dot must be the analytic Riccati right-hand side.  This is
    _fiber_node given z_dot: one SVD of z, and stacks (leading axes) of
    h_blocks, z and z_dot give stacks of blocks from one batched SVD.
    """
    He = _fiber_node(h_blocks, z, z_dot)[1]
    return tuple(He[0]) if len(He) == 1 else He


def _fiber_node(h_blocks, z: np.ndarray, z_dot=None):
    """(dz/dt, He) at one node or a stack of nodes, from one SVD z = A S B^H.

    S = diag(s) above zeros (n <= m), so g1 = A diag(r1^2) A^H and g2 =
    B diag(r2^2) B^H.  With Ht = A^H Htop A, Hb = B^H Hbot B, W = A^H V B,
    C1 = Ht - S W^H, C2 = Hb + S^H W and R = A^H (dz/dt) B =
    -i (C1 S + W - S Hb) (or A^H z_dot B for a given z_dot), dz/dt = A R B^H
    and each block is Q (Y + Y^H) Q^H with
        Y_ij = -(i/2) P_ij (r_j - r_i) / ((r_i + r_j) r_i r_j) + (1/2) C_ij r_j / r_i
    for (Q, r, P, C) = (A, r1, R S^H, C1) and (B, r2, S^H R, C2), where
    P + P^H = Q^H (d/dt g) Q.  He is the tuple (upper, lower), or for m = n
    (one (2, ..., n, n) stack,), so both blocks take one pass of the formula
    (and one batched eigh in _magnus4).
    """
    Htop, V, Hbot = h_blocks
    m, n = z.shape[-2:]
    A, s, Bh = np.linalg.svd(z)
    Ah, B = dagger(A), dagger(Bh)
    S = s[..., None, :] * np.eye(m, n, dtype=complex)
    Ht, Hb, W = Ah @ Htop @ A, Bh @ Hbot @ B, Ah @ V @ B
    C1, C2 = Ht - S @ dagger(W), Hb + S.mT @ W
    R = -1j * (C1 @ S + W - S @ Hb) if z_dot is None else Ah @ z_dot @ B
    r2 = np.sqrt(1.0 + s**2)[..., None]  # r as columns: r_i = r, r_j = r.mT
    r1 = np.concatenate((r2, np.ones(r2.shape[:-2] + (m - n, 1))), axis=-2)
    blocks = [(A, r1, R @ S.mT, C1), (B, r2, S.mT @ R, C2)]
    He = []
    for Q, ri, P, C in [tuple(map(np.array, zip(*blocks)))] if m == n else blocks:
        rj = ri.mT
        Y = P * ((0.5j * (ri - rj)) / ((ri + rj) * ri * rj)) + C * (0.5 * rj / ri)
        He.append(Q @ (Y + dagger(Y)) @ dagger(Q))
    return A @ R @ Bh, tuple(He)


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
    return _corner_node(h_blocks, z)[1][0]


def _corner_node(h_blocks, z: np.ndarray):
    """(dz/dt, (upper, lower) fiber blocks, phase rates) at one node, for n=1.

    All three come from one _peel_level call.  The upper block is
    recursion_hamiltonian's H' = H_next - phi_rate I and the lower block the
    1 x 1 -mu_rate; together they are effective_hamiltonian_hermitian(h_blocks,
    z, dz/dt).  The rates are d/dt of (mu, geometric phase, Im mu), with
    Im mu = ln(1 + |z|^2) advancing at -2 Im(V^H z).
    """
    Htop, V, Hbot = h_blocks
    v, zc = V[:, 0], z[:, 0]
    dz, (mu_rate, geo_rate, phi_rate), upper = _peel_level(Htop, v, Hbot[0, 0], zc)
    upper.ravel()[:: len(zc) + 1] -= phi_rate  # undo the trace shift tau/m = -phi_rate
    rates = np.array([mu_rate, geo_rate, -2.0 * np.vdot(v, zc).imag])
    return dz[:, None], (upper, np.array([[-mu_rate]])), rates


def _peel_level(Htop: np.ndarray, v: np.ndarray, h, z: np.ndarray):
    """Everything one level of the n=1 peel needs, from V^H z, |z|^2 and Htop z.

    Htop (m x m), the column v and the corner h partition a traceless
    (m+1)-level H; z is the level's coordinate as a 1-D array.  Returns
    (dz/dt, (mu rate, geometric rate, trace-phase rate), H_next): dz/dt is
    riccati_rhs, and H_next is recursion_hamiltonian's H' with its trace
    removed, the rank-2 update H' = Htop - z u^H - u z^H, u =
    a v + (Re(V^H z) a^2 / 2) z, a = 1/(sqrt(g)+1).  Its trace tau = -h -
    2 Re(u^H z) relies on tr Htop = -h; the trace phase advances at -tau/m.

    This is the one definition of the n=1 corner-phase rates, read by both
    solve_factored and hierarchical_solve:
    d(mu)/dt = -(H_NN + Re(V^H z)) and d(geometric)/dt =
    -(-i U1^H dU1/dt)_NN = [z^H (Htop - H_NN I) z + 2 Re(V^H z)(1 - g/2)] / g.
    The sign of the latter is fixed by the split-sum identity
    H_NN + Re(V^H z) = (U1^H H U1)_NN + (-i U1^H dU1/dt)_NN, checked against
    finite differences of U1 in the test suite.
    """
    m = len(z)
    hnn = h.real
    vz = np.vdot(v, z)
    zz = np.vdot(z, z).real
    Hz = Htop @ z
    re_vz = vz.real
    g = 1.0 + zz
    dz = -1j * (Hz + v - z * (vz + h))
    quad = np.vdot(z, Hz).real - hnn * zz
    geo_rate = (quad + 2.0 * re_vz * (1.0 - g / 2.0)) / g
    a = 1.0 / (np.sqrt(g) + 1.0)
    u = a * v + (0.5 * re_vz * a * a) * z
    tau = -hnn - 2.0 * np.vdot(u, z).real
    H_next = Htop - z[:, None] * u.conj() - u[:, None] * z.conj()
    H_next.ravel()[:: m + 1] -= tau / m
    return dz, (-(hnn + re_vz), geo_rate, -tau / m), H_next


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
    Hermitian, so the step is unitary to roundoff.  A 1 x 1 block has no
    commutator and is a scalar phase; a stack of blocks takes one batched
    eigh.  (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151.)
    """
    S = (He_a + 4.0 * He_m + He_b) / 6.0
    if S.shape[-1] == 1:
        return np.exp(-1j * dt * S.real)
    return _unitary_step(S + (1j * dt / 12.0) * (He_a @ He_b - He_b @ He_a), dt)


def solve_factored(
    h: BlockedHamiltonian,
    t_end: float,
    steps: int,
    Z_max: float = DEFAULT_Z_MAX,
) -> FactoredResult:
    """Solve i dU/dt = H U through the base/fiber factorization.

    H is read on _drive's node schedule (t, t + dt/2 and t + dt per step,
    breakpoints of a piecewise model included) and validated there
    (ModelError for a non-Hermitian, non-traceless or non-finite model).

    - z takes one rk4_step on the three H nodes; its first stage is
      f(t, z), the start _drive hands back from the step before.
    - z(t + dt/2) for the fiber is the cubic Hermite midpoint
      (z + z_new)/2 + dt/8 (f(t, z) - f(t + dt, z_new)).
    - The fiber factor U2 takes one fourth-order Magnus step (_magnus4) on
      the Hermitian effective Hamiltonians He at the three nodes; He(t + dt),
      with f(t + dt, z_new) and the phase rates there, returns from _drive
      as the next step's start.  For n = 1, He, dz/dt and the phase rates
      come from _peel_level, the level kernel hierarchical_solve integrates.
      For n > 1, one _fiber_node call gives He at both new nodes, t + dt/2
      and t + dt, from one stacked SVD, and for m = n both blocks take one
      Magnus step together, so a step makes one eigh.
    - For n = 1 the corner phases (mu_total, phase_geometric, imag_mu, and
      phase_dynamical = mu_total - phase_geometric) integrate the three rate
      evaluations by Simpson's rule, cumulative across restarts.
    - est_error sums the per-step Simpson defect
      ||z_new - z - dt/6 (f(t) + 4 f(t + dt/2) + f(t + dt))||_F, an estimate
      of the fourth-order error that costs no extra evaluation.  It leaves
      out the fiber's Magnus error, so it can read below the error in U
      (0.8 to 9 times it on smooth models).

    A restart resets z = 0, U2 = I and the phases, and _drive records the
    fold.  After the solve, _segments turns the folds into the restart records
    and each node's accumulator; U_samples are the stacked U1(z) U2 times
    those accumulators, and the phases add up the segments.
    """
    m, n = h.N - h.n, h.n
    track_phases = n == 1
    stacked = 1 < n == m  # the fiber as block stacks, as _fiber_node returns He

    def first(H, z):  # f, He and the phase rates at a start node not carried over
        return _corner_node(H, z) if n == 1 else (riccati_rhs(H, z), _fiber_node(H, z)[1], None)

    def fiber(U2):  # blockdiag(upper, lower), over any leading axes
        return blockdiag(*(np.moveaxis(U2[0], -3, 0) if stacked else U2))

    def advance(dt, y, x, start):
        z, U2, phases = y
        H_a, H_m, H_b = x
        f_a, He_a, r_a = start or first(H_a, z)
        z_new = rk4_step(riccati_rhs, z, dt, f_a, H_m, H_b)
        peak = frobenius(z_new)
        if not peak < Z_max:  # the driver folds or raises; a runaway z breaks the fiber
            return None, peak, None, None
        if n == 1:
            end = f_b, He_b, r_b = _corner_node(H_b, z_new)
            f_m, He_m, r_m = _corner_node(H_m, 0.5 * (z + z_new) + (dt / 8.0) * (f_a - f_b))
        else:  # f(t + dt) for the midpoint, then He there and at t + dt from one call
            f_b = riccati_rhs(H_b, z_new)
            z_m = 0.5 * (z + z_new) + (dt / 8.0) * (f_a - f_b)
            (f_m, _), He = _fiber_node(tuple(map(np.array, zip(H_m, H_b))), np.array((z_m, z_new)))
            He_m, He_b = ([g[..., k, :, :] for g in He] for k in (0, 1))
            end = f_b, He_b, None
        U2 = [_magnus4(a, mid, b, dt) @ u for a, mid, b, u in zip(He_a, He_m, He_b, U2)]
        if track_phases:
            phases = (dt / 6.0) * (r_a + 4.0 * r_m + r_b) + phases
        defect = frobenius(z_new - z - (dt / 6.0) * (f_a + 4.0 * f_m + f_b))
        return (z_new, U2, phases), peak, defect, end

    z0, phases0 = np.zeros((m, n), dtype=complex), np.zeros(3) if track_phases else None
    U2 = np.eye(m, dtype=complex), np.eye(n, dtype=complex)
    y0 = z0, (np.array(U2),) if stacked else U2, phases0
    times, states, defects, folds = _drive(
        advance, h.blocks_at, y0, t_end, steps, Z_max, h.breakpoints
    )
    restarts, accums, segment = _segments(
        h.N, times, folds, lambda y: unitarized_U1(y[0]) @ fiber(y[1])
    )
    z_samples = np.array([y[0] for y in states])
    U2_samples = fiber([np.array(g) for g in zip(*(y[1] for y in states))])
    result = FactoredResult(
        h=h,
        times=times,
        z_samples=z_samples,
        U_samples=unitarized_U1(z_samples) @ U2_samples @ accums,
        U2_samples=U2_samples,
        restarts=restarts,
        est_error=float(sum(defects)),
    )
    if track_phases:
        reached = np.cumsum([np.zeros(3)] + [y[2] for _, y in folds], axis=0)
        mu, geo, imu = (np.array([y[2] for y in states]) + reached[segment]).T
        result.mu_total = mu
        result.phase_geometric = geo
        result.phase_dynamical = mu - geo
        result.imag_mu = imu
    return result


def _segments(N: int, times: np.ndarray, folds: list, segment_U):
    """Restart records, each node's accumulator and each node's segment index.

    ``folds`` are _drive's (k, y) pairs and ``segment_U(y)`` the evolution a
    segment reached in state y.  Each fold multiplies the accumulator by it
    from the left; the restart record is (times[k], the new accumulator), and
    node k starts the new segment.
    """
    accums = [np.eye(N, dtype=complex)]
    for _, y in folds:
        accums.append(segment_U(y) @ accums[-1])
    restarts = [(times[k], U) for (k, _), U in zip(folds, accums[1:])]
    segment = np.searchsorted([k for k, _ in folds], np.arange(len(times)), side="right")
    return restarts, np.array(accums)[segment], segment


# ---------------------------------------------------------------------------
# hierarchical n=1 peel
# ---------------------------------------------------------------------------


@dataclass
class HierarchicalResult:
    """Output of the level-by-level peel.

    ``level_mu`` etc. hold one cumulative phase per peeled level (level 0 is
    the full problem).  ``trace_phases`` hold the per-level overall phases
    restored after trace subtraction.
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


class _HierState:
    """Flat packing of all per-level coordinates and phases."""

    def __init__(self, N: int):
        self.N = N
        sizes = [N - 1 - k for k in range(N - 1)]
        self.z_offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.z_slices = [slice(lo, hi) for lo, hi in zip(self.z_offsets[:-1], self.z_offsets[1:])]
        self.nz = int(self.z_offsets[-1])
        self.size = self.nz + 3 * (N - 1)  # z blocks, mu, geo, phi

    def zeros(self) -> np.ndarray:
        return np.zeros(self.size, dtype=complex)

    def levels(self, y: np.ndarray) -> np.ndarray:
        """Rows mu, geo, phi of the per-level phases: shape (..., 3, N-1) for y of (..., size)."""
        return y[..., self.nz :].real.reshape(y.shape[:-1] + (3, self.N - 1))

    def peak(self, y: np.ndarray) -> float:
        """Largest per-level ||z||_F; a NaN in any level propagates."""
        return np.sqrt(np.add.reduceat(np.abs(y[: self.nz]) ** 2, self.z_offsets[:-1]).max())


def _hier_assemble(packing: _HierState, y: np.ndarray) -> np.ndarray:
    """U1(z_0) blockdiag(e^{i phi_0} U1(z_1) blockdiag(...), e^{i mu_0}) for a state.

    Level by level, innermost first, U <- unitarized_U1(z_k) blockdiag(e^{i
    phi_k} U, e^{i mu_k}).  A stack of states (leading axes of y) gives a
    stack of operators.
    """
    phases = np.exp(1j * packing.levels(y))[..., None, None]  # rows e^{i mu}, e^{i geo}, e^{i phi}
    U = np.ones(y.shape[:-1] + (1, 1), dtype=complex)
    for k in range(packing.N - 2, -1, -1):
        e_mu, e_phi = phases[..., 0, k, :, :], phases[..., 2, k, :, :]
        U = unitarized_U1(y[..., packing.z_slices[k], None]) @ blockdiag(e_phi * U, e_mu)
    return U


def hierarchical_solve(
    h: BlockedHamiltonian,
    t_end: float,
    steps: int,
    Z_max: float = DEFAULT_Z_MAX,
) -> HierarchicalResult:
    """Solve by peeling one level at a time with block size 1.

    Every level's Riccati coordinate, corner phase and trace phase advance
    jointly in a single RK4 state, so all quadrature inherits the
    integrator's fourth-order accuracy.  H is read on _drive's node schedule
    and validated there (ModelError for a non-Hermitian, non-traceless or
    non-finite model).

    A restart resets every level's coordinate and phases, and _drive records
    the fold.  After the solve, _segments turns the folds into the restart
    records and each node's accumulator; U_samples are assembled once over
    the stacked states, and the phases add up the segments.
    """
    if h.n != 1:
        raise UnsupportedConfigurationError("hierarchical solve peels with n=1")
    N = h.N
    packing = _HierState(N)

    def f(Hk, y):
        dy = np.empty_like(y)
        rates = dy[packing.nz :].reshape(3, N - 1)
        for k, level in enumerate(packing.z_slices):
            m = N - 1 - k
            dy[level], rates[:, k], Hk = _peel_level(Hk[:m, :m], Hk[:m, m], Hk[m, m], y[level])
        return dy

    def advance(dt, y, x, _):
        H_a, H_m, H_b = x
        y_new = rk4_step(f, y, dt, f(H_a, y), H_m, H_b)
        return y_new, packing.peak(y_new), None, None

    times, states, _, folds = _drive(
        advance, h.checked_matrix, packing.zeros(), t_end, steps, Z_max, h.breakpoints
    )
    restarts, accums, segment = _segments(N, times, folds, lambda y: _hier_assemble(packing, y))
    states = np.array(states)
    reached = np.cumsum([np.zeros((3, N - 1))] + [packing.levels(y) for _, y in folds], axis=0)
    level_mu, level_geo, trace_phases = np.moveaxis(packing.levels(states) + reached[segment], 1, 0)
    return HierarchicalResult(
        h=h,
        times=times,
        z_samples=states[:, : N - 1, None],
        U_samples=_hier_assemble(packing, states) @ accums,
        level_mu=level_mu,
        level_geo=level_geo,
        level_dyn=level_mu - level_geo,
        trace_phases=trace_phases,
        restarts=restarts,
    )


def schrodinger_residual(h: BlockedHamiltonian, times: np.ndarray, U_samples: np.ndarray) -> float:
    """Max relative residual of i dU/dt = H U by centered differences.

    Skips grid points adjacent to restarts only implicitly: the residual is
    computed on all interior points, so callers should pass restart-free
    stretches when restarts are present.
    """
    worst = 0.0
    for k in range(1, len(times) - 1):
        dt = times[k + 1] - times[k - 1]
        dU = (U_samples[k + 1] - U_samples[k - 1]) / dt
        H = h.matrix(times[k])
        scale = max(frobenius(H), 1e-30)
        worst = max(worst, frobenius(1j * dU - H @ U_samples[k]) / scale)
    return worst
