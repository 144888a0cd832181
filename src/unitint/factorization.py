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
    hermitian_eigendecomposition,
    inv_sqrt_hpd,
    sqrt_hpd,
)
from .riccati import DEFAULT_Z_MAX, RiccatiTrajectory, _drive, riccati_rhs, rk4_step


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


def gauge_factor(gamma1: np.ndarray, gamma2: np.ndarray) -> np.ndarray:
    """Block-diagonal positive factor (tildeU1^H tildeU1)^{-1/2}.

    tildeU1^H tildeU1 = blockdiag(gamma1^{-1}, gamma2), so the inverse square
    root is blockdiag(gamma1^{1/2}, gamma2^{-1/2}).
    """
    return blockdiag(sqrt_hpd(gamma1), inv_sqrt_hpd(gamma2))


def gauge_unitarize(
    tilde_U1: np.ndarray, gamma1: np.ndarray, gamma2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unitarize the nilpotent product: U1 = tildeU1 b with b the gauge factor."""
    b = gauge_factor(gamma1, gamma2)
    return tilde_U1 @ b, b


def unitarized_U1(z: np.ndarray) -> np.ndarray:
    """U1 as a function of z alone (any block size), in closed form.

    U1 = [[gamma1^{-1/2}, z gamma2^{-1/2}], [-gamma2^{-1/2} z^H, gamma2^{-1/2}]]
    with gamma1^{-1/2} = I - z f(gamma2) z^H, f(x) = 1/(sqrt(x)(sqrt(x)+1)).
    It equals gauge_unitarize(assemble_tilde_U1(z), gamma1, gamma2)[0].  For a
    column z, gamma2 is the scalar g; otherwise every block follows from one
    SVD z = A diag(s) B^H, on which gamma2 = B diag(1 + s^2) B^H.
    """
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    m, n = z.shape
    out = np.empty((m + n, m + n), dtype=complex)
    if n == 1:
        sg = np.sqrt(1.0 + (dagger(z) @ z)[0, 0].real)
        out[:m, :m] = np.eye(m) - (z @ dagger(z)) / (sg * (sg + 1.0))
        out[:m, m:] = z / sg
        out[m:, :m] = -dagger(z) / sg
        out[m:, m:] = 1.0 / sg
        return out
    A, s, Bh = np.linalg.svd(z, full_matrices=False)
    c = np.sqrt(1.0 + s**2)
    out[:m, :m] = np.eye(m) - (A * (s**2 / (c * (c + 1.0)))) @ dagger(A)
    out[:m, m:] = (A * (s / c)) @ Bh
    out[m:, :m] = -dagger(out[:m, m:])
    out[m:, m:] = (dagger(Bh) / c) @ Bh
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
    becomes singular.
    """
    m = N - n
    return U[:m, m:] @ np.linalg.inv(U[m:, m:])


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


def sqrt_derivative(gamma: np.ndarray, gamma_dot: np.ndarray) -> np.ndarray:
    """d/dt gamma^{1/2} from gamma and its time derivative.

    Solves X g^{1/2} + g^{1/2} X = g_dot in the eigenbasis of gamma; exact to
    machine precision, so no finite-difference noise enters the commutator
    terms of the Hermitian effective Hamiltonians.
    """
    w, Q = hermitian_eigendecomposition(gamma)
    sq = np.sqrt(w)
    Gd = dagger(Q) @ gamma_dot @ Q
    X = Gd / (sq[:, None] + sq[None, :])
    return Q @ X @ dagger(Q)


def _hermitian_block(Q, r, gamma_dot, core) -> np.ndarray:
    """(i/2)[d/dt g^{-1/2}, g^{1/2}] + (1/2){g^{-1/2} core g^{1/2} + h.c.}.

    g = Q diag(r^2) Q^H.  In that eigenbasis, with G = Q^H g_dot Q and
    C = Q^H core Q, the block is He_ij = -(i/2) G_ij (r_j - r_i) /
    ((r_i + r_j) r_i r_j) + (1/2)(C_ij r_j / r_i + conj(C_ji) r_i / r_j).
    """
    Qh = dagger(Q)
    G = Qh @ gamma_dot @ Q
    C = Qh @ core @ Q
    ri, rj = r[:, None], r[None, :]
    He = -0.5j * G * (rj - ri) / ((ri + rj) * ri * rj)
    He += 0.5 * (C * (rj / ri) + dagger(C) * (ri / rj))
    return Q @ He @ Qh


def effective_hamiltonian_hermitian(
    h_blocks, z: np.ndarray, z_dot: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian effective Hamiltonians for the unitarized fiber blocks.

    upper = (i/2)[d/dt g1^{-1/2}, g1^{1/2}]
            + (1/2){g1^{-1/2} (Htop - z V^H) g1^{1/2} + h.c.}
    and the analogous expression with g2 and Hbot + z^H V for the lower
    block.  z_dot must be the analytic Riccati right-hand side.  Both
    gammas are diagonalised by one SVD z = A diag(s) B^H:
    g1 = A diag(1 + s^2, 1, ...) A^H and g2 = B diag(1 + s^2, 1, ...) B^H.
    """
    Htop, V, Hbot = h_blocks
    z = np.atleast_2d(z)
    z_dot = np.atleast_2d(z_dot)
    m, n = z.shape
    A, s, Bh = np.linalg.svd(z)
    c = np.sqrt(1.0 + s**2)
    r1 = np.ones(m)
    r1[: len(s)] = c
    r2 = np.ones(n)
    r2[: len(s)] = c
    g1_dot = z_dot @ dagger(z) + z @ dagger(z_dot)
    g2_dot = dagger(z_dot) @ z + dagger(z) @ z_dot
    upper = _hermitian_block(A, r1, g1_dot, Htop - z @ dagger(V))
    lower = _hermitian_block(dagger(Bh), r2, g2_dot, Hbot + dagger(z) @ V)
    return upper, lower


def recursion_hamiltonian(h_blocks, z: np.ndarray) -> np.ndarray:
    """The (N-1)-level Hamiltonian obtained by peeling one level (n=1).

    H' = Htop - (z V^H + V z^H)/(sqrt(g)+1)
         - z (z^H V + V^H z) z^H / (2 (sqrt(g)+1)^2),
    whose trace equals -(H_NN + Re(V^H z)); the peeled corner phase restores
    it.
    """
    Htop, V, Hbot = h_blocks
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    if z.shape[1] != 1 or V.shape[1] != 1:
        raise UnsupportedConfigurationError("recursion requires block size 1")
    g = 1.0 + (dagger(z) @ z)[0, 0].real
    sg = np.sqrt(g)
    cross = z @ dagger(V) + V @ dagger(z)
    scalar = 2.0 * (dagger(V) @ z)[0, 0].real
    return Htop - cross / (sg + 1.0) - (z @ dagger(z)) * scalar / (2.0 * (sg + 1.0) ** 2)


def _corner_bracket(h_blocks, z: np.ndarray) -> float:
    """H_NN + (1/2)(V^H z + z^H V) for n=1; real by construction."""
    _, V, Hbot = h_blocks
    return Hbot[0, 0].real + (dagger(V) @ z)[0, 0].real


def _geometric_integrand(h_blocks, z: np.ndarray) -> float:
    """NN element of the geometric generator, i.e. of -i U1^{-1} dU1/dt.

    Equals -(1/g)[z^H (Htop - H_NN I) z + (z^H V + V^H z)(1 - g/2)]; the
    overall sign is fixed by the split-sum identity
    bracket = (U1^H H U1)_NN + (-i U1^H dU1/dt)_NN, verified against finite
    differences of U1 in the test suite.
    """
    Htop, V, Hbot = h_blocks
    g = 1.0 + (dagger(z) @ z)[0, 0].real
    hnn = Hbot[0, 0].real
    quad = (dagger(z) @ (Htop - hnn * np.eye(Htop.shape[0])) @ z)[0, 0].real
    lin = 2.0 * (dagger(V) @ z)[0, 0].real
    return -(quad + lin * (1.0 - g / 2.0)) / g


# ---------------------------------------------------------------------------
# direct factored solve (any block size)
# ---------------------------------------------------------------------------


@dataclass
class FactoredEvolution:
    """Snapshot of the factored evolution at one time."""

    z: np.ndarray
    w: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    U1: np.ndarray
    U2: np.ndarray
    U: np.ndarray
    mu_total: float | None = None
    phase_geometric: float | None = None
    phase_dynamical: float | None = None


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

    @property
    def trajectory(self) -> RiccatiTrajectory:
        return RiccatiTrajectory(
            times=self.times,
            z_samples=self.z_samples,
            restarts=list(self.restarts),
            est_error=self.est_error,
        )

    def evolution(self, index: int = -1) -> FactoredEvolution:
        z = self.z_samples[index]
        w, gamma1, gamma2 = unitarity_closure(z)
        return FactoredEvolution(
            z=z,
            w=w,
            gamma1=gamma1,
            gamma2=gamma2,
            U1=unitarized_U1(z),
            U2=self.U2_samples[index],
            U=self.U_samples[index],
            mu_total=None if self.mu_total is None else float(self.mu_total[index]),
            phase_geometric=(
                None if self.phase_geometric is None else float(self.phase_geometric[index])
            ),
            phase_dynamical=(
                None if self.phase_dynamical is None else float(self.phase_dynamical[index])
            ),
        )


def _phase_rates(h_blocks, z: np.ndarray) -> np.ndarray:
    """Integrands of (mu_total, geometric phase, Im mu) at one node (n=1)."""
    return np.array([
        _corner_bracket(h_blocks, z),
        _geometric_integrand(h_blocks, z),
        (dagger(h_blocks[1]) @ z)[0, 0].imag,
    ])


def solve_factored(
    h: BlockedHamiltonian,
    t_end: float,
    steps: int,
    Z_max: float = DEFAULT_Z_MAX,
) -> FactoredResult:
    """Solve i dU/dt = H U through the base/fiber factorization.

    z advances with two half RK4 steps per grid step (the intermediate value
    feeds the fiber); the fiber factor U2 advances with the midpoint
    exponential of the Hermitian effective Hamiltonian, and a full-step RK4
    copy of z gives the step-doubling error estimate.  Every consumer reads
    H at the step's five quarter nodes, each evaluated once and validated
    (ModelError for a non-Hermitian or non-traceless model); H(t + dt)
    carries over as the next step's H(t).  Restarts reset z = 0 and U2 = I
    and fold the current factors into the accumulated evolution; at a
    restart node U_samples keeps the value the old segment reached there.
    """
    m, n = h.N - h.n, h.n
    track_phases = n == 1
    U_accum = np.eye(h.N, dtype=complex)
    restarts: list = []
    step_t, quarter, H_nodes = None, None, []

    def load_nodes(t, dt):
        """H at t, t + dt/4, t + dt/2, t + 3dt/4, t + dt; a retaken step keeps them."""
        nonlocal step_t, quarter, H_nodes
        if t == step_t:
            return
        half = dt / 2.0
        start = H_nodes[4] if H_nodes else h.blocks_at(t)
        step_t, quarter = t, half / 2.0
        rest = (t + quarter, t + half, t + half + quarter, t + dt)
        H_nodes = [start] + [h.blocks_at(s) for s in rest]

    def f(t, y):
        # rk4_step only asks for quarter nodes of the current step
        return riccati_rhs(H_nodes[round((t - step_t) / quarter)], y)

    def zero_state(phases):
        z0 = np.zeros((m, n), dtype=complex)
        return z0, z0, np.eye(h.N, dtype=complex), phases

    def advance(t, dt, y):
        z, z_coarse, U2, phases = y
        load_nodes(t, dt)
        z_half = rk4_step(f, t, z, dt / 2.0)
        z_new = rk4_step(f, t + dt / 2.0, z_half, dt / 2.0)
        peak = np.maximum(frobenius(z_half), frobenius(z_new))  # max() could drop a NaN
        if not peak < Z_max:  # the driver folds or raises; a runaway z breaks the fiber
            return None, peak, None
        # fiber: midpoint exponential of the Hermitian effective Hamiltonian
        H_a, _, H_mid, _, H_b = H_nodes
        upper, lower = effective_hamiltonian_hermitian(H_mid, z_half, riccati_rhs(H_mid, z_half))
        lower_step = np.exp(-1j * lower.real * dt) if n == 1 else _unitary_step(lower, dt)
        U2 = blockdiag(_unitary_step(upper, dt), lower_step) @ U2
        if track_phases:
            # trapezoid on the half grid, cumulative across restarts
            r_a = _phase_rates(H_a, z)
            r_mid = _phase_rates(H_mid, z_half)
            r_b = _phase_rates(H_b, z_new)
            wgt = np.array([-dt / 4.0, -dt / 4.0, -dt / 2.0])
            phases = (wgt * (r_a + r_mid) + wgt * (r_mid + r_b)) + phases
        y_new = (z_new, rk4_step(f, t, z_coarse, dt), U2, phases)
        return y_new, peak, unitarized_U1(z_new) @ U2 @ U_accum

    def fold(t, y):
        nonlocal U_accum
        z, _, U2, phases = y
        U_accum = unitarized_U1(z) @ U2 @ U_accum
        restarts.append((t, U_accum))
        return zero_state(phases)

    y0 = zero_state(np.zeros(3) if track_phases else None)
    times, states, extras = _drive(advance, fold, y0, t_end, steps, Z_max)
    z_final, z_coarse_final = states[-1][:2]
    result = FactoredResult(
        h=h,
        times=times,
        z_samples=np.array([y[0] for y in states]),
        U_samples=np.array([np.eye(h.N, dtype=complex)] + extras),
        U2_samples=np.array([y[2] for y in states]),
        restarts=restarts,
        est_error=frobenius(z_final - z_coarse_final),
    )
    if track_phases:
        mu, geo, imu = np.array([y[3] for y in states]).T
        result.mu_total = mu
        result.phase_geometric = geo
        result.phase_dynamical = mu - geo
        result.imag_mu = imu
    return result


def corner_phase(
    h: BlockedHamiltonian, traj: RiccatiTrajectory
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner-phase arrays (mu_total, geometric, dynamical) on the stored grid.

    mu_total(t) = -integral of [H_NN + (1/2)(V^H z + z^H V)]; the geometric
    part integrates the base-manifold contribution and the dynamical part is
    the remainder.  Quadrature: cumulative trapezoid on the trajectory grid.
    Requires block size 1.
    """
    if traj.z_samples.shape[2] != 1:
        raise UnsupportedConfigurationError("corner phase requires block size 1")
    from scipy.integrate import cumulative_trapezoid

    brackets = np.empty(len(traj.times))
    geos = np.empty(len(traj.times))
    for i, t in enumerate(traj.times):
        blocks = h.blocks_unchecked(t)
        brackets[i] = _corner_bracket(blocks, traj.z_samples[i])
        geos[i] = _geometric_integrand(blocks, traj.z_samples[i])
    mu = -cumulative_trapezoid(brackets, traj.times, initial=0.0)
    geo = -cumulative_trapezoid(geos, traj.times, initial=0.0)
    return mu, geo, mu - geo


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

    @property
    def trajectory(self) -> RiccatiTrajectory:
        return RiccatiTrajectory(
            times=self.times, z_samples=self.z_samples, restarts=list(self.restarts)
        )


class _HierState:
    """Flat packing of all per-level coordinates and phases."""

    def __init__(self, N: int):
        self.N = N
        self.z_sizes = [N - 1 - k for k in range(N - 1)]
        self.z_offsets = np.concatenate(([0], np.cumsum(self.z_sizes)))
        self.nz = int(self.z_offsets[-1])
        self.size = self.nz + 3 * (N - 1)  # z blocks, mu, geo, phi

    def zeros(self) -> np.ndarray:
        return np.zeros(self.size, dtype=complex)

    def z(self, y: np.ndarray, k: int) -> np.ndarray:
        return y[self.z_offsets[k] : self.z_offsets[k + 1]].reshape(-1, 1)

    def set_z(self, y: np.ndarray, k: int, val: np.ndarray) -> None:
        y[self.z_offsets[k] : self.z_offsets[k + 1]] = val.ravel()

    def levels(self, y: np.ndarray) -> np.ndarray:
        """Rows mu, geo, phi of the per-level phases, as a (3, N-1) view."""
        return y[self.nz :].real.reshape(3, self.N - 1)

    def peak(self, y: np.ndarray) -> float:
        """Largest per-level ||z||_F; a NaN in any level propagates."""
        return np.sqrt(np.add.reduceat(np.abs(y[: self.nz]) ** 2, self.z_offsets[:-1]).max())


def _hier_rhs(h: BlockedHamiltonian, packing: _HierState, t: float, y: np.ndarray) -> np.ndarray:
    N = packing.N
    dy = np.zeros_like(y)
    Hk = h.matrix(t)
    mu_dot = np.zeros(N - 1)
    geo_dot = np.zeros(N - 1)
    phi_dot = np.zeros(N - 1)
    for k in range(N - 1):
        d = N - k
        blocks = (Hk[: d - 1, : d - 1], Hk[: d - 1, d - 1 :], Hk[d - 1 :, d - 1 :])
        z = packing.z(y, k)
        packing.set_z(dy, k, riccati_rhs(blocks, z))
        mu_dot[k] = -_corner_bracket(blocks, z)
        geo_dot[k] = -_geometric_integrand(blocks, z)
        Hnext = recursion_hamiltonian(blocks, z)
        tau = float(np.real(np.trace(Hnext)))
        phi_dot[k] = -tau / (d - 1)
        Hk = Hnext - (tau / (d - 1)) * np.eye(d - 1)
    dy[packing.nz : packing.nz + N - 1] = mu_dot
    dy[packing.nz + N - 1 : packing.nz + 2 * (N - 1)] = geo_dot
    dy[packing.nz + 2 * (N - 1) :] = phi_dot
    return dy


def _hier_assemble(packing: _HierState, y: np.ndarray) -> np.ndarray:
    """Nested product of unitarized factors and phase factors for one state."""
    N = packing.N
    mu, _, phi = packing.levels(y)
    U = np.ones((1, 1), dtype=complex)
    for k in range(N - 2, -1, -1):
        d = N - k
        U2 = np.zeros((d, d), dtype=complex)
        U2[: d - 1, : d - 1] = np.exp(1j * phi[k]) * U
        U2[d - 1, d - 1] = np.exp(1j * mu[k])
        U = unitarized_U1(packing.z(y, k)) @ U2
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
    integrator's fourth-order accuracy.
    """
    if h.n != 1:
        raise UnsupportedConfigurationError("hierarchical solve peels with n=1")
    N = h.N
    packing = _HierState(N)
    U_accum = np.eye(N, dtype=complex)
    phase_offsets = np.zeros((3, N - 1))  # mu, geo, phi accumulated at restarts
    restarts: list = []

    def f(t, yy):
        return _hier_rhs(h, packing, t, yy)

    def advance(t, dt, y):
        y_new = rk4_step(f, t, y, dt)
        U_new = _hier_assemble(packing, y_new) @ U_accum
        return y_new, packing.peak(y_new), (packing.levels(y_new) + phase_offsets, U_new)

    def fold(t, y):
        nonlocal U_accum
        U_accum = _hier_assemble(packing, y) @ U_accum
        restarts.append((t, U_accum))
        phase_offsets[:] += packing.levels(y)
        return packing.zeros()

    times, states, extras = _drive(advance, fold, packing.zeros(), t_end, steps, Z_max)
    phases = np.zeros((steps + 1, 3, N - 1))
    phases[1:] = [e[0] for e in extras]
    level_mu, level_geo, trace_phases = phases.transpose(1, 0, 2)
    return HierarchicalResult(
        h=h,
        times=times,
        z_samples=np.array([packing.z(y, 0) for y in states]),
        U_samples=np.array([np.eye(N, dtype=complex)] + [e[1] for e in extras]),
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
