import numpy as np
import pytest

from unitint.factorization import hierarchical_solve, solve_factored
from unitint.hamiltonian import so5_coefficients, spin_half, trig_random
from unitint.linalg import frobenius
from unitint.riccati import (
    StiffnessError,
    integrate_riccati,
    integrate_so5,
    riccati_rhs,
    rk4_step,
    so5_rhs,
    so5_z_matrix,
    so5_z_params,
)


def _random_F(rng, scale=1.0):
    A = rng.standard_normal((5, 5)) * scale
    return A - A.T


def test_rhs_zero_hamiltonian():
    blocks = (np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    assert np.allclose(riccati_rhs(blocks, np.array([[0.7 + 0.2j]])), 0.0)


def test_rhs_pure_coupling():
    # Htop = Hbot = 0, V = v: dz/dt = -i (v - z v* z)
    v = 0.5 - 0.3j
    blocks = (np.zeros((1, 1)), np.array([[v]]), np.zeros((1, 1)))
    z = 0.2 + 0.1j
    expected = -1j * (v - z * np.conj(v) * z)
    assert np.allclose(riccati_rhs(blocks, np.array([[z]])), [[expected]])


def test_rhs_at_origin_is_coupling():
    h = trig_random(5, n=2, seed=1)
    Htop, V, Hbot = h.blocks_at(0.0)
    z0 = np.zeros_like(V)
    assert np.allclose(riccati_rhs((Htop, V, Hbot), z0), -1j * V)


def test_rhs_shape_mismatch():
    h = trig_random(4, n=2, seed=1)
    with pytest.raises(ValueError):
        riccati_rhs(h.blocks_at(0.0), np.zeros((1, 1), dtype=complex))


def test_rk4_exponential_decay():
    y = np.array([1.0])
    dt = 0.1
    for k in range(10):
        y = rk4_step(lambda t, v: -v, k * dt, y, dt)
    assert abs(y[0] - np.exp(-1.0)) < 1e-6


def test_su2_transverse_closed_form():
    # B = (1, 0, 0): z(t) = i tan(t/2)
    h = spin_half([1.0, 0.0, 0.0])
    traj = integrate_riccati(h, 1.0, 2000)
    z = traj.z_samples[:, 0, 0]
    expected = 1j * np.tan(traj.times / 2.0)
    assert np.max(np.abs(z - expected)) < 1e-12
    assert len(traj.restarts) == 0


def test_su2_restart_near_pole():
    # |z| = tan(t/2) passes the threshold before t = pi; the restart record
    # must carry a unitary accumulated evolution and z resets to zero there.
    h = spin_half([1.0, 0.0, 0.0])
    traj = integrate_riccati(h, 4.0, 2000, Z_max=10.0)
    assert len(traj.restarts) >= 1
    t_r, U_accum = traj.restarts[0]
    assert abs(t_r - 2.0 * np.arctan(10.0)) < 0.02
    assert frobenius(U_accum @ U_accum.conj().T - np.eye(2)) < 1e-10
    k = np.searchsorted(traj.times, t_r)
    assert np.allclose(traj.z_samples[k], 0.0)


def test_stiffness_error_when_threshold_tiny():
    h = spin_half([1.0, 0.0, 0.0])
    with pytest.raises(StiffnessError):
        integrate_riccati(h, 3.0, 60, Z_max=0.05)


def _so5_coupling(index, c):
    F = np.zeros((5, 5))
    F[4, index], F[index, 4] = c, -c
    return so5_coefficients(F)


# Each path restarts about every second step: spin-1/2 has |z| = tan(t/2) and
# the F54 = 1/2 coupling gives ||z||_F = sqrt(2) tan(t/2), both against Z_max 0.05.
GUARD_PATHS = {
    "factored": lambda: solve_factored(spin_half([1.0, 0.0, 0.0]), 3.0, 60, Z_max=0.05),
    "hierarchical": lambda: hierarchical_solve(spin_half([1.0, 0.0, 0.0]), 3.0, 60, Z_max=0.05),
    "so5": lambda: integrate_so5(_so5_coupling(3, 0.5), 3.0, 60, Z_max=0.05),
}


@pytest.mark.parametrize("path", sorted(GUARD_PATHS))
def test_restart_guard_on_every_path(path):
    with pytest.raises(StiffnessError, match=r"restart requested again after \d steps at t=\S+ \(step \d+\)"):
        GUARD_PATHS[path]()


# Twelve steps to t = 3 are far too coarse for these couplings: the step
# retaken from z = 0 after the first restart already runs away.
RUNAWAY_PATHS = {
    "factored": lambda: solve_factored(trig_random(4, seed=1, scale=80), 3.0, 12),
    "hierarchical": lambda: hierarchical_solve(trig_random(4, seed=1, scale=80), 3.0, 12),
    "so5": lambda: integrate_so5(_so5_coupling(0, 50.0), 3.0, 12),
}


@pytest.mark.parametrize("path", sorted(RUNAWAY_PATHS))
def test_runaway_after_restart_raises(path):
    with pytest.raises(StiffnessError, match=r"within one step of a restart at t=0 \(step 0\)"):
        RUNAWAY_PATHS[path]()


@pytest.mark.filterwarnings("error")  # numpy must not warn before the driver names the divergence
def test_non_finite_coordinate_raises():
    # one 1-unit step of a coupling of 1000 overflows to NaN inside RK4
    with pytest.raises(StiffnessError, match=r"is nan at t=0 \(step 0\)"):
        integrate_so5(_so5_coupling(0, 1e3), 12.0, 12)
    # so does the first step of the factored solve at field scale 200
    with pytest.raises(StiffnessError, match=r"is (nan|inf) at t=0 \(step 0\)"):
        solve_factored(trig_random(4, seed=1, scale=200), 3.0, 12)


def test_step_doubling_error_estimate_scales():
    h = trig_random(3, seed=4)
    e_coarse = integrate_riccati(h, 1.0, 250).est_error
    e_fine = integrate_riccati(h, 1.0, 500).est_error
    ratio = e_coarse / e_fine
    # RK4: halving dt cuts the estimate by ~2^4
    assert 8.0 < ratio < 32.0


def test_so5_rhs_examples():
    # Only F54 = c: dz/dt at z=0 is (0, 0, 0, c)
    F = np.zeros((5, 5))
    F[4, 3], F[3, 4] = 2.0, -2.0
    assert np.allclose(so5_rhs(F, np.zeros(4)), [0.0, 0.0, 0.0, 2.0])
    # and along z = (0,0,0,z4): dz4/dt = c (1 - z4^2) + 2 c z4^2 = c (1 + z4^2)
    z = np.array([0.0, 0.0, 0.0, 0.5])
    assert np.allclose(so5_rhs(F, z), [0.0, 0.0, 0.0, 2.0 * 1.25])


def test_so5_rhs_matches_matrix_riccati():
    from unitint.hamiltonian import build_so5

    rng = np.random.default_rng(21)
    for _ in range(10):
        F = _random_F(rng)
        z = rng.standard_normal(4)
        blocks = build_so5(so5_coefficients(F)).blocks_at(0.0)
        lhs = so5_z_matrix(so5_rhs(F, z))
        rhs = riccati_rhs(blocks, so5_z_matrix(z))
        assert frobenius(lhs - rhs) < 1e-12


def test_so5_z_roundtrip():
    z = np.array([0.3, -0.7, 0.2, 1.4])
    assert np.allclose(so5_z_params(so5_z_matrix(z)), z, atol=1e-14)
    # quaternionic norm identity ||z_mat||_F^2 = 2 z.z
    assert abs(frobenius(so5_z_matrix(z)) ** 2 - 2.0 * z @ z) < 1e-13


def test_so5_tangent_solution():
    # F54 = c gives z4 = tan(c t), other components zero
    c = 1.0
    F = np.zeros((5, 5))
    F[4, 3], F[3, 4] = c, -c
    times, zs, restarts = integrate_so5(so5_coefficients(F), 1.4, 2000)
    assert not restarts
    assert np.max(np.abs(zs[:, 3] - np.tan(c * times))) < 1e-10
    assert np.max(np.abs(zs[:, :3])) < 1e-12


def test_so5_restart_matches_matrix_threshold():
    c = 1.0
    F = np.zeros((5, 5))
    F[4, 3], F[3, 4] = c, -c
    times, zs, restarts = integrate_so5(so5_coefficients(F), 2.0, 2000, Z_max=10.0)
    # tan(ct) sqrt(2) crosses 10 at t = arctan(10/sqrt(2))
    assert len(restarts) == 1
    assert abs(restarts[0] - np.arctan(10.0 / np.sqrt(2.0))) < 0.02
    k = np.searchsorted(times, restarts[0])
    assert np.allclose(zs[k], 0.0)


def test_so5_trajectory_matches_matrix_form():
    from unitint.hamiltonian import build_so5

    rng = np.random.default_rng(33)
    F = _random_F(rng, 0.6)
    coeffs = so5_coefficients(F)
    times, zs, restarts = integrate_so5(coeffs, 1.0, 800)
    traj = integrate_riccati(build_so5(coeffs), 1.0, 800)
    assert not restarts and not traj.restarts
    worst = max(
        frobenius(so5_z_matrix(zs[k]) - traj.z_samples[k]) for k in range(0, 801, 40)
    )
    assert worst < 1e-9
