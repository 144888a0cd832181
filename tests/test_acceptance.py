"""Acceptance suite: one test per top-level criterion.

Each test prints a single pass/fail line naming the criterion; the assertions
behind it enforce the stated tolerances.  Shared expensive artifacts (the
50-scenario oracle sweep) are built once per module.
"""

import numpy as np
import pytest

from unitint.bloch import crosscheck_so5, project5
from unitint.factorization import (
    gamma1_inv_sqrt_closed,
    gamma1_sqrt_closed,
    hierarchical_solve,
    solve_factored,
    unitarity_closure,
    unitarized_U1,
)
from unitint.hamiltonian import (
    constant_hamiltonian,
    so5_coefficients,
    spin_half,
    trig_random,
)
from unitint.linalg import (
    SIGMA_X,
    dagger,
    expm,
    frobenius,
    inv_sqrt_hpd,
    random_traceless_hermitian,
    sqrt_hpd,
    unitarity_defect,
)
from unitint.oracle import compare, propagate
from unitint.riccati import integrate_so5, riccati_rhs, rk4_step


def _verdict(num, label, worst, tol):
    ok = worst <= tol
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} "
          f"(worst {worst:.3e}, tolerance {tol:.1e})")
    assert ok, f"criterion {num} ({label}): worst {worst:.3e} exceeds {tol:.1e}"


def _random_z(rng, m, n=1):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _rk4_nodes(h, steps, dt):
    """Per step k, (Htop, V, Hbot) at t, t + dt/2 and t + dt for t = k dt, from one h.read."""
    t = np.arange(steps) * dt
    H = h.read(np.stack((t, t + dt / 2.0, t + dt), axis=1).ravel()).reshape(steps, 3, h.N, h.N)
    m = h.N - h.n
    return [[(Hk[:m, :m], Hk[:m, m:], Hk[m:, m:]) for Hk in step] for step in H]


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_su2_closed_form():
    res = solve_factored(spin_half([1.0, 0.0, 0.0]), 1.4, 2000)
    z_err = float(np.max(np.abs(res.z_samples[:, 0, 0] - 1j * np.tan(res.times / 2.0))))
    u_err = 0.0
    for k, t in enumerate(res.times):
        exact = np.cos(t / 2.0) * np.eye(2) + 1j * np.sin(t / 2.0) * SIGMA_X
        u_err = max(u_err, frobenius(res.U_samples[k] - exact))
    assert z_err < 1e-8
    _verdict(1, "SU(2) closed form", u_err, 1e-7)


# ----------------------------------------------------- criteria 2 and 3 sweep


def _sweep_scenarios():
    """50 seeded scenarios: 40 with n=1 (hierarchical), 10 with N=4, n=2."""
    scenarios = []
    for i in range(40):
        N = 2 + (i % 5)
        if i % 2 == 0:
            rng = np.random.default_rng(2000 + i)
            h = constant_hamiltonian(random_traceless_hermitian(rng, N, 1.0))
            kind = "constant"
        else:
            h = trig_random(N, seed=2000 + i, scale=0.5)
            kind = "trig"
        scenarios.append((f"n1-{kind}-N{N}-{i}", h, "hierarchical"))
    for i in range(10):
        if i % 2 == 0:
            rng = np.random.default_rng(3000 + i)
            h = constant_hamiltonian(random_traceless_hermitian(rng, 4, 1.0), n=2)
        else:
            h = trig_random(4, n=2, seed=3000 + i, scale=0.5)
        scenarios.append((f"n2-N4-{i}", h, "factorized"))
    return scenarios


@pytest.fixture(scope="module")
def sweep_results():
    out = []
    for label, h, path in _sweep_scenarios():
        if path == "hierarchical":
            res = hierarchical_solve(h, 1.0, 600)
        else:
            res = solve_factored(h, 1.0, 1500)
        # oracle: exact exponential for constant H, fine midpoint otherwise
        H0 = h.matrix(0.0)
        if frobenius(h.matrix(0.37) - H0) < 1e-14:
            U_ref = expm(-1j * H0)
        else:
            U_ref = propagate(h, 1.0, 3000).U_final
        dist = compare(res.U_samples[-1], U_ref).phase_insensitive
        defect = max(unitarity_defect(U) for U in res.U_samples)
        out.append((label, dist, defect))
    return out


def test_criterion_02_oracle_equivalence(sweep_results):
    assert len(sweep_results) == 50
    worst = max(d for _, d, _ in sweep_results)
    _verdict(2, "oracle equivalence, 50 scenarios", worst, 1e-6)


def test_criterion_03_unitarity(sweep_results):
    worst = max(u for _, _, u in sweep_results)
    _verdict(3, "unitarity at every sample", worst, 1e-8)


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_closure_and_closed_form_roots():
    rng = np.random.default_rng(7)
    worst_closure = 0.0
    worst_root = 0.0
    for i in range(200):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, m + 1))
        z = _random_z(rng, m, n)
        w, g1, _ = unitarity_closure(z)
        worst_closure = max(worst_closure, frobenius(z + g1 @ w))
        zc = _random_z(rng, m)
        g1c = np.eye(m) + zc @ dagger(zc)
        s = gamma1_sqrt_closed(zc)
        worst_root = max(
            worst_root,
            frobenius(s - sqrt_hpd(g1c)),
            frobenius(gamma1_inv_sqrt_closed(zc) - inv_sqrt_hpd(g1c)),
            frobenius(s @ s - g1c),
        )
    assert worst_closure < 1e-10
    _verdict(4, "closure and closed-form roots, 200 instances", worst_root, 1e-12)


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_hermiticity_and_trace_identities():
    from unitint.factorization import (
        effective_hamiltonian_hermitian,
        recursion_hamiltonian,
    )

    rng = np.random.default_rng(8)
    worst_herm = 0.0
    worst_trace = 0.0
    for i in range(100):
        N = int(rng.integers(2, 7))
        n = int(rng.integers(1, N // 2 + 1))
        m = N - n
        H = random_traceless_hermitian(rng, N, 1.0)
        blocks = (H[:m, :m], H[:m, m:], H[m:, m:])
        z = _random_z(rng, m, n)
        up, lo = effective_hamiltonian_hermitian(blocks, z, riccati_rhs(blocks, z))
        worst_herm = max(
            worst_herm, frobenius(up - dagger(up)), frobenius(lo - dagger(lo))
        )
        blocks1 = (H[: N - 1, : N - 1], H[: N - 1, N - 1 :], H[N - 1 :, N - 1 :])
        z1 = _random_z(rng, N - 1)
        Hrec = recursion_hamiltonian(blocks1, z1)
        bracket = H[N - 1, N - 1].real + (dagger(blocks1[1]) @ z1)[0, 0].real
        worst_trace = max(worst_trace, abs(complex(np.trace(Hrec)) + bracket))
    assert worst_herm < 1e-9
    assert worst_trace < 1e-10

    # gamma-dot identity by centered differences along 100 short trajectories
    worst_gd = 0.0
    t_end, steps = 0.5, 1000
    dt = t_end / steps
    for i in range(100):
        h = trig_random(3, seed=9000 + i, scale=0.5)
        nodes = _rk4_nodes(h, steps, dt)
        zs = np.zeros((steps + 1, 2, 1), dtype=complex)
        for k in range(steps):
            H_a, H_m, H_b = nodes[k]
            zs[k + 1] = rk4_step(riccati_rhs, zs[k], dt, riccati_rhs(H_a, zs[k]), H_m, H_b)
        gamma = 1.0 + np.einsum("kij,kij->k", zs.conj(), zs).real
        for k in range(50, steps - 1, 100):
            dg = (gamma[k + 1] - gamma[k - 1]) / (2.0 * dt)
            _, V, _ = nodes[k][0]
            vz = (dagger(V) @ zs[k])[0, 0]
            worst_gd = max(worst_gd, abs(dg - (1j * gamma[k] * (vz - np.conj(vz))).real))
    _verdict(5, "Hermiticity, trace and gamma-dot identities", worst_gd, 1e-7)


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_phase_decomposition():
    # independent dynamical phase reconstruction on n=1 scenarios
    worst_split = 0.0
    cases = [
        spin_half([0.8, 0.5, 0.3]),
        trig_random(3, seed=61, scale=0.5),
        trig_random(4, seed=62, scale=0.5),
    ]
    for h in cases:
        res = solve_factored(h, 1.0, 2000)
        vals = np.empty(len(res.times))
        for k, t in enumerate(res.times):
            U1 = unitarized_U1(res.z_samples[k])
            vals[k] = (dagger(U1) @ h.matrix(t) @ U1)[-1, -1].real
        dyn_indep = -np.trapezoid(vals, res.times)
        worst_split = max(
            worst_split,
            abs(res.phase_geometric[-1] + dyn_indep - res.mu_total[-1]),
        )
    assert worst_split < 1e-7

    # static field: mu = -B3 t / 2 with zero geometric part
    b3 = 1.3
    res = solve_factored(spin_half([0.0, 0.0, b3]), 2.0, 500)
    static_err = max(
        float(np.max(np.abs(res.mu_total + b3 * res.times / 2.0))),
        float(np.max(np.abs(res.phase_geometric))),
    )
    assert static_err < 1e-9

    # imaginary part closes against the metric factor
    res = solve_factored(spin_half([0.8, 0.5, 0.3]), 2.0, 4000)
    g = 1.0 + np.abs(res.z_samples[:, 0, 0]) ** 2
    imu_err = float(np.max(np.abs(np.exp(res.imag_mu) - g)))
    _verdict(6, "phase decomposition", imu_err, 1e-8)


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_so5_tangent_and_restart():
    F = np.zeros((5, 5))
    F[4, 3], F[3, 4] = 1.0, -1.0
    coeffs = so5_coefficients(F)

    times, zs, restarts = integrate_so5(coeffs, 1.4, 2000)
    assert not restarts
    z4_err = float(np.max(np.abs(zs[:, 3] - np.tan(times))))
    assert z4_err < 1e-8

    m_err = 0.0
    for k in range(0, 2001, 50):
        m = project5(zs[k])
        exact = np.array([0, 0, 0, -np.sin(2 * times[k]), np.cos(2 * times[k])])
        m_err = max(m_err, float(np.max(np.abs(m - exact))))
    assert m_err < 1e-7

    from unitint.hamiltonian import build_so5

    h = build_so5(coeffs)
    res = solve_factored(h, 2.0, 2000)
    assert len(res.restarts) >= 1
    assert abs(res.restarts[0][0] - np.pi / 2) < 0.15
    dist = compare(res.U_samples[-1], expm(-2j * h.matrix(0.0))).phase_insensitive
    _verdict(7, "SO(5) tangent solution and restart", dist, 1e-6)


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_picture_equivalence():
    rng = np.random.default_rng(81)
    worst_dev = 0.0
    worst_drift = 0.0
    worst_fd = 0.0
    for i in range(20):
        A = rng.standard_normal((5, 5)) * 0.4
        F0 = A - A.T
        if i % 2 == 0:
            coeffs = so5_coefficients(F0)
        else:
            B = rng.standard_normal((5, 5)) * 0.3
            Fc = B - B.T
            coeffs = so5_coefficients(lambda t, F0=F0, Fc=Fc: F0 + Fc * np.cos(t))
        rep = crosscheck_so5(coeffs, 2.0, 3000)
        worst_dev = max(worst_dev, rep.max_deviation)
        worst_drift = max(worst_drift, rep.norm_drift)
        worst_fd = max(worst_fd, rep.fd_residual)
    assert worst_drift < 1e-9
    assert worst_fd < 1e-5
    _verdict(8, "picture equivalence, 20 random F", worst_dev, 1e-6)


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_convergence_orders():
    h = trig_random(3, seed=91, scale=0.5)

    def z_end(steps):
        dt = 1.0 / steps
        z = np.zeros((2, 1), dtype=complex)
        for H_a, H_m, H_b in _rk4_nodes(h, steps, dt):
            z = rk4_step(riccati_rhs, z, dt, riccati_rhs(H_a, z), H_m, H_b)
        return z

    z_ref = z_end(6400)
    e1 = frobenius(z_end(100) - z_ref)
    e2 = frobenius(z_end(200) - z_ref)
    rk4_ratio = e1 / e2
    assert 8.0 < rk4_ratio < 32.0

    U_ref = propagate(h, 1.0, 25600).U_final
    o1 = frobenius(propagate(h, 1.0, 200).U_final - U_ref)
    o2 = frobenius(propagate(h, 1.0, 400).U_final - U_ref)
    oracle_ratio = o1 / o2
    ok = 2.0 < oracle_ratio < 8.0
    print(f"criterion  9 [convergence orders]: {'PASS' if ok else 'FAIL'} "
          f"(RK4 ratio {rk4_ratio:.2f}, oracle ratio {oracle_ratio:.2f})")
    assert ok


# --------------------------------------------------------------- criterion 10


def test_criterion_10_restart_exactness():
    h = spin_half([1.0, 0.0, 0.0])  # |z| = tan(t/2) nears the pole by t = 2.8
    plain = solve_factored(h, 2.8, 2000, Z_max=100.0)
    forced = solve_factored(h, 2.8, 2000, Z_max=3.0)
    assert len(plain.restarts) == 0
    assert len(forced.restarts) >= 1
    diff = frobenius(plain.U_samples[-1] - forced.U_samples[-1])
    _verdict(10, "restart exactness", diff, 1e-7)
