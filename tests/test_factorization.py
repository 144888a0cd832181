import numpy as np
import pytest

from unitint.factorization import (
    UnsupportedConfigurationError,
    assemble_tilde_U1,
    base_coordinate,
    corner_phase,
    effective_hamiltonian_hermitian,
    effective_hamiltonian_tilde,
    gamma1_inv_sqrt_closed,
    gamma1_sqrt_closed,
    gauge_unitarize,
    hierarchical_solve,
    recursion_hamiltonian,
    schrodinger_residual,
    solve_factored,
    sqrt_derivative,
    unitarity_closure,
    unitarized_U1,
)
from unitint.hamiltonian import (
    BlockedHamiltonian,
    ModelError,
    constant_hamiltonian,
    spin_half,
    trig_random,
)
from unitint.linalg import (
    dagger,
    expm,
    frobenius,
    inv_sqrt_hpd,
    is_hermitian,
    is_unitary,
    random_traceless_hermitian,
    sqrt_hpd,
)
from unitint.oracle import compare, propagate
from unitint.riccati import riccati_rhs, so5_z_matrix


def _random_z(rng, m, n=1):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


# --------------------------------------------------------------- factor algebra


def test_closure_scalar_example():
    w, g1, g2 = unitarity_closure(np.array([[1j]]))
    assert np.allclose(g1, [[2.0]])
    assert np.allclose(g2, [[2.0]])
    assert np.allclose(w, [[-0.5j]])


def test_closure_quaternionic_z():
    # For the SO(5) coordinate the gammas are multiples of the identity
    z = so5_z_matrix(np.array([0.4, -0.2, 0.7, 1.1]))
    _, g1, g2 = unitarity_closure(z)
    g = 1.0 + (0.4**2 + 0.2**2 + 0.7**2 + 1.1**2)
    assert np.allclose(g1, g * np.eye(2))
    assert np.allclose(g2, g * np.eye(2))


def test_closure_w_relation_random():
    rng = np.random.default_rng(5)
    for m, n in ((2, 1), (4, 2), (5, 2)):
        z = _random_z(rng, m, n)
        w, g1, _ = unitarity_closure(z)
        assert frobenius(g1 @ w + z) < 1e-12


def test_tilde_U1_scalar_example():
    T = assemble_tilde_U1(np.array([[1j]]))
    assert np.allclose(T, [[0.5, 1j], [0.5j, 1.0]])
    assert abs(np.linalg.det(T) - 1.0) < 1e-14


def test_tilde_U1_unit_determinant():
    rng = np.random.default_rng(6)
    for m, n in ((3, 1), (4, 2)):
        z = _random_z(rng, m, n)
        assert abs(np.linalg.det(assemble_tilde_U1(z)) - 1.0) < 1e-10


def test_gauge_unitarize_scalar_example():
    z = np.array([[1j]])
    _, g1, g2 = unitarity_closure(z)
    U1, b = gauge_unitarize(assemble_tilde_U1(z), g1, g2)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(b, np.diag([np.sqrt(2.0), s]))
    assert np.allclose(U1, [[s, 1j * s], [1j * s, s]])
    assert is_unitary(U1, 1e-12)


def test_unitarized_U1_is_unitary_any_block():
    rng = np.random.default_rng(7)
    for m, n in ((2, 1), (5, 1), (4, 2), (6, 3)):
        U1 = unitarized_U1(_random_z(rng, m, n))
        assert is_unitary(U1, 1e-12)


def test_closed_form_sqrt_matches_eigendecomposition():
    rng = np.random.default_rng(8)
    for m in (1, 3, 5):
        z = _random_z(rng, m)
        _, g1, _ = unitarity_closure(z)
        assert frobenius(gamma1_sqrt_closed(z) - sqrt_hpd(g1)) < 1e-12
        assert frobenius(gamma1_inv_sqrt_closed(z) - inv_sqrt_hpd(g1)) < 1e-12
        assert frobenius(gamma1_sqrt_closed(z) @ gamma1_sqrt_closed(z) - g1) < 1e-12


@pytest.mark.parametrize("m,n", [(1, 1), (3, 1), (7, 1), (2, 2), (4, 2), (3, 3)])
def test_unitarized_U1_matches_gauge_chain(m, n):
    # the closed form against the paper-level factors, out to |z| ~ 30
    rng = np.random.default_rng(10 * m + n)
    for scale in (0.3, 1.0, 3.0, 10.0, 20.0, 30.0):
        for _ in range(5):
            z = _random_z(rng, m, n) * scale / np.sqrt(2.0 * m * n)
            _, gamma1, gamma2 = unitarity_closure(z)
            chain, _ = gauge_unitarize(assemble_tilde_U1(z), gamma1, gamma2)
            assert frobenius(unitarized_U1(z) - chain) < 1e-12


def test_closed_form_requires_column():
    with pytest.raises(UnsupportedConfigurationError):
        gamma1_sqrt_closed(np.zeros((4, 2), dtype=complex))


def test_base_coordinate_roundtrip():
    rng = np.random.default_rng(9)
    for m, n in ((2, 1), (4, 2), (5, 2)):
        z = _random_z(rng, m, n)
        assert frobenius(base_coordinate(unitarized_U1(z), m + n, n) - z) < 1e-10


# ------------------------------------------------------- effective Hamiltonians


def test_tilde_effective_at_origin():
    h = trig_random(4, n=2, seed=2)
    Htop, V, Hbot = h.blocks_at(0.0)
    up, lo = effective_hamiltonian_tilde((Htop, V, Hbot), np.zeros_like(V))
    assert np.array_equal(up, Htop)
    assert np.array_equal(lo, Hbot)


def test_hermitian_effective_at_origin():
    # z = 0: gauge terms vanish and the blocks reduce to Htop, Hbot
    h = trig_random(5, n=2, seed=3)
    blocks = h.blocks_at(0.0)
    z = np.zeros_like(blocks[1])
    up, lo = effective_hamiltonian_hermitian(blocks, z, riccati_rhs(blocks, z))
    assert frobenius(up - blocks[0]) < 1e-12
    assert frobenius(lo - blocks[2]) < 1e-12


def test_hermitian_effective_is_hermitian():
    rng = np.random.default_rng(10)
    for m, n in ((2, 1), (4, 2), (5, 2)):
        h = trig_random(m + n, n=n, seed=int(rng.integers(1000)))
        blocks = h.blocks_at(0.3)
        z = _random_z(rng, m, n)
        up, lo = effective_hamiltonian_hermitian(blocks, z, riccati_rhs(blocks, z))
        assert is_hermitian(up, 1e-9)
        assert is_hermitian(lo, 1e-9)


def _effective_hamiltonian_by_eigh(h_blocks, z, z_dot):
    # the fiber blocks composed from sqrt_hpd, inv_sqrt_hpd and sqrt_derivative
    Htop, V, Hbot = h_blocks
    _, gamma1, gamma2 = unitarity_closure(z)

    def block(gamma, gamma_dot, core):
        s, s_inv = sqrt_hpd(gamma), inv_sqrt_hpd(gamma)
        ds_inv = -s_inv @ sqrt_derivative(gamma, gamma_dot) @ s_inv
        A = s_inv @ core @ s
        return 0.5j * (ds_inv @ s - s @ ds_inv) + 0.5 * (A + dagger(A))

    return (
        block(gamma1, z_dot @ dagger(z) + z @ dagger(z_dot), Htop - z @ dagger(V)),
        block(gamma2, dagger(z_dot) @ z + dagger(z) @ z_dot, Hbot + dagger(z) @ V),
    )


@pytest.mark.parametrize("m,n", [(1, 1), (3, 1), (5, 1), (2, 2), (4, 2), (3, 3)])
def test_hermitian_effective_matches_eigh_composition(m, n):
    # the one-SVD form against three eigendecompositions per gamma, out to |z| ~ 30
    rng = np.random.default_rng(20 * m + n)
    for scale in (0.0, 0.3, 1.0, 3.0, 10.0, 30.0):
        for _ in range(5):
            H = random_traceless_hermitian(rng, m + n)
            blocks = (H[:m, :m], H[:m, m:], H[m:, m:])
            z = _random_z(rng, m, n) * scale / np.sqrt(2.0 * m * n)
            z_dot = riccati_rhs(blocks, z)
            got = effective_hamiltonian_hermitian(blocks, z, z_dot)
            for a, b in zip(got, _effective_hamiltonian_by_eigh(blocks, z, z_dot)):
                assert frobenius(a - b) < 1e-12


def test_sqrt_derivative_vs_finite_differences():
    rng = np.random.default_rng(11)
    z0 = _random_z(rng, 3)
    dz = _random_z(rng, 3)
    eps = 1e-6

    def gamma_of(s):
        zc = z0 + s * dz
        return np.eye(3, dtype=complex) + zc @ dagger(zc)

    g_dot = dz @ dagger(z0) + z0 @ dagger(dz)
    fd = (sqrt_hpd(gamma_of(eps)) - sqrt_hpd(gamma_of(-eps))) / (2 * eps)
    assert frobenius(sqrt_derivative(gamma_of(0.0), g_dot) - fd) < 1e-8


def test_recursion_trace_identity():
    rng = np.random.default_rng(12)
    for N in (3, 4, 6):
        h = trig_random(N, seed=int(rng.integers(1000)))
        blocks = h.blocks_at(0.7)
        z = _random_z(rng, N - 1)
        Hp = recursion_hamiltonian(blocks, z)
        assert is_hermitian(Hp, 1e-10)
        bracket = blocks[2][0, 0].real + (dagger(blocks[1]) @ z)[0, 0].real
        assert abs(np.trace(Hp).real + bracket) < 1e-12


def test_recursion_requires_n1():
    h = trig_random(4, n=2, seed=0)
    with pytest.raises(UnsupportedConfigurationError):
        recursion_hamiltonian(h.blocks_at(0.0), np.zeros((2, 2), dtype=complex))


# ----------------------------------------------------------------- direct solve


def test_solve_zero_hamiltonian():
    h = constant_hamiltonian(np.zeros((3, 3), dtype=complex))
    res = solve_factored(h, 1.0, 50)
    ev = res.evolution()
    assert frobenius(ev.U - np.eye(3)) < 1e-13
    assert abs(ev.mu_total) < 1e-13 and abs(ev.phase_geometric) < 1e-13


def test_solve_static_z_field():
    # H = -(1/2) sigma_z: U(t) = diag(e^{it/2}, e^{-it/2}), z stays 0
    res = solve_factored(spin_half([0.0, 0.0, 1.0]), 2.0, 200)
    expected = np.diag([np.exp(1j), np.exp(-1j)])
    assert frobenius(res.U_samples[-1] - expected) < 1e-12
    assert np.max(np.abs(res.z_samples)) < 1e-14
    assert abs(res.mu_total[-1] - (-1.0)) < 1e-12
    assert abs(res.phase_geometric[-1]) < 1e-13


def test_solve_su2_transverse_vs_closed_form():
    # B = (1, 0, 0): U = exp(i t sigma_x / 2)
    t_end = 2.0
    res = solve_factored(spin_half([1.0, 0.0, 0.0]), t_end, 2000)
    expected = expm(0.5j * t_end * np.array([[0, 1], [1, 0]], dtype=complex))
    assert frobenius(res.U_samples[-1] - expected) < 1e-10
    assert np.max(np.abs(res.z_samples[:, 0, 0] - 1j * np.tan(res.times / 2))) < 1e-12


def test_solve_unitary_along_trajectory():
    res = solve_factored(trig_random(4, n=2, seed=5), 1.5, 400)
    for U in res.U_samples[::40]:
        assert is_unitary(U, 1e-9)


def test_solve_matches_oracle_general_block():
    h = trig_random(4, n=2, seed=6)
    res = solve_factored(h, 1.0, 2000)
    ora = propagate(h, 1.0, 4000, estimate_error=False)
    assert compare(res.U_samples[-1], ora.U_final).plain < 1e-6


def test_solve_schrodinger_residual():
    h = trig_random(3, seed=7)
    res = solve_factored(h, 1.0, 1000)
    assert schrodinger_residual(h, res.times, res.U_samples) < 1e-4


def test_restart_preserves_evolution():
    # force restarts with a small threshold; the endpoint must not move
    h = spin_half([1.0, 0.0, 0.0])
    res_none = solve_factored(h, 2.8, 2000, Z_max=100.0)
    res_many = solve_factored(h, 2.8, 2000, Z_max=3.0)
    assert len(res_none.restarts) == 0
    assert len(res_many.restarts) >= 1
    assert frobenius(res_none.U_samples[-1] - res_many.U_samples[-1]) < 1e-10


def test_solve_through_pole():
    # B = (1, 0, 0) beyond t = pi: |z| = tan(t/2) diverges, restart carries on
    h = spin_half([1.0, 0.0, 0.0])
    t_end = 4.0
    res = solve_factored(h, t_end, 2000)
    assert len(res.restarts) >= 1
    expected = expm(0.5j * t_end * np.array([[0, 1], [1, 0]], dtype=complex))
    assert frobenius(res.U_samples[-1] - expected) < 1e-9


def _counted(h):
    times = []

    def evaluate(t):
        times.append(t)
        return h.evaluator(t)

    return BlockedHamiltonian(N=h.N, n=h.n, evaluator=evaluate), times


@pytest.mark.parametrize("N,n,scale,folds", [(3, 1, 0.5, False), (4, 2, 0.5, False), (3, 1, 2.0, True)])
def test_solve_evaluates_each_node_once(N, n, scale, folds):
    # five quarter nodes per step, the first carried over from the step before;
    # a step retaken after a fold reuses its nodes
    counted, times = _counted(trig_random(N, n=n, seed=1, scale=scale))
    steps = 230
    res = solve_factored(counted, 3.0, steps, Z_max=2.0)
    assert bool(res.restarts) == folds
    assert len(times) <= 4 * steps + 1
    assert len(set(times)) == len(times)


@pytest.mark.parametrize(
    "M",
    [np.array([[1.0, 2.0], [0.0, -1.0]]), np.diag([1.0, 2.0, 3.0]).astype(complex)],
    ids=["non_hermitian", "traceful"],
)
def test_solve_rejects_invalid_model(M):
    with pytest.raises(ModelError):
        solve_factored(constant_hamiltonian(M), 1.0, 10)


def test_factors_reassemble_at_every_node():
    # U = U1(z) U2 U_accum at every node, restart nodes included, where z = 0 and U2 = I
    res = solve_factored(trig_random(3, seed=1, scale=2), 3.0, 230, Z_max=2.0)
    restart_ops = dict(res.restarts)
    assert restart_ops
    U_accum = np.eye(3)
    for k, t in enumerate(res.times):
        U_accum = restart_ops.get(t, U_accum)
        U = unitarized_U1(res.z_samples[k]) @ res.U2_samples[k] @ U_accum
        assert frobenius(U - res.U_samples[k]) < 1e-12
        if t in restart_ops:
            assert np.array_equal(res.U2_samples[k], np.eye(3))


# ---------------------------------------------------------------- corner phases


def test_corner_phase_static_z():
    # mu = -H_NN t = -B3 t / 2, geometric part zero
    h = spin_half([0.0, 0.0, 1.0])
    res = solve_factored(h, 3.0, 300)
    mu, geo, dyn = corner_phase(h, res.trajectory)
    assert np.max(np.abs(mu + res.times / 2.0)) < 1e-12
    assert np.max(np.abs(geo)) < 1e-13
    assert np.max(np.abs(dyn - mu)) < 1e-12


def test_corner_phase_transverse_vanishes():
    # B = (1, 0, 0): V^H z is purely imaginary and H_NN = 0, so mu stays 0
    h = spin_half([1.0, 0.0, 0.0])
    res = solve_factored(h, 2.0, 500)
    mu, geo, _ = corner_phase(h, res.trajectory)
    assert np.max(np.abs(mu)) < 1e-12
    assert np.max(np.abs(geo)) < 1e-12


def test_corner_phase_matches_driver():
    h = trig_random(3, seed=8)
    res = solve_factored(h, 1.5, 2000)
    mu, geo, dyn = corner_phase(h, res.trajectory)
    assert abs(mu[-1] - res.mu_total[-1]) < 1e-7
    assert abs(geo[-1] - res.phase_geometric[-1]) < 1e-7
    assert abs(dyn[-1] - res.phase_dynamical[-1]) < 1e-7


def test_dynamical_phase_independent_expression():
    # dyn = -integral of (U1^H H U1)_NN: fixes the sign of the geometric part
    h = trig_random(3, seed=9)
    res = solve_factored(h, 1.2, 800)
    vals = np.empty(len(res.times))
    for k, t in enumerate(res.times):
        U1 = unitarized_U1(res.z_samples[k])
        vals[k] = (dagger(U1) @ h.matrix(t) @ U1)[-1, -1].real
    dyn = -np.trapezoid(vals, res.times)
    assert abs(dyn - res.phase_dynamical[-1]) < 1e-6


def test_geometric_phase_matches_finite_differences():
    # geo = integral of (-i U1^H dU1/dt)_NN via centered differences of U1
    h = trig_random(3, seed=10)
    res = solve_factored(h, 1.2, 800)
    U1s = [unitarized_U1(res.z_samples[k]) for k in range(len(res.times))]
    vals = np.zeros(len(res.times))
    for k in range(1, len(res.times) - 1):
        dU1 = (U1s[k + 1] - U1s[k - 1]) / (res.times[k + 1] - res.times[k - 1])
        vals[k] = (-1j * dagger(U1s[k]) @ dU1)[-1, -1].real
    geo = -np.trapezoid(vals[1:-1], res.times[1:-1])
    # compare over the interior window where the FD values live
    assert abs(geo - (res.phase_geometric[-2] - res.phase_geometric[1])) < 1e-5


def test_imaginary_mu_closure():
    # exp(Im mu) = 1 + |z|^2 along the trajectory
    h = spin_half([0.8, 0.5, 0.3])
    res = solve_factored(h, 2.0, 4000)
    g = 1.0 + np.abs(res.z_samples[:, 0, 0]) ** 2
    assert np.max(np.abs(np.exp(res.imag_mu) - g)) < 1e-8


def test_gamma_dot_identity():
    # d(gamma)/dt = i gamma (V^H z - z^H V) for the scalar gamma, n = 1
    h = trig_random(3, seed=11, scale=0.5)
    res = solve_factored(h, 1.0, 2000)
    gamma = 1.0 + np.einsum("kij,kij->k", res.z_samples.conj(), res.z_samples).real
    worst = 0.0
    for k in range(1, len(res.times) - 1, 7):
        dg = (gamma[k + 1] - gamma[k - 1]) / (res.times[k + 1] - res.times[k - 1])
        _, V, _ = h.blocks_at(res.times[k])
        vz = (dagger(V) @ res.z_samples[k])[0, 0]
        worst = max(worst, abs(dg - 1j * gamma[k] * (vz - np.conj(vz))))
    assert worst < 1e-7


# ------------------------------------------------------------ hierarchical peel


def test_hierarchical_requires_n1():
    with pytest.raises(UnsupportedConfigurationError):
        hierarchical_solve(trig_random(4, n=2, seed=0), 1.0, 10)


def test_hierarchical_constant_su3():
    rng = np.random.default_rng(13)
    from unitint.linalg import random_traceless_hermitian

    H = random_traceless_hermitian(rng, 3, 1.0)
    res = hierarchical_solve(constant_hamiltonian(H), 1.0, 800)
    exact = expm(-1j * H)
    assert frobenius(res.U_samples[-1] - exact) < 1e-6


def test_hierarchical_matches_direct_su2():
    h = spin_half([0.7, -0.4, 0.9])
    direct = solve_factored(h, 1.5, 1000)
    hier = hierarchical_solve(h, 1.5, 1000)
    assert frobenius(direct.U_samples[-1] - hier.U_samples[-1]) < 1e-7
    assert abs(direct.mu_total[-1] - hier.level_mu[-1, 0]) < 1e-7
    assert abs(direct.phase_geometric[-1] - hier.level_geo[-1, 0]) < 1e-7


def test_hierarchical_su5_vs_oracle():
    h = trig_random(5, seed=14)
    res = hierarchical_solve(h, 1.0, 800)
    ora = propagate(h, 1.0, 3000, estimate_error=False)
    assert compare(res.U_samples[-1], ora.U_final).phase_insensitive < 1e-6
    for U in res.U_samples[::80]:
        assert is_unitary(U, 1e-9)


def test_hierarchical_through_pole():
    h = spin_half([1.0, 0.0, 0.0])
    res = hierarchical_solve(h, 4.0, 2000)
    assert len(res.restarts) >= 1
    expected = expm(0.5j * 4.0 * np.array([[0, 1], [1, 0]], dtype=complex))
    assert frobenius(res.U_samples[-1] - expected) < 1e-9


def test_gauge_covariance_of_full_evolution():
    # the assembled U must not depend on where restarts re-fix the gauge
    h = trig_random(3, seed=15, scale=1.2)
    a = hierarchical_solve(h, 3.0, 1500, Z_max=2.0)
    b = hierarchical_solve(h, 3.0, 1500, Z_max=50.0)
    assert len(a.restarts) >= 1 and len(b.restarts) >= 0
    if a.restarts and b.restarts:
        assert a.restarts[0][0] != b.restarts[0][0]
    assert frobenius(a.U_samples[-1] - b.U_samples[-1]) < 1e-6
