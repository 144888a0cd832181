import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from unitint import factorization, riccati
from unitint.factorization import (
    UnsupportedConfigurationError,
    _next_level,
    _peel_level,
    assemble_tilde_U1,
    base_coordinate,
    effective_hamiltonian_hermitian,
    effective_hamiltonian_tilde,
    gamma1_inv_sqrt_closed,
    gamma1_sqrt_closed,
    gauge_unitarize,
    hierarchical_solve,
    recursion_hamiltonian,
    schrodinger_residual,
    solve_factored,
    unitarity_closure,
    unitarized_U1,
)
from unitint.hamiltonian import (
    BlockedHamiltonian,
    _blocks,
    ModelError,
    constant_hamiltonian,
    piecewise_constant,
    spin_half,
    trig_random,
)
from unitint.linalg import (
    _unitary_step,
    blockdiag,
    dagger,
    expm,
    frobenius,
    hermitian_eigendecomposition,
    inv_sqrt_hpd,
    is_hermitian,
    is_unitary,
    random_traceless_hermitian,
    sqrt_hpd,
)
from unitint.oracle import compare, propagate
from unitint.riccati import _magnus4, _projective_rhs, riccati_rhs, so5_z_matrix


def _random_z(rng, m, n=1):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _peel(Htop, v, h, z):
    """_peel_level's rates and the next level's H that _next_level builds from them."""
    rates, u = _peel_level(Htop, v, h, z)
    return rates, _next_level(Htop, z, u, rates[2])


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


@pytest.mark.parametrize("m,n", [(1, 1), (3, 1), (2, 2), (4, 3)])
def test_unitarized_U1_stacks_over_leading_axes(m, n):
    rng = np.random.default_rng(10 * m + n)
    zs = np.array([_random_z(rng, m, n) * r for r in (0.0, 0.01, 0.3, 1.0, 7.0, 40.0)])
    zs = zs.reshape(2, 3, m, n)
    stacked = unitarized_U1(zs)
    assert stacked.shape == (2, 3, m + n, m + n)
    for z, U in zip(zs.reshape(-1, m, n), stacked.reshape(-1, m + n, m + n)):
        assert frobenius(U - unitarized_U1(z)) <= 1e-14


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


def sqrt_derivative(gamma, gamma_dot):
    """d/dt gamma^{1/2}: X g^{1/2} + g^{1/2} X = g_dot solved in the eigenbasis of gamma."""
    w, Q = hermitian_eigendecomposition(gamma)
    sq = np.sqrt(w)
    X = (dagger(Q) @ gamma_dot @ Q) / (sq[:, None] + sq[None, :])
    return Q @ X @ dagger(Q)


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


def _z_with_singular_values(rng, m, n, kind, radius):
    # z = A diag(s) B^H with s random, repeated, partly zero or all zero
    s = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
    if kind == "repeated":
        s[:] = s[0]
    elif kind == "partly_zero":
        s[n // 2 :] = 0.0
    elif kind == "zero":
        s[:] = 0.0
    A = np.linalg.qr(_random_z(rng, m, m))[0]
    B = np.linalg.qr(_random_z(rng, n, n))[0]
    z = (A[:, :n] * s) @ dagger(B)
    return z * (radius / frobenius(z)) if kind != "zero" else z


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(2, 2), (3, 3), (4, 2), (5, 2), (4, 3)]),
    kinds=st.lists(st.sampled_from(["random", "repeated", "partly_zero", "zero"]), min_size=3, max_size=3),
    radius=st.floats(0.0, 30.0),
)
def test_fiber_node_stacks_and_matches_eigh_composition(seed, shape, kinds, radius):
    # the SVD-basis fiber kernel solve_factored runs for n > 1, at three
    # nodes at once (z = 0, repeated and zero singular values included): the
    # stacked call equals the per-node calls, which equal the
    # eigendecomposition composition
    rng = np.random.default_rng(seed)
    m, n = shape
    Hs = [random_traceless_hermitian(rng, m + n) for _ in kinds]
    blocks = [(H[:m, :m], H[:m, m:], H[m:, m:]) for H in Hs]
    zs = [_z_with_singular_values(rng, m, n, kind, radius) for kind in kinds]
    z_dots = [riccati_rhs(b, z) for b, z in zip(blocks, zs)]
    stacked_blocks = tuple(map(np.array, zip(*blocks)))
    upper, lower = effective_hamiltonian_hermitian(stacked_blocks, np.array(zs), np.array(z_dots))
    for k, (b, z, z_dot) in enumerate(zip(blocks, zs, z_dots)):
        per_node = effective_hamiltonian_hermitian(b, z, z_dot)
        for a, c in zip((upper[k], lower[k]), per_node):
            assert frobenius(a - c) <= 1e-14 * max(frobenius(c), 1.0)
        for a, w in zip(per_node, _effective_hamiltonian_by_eigh(b, z, z_dot)):
            assert frobenius(a - w) < 1e-12


@pytest.mark.parametrize("n,count", [(1, 1), (1, 2), (3, 1), (3, 2)])
def test_magnus_and_unitary_step_stack_over_blocks(n, count):
    # a stack of blocks (a stack of one included) equals the block-by-block
    # steps, which gather He through an index; spread is the exact dt
    # (lambda_max - lambda_min) of Omega at a refused step (>= pi) and at
    # least that elsewhere: at dt 0.3 the norm bound certifies every step,
    # at dt 3 none for n = 3
    rng = np.random.default_rng(10 * n + count)
    G = rng.standard_normal((3, count, n, n)) + 1j * rng.standard_normal((3, count, n, n))
    He = (G + dagger(G)) / 2.0  # He at t, t + dt/2 and t + dt for each block
    refused = 0
    for dt in (0.3, 3.0):
        stacked, spread = _magnus4(He.reshape(3 * count, n, n), np.arange(3 * count).reshape(3, count), dt)
        unitary = _unitary_step(He[0], dt)
        assert stacked.shape == unitary.shape == (count, n, n) and spread.shape == (count,)
        for k in range(count):
            P, (one,) = _magnus4(He[:, k], np.arange(3)[:, None], dt)
            assert np.array_equal(stacked[k], P[0]) and spread[k] == one
            # the step is exp(-i dt Omega)
            Sm = (He[0, k] + 4.0 * He[1, k] + He[2, k]) / 6.0
            omega = Sm + (1j * dt / 12.0) * (He[0, k] @ He[2, k] - He[2, k] @ He[0, k])
            assert frobenius(P[0] - expm(-1j * dt * omega)) < 1e-13
            w = np.linalg.eigvalsh(omega)
            exact = dt * (w[-1] - w[0])
            if one >= np.pi:
                refused += 1
                assert abs(one - exact) < 1e-13
            else:
                assert one >= exact and exact < np.pi
            assert np.array_equal(unitary[k], _unitary_step(He[0, k], dt))
            assert frobenius(unitary[k] - expm(-1j * dt * He[0, k])) < 1e-13
    assert refused == (count if n == 3 else 0)


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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 8), radius=st.floats(0.0, 30.0))
def test_peel_level_matches_public_composition(seed, N, radius):
    rng = np.random.default_rng(seed)
    H = random_traceless_hermitian(rng, N, 3.0)
    m = N - 1
    blocks = Htop, V, _ = (H[:m, :m], H[:m, m:], H[m:, m:])
    z = _random_z(rng, m)
    z *= radius / frobenius(z)
    rates, H_next = _peel(Htop, V[:, 0], H[m, m], z[:, 0])
    # the peel formula written out, then the trace shift
    sg = np.sqrt(1.0 + frobenius(z) ** 2)
    Hp = (
        Htop
        - (z @ dagger(V) + V @ dagger(z)) / (sg + 1.0)
        - (z @ dagger(z)) * (dagger(V) @ z)[0, 0].real / (sg + 1.0) ** 2
    )
    tau = np.trace(Hp).real
    # the corner bracket and the NN element of -i U1^H dU1/dt, written out
    hnn, re_vz, g = H[m, m].real, (dagger(V) @ z)[0, 0].real, sg**2
    bracket = hnn + re_vz
    quad = (dagger(z) @ (Htop - hnn * np.eye(m)) @ z)[0, 0].real
    geometric = -(quad + 2.0 * re_vz * (1.0 - g / 2.0)) / g
    pairs = [
        (np.array(rates), np.array([-bracket, -geometric, -tau / m])),
        (H_next, Hp - (tau / m) * np.eye(m)),
        (recursion_hamiltonian(blocks, z), Hp),
    ]
    for got, want in pairs:
        assert frobenius(got - want) <= 1e-12 * max(frobenius(want), frobenius(H))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(2, 8),
    width=st.integers(1, 4),
    radius=st.floats(0.0, 30.0),
)
def test_peel_level_broadcasts_over_a_fold_window(seed, N, width, radius):
    # one call on the (3, W) node sets of a window equals the per-node calls;
    # |z| runs over [0, radius] with one node at z = 0
    rng = np.random.default_rng(seed)
    m = N - 1
    H = np.array([random_traceless_hermitian(rng, N, 3.0) for _ in range(3 * width)])
    H = H.reshape(3, width, N, N)
    z = rng.standard_normal((3, width, m)) + 1j * rng.standard_normal((3, width, m))
    z *= rng.uniform(0.0, radius, (3, width, 1)) / np.linalg.norm(z, axis=-1, keepdims=True)
    z[0, 0] = 0.0
    rates, H_next = _peel(H[..., :m, :m], H[..., :m, m], H[..., m, m], z)
    for i, j in np.ndindex(3, width):
        Hn, zn = H[i, j], z[i, j]
        one_rates, one_next = _peel(Hn[:m, :m], Hn[:m, m], Hn[m, m], zn)
        scale = frobenius(Hn)
        pairs = [(H_next[i, j], one_next), (np.array(rates)[:, i, j], np.array(one_rates))]
        for got, want in pairs:
            assert frobenius(got - want) <= 1e-14 * max(frobenius(want), scale)
        # H_next is the peel formula less its trace
        zc, V = zn[:, None], Hn[:m, m:]
        sg = np.sqrt(1.0 + frobenius(zc) ** 2)
        Hp = (
            Hn[:m, :m]
            - (zc @ dagger(V) + V @ dagger(zc)) / (sg + 1.0)
            - (zc @ dagger(zc)) * (dagger(V) @ zc)[0, 0].real / (sg + 1.0) ** 2
        )
        want = Hp - (np.trace(Hp).real / m) * np.eye(m)
        assert frobenius(H_next[i, j] - want) <= 1e-12 * max(frobenius(want), scale)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 8), radius=st.floats(0.0, 30.0))
def test_peel_level_fiber_matches_effective_hamiltonian(seed, N, radius):
    # for n = 1 the Hermitian fiber blocks are the peel's: recursion_hamiltonian's
    # H' above and -mu_rate, from _peel_level, below
    rng = np.random.default_rng(seed)
    H = random_traceless_hermitian(rng, N, 3.0)
    m = N - 1
    blocks = (H[:m, :m], H[:m, m:], H[m:, m:])
    z = _random_z(rng, m)
    z *= radius / frobenius(z)
    upper = recursion_hamiltonian(blocks, z)
    lower = -_peel_level(H[:m, :m], H[:m, m], H[m, m], z[:, 0])[0][0]
    want_upper, want_lower = effective_hamiltonian_hermitian(blocks, z, riccati_rhs(blocks, z))
    for got, want in ((upper, want_upper), (lower, want_lower)):
        assert frobenius(got - want) <= 1e-12 * max(frobenius(want), frobenius(H))


# ----------------------------------------------------------------- direct solve


def test_solve_zero_hamiltonian():
    h = constant_hamiltonian(np.zeros((3, 3), dtype=complex))
    res = solve_factored(h, 1.0, 50)
    assert frobenius(res.U_samples[-1] - np.eye(3)) < 1e-13
    assert abs(res.mu_total[-1]) < 1e-13 and abs(res.phase_geometric[-1]) < 1e-13


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
    ora = propagate(h, 1.0, 4000)
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


_RESTART_SOLVES = [
    (N, n, solver)
    for N, n in [(3, 1), (4, 1), (4, 2), (6, 3)]
    for solver in (solve_factored, hierarchical_solve)
    if n == 1 or solver is solve_factored
]


@pytest.mark.parametrize("N,n,solver", _RESTART_SOLVES)
def test_restarts_are_exact_at_every_sample(N, n, solver):
    # Z_max 2 folds several times; Z_max 50 folds rarely.  U is the one
    # Magnus product, which the folds do not touch, so it is the same at
    # every sample, bit for bit; each restart record is U_samples at its
    # node, and the phases run on across the folds: a step moves them by
    # under 0.1 here, while a phase that started afresh at a fold would
    # jump by what its segment reached (Im mu in a chart, ln(1 + 2^2) = 1.6).
    h = trig_random(N, n=n, seed=2, scale=2.0)
    phase_names = {
        solve_factored: ("mu_total", "phase_geometric", "imag_mu"),
        hierarchical_solve: ("level_mu", "level_geo", "trace_phases"),
    }[solver]
    for steps in (230, 460):
        folded = solver(h, 3.0, steps, Z_max=2.0)
        assert folded.restarts
        for t, U in folded.restarts:
            assert frobenius(U - folded.U_samples[np.searchsorted(folded.times, t)]) < 1e-14
        if n == 1:
            phases = np.column_stack([getattr(folded, name) for name in phase_names])
            assert np.max(np.abs(np.diff(phases, axis=0))) < 0.2
        assert np.array_equal(folded.U_samples, solver(h, 3.0, steps, Z_max=50.0).U_samples)


@pytest.mark.parametrize("N,n", [(3, 1), (4, 2), (6, 1), (6, 3)])
def test_U_is_one_product_at_any_threshold_and_factors_at_roundoff(N, n):
    # both solvers return the Magnus product bit for bit at Z_max 0.5 to 1e3
    # (up to 13 folds, or none), and its readings factor it at roundoff: the
    # off-diagonal blocks of U1(z)^H U_j U_s^H, which U2_samples drops, and
    # the residual of U = U1(z) U2 U_s, with U_s the record of the segment's
    # start, are below 1e-13 at every node (8e-15 measured, |z| up to 26)
    m = N - n
    for seed in range(4):
        h = trig_random(N, n=n, seed=seed, scale=2.0)
        want = solve_factored(h, 3.0, 230, Z_max=2.0).U_samples
        for Z_max in (0.5, 2.0, 10.0, 1e3):
            res = solve_factored(h, 3.0, 230, Z_max=Z_max)
            assert np.array_equal(res.U_samples, want), (seed, Z_max)
            if n == 1:
                assert np.array_equal(hierarchical_solve(h, 3.0, 230, Z_max=Z_max).U_samples, want)
            starts = np.searchsorted(res.times, [0.0] + [t for t, _ in res.restarts])
            U_s = res.U_samples[starts[np.searchsorted(starts, np.arange(len(res.times)), side="right") - 1]]
            U1 = unitarized_U1(res.z_samples)
            fiber = dagger(U1) @ res.U_samples @ dagger(U_s)
            for block in (fiber[:, :m, m:], fiber[:, m:, :m], U1 @ res.U2_samples @ U_s - res.U_samples):
                assert np.max(np.linalg.norm(block, axis=(-2, -1))) < 1e-13, (seed, Z_max)
            assert np.all(res.U2_samples[:, :m, m:] == 0.0) and np.all(res.U2_samples[:, m:, :m] == 0.0)


@pytest.mark.parametrize("N", [3, 4])
def test_imaginary_mu_closure_per_segment(N):
    # Im mu reads -ln|U_NN|^2 at every node, across the folds.  Each segment
    # starts from z = 0 at node s, and its chart's ln(1 + |z|^2) is the same
    # reading of the segment's operator U_j U_s^H: -ln|(U_j U_s^H)_NN|^2
    res = solve_factored(trig_random(N, seed=2, scale=2.0), 3.0, 230, Z_max=2.0)
    assert len(res.restarts) >= 2
    starts = np.concatenate(([0], np.searchsorted(res.times, [t for t, _ in res.restarts])))
    start = starts[np.searchsorted(starts, np.arange(len(res.times)), side="right") - 1]
    U = res.U_samples
    assert np.array_equal(res.imag_mu, -np.log(U[:, -1, -1].real ** 2 + U[:, -1, -1].imag ** 2))
    segment = -np.log(np.abs((U @ dagger(U[start]))[:, -1, -1]) ** 2)
    gained = np.log1p(np.sum(np.abs(res.z_samples) ** 2, axis=(1, 2)))
    assert np.max(np.abs(segment - gained)) < 1e-6


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

    return BlockedHamiltonian(N=h.N, n=h.n, evaluator=evaluate, breakpoints=h.breakpoints), times


@pytest.mark.parametrize("N,n,scale,folds", [(3, 1, 0.5, False), (4, 2, 0.5, False), (3, 1, 2.0, True)])
def test_solve_evaluates_each_node_once(N, n, scale, folds):
    # nodes t, t + dt/2 and t + dt per step, the first carried over from the
    # step before; a step retaken after a fold reuses its nodes
    counted, times = _counted(trig_random(N, n=n, seed=1, scale=scale))
    steps = 230
    res = solve_factored(counted, 3.0, steps, Z_max=2.0)
    assert bool(res.restarts) == folds
    assert len(times) == 2 * steps + 1
    assert len(set(times)) == len(times)


def _dop853(h, t_end):
    N = h.N
    sol = solve_ivp(
        lambda t, y: (-1j * (h.matrix(t) @ y.reshape(N, N))).ravel(),
        (0.0, t_end),
        np.eye(N, dtype=complex).ravel(),
        method="DOP853",
        rtol=1e-13,
        atol=1e-13,
    )
    return sol.y[:, -1].reshape(N, N)


@pytest.mark.parametrize("N,n", [(3, 1), (4, 1), (4, 2), (6, 3)])
def test_solve_is_fourth_order_and_estimates_its_error(N, n):
    # one product of Magnus steps, restarts included: halving dt cuts the U
    # error by ~2^4, and est_error, step doubling on the grid's own nodes,
    # reads it within 0.5% (0.999-1.001x measured, 115 steps odd)
    h = trig_random(N, n=n, seed=3, scale=2.0)
    ref = _dop853(h, 3.0)
    errors = []
    for steps in (115, 230, 460):
        res = solve_factored(h, 3.0, steps, Z_max=2.0)
        assert res.restarts
        err = compare(res.U_samples[-1], ref).phase_insensitive
        assert abs(res.est_error / err - 1.0) < 0.005
        errors.append(err)
    for coarse, fine in zip(errors, errors[1:]):
        assert 8.0 < coarse / fine < 32.0


_FIBER_SHAPES = [(3, 1), (4, 2), (6, 1), (6, 3)]


@functools.cache
def _trig_reference(N, n, seed):
    """trig_random(N, n, seed, scale 2) and its U(3) by DOP853."""
    h = trig_random(N, n=n, seed=seed, scale=2.0)
    return h, _dop853(h, 3.0)


@pytest.mark.parametrize("N,n", _FIBER_SHAPES)
def test_solve_error_does_not_depend_on_the_threshold(N, n):
    # each fiber step is the block diagonal of the Magnus step matrix between
    # the frames U1(z) at its two ends, so the threshold only moves the folds:
    # from Z_max 0.5 (up to 13 folds) to 1e3 (none) the U error stays within
    # 3x (2.6x measured), where a fiber driven by effective Hamiltonians that
    # grow with |z| drifts by up to 3e6x
    for seed in range(4):
        h, ref = _trig_reference(N, n, seed)
        errors = [
            compare(solve_factored(h, 3.0, 230, Z_max=Z_max).U_samples[-1], ref).phase_insensitive
            for Z_max in (0.5, 2.0, 10.0, 1e3)
        ]
        assert max(errors) / min(errors) <= 3.0, (seed, errors)


@pytest.mark.parametrize("N,n", _FIBER_SHAPES)
def test_est_error_reads_the_error_at_any_threshold_and_grid(N, n):
    # est_error compares each pair of steps with one Magnus step of 2 dt on
    # the same three nodes: it reads the U error within 0.5% at every
    # threshold and step count, folds or none (0.999-1.001x measured)
    for seed in range(4):
        h, ref = _trig_reference(N, n, seed)
        for Z_max in (2.0, 10.0, 1e3):
            for steps in (115, 230, 460):
                res = solve_factored(h, 3.0, steps, Z_max=Z_max)
                err = compare(res.U_samples[-1], ref).phase_insensitive
                assert abs(res.est_error / err - 1.0) < 0.005, (seed, Z_max, steps)


def test_est_error_on_odd_grids_jumps_and_pieces():
    # the step doubling's edge cases.  An odd step count leaves the last step
    # without a pair: it counts half of the pair it forms with the step
    # before.  A jump at a pair's middle node (the breakpoint 1.5 is node 115
    # of 230) is not differenced across: that pair is skipped, and the
    # estimate still reads the error within 2% (0.992x measured; at 232 steps
    # the jump is at an even node).  On a piecewise-constant model each
    # Magnus step is exact within a piece, and so is D: est_error reads
    # roundoff.  A one-step grid has no pair, and reads nan; so does a grid
    # with a breakpoint inside a step
    h3 = trig_random(3, seed=1, scale=2.0)
    ref = _dop853(h3, 3.0)
    for steps in (115, 117, 231):
        res = solve_factored(h3, 3.0, steps)
        assert abs(res.est_error / compare(res.U_samples[-1], ref).phase_insensitive - 1.0) < 0.005, steps
    jump = BlockedHamiltonian(N=3, n=1, evaluator=lambda t: h3.matrix(t) * (2.0 if t >= 1.5 else 1.0), breakpoints=(1.5,))
    first = solve_ivp(lambda t, y: (-1j * (h3.matrix(t) @ y.reshape(3, 3))).ravel(), (0.0, 1.5),
                      np.eye(3, dtype=complex).ravel(), method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
    ref = solve_ivp(lambda t, y: (-2j * (h3.matrix(t) @ y.reshape(3, 3))).ravel(), (1.5, 3.0),
                    first, method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1].reshape(3, 3)
    for steps in (230, 232):
        res = solve_factored(jump, 3.0, steps, Z_max=2.0)
        assert abs(res.est_error / compare(res.U_samples[-1], ref).phase_insensitive - 1.0) < 0.02, steps
    # at 231 steps 1.5 is step 115's midpoint: that step crosses the jump
    # and is first order (error 1.4e-2), and the doubled step across the
    # same jump does not see it (the estimate read 0.10x), so est_error
    # reads nan, as for no estimate
    res = solve_factored(jump, 3.0, 231, Z_max=2.0)
    assert np.isnan(res.est_error) and compare(res.U_samples[-1], ref).phase_insensitive > 1e-2
    pieces, _ = _three_pieces()
    for steps in (88, 176, 352):
        assert solve_factored(pieces, 2.0, steps).est_error < 1e-12
    assert np.isnan(solve_factored(h3, 0.1, 1).est_error)


@pytest.mark.parametrize("N,n", _FIBER_SHAPES)
def test_solve_is_unitary_on_a_coarse_grid(N, n):
    # at 30 steps every U is still a product of unitary Magnus steps, so it
    # is unitary to roundoff however coarse the grid
    for seed in range(4):
        res = solve_factored(trig_random(N, n=n, seed=seed, scale=2.0), 3.0, 30, Z_max=2.0)
        defect = dagger(res.U_samples) @ res.U_samples - np.eye(N)
        assert np.max(np.linalg.norm(defect, axis=(-2, -1))) <= 1e-12, seed


def _three_pieces():
    """Four pieces of a piecewise-constant N = 4 model with breakpoints 0.5, 1.0 and 1.5."""
    rng = np.random.default_rng(5)
    starts = [0.0, 0.5, 1.0, 1.5]
    mats = [random_traceless_hermitian(rng, 4, 2.0) for _ in starts]
    return piecewise_constant(starts, mats), mats


@pytest.mark.parametrize("solver", [solve_factored, hierarchical_solve])
def test_breakpoints_on_the_grid_keep_fourth_order(solver):
    # the step that ends on a breakpoint reads the piece it leaves, the next
    # step the piece it enters; at 176 steps the grid misses t = 1.5 by an ulp.
    # Within a piece each Magnus step is exact, so U is exact to roundoff
    # (5.7e-15 measured) at every grid, where one step that straddled a jump
    # would leave an O(dt) error
    t_end = 2.0
    h, mats = _three_pieces()
    assert h.breakpoints == (0.5, 1.0, 1.5)
    ref = np.eye(4, dtype=complex)
    for M in mats:
        ref = expm(-0.5j * M) @ ref
    for steps in (88, 176, 352):
        assert compare(solver(h, t_end, steps).U_samples[-1], ref).phase_insensitive < 1e-13, steps


@pytest.mark.parametrize("steps", [88, 176])
@pytest.mark.parametrize("solver", [solve_factored, hierarchical_solve])
def test_breakpoints_on_the_grid_read_each_node_once(solver, steps):
    # 2S + 1 nodes plus one fresh start node after each of the three
    # breakpoints; the step ending on a breakpoint reads the float below it,
    # and the next read is the breakpoint itself
    h, _ = _three_pieces()
    counted, times = _counted(h)
    solver(counted, 2.0, steps)
    assert len(times) == len(set(times)) == 2 * steps + 4
    for b in h.breakpoints:
        k = times.index(b)
        assert times[k - 1] == np.nextafter(b, -np.inf)


_invalid_models = pytest.mark.parametrize(
    "M",
    [np.array([[1.0, 2.0], [0.0, -1.0]]), np.diag([1.0, 2.0, 3.0]).astype(complex)],
    ids=["non_hermitian", "traceful"],
)


@_invalid_models
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


def test_mu_static_z():
    # mu = -H_NN t = -B3 t / 2, geometric part zero
    res = solve_factored(spin_half([0.0, 0.0, 1.0]), 3.0, 300)
    mu, geo, dyn = res.mu_total, res.phase_geometric, res.phase_dynamical
    assert np.max(np.abs(mu + res.times / 2.0)) < 1e-12
    assert np.max(np.abs(geo)) < 1e-13
    assert np.max(np.abs(dyn - mu)) < 1e-12


def test_mu_transverse_vanishes():
    # B = (1, 0, 0): V^H z is purely imaginary and H_NN = 0, so mu stays 0,
    # also across the two folds around the pole at t = pi, where U_NN = cos(t/2)
    # is 0: the chart's rate picks the principal value there
    res = solve_factored(spin_half([1.0, 0.0, 0.0]), 2.0 * np.pi, 500)
    assert len(res.restarts) == 2
    assert np.max(np.abs(res.mu_total)) < 1e-12
    assert np.max(np.abs(res.phase_geometric)) < 1e-12
    c, s = np.cos(res.times / 2.0), np.sin(res.times / 2.0)
    exact = c[:, None, None] * np.eye(2) + 1j * s[:, None, None] * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.max(np.abs(res.U_samples - exact)) < 1e-7  # U = exp(i t sigma_x / 2)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_phases_match_hierarchical_level0(N):
    # both solvers read level 0's phases from U by one reading
    # (_corner_phases), so the phases are equal
    h = trig_random(N, seed=8)
    direct = solve_factored(h, 1.5, 1000)
    hier = hierarchical_solve(h, 1.5, 1000)
    assert not direct.restarts and not hier.restarts
    for got, want in (
        (direct.mu_total, hier.level_mu[:, 0]),
        (direct.phase_geometric, hier.level_geo[:, 0]),
        (direct.phase_dynamical, hier.level_dyn[:, 0]),
    ):
        assert np.array_equal(got, want)


def test_level0_phases_do_not_depend_on_the_folds():
    # every level-0 phase is a reading of U, which the folds do not touch, so
    # at Z_max 2, 5 and 10 the four phases of both solvers equal a fold-free
    # solve's, bit for bit.  Before they were readings, the N 3 model's
    # mu_total read 0.70575 at Z_max 2 (2 folds) against -0.66707 fold-free
    folded = 0
    for N, seed in ((3, 2), (4, 1)):
        h = trig_random(N, seed=seed, scale=2.0)
        free = solve_factored(h, 3.0, 400, Z_max=np.inf)
        assert not free.restarts
        want = (free.mu_total, free.phase_geometric, free.phase_dynamical, free.imag_mu)
        for Z_max in (2.0, 5.0, 10.0):
            res = solve_factored(h, 3.0, 400, Z_max=Z_max)
            hier = hierarchical_solve(h, 3.0, 400, Z_max=Z_max)
            folded += len(res.restarts)
            got = (res.mu_total, res.phase_geometric, res.phase_dynamical, res.imag_mu)
            for a, b in zip(got + (hier.level_mu[:, 0], hier.level_geo[:, 0], hier.level_dyn[:, 0]), want + want):
                assert np.array_equal(a, b), (N, Z_max)
    assert folded >= 5
    h = trig_random(3, seed=2, scale=2.0)
    assert abs(solve_factored(h, 3.0, 400, Z_max=2.0).mu_total[-1] + 0.66707) < 1e-5


def test_level0_phases_are_fourth_order_across_folds():
    # at Z_max 2 (2 and 3 folds), every level-0 phase at every grid node,
    # against a 16x finer solve: halving dt cuts the error by 2^4
    for N, seed in ((3, 2), (4, 1)):
        h = trig_random(N, seed=seed, scale=2.0)

        def phases(steps):
            res = solve_factored(h, 3.0, steps, Z_max=2.0)
            assert len(res.restarts) >= 2
            return np.stack((res.mu_total, res.phase_geometric, res.phase_dynamical, res.imag_mu))

        fine = phases(16 * 400)
        errors = [np.max(np.abs(phases(s) - fine[:, :: 16 * 400 // s]), axis=1) for s in (100, 200, 400)]
        for coarse, finer in zip(errors, errors[1:]):
            assert np.all((8.0 < coarse / finer) & (coarse / finer < 32.0)), N


# every level's (mu, geometric, dynamical, trace) phase at t = 3 from the
# Simpson quadrature of the level Hamiltonians that the peel replaced, on
# fold-free runs (trig_random scale 1, T 3, 464 steps)
_QUADRATURE_PHASES = {
    (4, 1): [[0.392896405503, 1.7823951838476, -0.9890221073934],
             [0.513763148688, 1.6649058114072, -0.4521247425836],
             [-0.120866743185, 0.1174893724403, -0.5368973648099],
             [-0.130965468501, -0.8911975919238, 0.9890221073934]],
    (6, 0): [[0.1085967203401, -1.6922781675905, 0.9315149699936, 0.5121807927084, -0.1795105748919],
             [0.0688990185856, -1.2087059606684, 0.5666561030345, 0.2862211660327, -0.0512244213238],
             [0.0396977017545, -0.4835722069222, 0.3648588669591, 0.2259596266757, -0.1282861535681],
             [-0.021719344068, 0.4230695418976, -0.3105049899979, -0.2560903963542, 0.1795105748919]],
}


@pytest.mark.parametrize("N,seed", sorted(_QUADRATURE_PHASES))
def test_level_phases_match_the_quadrature_of_the_level_hamiltonians(N, seed):
    # with no fold, every level's readings of its operator equal the
    # integrals of its Hamiltonian's rates to well below the quadrature's
    # own error: within 1e-8 at every level (3.0e-9 measured)
    res = hierarchical_solve(trig_random(N, seed=seed, scale=1.0), 3.0, 464, Z_max=50.0)
    assert not res.level_restarts
    got = np.stack((res.level_mu[-1], res.level_geo[-1], res.level_dyn[-1], res.trace_phases[-1]))
    assert np.max(np.abs(got - np.array(_QUADRATURE_PHASES[N, seed]))) < 1e-8


def test_corner_phase_names_each_step_near_the_pole():
    # B = (1, 0, 0) on 501 steps to 2 pi: U_NN = cos(t/2) changes sign inside
    # step 250, across t = pi, where arg U_NN jumps by pi.  That step takes
    # the principal value, so mu stays 0, and both solvers name it; a
    # resolved step of a benchmark-like model is never near the pole
    h = spin_half([1.0, 0.0, 0.0])
    res = solve_factored(h, 2.0 * np.pi, 501)
    assert res.times[250] < np.pi < res.times[251]
    assert res.poles == [(res.times[250], 250, 0)]
    assert np.max(np.abs(res.mu_total)) < 1e-12
    assert hierarchical_solve(h, 2.0 * np.pi, 501).poles == res.poles
    res = hierarchical_solve(trig_random(6, seed=0, scale=2.0), 3.0, 130, Z_max=2.0)
    assert res.level_restarts and res.poles == []


def test_corner_phases_at_an_exactly_zero_corner():
    # a corner that is exactly 0 has no arg: both steps at it are named, each
    # takes no change (arg(-1) - arg(1) = pi is 0 mod pi), and Im mu reads
    # inf there with no RuntimeWarning
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    U = np.array([np.eye(2), 1j * sx, -np.eye(2)], dtype=complex)
    index = np.array([[0, 2], [1, 3], [2, 4]])
    phases = factorization._level0_phases(U, factorization._corner_phases(U, {}, index), np.array([0.0, 0.5, 1.0]))
    assert phases["poles"] == [(0.0, 0, 0), (0.5, 1, 0)]
    assert np.array_equal(phases["mu_total"], [0.0, 0.0, 0.0])
    assert np.array_equal(phases["imag_mu"], [-0.0, np.inf, -0.0])


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


@_invalid_models
def test_hierarchical_rejects_invalid_model(M):
    with pytest.raises(ModelError):
        hierarchical_solve(constant_hamiltonian(M), 1.0, 10)


@pytest.mark.parametrize("N,scale,folds", [(3, 0.5, False), (5, 0.5, False), (3, 2.0, True)])
def test_hierarchical_evaluates_each_node_once(N, scale, folds):
    # nodes t, t + dt/2 and t + dt per step, the first carried over from the
    # step before; a step retaken after a fold reuses its nodes
    counted, times = _counted(trig_random(N, seed=1, scale=scale))
    steps = 230
    res = hierarchical_solve(counted, 3.0, steps, Z_max=2.0)
    assert bool(res.restarts) == folds
    assert len(times) == 2 * steps + 1
    assert len(set(times)) == len(times)


@pytest.mark.parametrize("N", range(2, 9))
def test_hier_assemble_matches_nested_product(N, monkeypatch):
    # the peel assembles U as a nested product of its levels' factors: at
    # every node j of level k's segment from s, op_k(j) op_k(s)^H =
    # U1(z_k) blockdiag(op_{k+1}(j), c_k) to roundoff, with op_0 = U, the
    # next level's operator op_{k+1} the top block of level k's fiber and a
    # unit corner phase c_k; the innermost level's fiber is diagonal
    levels = []

    def search(op, *args):
        W, folds, starts = fold_search(op, *args)
        levels.append((op, W, starts))
        return W, folds, starts

    fold_search = factorization._fold_search
    monkeypatch.setattr(factorization, "_fold_search", search)
    monkeypatch.setattr(riccati, "_fold_search", search)  # level 0's, in riccati._integrate
    res = hierarchical_solve(trig_random(N, seed=1, scale=2.0), 3.0, 200, Z_max=2.0)
    assert len(levels) == N - 1 and res.level_restarts
    assert levels[0][0] is res.U_samples
    for k, (op, W, starts) in enumerate(levels):
        nodes = np.arange(len(op))
        s = np.array(starts)[np.searchsorted(starts, nodes, side="right") - 1]
        fiber = dagger(unitarized_U1(W[:, :-1])) @ op @ dagger(op[s])
        c = fiber[:, -1, -1]
        assert np.max(np.abs(np.abs(c) - 1.0)) < 1e-13
        inner = levels[k + 1][0] if k + 2 < N else np.diagonal(fiber, axis1=1, axis2=2)[:, :-1, None]
        want = np.zeros_like(fiber)
        want[:, :-1, :-1], want[:, -1, -1] = inner, c
        assert np.max(np.linalg.norm(fiber - want, axis=(-2, -1))) < 1e-13, k


def test_fold_search_reads_in_linear_time(monkeypatch):
    # every level reads z once per node, and a fold rereads at most the rest
    # of one window, which doubles from _WINDOW but stays below twice the
    # segment's length: S + F _WINDOW + 2 S readings in all, where reading
    # every segment to the end would cost F S.  With no fold each level reads
    # S nodes; then level 1 folds every few steps while level 0 stays at
    # z = 0; then every level folds
    read = {}

    def project(V):
        read[V.shape[-2]] = read.get(V.shape[-2], 0) + len(V)
        return project_(V)

    project_ = riccati._project
    monkeypatch.setattr(riccati, "_project", project)
    M = np.zeros((3, 3))
    M[0, 1] = M[1, 0] = 60.0
    runs = [
        (trig_random(4, seed=1, scale=0.5), 1.0, 2000, riccati.DEFAULT_Z_MAX),
        (constant_hamiltonian(M), 1.0, 2000, 2.0),
        (trig_random(4, seed=52, scale=3.0), 3.0, 240, 2.0),
    ]
    own = []
    for h, t_end, steps, Z_max in runs:
        read.clear()
        res = hierarchical_solve(h, t_end, steps, Z_max=Z_max)
        own.append([sum(level == k for _, level in res.level_restarts) for k in range(h.N - 1)])
        assert set(read) == {h.N - k for k in range(h.N - 1)}
        for k in range(h.N - 1):
            folds = sum(j <= k for j, count in enumerate(own[-1]) for _ in range(count))
            assert steps <= read[h.N - k] <= 3 * steps + folds * riccati._WINDOW, (k, read)
            if not folds:
                assert read[h.N - k] == steps
        if h.N == 3:
            assert np.all(res.z_samples == 0.0)
    assert own[0] == [0, 0, 0] and own[1][0] == 0 and own[1][1] > 50 and own[2] == [3, 3, 1]


def test_hierarchical_deeper_fold_behind_a_detected_fold():
    # level 0 folds at nodes 47, 148 and 188, where solve_factored folds.
    # Levels 1 and 2 restart at Z_max / 2, each read from the product after
    # the levels above it: level 2 folds at 30, before the folds of level 1
    # (33) and level 0 (47) that are handed down to it.  Each level restarts
    # alone (with the levels below it), and the shallower levels keep their
    # segments.  U is the product, which no fold touches: checked against
    # DOP853 (1.1e-8 measured; 1.6e-7 with a sweep per level)
    h = trig_random(4, seed=52, scale=3.0)
    steps, dt = 240, 3.0 / 240
    res = hierarchical_solve(h, 3.0, steps, Z_max=2.0)
    level0 = solve_factored(h, 3.0, steps, Z_max=2.0)
    assert [round(t / dt) for t, _ in level0.restarts] == [47, 148, 188]
    assert [round(t / dt) for t, _ in res.restarts] == [47, 148, 188]
    folds = [(round(t / dt), level) for t, level in res.level_restarts]
    assert folds == [(30, 2), (33, 1), (47, 0), (87, 1), (112, 1), (148, 0), (188, 0)]
    assert compare(res.U_samples[-1], _dop853(h, 3.0)).phase_insensitive < 2e-8
    assert max(frobenius(U @ dagger(U) - np.eye(4)) for U in res.U_samples) < 1e-12


_HIER_PEEL_SHAPES = [(3, 325), (4, 260), (6, 130), (8, 98)]


@pytest.mark.parametrize("N,steps", _HIER_PEEL_SHAPES)
def test_hierarchical_level0_folds_where_solve_factored_folds(N, steps):
    # only the level that folds restarts, with the levels below it, so level
    # 0 is solve_factored's reading: the same restart nodes and z, and its
    # phases, read from the same U, equal solve_factored's bit for bit
    folded = 0
    for seed in range(4):
        for harmonics in (1, 2, 3):
            h = trig_random(N, seed=seed, harmonics=harmonics, scale=2.0)
            hier = hierarchical_solve(h, 3.0, steps, Z_max=2.0)
            direct = solve_factored(h, 3.0, steps, Z_max=2.0)
            assert [t for t, _ in hier.restarts] == [t for t, _ in direct.restarts]
            assert [t for t, level in hier.level_restarts if level == 0] == [t for t, _ in direct.restarts]
            folded += len(direct.restarts)
            assert np.array_equal(hier.z_samples, direct.z_samples)
            assert np.array_equal(hier.level_mu[:, 0], direct.mu_total)
            assert np.array_equal(hier.level_geo[:, 0], direct.phase_geometric)
    assert folded >= 6


# hier_peel-shaped cases (N, seed, harmonics, steps) whose folds, by level,
# include these nodes on a 7-step edge
_EDGE_FOLDS = {(3, 1, 3, 325): [(203, 1), (252, 0)], (6, 2, 3, 130): [(63, 1), (98, 2)], (8, 2, 3, 98): [(35, 3)]}


@pytest.mark.parametrize("N,seed,harmonics,steps", sorted(_EDGE_FOLDS))
def test_hierarchical_pass_in_blocks_is_bit_identical(N, seed, harmonics, steps, monkeypatch):
    # the fibers read in blocks of 7 nodes, and the product builds 5 and 7
    # steps at a time, with folds on a 7-step edge: every output equals the
    # one-block solve bit for bit
    h = trig_random(N, seed=seed, harmonics=harmonics, scale=2.0)
    dt = 3.0 / steps
    whole = hierarchical_solve(h, 3.0, steps, Z_max=2.0)
    folds = [(round(t / dt), level) for t, level in whole.level_restarts]
    assert [(j, level) for j, level in folds if j % 7 == 0] == _EDGE_FOLDS[N, seed, harmonics, steps]
    monkeypatch.setattr(factorization, "_BLOCK", 7)
    for product_block in (5, 7):
        monkeypatch.setattr(riccati, "_BLOCK", product_block)
        blocked = hierarchical_solve(h, 3.0, steps, Z_max=2.0)
        for name in ("z_samples", "U_samples", "level_mu", "level_geo", "level_dyn", "trace_phases"):
            assert np.array_equal(getattr(whole, name), getattr(blocked, name)), (product_block, name)
        assert blocked.level_restarts == whole.level_restarts
        for (t, U), (t_b, U_b) in zip(whole.restarts, blocked.restarts, strict=True):
            assert t == t_b and np.array_equal(U, U_b)


def _five_pieces():
    """A piecewise-constant N = 5 model; of its breakpoints 1.5 and 2.25 lie on a 240-step grid to t = 3."""
    rng = np.random.default_rng(3)
    starts = [0.0, 0.7731, 1.5, 2.25]
    return piecewise_constant(starts, [random_traceless_hermitian(rng, 5, 3.0) for _ in starts])


def _refuse_level_hamiltonians(monkeypatch):
    """Make every level-Hamiltonian kernel raise: the solvers read phases from U alone."""

    def refused(*args):
        raise AssertionError("no solver builds a level Hamiltonian")

    for name in ("_peel_level", "_next_level", "effective_hamiltonian_hermitian"):
        monkeypatch.setattr(factorization, name, refused)
    monkeypatch.setattr(riccati, "_projective_rhs", refused)


def test_hierarchical_peels_each_distinct_node_once(monkeypatch):
    # each level reads its fiber (_fiber) once per grid node, and once more
    # at each segment end, from the operator it reached there: its own folds
    # and those of the levels above it.  No level builds a Hamiltonian, so a
    # breakpoint jump (1.5 and 2.25 are on the grid) adds no node
    h = _five_pieces()
    steps, dt = 240, 3.0 / 240
    rows = {}

    def counted(z, V):
        rows[z.shape[-2]] = rows.get(z.shape[-2], 0) + len(z)
        return fiber(z, V)

    fiber = factorization._fiber
    monkeypatch.setattr(factorization, "_fiber", counted)
    _refuse_level_hamiltonians(monkeypatch)
    res = hierarchical_solve(h, 3.0, steps, Z_max=2.0)
    folds = [(round(t / dt), level) for t, level in res.level_restarts]
    assert folds == [(67, 2), (88, 0), (189, 1), (236, 1)]
    for k in range(4):
        assert rows[4 - k] == steps + 1 + len([j for j, level in folds if level <= k])


def test_solve_with_peel_reads_level0_once_and_no_empty_segment_end(monkeypatch):
    # _solve(peel=True) reads level 0's corner phases once for both results,
    # so _corner_phases runs once per level, N - 1 times.  A level with no
    # segment end, its own or handed down, reads no segment-end fiber: no
    # _fiber call has zero rows, fold-free or folding at every level
    calls, rows = [], []
    corner_phases, fiber = factorization._corner_phases, factorization._fiber
    monkeypatch.setattr(factorization, "_corner_phases", lambda *a: calls.append(1) or corner_phases(*a))
    monkeypatch.setattr(factorization, "_fiber", lambda z, V: rows.append(len(z)) or fiber(z, V))
    for h, Z_max, folds in ((trig_random(4, seed=8), 10.0, 0), (_five_pieces(), 2.0, 4)):
        calls.clear()
        rows.clear()
        factored, hier = factorization._solve(h, 3.0, 240, Z_max, peel=True)
        assert len(hier.level_restarts) == folds
        assert len(calls) == h.N - 1
        # one _frames block per level and one for U2, and one segment-end call per level that has one
        assert 0 not in rows and len(rows) == h.N + (h.N - 1 if folds else 0)


@pytest.mark.parametrize("block", [7, 2048])
@pytest.mark.parametrize("n", [1, 2])
def test_solve_evaluates_the_fiber_kernel_once_per_distinct_node(n, block, monkeypatch):
    # the fiber kernel (_fiber) reads each grid node once, in blocks of any
    # size, folds and breakpoint jumps included, and for n = 1 the phases
    # read U alone: no level Hamiltonian, no node pass
    h = _five_pieces()
    h = BlockedHamiltonian(N=5, n=n, evaluator=h.evaluator, breakpoints=h.breakpoints)
    fiber, rows = factorization._fiber, []

    def counted(z, V):
        rows.append(len(z))
        return fiber(z, V)

    monkeypatch.setattr(factorization, "_fiber", counted)
    _refuse_level_hamiltonians(monkeypatch)
    monkeypatch.setattr(factorization, "_BLOCK", block)
    steps = 240
    res = solve_factored(h, 3.0, steps, Z_max=2.0)
    assert res.restarts
    assert sum(rows) == steps + 1
    assert len(rows) == -(-(steps + 1) // block)  # one batched call per block
    assert (res.mu_total is not None) == (n == 1)


@pytest.mark.parametrize("N", [3, 4, 6])
def test_hierarchical_is_fourth_order_in_U_across_folds(N):
    # each level steps alone and the next reads its H from the batched peel:
    # halving dt still cuts the U error by ~2^4, folds included
    h = trig_random(N, seed=3, scale=2.0)
    ref = _dop853(h, 3.0)
    errors = []
    for steps in (115, 230, 460):
        res = hierarchical_solve(h, 3.0, steps, Z_max=2.0)
        assert res.restarts
        errors.append(compare(res.U_samples[-1], ref).phase_insensitive)
    for coarse, fine in zip(errors, errors[1:]):
        assert 8.0 < coarse / fine < 32.0


@pytest.mark.parametrize("N", [3, 6])
def test_hierarchical_level_phases_are_fourth_order(N):
    # every level's mu, geometric, dynamical and trace phase, read from its
    # operator, over all grid nodes, against a 16x finer solve
    h = trig_random(N, seed=8, scale=1.0)

    def phases(steps):
        res = hierarchical_solve(h, 1.5, steps, Z_max=50.0)
        assert not res.restarts
        return np.stack((res.level_mu, res.level_geo, res.level_dyn, res.trace_phases))

    fine = phases(16 * 200)
    # one error per phase and level
    errors = [np.max(np.abs(phases(s) - fine[:, :: 16 * 200 // s]), axis=1) for s in (50, 100, 200)]
    for coarse, finer in zip(errors, errors[1:]):
        assert np.all((8.0 < coarse / finer) & (coarse / finer < 32.0))


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
    ora = propagate(h, 1.0, 3000)
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


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("N,n", [(4, 1), (4, 2), (6, 1), (6, 3)])
def test_solve_factored_covariant_under_block_diagonal_unitary(N, n, seed):
    # a constant W = blockdiag(W1, W2) maps H to W H W^H, z to W1 z W2^H and U
    # to W U W^H, and keeps ||z||_F, so the folds land on the same steps.  The
    # SVD-basis fiber must not depend on the basis: 48 fixed cases at 115 steps
    # deviated by at most 3.8e-14, a slip in a basis rotation by O(1)
    rng = np.random.default_rng(seed)
    h = trig_random(N, n=n, seed=seed % 1000, scale=2.0)
    W = blockdiag(*(np.linalg.qr(_random_z(rng, k, k))[0] for k in (N - n, n)))
    hw = BlockedHamiltonian(N=N, n=n, evaluator=lambda t: W @ h.matrix(t) @ dagger(W))
    a = solve_factored(h, 3.0, 115, Z_max=2.0)
    b = solve_factored(hw, 3.0, 115, Z_max=2.0)
    assert [t for t, _ in a.restarts] == [t for t, _ in b.restarts]
    assert np.max(np.linalg.norm(W @ a.U_samples @ dagger(W) - b.U_samples, axis=(-2, -1))) < 1e-12


def _count_decompositions(monkeypatch, N, n, steps, Z_max, block=50):
    """The solve's fold nodes and the shapes of its np.linalg.svd calls, with no eigh or eigvalsh call.

    The grid resolves every step, so the norm bound certifies each Magnus
    step of the product, run in blocks of ``block`` steps, and est_error's
    doubled steps take no guard: no step needs a decomposition.
    """
    calls = {"svd": [], "eigh": [], "eigvalsh": []}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    monkeypatch.setattr(factorization, "_BLOCK", block)
    monkeypatch.setattr(riccati, "_BLOCK", block)
    res = solve_factored(trig_random(N, n=n, seed=3, scale=2.0), 3.0, steps, Z_max=Z_max)
    folds = [round(t * steps / 3.0) for t, _ in res.restarts]
    assert folds and np.isfinite(res.est_error)
    assert calls["eigh"] == calls["eigvalsh"] == []
    return folds, calls["svd"]


@pytest.mark.parametrize("N,steps", [(4, 115), (6, 230)])
def test_solve_decompositions_per_step_for_half_split(N, steps, monkeypatch):
    # n = N/2: the product and est_error take no eigendecomposition; the
    # folds take none; then one batched SVD per 50 nodes for U1, evaluated
    # once per node
    n = N // 2
    _, svd = _count_decompositions(monkeypatch, N, n, steps, 2.0)
    assert svd == [(min(50, steps + 1 - a), n, n) for a in range(0, steps + 1, 50)]


@pytest.mark.parametrize("N", [2, 3])
def test_solve_decompositions_per_step_for_block_size_one(N, monkeypatch):
    # n = 1: no eigendecomposition either, and no SVD
    assert _count_decompositions(monkeypatch, N, 1, 115, 1.0)[1] == []


@pytest.mark.parametrize("N,n", [(3, 1), (4, 2), (6, 2)])
def test_batched_pass_in_blocks_is_bit_identical(N, n, monkeypatch):
    # est_error's sum and the fiber run in blocks of 7 across block edges and
    # folds, so every output equals the one-block pass bit for bit;
    # the product builds 5 steps at a time, across other edges, and 7, with
    # the folds at these nodes on its edges
    edge_folds = {(3, 1): [], (4, 2): [63], (6, 2): [56, 112, 161]}[N, n]
    h = trig_random(N, n=n, seed=1, scale=2.0)
    whole = solve_factored(h, 3.0, 230, Z_max=2.0)
    nodes = [round(t * 230 / 3.0) for t, _ in whole.restarts]
    assert len(nodes) >= 2 and [k for k in nodes if k % 7 == 0] == edge_folds
    monkeypatch.setattr(factorization, "_BLOCK", 7)
    for product_block in (5, 7):
        monkeypatch.setattr(riccati, "_BLOCK", product_block)
        blocked = solve_factored(h, 3.0, 230, Z_max=2.0)
        names = ("z_samples", "U_samples", "U2_samples", "est_error", "mu_total", "phase_geometric", "imag_mu")
        for name in names:
            assert np.array_equal(getattr(whole, name), getattr(blocked, name)), (product_block, name)
        for (t, U), (t_b, U_b) in zip(whole.restarts, blocked.restarts, strict=True):
            assert t == t_b and np.array_equal(U, U_b)
