import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from unitint import factorization, riccati
from unitint.factorization import (
    UnsupportedConfigurationError,
    _hier_assemble,
    _corner_node,
    _magnus4,
    _node_states,
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
from unitint.riccati import _projective_rhs, riccati_rhs, so5_z_matrix


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
    # a stack of blocks (a stack of one included) takes one batched eigh and
    # equals the block-by-block steps
    rng = np.random.default_rng(10 * n + count)
    G = rng.standard_normal((3, count, n, n)) + 1j * rng.standard_normal((3, count, n, n))
    He = (G + dagger(G)) / 2.0  # He at t, t + dt/2 and t + dt for each block
    dt = 0.3
    stacked = _magnus4(*He, dt)
    unitary = _unitary_step(He[0], dt)
    assert stacked.shape == unitary.shape == (count, n, n)
    for k in range(count):
        assert np.max(np.abs(stacked[k] - _magnus4(*He[:, k], dt))) <= 1e-15
        assert np.max(np.abs(unitary[k] - _unitary_step(He[0, k], dt))) <= 1e-15
        assert frobenius(unitary[k] - expm(-1j * dt * He[0, k])) < 1e-13


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
    rates, H_next = _peel_level(Htop, V[:, 0], H[m, m], z[:, 0])
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
    rates, H_next = _peel_level(H[..., :m, :m], H[..., :m, m], H[..., m, m], z)
    for i, j in np.ndindex(3, width):
        Hn, zn = H[i, j], z[i, j]
        one_rates, one_next = _peel_level(Hn[:m, :m], Hn[:m, m], Hn[m, m], zn)
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
def test_corner_node_fiber_matches_effective_hamiltonian(seed, N, radius):
    # the n = 1 fiber blocks solve_factored reads from _peel_level
    rng = np.random.default_rng(seed)
    H = random_traceless_hermitian(rng, N, 3.0)
    m = N - 1
    blocks = (H[:m, :m], H[:m, m:], H[m:, m:])
    z = _random_z(rng, m)
    z *= radius / frobenius(z)
    (upper, lower), _ = _corner_node(blocks, z)
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
    # Z_max 2 folds several times; Z_max 50 folds rarely.  U agrees at every
    # sample within the fourth-order error (16x per halving), each restart
    # record is U_samples at its node, and the cumulative phases carry over:
    # a step moves them by under 0.1 here, while a lost segment offset jumps
    # by the phase that segment reached (Im mu alone gains ln(1 + 2^2) = 1.6).
    h = trig_random(N, n=n, seed=2, scale=2.0)
    phase_names = {
        solve_factored: ("mu_total", "phase_geometric", "imag_mu"),
        hierarchical_solve: ("level_mu", "level_geo", "trace_phases"),
    }[solver]
    errors = []
    for steps in (230, 460):
        folded = solver(h, 3.0, steps, Z_max=2.0)
        assert folded.restarts
        for t, U in folded.restarts:
            assert frobenius(U - folded.U_samples[np.searchsorted(folded.times, t)]) < 1e-14
        if n == 1:
            phases = np.column_stack([getattr(folded, name) for name in phase_names])
            assert np.max(np.abs(np.diff(phases, axis=0))) < 0.2
        plain = solver(h, 3.0, steps, Z_max=50.0)
        errors.append(np.linalg.norm(folded.U_samples - plain.U_samples, axis=(1, 2)).max())
    assert errors[1] < 2e-6
    assert errors[0] / errors[1] > 8.0


@pytest.mark.parametrize("N", [3, 4])
def test_imaginary_mu_closure_per_segment(N):
    # each segment starts from z = 0, so Im mu gains ln(1 + |z|^2) from the
    # value it had at the segment's first node
    res = solve_factored(trig_random(N, seed=2, scale=2.0), 3.0, 230, Z_max=2.0)
    assert len(res.restarts) >= 2
    starts = np.concatenate(([0], np.searchsorted(res.times, [t for t, _ in res.restarts])))
    start = starts[np.searchsorted(starts, np.arange(len(res.times)), side="right") - 1]
    gained = np.log1p(np.sum(np.abs(res.z_samples) ** 2, axis=(1, 2)))
    assert np.max(np.abs(res.imag_mu - res.imag_mu[start] - gained)) < 1e-6


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
    # RK4 base, Magnus fiber, restarts included: halving dt cuts the U error
    # by ~2^4, and est_error stays within 10x of it
    h = trig_random(N, n=n, seed=3, scale=2.0)
    ref = _dop853(h, 3.0)
    errors = []
    for steps in (115, 230, 460):
        res = solve_factored(h, 3.0, steps, Z_max=2.0)
        assert res.restarts
        err = compare(res.U_samples[-1], ref).phase_insensitive
        assert err / 10.0 < res.est_error < 10.0 * err
        errors.append(err)
    for coarse, fine in zip(errors, errors[1:]):
        assert 8.0 < coarse / fine < 32.0


def _three_pieces():
    """Four pieces of a piecewise-constant N = 4 model with breakpoints 0.5, 1.0 and 1.5."""
    rng = np.random.default_rng(5)
    starts = [0.0, 0.5, 1.0, 1.5]
    mats = [random_traceless_hermitian(rng, 4, 2.0) for _ in starts]
    return piecewise_constant(starts, mats), mats


@pytest.mark.parametrize("solver", [solve_factored, hierarchical_solve])
def test_breakpoints_on_the_grid_keep_fourth_order(solver):
    # the step that ends on a breakpoint reads the piece it leaves, the next
    # step the piece it enters; at 176 steps the grid misses t = 1.5 by an ulp
    t_end = 2.0
    h, mats = _three_pieces()
    assert h.breakpoints == (0.5, 1.0, 1.5)
    ref = np.eye(4, dtype=complex)
    for M in mats:
        ref = expm(-0.5j * M) @ ref
    errors = [
        compare(solver(h, t_end, steps).U_samples[-1], ref).phase_insensitive
        for steps in (88, 176, 352)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 8.0 < coarse / fine < 32.0


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
    # both solvers read the rates from _peel_level but integrate them differently
    h = trig_random(N, seed=8)
    direct = solve_factored(h, 1.5, 1000)
    hier = hierarchical_solve(h, 1.5, 1000)
    assert not direct.restarts and not hier.restarts
    for got, want in (
        (direct.mu_total, hier.level_mu[:, 0]),
        (direct.phase_geometric, hier.level_geo[:, 0]),
        (direct.phase_dynamical, hier.level_dyn[:, 0]),
    ):
        assert np.max(np.abs(got - want)) < 1e-7


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


def _nested_assembly(zs, phases, accums=None):
    """U1(z_k) blockdiag(e^{i phi_k} U, e^{i mu_k}) A_k, innermost level first."""
    mu, _, phi = phases
    U = np.ones((1, 1), dtype=complex)
    for k in range(len(zs) - 1, -1, -1):
        z = zs[k].reshape(-1, 1)
        U = unitarized_U1(z) @ blockdiag(np.exp(1j * phi[k]) * U, np.exp(1j * mu[k]))
        if accums is not None and accums[k] is not None:
            U = U @ accums[k]
    return U


@pytest.mark.parametrize("N", range(2, 9))
def test_hier_assemble_matches_nested_product(N, monkeypatch):
    rng = np.random.default_rng(N)
    zs = []
    for m in range(N - 1, 0, -1):
        z = _random_z(rng, m)[:, 0]
        zs.append(z * (rng.uniform(0.0, 10.0) / frobenius(z)))
    states = [(zs, rng.uniform(-np.pi, np.pi, 3 * (N - 1)).reshape(3, N - 1), None)]

    # and every state the peel reaches where a level folds, with the
    # accumulators of that level and the levels below it
    def assemble(zs, phases, accums=None):
        if np.ndim(phases) == 2:  # one state, not a block of samples
            states.append(([z.copy() for z in zs], phases.copy(), [A.copy() for A in accums]))
        return _hier_assemble(zs, phases, accums)

    monkeypatch.setattr(factorization, "_hier_assemble", assemble)
    res = hierarchical_solve(trig_random(N, seed=1, scale=2.0), 3.0, 200, Z_max=2.0)
    assert len(states) == 1 + len(res.level_restarts) > 1
    for zs, phases, accums in states:
        U = _hier_assemble(zs, phases, accums)
        assert frobenius(U - _nested_assembly(zs, phases, accums)) < 1e-13
        assert frobenius(U @ dagger(U) - np.eye(len(U))) < 1e-13


def test_hierarchical_sweeps_each_level_in_linear_time(monkeypatch):
    # One rk4_step steps the levels of the stacked frame that have steps to
    # take in a round, level k + 1 a round of _CHUNK steps behind level k.
    # Each level of the frame is named by its first nonzero row of K (a held
    # level's K is zero).  With no fold, every level takes each of its S
    # steps once, and the pipeline fills once: S + (L - 1) _CHUNK batched
    # steps.  Then level 1 folds every few steps while level 0 stays at
    # z = 0: a fold restarts level 1 alone and the round sweeps again from
    # the fold's step, so a fold costs at most the rest of one round, and a
    # solve of F folds takes at most S + (L - 1 + F) _CHUNK batched steps
    calls, moved = [0], np.zeros(3, int)

    def rk4_step(f, y, dt, k1, x_mid, x_end):
        calls[0] += 1
        for K in x_mid:
            rows = np.flatnonzero(np.any(K != 0.0, axis=-1))
            moved[rows[:1]] += 1
        return step(f, y, dt, k1, x_mid, x_end)

    step = factorization.rk4_step
    monkeypatch.setattr(factorization, "rk4_step", rk4_step)
    steps = 2000
    res = hierarchical_solve(trig_random(4, seed=1, scale=0.5), 1.0, steps)
    assert not res.level_restarts
    assert list(moved) == [steps] * 3 and calls[0] == steps + 2 * factorization._CHUNK

    M = np.zeros((3, 3))
    M[0, 1] = M[1, 0] = 60.0
    calls[0], moved[:] = 0, 0
    res = hierarchical_solve(constant_hamiltonian(M), 1.0, steps, Z_max=2.0)
    folds = len(res.level_restarts)
    assert folds > 50 and not res.restarts
    assert {level for _, level in res.level_restarts} == {1}
    assert np.all(res.z_samples == 0.0)
    assert steps < moved[:2].min() and moved[:2].max() <= calls[0] <= steps + (1 + folds) * factorization._CHUNK


def test_hierarchical_deeper_fold_behind_a_detected_fold():
    # level 0 folds at nodes 47, 148 and 188, where solve_factored folds.
    # Levels 1 and 2 restart at Z_max / 2 and sweep one and two rounds
    # behind level 0, so one round finds level 1's fold at 33, level 2's at
    # 30 and level 0's at 47 and sweeps again from each fold's step in
    # turn: each level restarts alone (with the levels below it), and the
    # shallower levels keep stepping.  Checked against DOP853
    h = trig_random(4, seed=52, scale=3.0)
    steps, dt = 240, 3.0 / 240
    res = hierarchical_solve(h, 3.0, steps, Z_max=2.0)
    level0 = solve_factored(h, 3.0, steps, Z_max=2.0)
    assert [round(t / dt) for t, _ in level0.restarts] == [47, 148, 188]
    assert [round(t / dt) for t, _ in res.restarts] == [47, 148, 188]
    folds = [(round(t / dt), level) for t, level in res.level_restarts]
    assert folds == [(30, 2), (33, 1), (47, 0), (87, 1), (112, 1), (148, 0), (188, 0)]
    assert compare(res.U_samples[-1], _dop853(h, 3.0)).phase_insensitive < 1e-6
    assert max(frobenius(U @ dagger(U) - np.eye(4)) for U in res.U_samples) < 1e-12


_HIER_PEEL_SHAPES = [(3, 325), (4, 260), (6, 130), (8, 98)]


@pytest.mark.parametrize("N,steps", _HIER_PEEL_SHAPES)
def test_hierarchical_level0_folds_where_solve_factored_folds(N, steps):
    # only the level that folds restarts, with the levels below it, so level
    # 0 steps as solve_factored's z does: the same restart nodes, and its
    # phases, summed over its segments, match solve_factored's across folds
    folded = 0
    for seed in range(4):
        for harmonics in (1, 2, 3):
            h = trig_random(N, seed=seed, harmonics=harmonics, scale=2.0)
            hier = hierarchical_solve(h, 3.0, steps, Z_max=2.0)
            direct = solve_factored(h, 3.0, steps, Z_max=2.0)
            assert [t for t, _ in hier.restarts] == [t for t, _ in direct.restarts]
            assert [t for t, level in hier.level_restarts if level == 0] == [t for t, _ in direct.restarts]
            folded += len(direct.restarts)
            for got, want in ((hier.level_mu[:, 0], direct.mu_total), (hier.level_geo[:, 0], direct.phase_geometric)):
                assert np.max(np.abs(got - want)) < 1e-7
    assert folded >= 6


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 8), radius=st.floats(0.0, 30.0))
def test_peel_level_in_the_level_frame(seed, N, radius):
    # every level of a peel placed in one (N - 1) frame, its H at [k:, k:]
    # and z_k below k zeros, with its rows as the mask: one call gives each
    # level's own _peel_level, its H_next padded with zeros
    rng = np.random.default_rng(seed)
    L = N - 1
    frame_H = np.zeros((L, N, N), complex)
    frame_z = np.zeros((L, L), complex)
    for k in range(L):
        frame_H[k, k:, k:] = random_traceless_hermitian(rng, N - k, 3.0)
        z = rng.standard_normal(L - k) + 1j * rng.standard_normal(L - k)
        frame_z[k, k:] = z * rng.uniform(0.0, radius) / np.linalg.norm(z)
    levels = np.arange(L)
    mask = levels >= levels[:, None]
    H = frame_H
    rates, H_next = _peel_level(H[:, :-1, :-1], H[:, :-1, -1], H[:, -1, -1], frame_z, mask)
    for k in range(L):
        Hk, zk = frame_H[k, k:, k:], frame_z[k, k:]
        one_rates, one_next = _peel_level(Hk[:-1, :-1], Hk[:-1, -1], Hk[-1, -1], zk)
        scale = frobenius(Hk) * (1.0 + radius) ** 2
        assert np.all(H_next[k, :k] == 0.0) and np.all(H_next[k, :, :k] == 0.0)
        assert frobenius(H_next[k, k:, k:] - one_next) <= 1e-14 * scale
        assert np.allclose(np.array(rates)[:, k], np.array(one_rates), rtol=1e-14, atol=1e-14 * scale)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(2, 6),
    split=st.floats(0.0, 1.0),
    width=st.integers(1, 4),
    radius=st.floats(0.0, 30.0),
)
def test_node_states_over_stacked_axes(seed, N, split, width, radius):
    # a (steps, 2) stack of steps of a projective sweep W = [z; I_n]: f at the
    # start and end node is riccati_rhs on the z rows and exactly zero on the
    # I_n rows, the ends are W itself, and the midpoint is the cubic Hermite
    # point of the two ends and their slopes, with its I_n rows exactly I_n
    rng = np.random.default_rng(seed)
    n = 1 + int(split * (N - 2))
    m, dt = N - n, 0.1
    H = np.array([random_traceless_hermitian(rng, N, 3.0) for _ in range(3 * width * 2)])
    H = H.reshape(3, width, 2, N, N)
    z = rng.standard_normal((width + 1, 2, m, n)) + 1j * rng.standard_normal((width + 1, 2, m, n))
    z *= rng.uniform(0.0, radius, (width + 1, 2, 1, 1)) / np.linalg.norm(z, axis=(-2, -1), keepdims=True)
    W = np.concatenate((z, np.broadcast_to(np.eye(n), z.shape[:-2] + (n, n))), axis=-2)
    W3, (f_a, f_b) = _node_states(-1j * H, W[:-1], W[1:], dt)
    assert np.array_equal(W3[0], W[:-1]) and np.array_equal(W3[2], W[1:])
    assert np.all(f_a[..., m:, :] == 0.0) and np.all(f_b[..., m:, :] == 0.0)
    assert np.all(W3[1, ..., m:, :] == np.eye(n))
    for j, e in np.ndindex(width, 2):
        slopes = [riccati_rhs(_blocks(H[i, j, e], n), z[j + k, e]) for i, k in ((0, 0), (2, 1))]
        scale = frobenius(H[:, j, e]) * (1.0 + radius) ** 2
        for got, want in zip((f_a[j, e, :m], f_b[j, e, :m]), slopes):
            assert frobenius(got - want) <= 1e-13 * scale
        # the Hermite basis at s = 1/2: h00 = h01 = 1/2, h10 = -h11 = 1/8
        hermite = 0.5 * z[j, e] + 0.125 * dt * slopes[0] + 0.5 * z[j + 1, e] - 0.125 * dt * slopes[1]
        assert frobenius(W3[1, j, e, :m] - hermite) <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 6), radius=st.floats(0.0, 30.0))
def test_node_states_keep_the_level_frame(seed, N, radius):
    # every level of a peel in one N x N frame, its H at [k:, k:] and its
    # state [0_k; z_k; 1]: the k zero rows stay exactly zero at all three
    # nodes and in f, and each level's rows are its own node states
    rng = np.random.default_rng(seed)
    L, dt = N - 1, 0.1
    H = np.zeros((3, 2, L, N, N), complex)
    W = np.zeros((3, L, N, 1), complex)
    W[..., -1, 0] = 1.0
    for k in range(L):
        for i, j in np.ndindex(3, 2):
            H[i, j, k, k:, k:] = random_traceless_hermitian(rng, N - k, 3.0)
        zk = rng.standard_normal((3, L - k)) + 1j * rng.standard_normal((3, L - k))
        W[:, k, k:-1, 0] = zk * rng.uniform(0.0, radius) / np.linalg.norm(zk, axis=-1, keepdims=True)
    W3, f = _node_states(-1j * H, W[:-1], W[1:], dt)
    for k in range(L):
        assert np.all(W3[:, :, k, :k] == 0.0) and np.all(f[:, :, k, :k] == 0.0)
        one, one_f = _node_states(-1j * H[:, :, k, k:, k:], W[:-1, k, k:], W[1:, k, k:], dt)
        scale = frobenius(H[:, :, k]) * (1.0 + radius) ** 2
        assert frobenius(W3[:, :, k, k:] - one) <= 1e-14 * scale
        assert frobenius(f[:, :, k, k:] - one_f) <= 1e-14 * scale


def test_hierarchical_rounds_of_any_length_agree(monkeypatch):
    # rounds of 1, 3 and 8 steps cut every window at other nodes, and the
    # levels fold inside a round of 3 or 8: each level writes its z and phase
    # increments at their grid nodes, so the solves agree
    h = trig_random(4, seed=52, scale=3.0)
    steps, dt = 240, 3.0 / 240
    runs = []
    for chunk in (1, 3, 8):
        monkeypatch.setattr(factorization, "_CHUNK", chunk)
        runs.append(hierarchical_solve(h, 3.0, steps, Z_max=2.0))
    starts = [0] + [round(t / dt) for t, _ in runs[0].restarts]
    assert len(starts) > 3 and any((b - a) % 3 and (b - a) % 8 for a, b in zip(starts, starts[1:]))
    names = ("U_samples", "z_samples", "level_mu", "level_geo", "trace_phases")
    for res in runs[1:]:
        assert [t for t, _ in res.restarts] == [t for t, _ in runs[0].restarts]
        for (_, A), (_, B) in zip(res.restarts, runs[0].restarts):
            assert np.max(np.abs(A - B)) <= 1e-12
        for name in names:
            assert np.max(np.abs(getattr(res, name) - getattr(runs[0], name))) <= 1e-12, name


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
    # every level's mu, geometric and trace phase by Simpson's rule on the
    # cascade's nodes, over all grid nodes, against a 16x finer solve
    h = trig_random(N, seed=8, scale=1.0)

    def phases(steps):
        res = hierarchical_solve(h, 1.5, steps, Z_max=50.0)
        assert not res.restarts
        return np.stack((res.level_mu, res.level_geo, res.trace_phases))

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


def _count_decompositions(monkeypatch, N, n, steps, Z_max):
    """The solve's folds and the shapes of its np.linalg.svd and eigh calls."""
    calls = {"svd": [], "eigh": []}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    res = solve_factored(trig_random(N, n=n, seed=3, scale=2.0), 3.0, steps, Z_max=Z_max)
    folds = len(res.restarts)
    assert folds >= 1
    windows = [shape[0] for shape in calls["eigh"]]
    assert calls["eigh"] == [(w, N, N) for w in windows]
    assert len(windows) == 1 + folds and sum(windows) == steps
    return folds, windows, calls["svd"]


@pytest.mark.parametrize("N,steps", [(4, 115), (6, 230)])
def test_solve_decompositions_per_step_for_half_split(N, steps, monkeypatch):
    # n = N/2: per segment between folds, one batched SVD (the three node sets
    # of its steps) and one batched N x N eigh (the fiber blockdiag(upper,
    # lower) of its steps), the segments' steps summing to the grid; one more
    # SVD for each fold's segment U1 and one for the U1 of all samples at once
    n = N // 2
    folds, windows, svd = _count_decompositions(monkeypatch, N, n, steps, 2.0)
    assert svd[: 1 + folds] == [(3, w, n, n) for w in windows]
    assert svd[1 + folds :] == [(n, n)] * folds + [(steps + 1, n, n)]


@pytest.mark.parametrize("N", [2, 3])
def test_solve_decompositions_per_step_for_block_size_one(N, monkeypatch):
    # n = 1: the same one batched N x N eigh per segment, and no SVD
    assert _count_decompositions(monkeypatch, N, 1, 115, 1.0)[2] == []


@pytest.mark.parametrize("N,n", [(3, 1), (4, 2), (6, 2)])
def test_batched_pass_in_blocks_is_bit_identical(N, n, monkeypatch):
    # blocks of 7 steps carry the running product and the sums across block
    # edges and folds, so every output equals the one-block pass bit for bit;
    # the sweep gathers 5 steps at a time, across other edges, and 7, where
    # the folds at these nodes retake the first step of a gathered block
    edge_folds = {(3, 1): [], (4, 2): [63], (6, 2): [56, 112, 161]}[N, n]
    h = trig_random(N, n=n, seed=1, scale=2.0)
    whole = solve_factored(h, 3.0, 230, Z_max=2.0)
    nodes = [round(t * 230 / 3.0) for t, _ in whole.restarts]
    assert len(nodes) >= 2 and [k for k in nodes if k % 7 == 0] == edge_folds
    monkeypatch.setattr(factorization, "_BLOCK", 7)
    for sweep_block in (5, 7):
        monkeypatch.setattr(riccati, "_BLOCK", sweep_block)
        blocked = solve_factored(h, 3.0, 230, Z_max=2.0)
        names = ("z_samples", "U_samples", "U2_samples", "est_error", "mu_total", "phase_geometric", "imag_mu")
        for name in names:
            assert np.array_equal(getattr(whole, name), getattr(blocked, name)), (sweep_block, name)
        for (t, U), (t_b, U_b) in zip(whole.restarts, blocked.restarts, strict=True):
            assert t == t_b and np.array_equal(U, U_b)
