import numpy as np
import pytest

from unitint.hamiltonian import (
    ModelError,
    _so5_kron_form,
    build_so5,
    constant_hamiltonian,
    from_config,
    piecewise_constant,
    rotating_spin_half,
    so5_blocks_from_formula,
    so5_coefficients,
    so5_matrix,
    spin_half,
    trig_random,
)
from unitint.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    frobenius,
    is_hermitian,
    is_traceless,
)


def _random_F(rng, scale=1.0):
    A = rng.standard_normal((5, 5)) * scale
    return A - A.T


def test_spin_half_static_z():
    h = spin_half([0.0, 0.0, 1.0])
    Htop, V, Hbot = h.blocks_at(0.3)
    assert np.allclose(Htop, [[-0.5]])
    assert np.allclose(V, [[0.0]])
    assert np.allclose(Hbot, [[0.5]])


def test_spin_half_transverse():
    h = spin_half([1.0, 0.0, 0.0])
    assert np.allclose(h.matrix(0.0), -0.5 * SIGMA_X)
    _, V, _ = h.blocks_at(0.0)
    assert np.allclose(V, [[-0.5]])


def test_rotating_spin_half_field():
    h = rotating_spin_half(B0=1.0, B1=0.5, omega=2.0)
    t = 0.7
    B = np.array([0.5 * np.cos(2 * t), 0.5 * np.sin(2 * t), 1.0])
    expected = -0.5 * (B[0] * SIGMA_X + B[1] * SIGMA_Y + B[2] * SIGMA_Z)
    assert np.allclose(h.matrix(t), expected, atol=1e-14)


def test_blocks_reassemble_exactly():
    h = trig_random(5, n=2, seed=3)
    M = h.matrix(0.4)
    Htop, V, Hbot = h.blocks_at(0.4)
    rebuilt = np.block([[Htop, V], [dagger(V), Hbot]])
    # slicing must be bit-exact, not merely close
    assert np.array_equal(rebuilt, M)


def test_blocks_at_rejects_nonhermitian():
    bad = constant_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ModelError, match="Hermitian"):
        bad.blocks_at(0.0)


def test_blocks_at_rejects_trace():
    bad = constant_hamiltonian(np.eye(2, dtype=complex))
    with pytest.raises(ModelError, match="traceless"):
        bad.blocks_at(0.0)


def test_block_size_bounds():
    with pytest.raises(ModelError):
        constant_hamiltonian(np.zeros((3, 3), dtype=complex), n=2)
    with pytest.raises(ModelError):
        constant_hamiltonian(np.zeros((3, 3), dtype=complex), n=0)


def test_so5_pure_coupling():
    # F54 = c alone: both diagonal blocks vanish, V = i c I
    F = np.zeros((5, 5))
    F[4, 3], F[3, 4] = 1.3, -1.3
    Htop, V, Hbot = build_so5(so5_coefficients(F)).blocks_at(0.0)
    assert frobenius(Htop) < 1e-14 and frobenius(Hbot) < 1e-14
    assert np.allclose(V, 1.3j * np.eye(2))


def test_so5_single_rotation():
    # F21 = a alone: H = a sigma_z on qubit 2 in both diagonal blocks
    F = np.zeros((5, 5))
    F[1, 0], F[0, 1] = 0.8, -0.8
    Htop, V, Hbot = build_so5(so5_coefficients(F)).blocks_at(0.0)
    assert np.allclose(Htop, 0.8 * SIGMA_Z)
    assert np.allclose(Hbot, 0.8 * SIGMA_Z)
    assert frobenius(V) < 1e-14


def test_so5_zero():
    F = np.zeros((5, 5))
    assert frobenius(build_so5(so5_coefficients(F)).matrix(0.0)) == 0.0


def test_so5_formula_matches_tensor_form():
    rng = np.random.default_rng(11)
    for _ in range(20):
        F = _random_F(rng)
        Htop, V, Hbot = so5_blocks_from_formula(F)
        M = so5_matrix(F)
        rebuilt = np.block([[Htop, V], [dagger(V), Hbot]])
        assert frobenius(rebuilt - M) < 1e-12
        assert is_hermitian(M, 1e-12) and is_traceless(M, 1e-12)


def test_so5_contraction_matches_kron_form():
    rng = np.random.default_rng(13)
    for _ in range(200):
        F = _random_F(rng)
        assert np.max(np.abs(so5_matrix(F) - _so5_kron_form(F))) <= 1e-15


def test_so5_block_sum_property():
    # Htop + Hbot = -eps_ijk Fij sigma_k: the F4k parts cancel
    rng = np.random.default_rng(12)
    F = _random_F(rng)
    Htop, _, Hbot = so5_blocks_from_formula(F)
    F4_part = Htop + Hbot
    F2 = F.copy()
    F2[3, :3] = 0.0
    F2[:3, 3] = 0.0
    Htop2, _, Hbot2 = so5_blocks_from_formula(F2)
    assert frobenius(F4_part - (Htop2 + Hbot2)) < 1e-13


def test_so5_rejects_symmetric_part():
    F = np.zeros((5, 5))
    F[0, 1] = 1.0  # not antisymmetric
    with pytest.raises(ModelError, match="antisymmetric"):
        so5_coefficients(F).at(0.0)


def test_trig_random_reproducible_and_valid():
    h1 = trig_random(4, n=2, seed=7)
    h2 = trig_random(4, n=2, seed=7)
    h3 = trig_random(4, n=2, seed=8)
    for t in (0.0, 0.5, 2.0):
        assert np.array_equal(h1.matrix(t), h2.matrix(t))
        assert is_hermitian(h1.matrix(t), 1e-12)
        assert is_traceless(h1.matrix(t), 1e-12)
    assert frobenius(h1.matrix(0.5) - h3.matrix(0.5)) > 1e-3


def test_piecewise_left_edge_sampling():
    A = 0.5 * SIGMA_Z
    B = 0.5 * SIGMA_X
    h = piecewise_constant([0.0, 1.0], [A, B])
    assert np.array_equal(h.matrix(0.0), A)
    assert np.array_equal(h.matrix(0.999), A)
    assert np.array_equal(h.matrix(1.0), B)
    assert np.array_equal(h.matrix(5.0), B)


def test_from_config_families():
    h = from_config(
        {"family": "constant", "N": 2, "n": 1,
         "params": {"matrix": [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]}}
    )
    assert np.allclose(h.matrix(0.0), 0.5 * SIGMA_X)

    h = from_config({"family": "spin_half", "params": {"B": [0.0, 0.0, 2.0]}})
    assert np.allclose(h.matrix(0.0), -SIGMA_Z)

    h = from_config({"family": "spin_half", "params": {"B0": 1.0, "B1": 0.0, "omega": 3.0}})
    assert np.allclose(h.matrix(1.0), -0.5 * SIGMA_Z)

    F = np.zeros((5, 5))
    F[4, 3], F[3, 4] = 1.0, -1.0
    h = from_config({"family": "so5", "N": 4, "n": 2, "params": {"F": F.tolist()}})
    assert h.N == 4 and h.n == 2

    h = from_config({"family": "trig_random", "N": 3, "n": 1, "seed": 5})
    assert is_hermitian(h.matrix(0.3), 1e-12)

    with pytest.raises(ModelError):
        from_config({"family": "nope"})
