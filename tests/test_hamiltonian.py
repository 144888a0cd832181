from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitint import hamiltonian
from unitint.hamiltonian import (
    BlockedHamiltonian,
    ModelError,
    SO5Coefficients,
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
    unitary_step,
)
from unitint.oracle import propagate


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


# The model contract node by node, in the order each node is tested: the
# reference for the stacked check in checked_stack.
H_TESTS = (
    ("is not finite", lambda M: np.isfinite(M).all()),
    ("is not Hermitian within 1e-10", lambda M: is_hermitian(M, 1e-10)),
    ("is not traceless within 1e-10", lambda M: is_traceless(M, 1e-10)),
)
F_TESTS = (
    ("is not finite", lambda F: np.isfinite(F).all()),
    ("is not antisymmetric within 1e-12", lambda F: frobenius(F + F.T) <= 1e-12),
)


@np.errstate(invalid="ignore", over="ignore")
def _first_violation(name, ts, values, shape, tests):
    """The ModelError message for the first node, in read order, that breaks the contract."""
    for t, v in zip(ts, values):
        if v.shape != shape:
            return f"{name}(t={t}) has shape {v.shape}, expected {shape}"
        for message, ok in tests:
            if not ok(v):
                return f"{name}(t={t}) {message}"
    return None


def _verdict(expected, call):
    """call(), or None once it raised the ModelError message expected (if that is not None)."""
    if expected is None:
        return call()
    with pytest.raises(ModelError) as info:
        call()
    assert str(info.value) == expected
    return None


def _node(rng, kind, N, so5):
    """One model value: valid, or broken in the way ``kind`` names."""
    if so5:
        V = _random_F(rng)
    else:
        V = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        V = V + dagger(V)
        V -= np.trace(V) / N * np.eye(N)
    i, j = rng.integers(0, len(V), 2)
    if kind == "asymmetric":
        V[0, 1] += 0.5
    elif kind == "traceful":  # for F, a diagonal is not antisymmetric
        V = V + 0.3 * np.eye(len(V))
    elif kind in ("nan", "inf"):
        V[i, j] = np.nan if kind == "nan" else np.inf
    elif kind == "wide":
        V = np.hstack((V, V[:, :1]))
    elif kind == "large":
        V = np.zeros((len(V) + 1,) * 2, dtype=V.dtype)
    return V


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(2, 4),
    so5=st.booleans(),
    kinds=st.lists(
        st.sampled_from(["valid"] * 4 + ["asymmetric", "traceful", "nan", "inf", "wide", "large"]),
        min_size=1,
        max_size=12,
    ),
    block=st.sampled_from([1, 3, 4096]),
)
def test_stacked_check_matches_a_per_node_scan(seed, N, so5, kinds, block):
    # read names the first node, in read order, that a per-node scan rejects,
    # with the same message, and returns the values unchanged when none is;
    # the oracle reads its midpoints through the same check, and the check
    # gives the same answer in blocks of any size
    rng = np.random.default_rng(seed)
    values = [_node(rng, kind, N, so5) for kind in kinds]
    steps = len(values)
    ts = (np.arange(steps) + 0.5) * (1.0 / steps)  # the oracle's midpoints for t_end = 1
    evaluate = lambda t: values[int(t * steps)]  # noqa: E731
    if so5:
        name, read, shape, tests = "F", SO5Coefficients(F=evaluate).read, (5, 5), F_TESTS
    else:
        name, read, shape = "H", BlockedHamiltonian(N=N, n=1, evaluator=evaluate).read, (N, N)
        tests = H_TESTS
    with mock.patch.object(hamiltonian, "_CHECK_BLOCK", block):
        stack = _verdict(_first_violation(name, ts, values, shape, tests), lambda: read(ts))
        if stack is not None:
            assert np.array_equal(stack, np.array(values))
        if so5:
            return
        N0 = len(values[0])  # the oracle's first read fixes N
        expected = _first_violation("H", ts, values, (N0, N0), H_TESTS)
        result = _verdict(expected, lambda: propagate(evaluate, 1.0, steps))
    if result is not None:
        U = np.eye(N0, dtype=complex)
        for H in values:
            U = unitary_step(H, 1.0 / steps) @ U
        assert frobenius(result.U_final - U) < 1e-12
