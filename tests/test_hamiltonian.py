import re
from dataclasses import replace
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
    so5_from_params,
    so5_matrix,
    spin_half,
    trig_random,
)
from unitint.factorization import hierarchical_solve, solve_factored
from unitint.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    frobenius,
    is_hermitian,
    is_traceless,
    random_traceless_hermitian,
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
    h = from_config({"family": "so5", "params": {"F": F.tolist()}})  # N and n are the model's
    assert h.N == 4 and h.n == 2
    h = from_config({"family": "trig_random", "N": 4.0, "n": 2, "seed": 3, "params": {"harmonics": 3.0}})
    assert np.array_equal(h.read([0.3]), trig_random(4, n=2, seed=3, harmonics=3).read([0.3]))

    h = from_config({"family": "trig_random", "N": 3, "n": 1, "seed": 5})
    assert is_hermitian(h.matrix(0.3), 1e-12)

    with pytest.raises(ModelError):
        from_config({"family": "nope"})



@pytest.mark.parametrize("times", [[0.0, 0.5, 0.2], [0.0, 0.5, 0.5], [0.0, np.nan, 1.0]])
def test_piecewise_times_must_increase(times):
    with pytest.raises(ModelError, match="piecewise times must increase"):
        piecewise_constant(times, [0.5 * SIGMA_Z, 0.5 * SIGMA_X, -0.5 * SIGMA_Z])


def _pairs(M):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(M, complex)]


@pytest.mark.parametrize(
    "config, message",
    [
        ({"family": "constant", "N": 2, "params": {"matrix": _pairs(np.zeros((3, 3)))}},
         "N=2 given, but the constant model has N=3"),
        ({"family": "spin_half", "N": 3, "params": {"B": [0.0, 0.0, 1.0]}},
         "N=3 given, but the spin_half model has N=2"),
        ({"family": "so5", "n": 1, "params": {"F": np.zeros((5, 5)).tolist()}},
         "n=1 given, but the so5 model has n=2"),
        ({"family": "trig_random", "N": 3, "params": {"harmonics": 1.5}},
         "harmonics must be an integer, got 1.5"),
        ({"family": "trig_random", "N": 3, "params": {"harmonics": "3"}},
         "harmonics must be a number, got '3'"),
        ({"family": "trig_random", "N": 3, "params": {"harmonics": True}},
         "harmonics must be a number, got True"),
        ({"family": "trig_random", "N": 3, "params": {"harmonics": -1}}, "need harmonics >= 0, got -1"),
        ({"family": "trig_random", "N": 0}, "block size n=1 outside 1..N/2 for N=0"),
        ({"family": "trig_random", "N": -1}, "block size n=1 outside 1..N/2 for N=-1"),
        ({"family": "trig_random", "N": 3, "params": {"harmonic": 3}},
         "family 'trig_random' has no parameter 'harmonic'"),
        ({"family": "trig_random", "N": 3, "params": {"seed": 3}},
         "family 'trig_random' has no parameter 'seed'"),
        ({"family": "trig_random", "N": 3, "seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"family": "spin_half", "params": {"B1": 1.0, "omega": "fast"}}, "omega must be a number, got 'fast'"),
        ({"family": "spin_half", "params": [1.0, 0.0, 0.0]}, "params must be an object"),
        ({"family": "piecewise", "params": {"times": [0.0, 0.5, 0.2], "matrices": [_pairs(0.5 * SIGMA_Z)] * 3}},
         "piecewise times must increase, got [0.0, 0.5, 0.2]"),
        ({"family": "so5", "params": {"F": np.zeros((5, 5)).tolist(), "F_cos": np.zeros((4, 4)).tolist()}},
         "F_cos must be 5 x 5, got shape (4, 4)"),
        ({"family": "so5", "params": {"F": np.zeros((5, 5)).tolist(), "F_sin": np.zeros((4, 5)).tolist()}},
         "F_sin must be 5 x 5, got shape (4, 5)"),
        ({"family": "so5", "params": {"F": np.zeros((4, 4)).tolist()}}, "F must be 5 x 5, got shape (4, 4)"),
        ({"family": "constant", "params": {"matrix": _pairs(np.zeros((2, 3)))}},
         "a matrix must be square, of nested [re, im] pairs, got shape (2, 3, 2)"),
        ({"family": "spin_half", "params": {"B": [1.0, 0.0]}}, "B must have 3 components, got shape (2,)"),
    ],
    ids=["constant_N", "spin_half_N", "so5_n", "harmonics_fraction", "harmonics_string",
         "harmonics_bool", "harmonics_negative", "trig_N0", "trig_N_negative", "unknown_parameter",
         "seed_in_params", "seed_fraction", "omega_string", "params_list", "piecewise_decreasing",
         "so5_F_cos_shape", "so5_F_sin_shape", "so5_F_shape", "constant_not_square", "spin_half_B2"],
)
def test_from_config_reads_strictly(config, message):
    # N, n, seed and every family parameter go through one strict reader, and
    # a given N or n must be the model's
    with pytest.raises(ModelError, match=re.escape(message)):
        from_config(config)


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


def _families():
    """One model of every built-in family (and every evaluator kind), by name."""
    rng = np.random.default_rng(17)
    F0, Fc, Fs = _random_F(rng), _random_F(rng, 0.3), _random_F(rng, 0.2)
    pieces = [random_traceless_hermitian(rng, 4, 2.0) for _ in range(4)]
    models = {
        "constant": constant_hamiltonian(random_traceless_hermitian(rng, 3)),
        "spin_half_constant": spin_half([0.8, 0.5, 0.3]),
        "spin_half_callable": spin_half(lambda t: [np.cos(t), 0.3, np.sin(2.0 * t)]),
        "rotating_spin_half": rotating_spin_half(1.2, 0.8, 1.7),
        "piecewise": piecewise_constant([0.0, 0.5, 1.0, 1.5], pieces),
        "so5_constant": build_so5(so5_coefficients(F0)),
        "so5_params": build_so5(so5_from_params({"F": F0, "F_cos": Fc, "F_sin": Fs, "omega": 1.3})),
        "so5_callable": build_so5(so5_coefficients(lambda t: F0 + Fc * np.cos(2.0 * t))),
    }
    for harmonics in (1, 2, 3):
        models[f"trig_random_h{harmonics}"] = trig_random(4, seed=3, harmonics=harmonics, omega=1.7)
    return models


@pytest.mark.parametrize("name", sorted(_families()))
def test_read_matches_the_per_node_evaluator(name):
    # a family's vectorized read is its per-node evaluator, bit for bit, on a
    # grid that straddles every breakpoint with its left-limit node
    h = _families()[name]
    bps = np.array([0.5, 1.0, 1.5])
    ts = np.concatenate((np.linspace(-0.25, 2.25, 101), np.nextafter(bps, -np.inf), bps))
    per_node = np.array([h.matrix(t) for t in ts])
    assert np.array_equal(h.read(ts), per_node)
    assert np.array_equal(replace(h, evaluator=lambda t: h.evaluator(t)).read(ts), per_node)


def test_a_wrapped_evaluator_is_read_once_per_node(monkeypatch):
    h = trig_random(3, seed=2)
    ts = np.linspace(0.0, 1.0, 9)
    calls, matrix = [], BlockedHamiltonian.matrix
    monkeypatch.setattr(BlockedHamiltonian, "matrix", lambda self, t: calls.append(t) or matrix(self, t))
    stacked = h.read(ts)
    assert calls == []  # the family reads its schedule in one call
    assert np.array_equal(replace(h, evaluator=lambda t: h.evaluator(t)).read(ts), stacked)
    assert calls == list(ts)


_NAN_PIECE = np.full((2, 2), np.nan, dtype=complex)


@pytest.mark.parametrize(
    "h, solve_message, oracle_message",
    [
        (
            piecewise_constant([0.0, 1.0, 2.0], [0.5 * SIGMA_Z, _NAN_PIECE, 0.5 * SIGMA_X]),
            "H(t=1.0) is not finite",
            "H(t=1.125) is not finite",
        ),
        (
            constant_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]])),
            "H(t=0.0) is not Hermitian within 1e-10",
            "H(t=0.125) is not Hermitian within 1e-10",
        ),
    ],
    ids=["nan_piece", "non_hermitian_constant"],
)
def test_an_invalid_family_names_its_first_node(h, solve_message, oracle_message):
    # the vectorized read and the per-node read name the same first node
    for model in (h, replace(h, evaluator=lambda t: h.evaluator(t))):
        for solve, message in ((solve_factored, solve_message), (hierarchical_solve, solve_message),
                               (propagate, oracle_message)):
            with pytest.raises(ModelError) as info:
                solve(model, 3.0, 12)
            assert str(info.value) == message
