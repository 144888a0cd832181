import numpy as np
import pytest

from unitint.hamiltonian import ModelError, constant_hamiltonian, spin_half, trig_random
from unitint.linalg import SIGMA_X, expm, frobenius, is_unitary, random_traceless_hermitian
from unitint.oracle import compare, propagate


def test_constant_hamiltonian_is_exact():
    # midpoint exponential reproduces exp(-i H t) exactly for constant H
    rng = np.random.default_rng(1)
    H = random_traceless_hermitian(rng, 4, 1.5)
    res = propagate(constant_hamiltonian(H), 2.0, 64)
    assert frobenius(res.U_final - expm(-2j * H)) < 1e-12


def test_propagate_accepts_callable():
    res = propagate(lambda t: -0.5 * SIGMA_X, 1.0, 32)
    assert frobenius(res.U_final - expm(0.5j * SIGMA_X)) < 1e-12


def test_unitary_along_trajectory():
    res = propagate(trig_random(5, seed=2), 1.0, 200)
    for U in res.U_samples[::20]:
        assert is_unitary(U, 1e-12)


def test_second_order_convergence():
    h = trig_random(3, seed=3)
    ref = propagate(h, 1.0, 20000).U_final
    e1 = frobenius(propagate(h, 1.0, 100).U_final - ref)
    e2 = frobenius(propagate(h, 1.0, 200).U_final - ref)
    assert 3.0 < e1 / e2 < 5.5


def test_one_read_per_step_at_the_midpoints():
    # S steps read H exactly S times, at (k + 1/2) dt; N comes from the first read
    h = trig_random(3, seed=4)
    reads = []

    def evaluate(t):
        reads.append(t)
        return h.matrix(t)

    res = propagate(evaluate, 1.0, 40)
    assert reads == [(k + 0.5) * (1.0 / 40) for k in range(40)]
    assert res.U_samples.shape == (41, 3, 3)
    assert frobenius(res.U_final - propagate(h, 1.0, 40).U_final) == 0.0


def test_rejects_nonhermitian():
    with pytest.raises(ModelError):
        propagate(lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 10)


@pytest.mark.parametrize(
    "evaluate,message",
    [
        (lambda t: np.zeros((2, 3)), r"H\(t=0\.05\) has shape \(2, 3\), expected \(2, 2\)"),
        (
            lambda t: -0.5 * SIGMA_X if t < 0.5 else np.zeros((3, 3)),
            r"H\(t=0\.55\) has shape \(3, 3\), expected \(2, 2\)",
        ),
    ],
    ids=["not_square", "shape_changes"],
)
def test_rejects_a_wrong_shape(evaluate, message):
    # the first read fixes N; a node of another shape is a ModelError naming its t
    with pytest.raises(ModelError, match=message):
        propagate(evaluate, 1.0, 10)


def test_compare_identical():
    U = expm(0.3j * SIGMA_X)
    c = compare(U, U)
    assert c.plain < 1e-14
    assert c.phase_insensitive < 1e-6


def test_compare_global_phase():
    # a global phase moves the plain distance but not the projective one
    U = expm(0.3j * SIGMA_X)
    V = np.exp(1j * np.pi / 3) * U
    c = compare(U, V)
    # ||U - e^{ia}U||_F = 2 |sin(a/2)| sqrt(N)
    assert abs(c.plain - 2.0 * np.sin(np.pi / 6) * np.sqrt(2.0)) < 1e-12
    assert c.phase_insensitive < 1e-6


def test_compare_orthogonal_example():
    # tr(I^H . i sigma_x) = 0: both distances are sqrt(||A||^2 + ||B||^2) = 2
    c = compare(np.eye(2, dtype=complex), 1j * SIGMA_X)
    assert abs(c.plain - 2.0) < 1e-12
    assert abs(c.phase_insensitive - 2.0) < 1e-12


def test_oracle_self_consistent_rotating_field():
    from unitint.hamiltonian import rotating_spin_half

    h = rotating_spin_half(1.0, 0.3, 1.0)
    res = propagate(h, 2.0, 4000)
    ref = propagate(h, 2.0, 16000)
    assert compare(res.U_final, ref.U_final).plain < 1e-7
