"""Time-dependent N-level Hamiltonians, their block partitions and the model contract.

A Hamiltonian is an evaluator callable at any time t, so integrators choose
their own quadrature points.  The partition into an (N-n) x (N-n) upper
block, an (N-n) x n coupling block V and an n x n lower block is the
interface every solver consumes.  The model contract is one stacked check,
checked_stack, which is also the one reader of every model: every solver
path (BlockedHamiltonian.read, SO5Coefficients.read), the oracle and the
linear precession read through it.  Each H(t) is N x N, finite, Hermitian
and traceless within MODEL_TOL, each F(t) finite, antisymmetric, 5 x 5.

A read takes one of two paths.  Every built-in family's evaluator is a
_Stack: it carries a vectorized ``stack(ts)`` that evaluates a whole node
schedule in one call, and its value at one t is that same function at one
node, so read(ts) equals the per-node values bit for bit.  Any other
evaluator (a user callable B or F, or one wrapped with dataclasses.replace)
is called once per node and its values are stacked.

from_config builds a model from a scenario's description.  It is the one
reader of a scenario's N, n, seed and family parameters, and the model,
not the scenario, decides N and n.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    random_traceless_hermitian,
)

MODEL_TOL = 1e-10
# Nodes per vectorized pass of checked_stack and of trig_random's read: the
# block bounds their temporaries.
_CHECK_BLOCK = 4096

# Levi-Civita symbol on three indices.
EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPSILON[_i, _j, _k] = 1.0
    EPSILON[_i, _k, _j] = -1.0


class ModelError(ValueError):
    """An evaluated model matrix violates a structural requirement."""


# (failure, test over a stack of nodes), in the order each node is tested
H_CONTRACT = (
    ("is not finite", lambda X: np.isfinite(X).all(axis=(-2, -1))),
    (f"is not Hermitian within {MODEL_TOL:g}",
     lambda X: np.linalg.norm(X - dagger(X), axis=(-2, -1)) <= MODEL_TOL),
    (f"is not traceless within {MODEL_TOL:g}",
     lambda X: np.abs(np.trace(X, axis1=-2, axis2=-1)) <= MODEL_TOL),
)
F_CONTRACT = (
    H_CONTRACT[0],
    ("is not antisymmetric within 1e-12", lambda X: np.linalg.norm(X + X.mT, axis=(-2, -1)) <= 1e-12),
)


class _Stack:
    """A built-in family's evaluator, defined once over a node schedule.

    ``stack(ts)`` evaluates the family at every t of the 1-D array ts in one
    vectorized call; calling the evaluator at t is stack at the one node t.
    """

    def __init__(self, stack: Callable[[np.ndarray], np.ndarray]):
        self.stack = stack

    def __call__(self, t: float) -> np.ndarray:
        return self.stack(np.array([t], dtype=float))[0]


@np.errstate(invalid="ignore", over="ignore")  # a non-finite node fails the first test
def checked_stack(name: str, ts, evaluate, shape=None, contract=H_CONTRACT, dtype=complex) -> np.ndarray:
    """The model read at ts, in read order, as one checked (len(ts), *shape) stack.

    The one reader of every model: a _Stack ``evaluate`` reads the whole
    schedule in one vectorized call, whose stack is returned as it is; any
    other callable is called once per node, as a ``dtype`` array, and the
    values are stacked.  ``shape`` None takes the first node's square shape.
    A node fails on a shape other than ``shape``, else at its first failed
    test of ``contract``; ModelError names the first failing node, e.g.
    "H(t=0.5) is not finite".
    """
    if isinstance(evaluate, _Stack):
        values = evaluate.stack(np.asarray(ts, dtype=float))
    else:
        values = [np.asarray(evaluate(t), dtype=dtype) for t in ts]
    if shape is None:
        shape = (len(values[0]) if values[0].ndim else 1,) * 2
    if isinstance(values, np.ndarray):  # a stack: every node has its shape
        j = len(values) if values.shape[1:] == shape else 0
        X = values[:j]
    else:
        j = next((i for i, v in enumerate(values) if v.shape != shape), len(values))
        X = np.array(values[:j]).reshape((j, *shape))
    for a in range(0, j, _CHECK_BLOCK):
        passed = np.array([test(X[a : a + _CHECK_BLOCK]) for _, test in contract])
        if not passed.all():
            i = int(passed.all(axis=0).argmin())
            raise ModelError(f"{name}(t={ts[a + i]}) {contract[int(passed[:, i].argmin())][0]}")
    if j < len(values):
        raise ModelError(f"{name}(t={ts[j]}) has shape {values[j].shape}, expected {shape}")
    return X


def _constant(M: np.ndarray) -> _Stack:
    """The evaluator that is M at every node: a broadcast copy per read."""
    return _Stack(lambda ts: np.broadcast_to(M, (len(ts), *M.shape)).copy())


def _blocks(H: np.ndarray, n: int):
    """(Htop, V, Hbot) of an N x N matrix, or of a stack of them, for lower block size n."""
    m = H.shape[-1] - n
    return H[..., :m, :m], H[..., :m, m:], H[..., m:, m:]


@dataclass(frozen=True)
class BlockedHamiltonian:
    """H(t) of dimension N with the (N-n, n) block partition.

    ``breakpoints`` lists the times where H jumps (piecewise models); the
    solvers read H there as the left limit for the step that ends there and
    afresh for the step that starts there.
    """

    N: int
    n: int
    evaluator: Callable[[float], np.ndarray]
    breakpoints: tuple = ()

    def __post_init__(self):
        if not (1 <= self.n <= self.N // 2):
            raise ModelError(f"block size n={self.n} outside 1..N/2 for N={self.N}")

    def matrix(self, t: float) -> np.ndarray:
        """H(t) as evaluated, unchecked; read checks it."""
        return np.asarray(self.evaluator(t), dtype=complex)

    def read(self, ts) -> np.ndarray:
        """H at each t of ts as a stack checked against H_CONTRACT (checked_stack).

        A built-in family's evaluator (a _Stack) reads the whole schedule in
        one vectorized call; any other evaluator is read by one matrix(t)
        per node.
        """
        evaluate = self.evaluator if isinstance(self.evaluator, _Stack) else self.matrix
        return checked_stack("H", ts, evaluate, (self.N, self.N))

    def blocks_at(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Htop, V, Hbot) at time t, a one-node read."""
        return _blocks(self.read([t])[0], self.n)


def _spin_half_matrix(b) -> np.ndarray:
    """-(1/2) sigma . b for a 3-vector b, or for b = (b_x, b_y, b_z) of equal-length stacks."""
    b0, b1, b2 = (np.asarray(c, dtype=float)[..., None, None] for c in b)
    return -0.5 * (b0 * SIGMA_X + b1 * SIGMA_Y + b2 * SIGMA_Z)


def spin_half(B) -> BlockedHamiltonian:
    """Spin-1/2 H(t) = -(1/2) sigma . B(t) from a constant 3-vector or a callable B(t).

    A callable B is called once per node.
    """
    if not callable(B):
        if np.shape(B) != (3,):
            raise ModelError(f"B must have 3 components, got shape {np.shape(B)}")
        return constant_hamiltonian(_spin_half_matrix(B))
    return BlockedHamiltonian(N=2, n=1, evaluator=lambda t: _spin_half_matrix(B(t)))


def rotating_spin_half(B0: float, B1: float, omega: float) -> BlockedHamiltonian:
    """Rotating transverse field: B(t) = (B1 cos wt, B1 sin wt, B0)."""

    @_Stack
    def evaluate(ts):
        return _spin_half_matrix((B1 * np.cos(omega * ts), B1 * np.sin(omega * ts), np.full(len(ts), B0)))

    return BlockedHamiltonian(N=2, n=1, evaluator=evaluate)


@dataclass(frozen=True)
class SO5Coefficients:
    """Antisymmetric real 5x5 coefficient matrix F(t), indices 1..5."""

    F: Callable[[float], np.ndarray]

    def read(self, ts) -> np.ndarray:
        """F at each t of ts as a stack checked against F_CONTRACT (checked_stack).

        A built-in F (a _Stack) reads the whole schedule in one vectorized
        call; a user callable F is called once per node.
        """
        return checked_stack("F", ts, self.F, (5, 5), F_CONTRACT, float)

    def at(self, t: float) -> np.ndarray:
        return self.read([t])[0]


def so5_coefficients(F) -> SO5Coefficients:
    """SO5Coefficients from a constant 5x5 array or a callable F(t)."""
    return SO5Coefficients(F=F if callable(F) else _constant(np.asarray(F, dtype=float)))


def so5_from_params(params: dict) -> SO5Coefficients:
    """SO5Coefficients from scenario params: F, or F + F_cos cos(wt) + F_sin sin(wt).

    Each given matrix must be 5 x 5 (ModelError).
    """
    zero = np.zeros((5, 5))
    F0, Fc, Fs = (np.asarray(F, dtype=float) for F in (params["F"], params.get("F_cos", zero), params.get("F_sin", zero)))
    for key, F in zip(("F", "F_cos", "F_sin"), (F0, Fc, Fs)):
        if F.shape != (5, 5):
            raise ModelError(f"{key} must be 5 x 5, got shape {F.shape}")
    if "F_cos" not in params and "F_sin" not in params:
        return so5_coefficients(F0)
    w = _number(params, "omega", 1.0)

    @_Stack
    def F(ts):
        t = ts[:, None, None]
        return F0 + Fc * np.cos(w * t) + Fs * np.sin(w * t)

    return SO5Coefficients(F=F)


def _so5_kron_form(F: np.ndarray) -> np.ndarray:
    """The two-qubit Hamiltonian of F in tensor-product form, qubit 1 = leftmost:
    F21 s2z - F31 s2y + F32 s2x - F4i s1z s2i + F5i s1x s2i - F54 s1y.
    """
    I2 = np.eye(2, dtype=complex)
    kron = np.kron
    H = (
        F[1, 0] * kron(I2, SIGMA_Z)
        - F[2, 0] * kron(I2, SIGMA_Y)
        + F[2, 1] * kron(I2, SIGMA_X)
        - F[4, 3] * kron(SIGMA_Y, I2)
    )
    for i in range(3):
        H = H - F[3, i] * kron(SIGMA_Z, PAULI[i]) + F[4, i] * kron(SIGMA_X, PAULI[i])
    return H


# so5_matrix is linear in F: generator [a, b] is the kron form at the unit F e_a e_b^T.
_SO5_GENERATORS = np.array([_so5_kron_form(E) for E in np.eye(25).reshape(25, 5, 5)]).reshape(
    5, 5, 4, 4
)


def so5_matrix(F: np.ndarray) -> np.ndarray:
    """The 4x4 two-qubit Hamiltonian for one antisymmetric F sample, or a stack of them.

    Equals ``_so5_kron_form(F)``, computed as one contraction of F's last two
    axes with the precomputed (5, 5, 4, 4) generator tensor.
    """
    return np.tensordot(F, _SO5_GENERATORS, axes=2)


def so5_blocks_from_formula(F: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal/coupling blocks written directly in terms of F.

    Upper/lower diagonal blocks are (-/+ F4k - (1/2) eps_ijk Fij) sigma_k and
    the coupling block is i F54 I + F5i sigma_i.  Cross-checked against
    so5_matrix in the test suite; explicit index loops on purpose.
    """
    Htop = np.zeros((2, 2), dtype=complex)
    Hbot = np.zeros((2, 2), dtype=complex)
    for k in range(3):
        coeff = 0.0
        for i in range(3):
            for j in range(3):
                coeff -= 0.5 * EPSILON[i, j, k] * F[i, j]
        Htop = Htop + (-F[3, k] + coeff) * PAULI[k]
        Hbot = Hbot + (+F[3, k] + coeff) * PAULI[k]
    V = 1j * F[4, 3] * np.eye(2, dtype=complex)
    for i in range(3):
        V = V + F[4, i] * PAULI[i]
    return Htop, V, Hbot


def build_so5(coeffs: SO5Coefficients) -> BlockedHamiltonian:
    """BlockedHamiltonian (N=4, n=2) for an SO(5)-symmetric two-qubit model.

    Its read is so5_matrix of one coeffs.read: F checked as one stack (a
    user callable F is called once per node), contracted once.  so5_matrix(F)
    is Hermitian and traceless for any real F, so ModelError names the first
    invalid F node.
    """
    return BlockedHamiltonian(N=4, n=2, evaluator=_Stack(lambda ts: so5_matrix(coeffs.read(ts))))


def constant_hamiltonian(M: np.ndarray, n: int = 1) -> BlockedHamiltonian:
    M = np.asarray(M, dtype=complex)
    return BlockedHamiltonian(N=M.shape[0], n=n, evaluator=_constant(M))


def trig_random(
    N: int,
    n: int = 1,
    seed: int = 0,
    harmonics: int = 2,
    omega: float = 1.0,
    scale: float = 0.5,
) -> BlockedHamiltonian:
    """Smooth seeded random Hamiltonian: a trigonometric polynomial in t.

    H(t) = A0 + sum_k (Ak cos k w t + Bk sin k w t) with Hermitian traceless
    coefficient matrices; bounded and reproducible, which is all tests need.
    """
    if harmonics < 0:
        raise ModelError(f"need harmonics >= 0, got {harmonics}")

    @_Stack
    def evaluate(ts):
        H = np.empty((len(ts), N, N), dtype=complex)
        for a in range(0, len(ts), _CHECK_BLOCK):  # blocks of nodes bound the temporaries
            t, Hb = ts[a : a + _CHECK_BLOCK, None, None], H[a : a + _CHECK_BLOCK]
            Hb[:] = A0
            for k in range(harmonics):
                Hb += Ak[k] * np.cos((k + 1) * omega * t)
                Hb += Bk[k] * np.sin((k + 1) * omega * t)
        return H

    h = BlockedHamiltonian(N=N, n=n, evaluator=evaluate)  # N and n are checked before the draws
    rng = np.random.default_rng(seed)
    A0 = random_traceless_hermitian(rng, N, scale)
    Ak = [random_traceless_hermitian(rng, N, scale / (k + 1)) for k in range(harmonics)]
    Bk = [random_traceless_hermitian(rng, N, scale / (k + 1)) for k in range(harmonics)]
    return h


def piecewise_constant(times, matrices, n: int = 1) -> BlockedHamiltonian:
    """Piecewise-constant schedule; each piece samples from the left edge.

    Piece k holds on [times[k], times[k + 1]); times[1:] are the breakpoints.
    """
    times = np.asarray(times, dtype=float)
    matrices = [np.asarray(M, dtype=complex) for M in matrices]
    if len(matrices) != len(times):
        raise ModelError("need one matrix per breakpoint")
    if not (np.diff(times) > 0).all():
        raise ModelError(f"piecewise times must increase, got {times.tolist()}")
    for k, M in enumerate(matrices):
        if M.shape != matrices[0].shape:
            raise ModelError(f"piece {k} has shape {M.shape}, expected {matrices[0].shape}")
    pieces = np.array(matrices)
    N = pieces.shape[1]

    @_Stack
    def evaluate(ts):
        idx = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, len(pieces) - 1)
        return np.take(pieces, idx, axis=0)

    return BlockedHamiltonian(
        N=N, n=n, evaluator=evaluate, breakpoints=tuple(float(t) for t in times[1:])
    )


def _matrix_from_pairs(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ModelError(f"a matrix must be square, of nested [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


# The parameter names each family reads from ``params``; from_config refuses any other.
FAMILY_PARAMS = {
    "constant": {"matrix"},
    "spin_half": {"B", "B0", "B1", "omega"},
    "so5": {"F", "F_cos", "F_sin", "omega"},
    "trig_random": {"harmonics", "omega", "scale"},
    "piecewise": {"times", "matrices"},
}


def _number(table: dict, key: str, default=None, integral: bool = False):
    """table[key] as a float, or as an int when integral; booleans and strings are no numbers.

    A missing key gives ``default``, or KeyError when there is none.
    """
    if key not in table and default is not None:
        return default
    value = table[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ModelError(f"{key} must be a number, got {value!r}")
    if integral and not float(value).is_integer():
        raise ModelError(f"{key} must be an integer, got {value!r}")
    return int(value) if integral else float(value)


def from_config(config: dict) -> BlockedHamiltonian:
    """Build a BlockedHamiltonian from the scenario-JSON description.

    Families: constant, spin_half, so5, trig_random, piecewise.  Matrix
    entries appear as [re, im] pairs; fields and F as plain real arrays.
    N, n and seed are read from the top level, the family's parameters from
    ``params``, and every number through _number.  A parameter the family
    needs and lacks raises KeyError; an unknown family or parameter name, or
    a given N or n other than the model's, raises ModelError.
    """
    family = config.get("family")
    if family not in FAMILY_PARAMS:
        raise ModelError(f"unknown hamiltonian family: {family!r}")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ModelError(f"params must be an object, got {params!r}")
    unknown = sorted(set(params) - FAMILY_PARAMS[family])
    if unknown:
        raise ModelError(f"family {family!r} has no parameter {unknown[0]!r}")
    given = {key: _number(config, key, integral=True) for key in ("N", "n") if key in config}
    n = given.get("n", 1)
    if family == "constant":
        h = constant_hamiltonian(_matrix_from_pairs(params["matrix"]), n=n)
    elif family == "spin_half" and "omega" in params:
        h = rotating_spin_half(_number(params, "B0", 0.0), _number(params, "B1", 0.0), _number(params, "omega"))
    elif family == "spin_half":
        h = spin_half(np.asarray(params["B"], dtype=float))
    elif family == "so5":
        h = build_so5(so5_from_params(params))
    elif family == "trig_random":
        h = trig_random(
            given["N"], n, _number(config, "seed", 0, integral=True), _number(params, "harmonics", 2, integral=True),
            _number(params, "omega", 1.0), _number(params, "scale", 0.5),
        )
    else:
        matrices = [_matrix_from_pairs(M) for M in params["matrices"]]
        h = piecewise_constant(params["times"], matrices, n=n)
    for key, value in given.items():
        if value != getattr(h, key):
            raise ModelError(f"{key}={value} given, but the {family} model has {key}={getattr(h, key)}")
    return h
