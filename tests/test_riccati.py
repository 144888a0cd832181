import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from unitint import bloch, factorization, riccati
from unitint.bloch import crosscheck_so5, crosscheck_su2, precess
from unitint.factorization import hierarchical_solve, solve_factored
from unitint.hamiltonian import (
    EPSILON,
    BlockedHamiltonian,
    ModelError,
    constant_hamiltonian,
    piecewise_constant,
    so5_coefficients,
    spin_half,
    trig_random,
)
from unitint.linalg import frobenius, random_traceless_hermitian
from unitint.oracle import propagate
from unitint.riccati import (
    MIN_STEPS_BETWEEN_RESTARTS,
    StiffnessError,
    _projective_rhs,
    _fold_search,
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


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 2), pad=st.integers(0, 2),
       radius=st.floats(0.0, 30.0))
def test_projective_rhs_is_riccati_rhs(n, seed, extra, pad, radius):
    # f(-iH, [z; I]) is riccati_rhs on the z rows and exactly zero on the I
    # rows, also in a frame with pad zero rows and columns above (a peel level)
    rng = np.random.default_rng(seed)
    N = 2 * n + extra
    m = N - n
    H = random_traceless_hermitian(rng, N, 3.0)
    z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    z *= radius / frobenius(z)
    want = riccati_rhs((H[:m, :m], H[:m, m:], H[m:, m:]), z)
    K = np.zeros((pad + N, pad + N), complex)
    K[pad:, pad:] = -1j * H
    W = np.zeros((pad + N, n), complex)
    W[pad : pad + m], W[pad + m :] = z, np.eye(n)
    f = _projective_rhs(K, W)
    assert np.all(f[:pad] == 0.0) and np.all(f[pad + m :] == 0.0)
    assert frobenius(f[pad : pad + m] - want) <= 1e-14 * max(frobenius(want), frobenius(H))
    # so an RK4 step keeps the identity rows to the bit
    assert np.all(rk4_step(_projective_rhs, W, 0.1, f, K, K)[pad + m :] == np.eye(n))


@pytest.mark.parametrize("N,n", [(2, 1), (4, 2), (5, 1), (6, 3)])
def test_solve_keeps_the_identity_rows_exactly(N, n, monkeypatch):
    # every read state is [z; I_n] to the bit, across folds
    searched = _record_searches(monkeypatch)
    solve_factored(trig_random(N, n=n, seed=1, scale=2.0), 3.0, 230, Z_max=2.0)
    if n == 2:
        integrate_so5(_so5_coupling(3, 1.5), 1.6, 40, Z_max=1.5)
    for W, folds, _ in searched:
        assert folds
        assert np.all(W[:, -n:] == np.eye(n))
        assert all(np.all(W_j[-n:] == np.eye(n)) for _, W_j in folds)


def test_peel_keeps_each_level_frame_exactly(monkeypatch):
    # level k's state is [z_k; 1] on its own N - k rows to the bit at every
    # node, across its own folds and the restarts handed down to it; between
    # the two seeds, every level folds both ways
    N = 5
    searched = _record_searches(monkeypatch)
    for seed in (5, 6):
        hierarchical_solve(trig_random(N, seed=seed, scale=2.0), 3.0, 130, Z_max=2.0)
    own, handed = set(), set()
    for W, folds, restarts in searched:
        level = N - W.shape[1]
        assert W.shape == (131, N - level, 1)
        assert np.all(W[:, -1] == 1.0)
        assert all(np.all(W_j[-1] == 1.0) for _, W_j in folds)
        own |= {level for j, _ in folds if j not in restarts}
        handed |= {level for j, _ in folds if j in restarts}
    assert own == {0, 1, 2, 3} and handed == {1, 2, 3}


def _record_searches(monkeypatch):
    """Patch every path's fold search to record (W, folds, restarts handed down)."""
    searched = []

    def search(op, n, dt, Z_max, restarts=None):
        W, folds, starts = original(op, n, dt, Z_max, restarts)
        searched.append((W, folds, restarts or {}))
        return W, folds, starts

    original = riccati._fold_search
    monkeypatch.setattr(factorization, "_fold_search", search)
    monkeypatch.setattr(riccati, "_fold_search", search)
    return searched


def _turns(angles):
    """Operators exp(i theta sigma_x / 2) at the given angles: z = i tan(theta / 2) from [0; 1]."""
    c, s = np.cos(np.asarray(angles) / 2.0), np.sin(np.asarray(angles) / 2.0)
    return c[:, None, None] * np.eye(2) + 1j * s[:, None, None] * np.array([[0.0, 1.0], [1.0, 0.0]])


def test_sweep_restarts_where_the_levels_above_restart():
    # a restart handed to node j with the operator the level reached there:
    # the search records (j, the state read from it) and reads on from
    # z = 0, in a segment whose operator starts afresh at j, with no step
    # retaken
    free_op = _turns(0.02 * np.arange(41))
    free, no_folds, _ = _fold_search(free_op, 1, 0.1, np.inf)
    assert not no_folds and abs(free[-1, 0, 0]) > 0.3
    op = np.concatenate((free_op[:10], free_op[:15], free_op[:16]))  # afresh at 10 and 25
    W, folds, starts = _fold_search(op, 1, 0.1, np.inf, {10: free_op[10], 25: free_op[15]})
    assert [j for j, _ in folds] == starts[1:] == [10, 25]
    assert np.array_equal(folds[0][1], free[10]) and np.array_equal(folds[1][1], free[15])
    assert np.all(W[10] == [[0.0], [1.0]]) and np.all(W[25] == [[0.0], [1.0]])
    assert np.array_equal(W[11:25], free[1:15]) and np.array_equal(W[26:], free[1:16])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sweep_counts_the_guard_from_a_handed_down_restart(d):
    # the operator is I up to node j = 12, where the level above restarts,
    # and turns by c per step from there: ||z|| = tan(c (i - j) / 2) crosses
    # Z_max at node j + d + 1.  A first fold from node 0 would pass the
    # guard, but counted from j it is too soon unless d >= MIN_STEPS_BETWEEN_RESTARTS
    j, steps, c = 12, 40, 0.03
    op = _turns(c * np.maximum(np.arange(steps + 1) - j, 0))
    Z_max = np.tan(c * (d + 0.5) / 2.0)
    if d < MIN_STEPS_BETWEEN_RESTARTS:
        with pytest.raises(StiffnessError, match=rf"restart requested again after {d} steps") as info:
            _fold_search(op, 1, 0.1, Z_max, {j: op[j]})
        assert info.value.step == j + d
    else:
        _, folds, _ = _fold_search(op, 1, 0.1, Z_max, {j: op[j]})
        assert [k for k, _ in folds][:2] == [j, j + d]


def test_long_product_stays_on_the_exact_flow():
    # 3e5 Magnus steps of a constant H at dt = 0.9 (spread 1.8, resolved):
    # each step is exact, so z after 3e5 chained steps is the closed form's
    # to roundoff, where a product that drifted from unitary would under- or
    # overflow
    H = np.array([[1.0, 0.05], [0.05, -1.0]], complex)
    steps, dt = 300_000, 0.9
    U, unresolved = riccati._product(H[None], np.zeros((3, steps), dtype=np.intp), dt, np.eye(2))
    assert unresolved is None
    W, folds, _ = _fold_search(U, 1, dt, 10.0)
    assert not folds and np.all(np.isfinite(W))
    w, Q = np.linalg.eigh(H)
    for j in (100_000, 211_744, steps):
        exact = (Q * np.exp(-1j * w * dt * j)) @ Q.conj().T
        assert abs(W[j, 0, 0] - exact[0, 1] / exact[1, 1]) < 1e-10


def _chunked_solves():
    """name -> solve, which returns (arrays, restart records): folding solves on every Riccati path."""
    def factored(N, n):
        res = solve_factored(trig_random(N, n=n, seed=1, scale=2.0), 3.0, 230, Z_max=2.0)
        names = ("z_samples", "U_samples", "U2_samples", "est_error", "mu_total", "phase_geometric", "imag_mu")
        return [getattr(res, name) for name in names], res.restarts

    def so5():
        _, z, restarts = integrate_so5(_so5_coupling(3, 1.5), 1.6, 40, Z_max=1.5)
        return [z], [(t,) for t in restarts]

    def peel():
        res = hierarchical_solve(trig_random(5, seed=5, scale=2.0), 3.0, 130, Z_max=2.0)
        names = ("z_samples", "U_samples", "level_mu", "level_geo", "level_dyn", "trace_phases")
        return [getattr(res, name) for name in names], res.restarts + res.level_restarts

    return {"N3 n1": lambda: factored(3, 1), "N4 n2": lambda: factored(4, 2), "N6 n3": lambda: factored(6, 3),
            "so5": so5, "peel": peel}


def test_readings_do_not_depend_on_window_or_block(monkeypatch):
    # every reading is a function of its node's operator and its segment's
    # start: any fold-search window and any block of the product, the
    # readings and the node pass give the same output, bit for bit.  With a
    # window of 1 every fold is on a window's edge
    solves = _chunked_solves()
    default = {name: solve() for name, solve in solves.items()}
    assert all(restarts for _, restarts in default.values())
    for window, block in [(1, 2048), (5, 2048), (7, 2048), (16, 5), (16, 7), (1, 5), (5, 7), (7, 5)]:
        monkeypatch.setattr(riccati, "_WINDOW", window)
        monkeypatch.setattr(riccati, "_BLOCK", block)
        monkeypatch.setattr(factorization, "_BLOCK", block)
        for name, solve in solves.items():
            (outputs, restarts), (want, want_restarts) = solve(), default[name]
            for got, expected in zip(outputs, want, strict=True):
                assert np.array_equal(got, expected), (window, block, name)
            for got, expected in zip(restarts, want_restarts, strict=True):
                assert all(map(np.array_equal, got, expected)), (window, block, name)


def test_no_solver_path_calls_rk4_step(monkeypatch):
    # no path steps by the reference rk4_step: every Riccati path reads the
    # Magnus product, and the precession (bloch._precess) chains the same
    # Magnus steps of its real generator stack from the pole
    def forbidden(*args):
        raise AssertionError("a solver called the reference rk4_step")

    def product(values, index, dt, start, unit=-1j):
        callers.append((sys._getframe(1).f_code.co_qualname, start.shape, unit, values.dtype))
        return riccati_product(values, index, dt, start, unit)

    for module in (riccati, factorization, bloch):
        if hasattr(module, "rk4_step"):
            monkeypatch.setattr(module, "rk4_step", forbidden)
    riccati_product, callers = bloch._product, []
    monkeypatch.setattr(bloch, "_product", product)
    h = trig_random(4, seed=1, scale=2.0)
    assert solve_factored(h, 3.0, 100, Z_max=2.0).restarts
    assert hierarchical_solve(h, 3.0, 100, Z_max=2.0).level_restarts
    assert solve_factored(trig_random(4, n=2, seed=1, scale=2.0), 3.0, 100, Z_max=2.0).restarts
    assert integrate_so5(_so5_coupling(3, 1.5), 1.6, 40, Z_max=1.5)[2]
    assert callers == []
    crosscheck_so5(_so5_coupling(3, 1.5), 1.6, 40, Z_max=1.5)
    crosscheck_su2([1.0, 0.5, 0.0], 4.0, 100)
    precess(lambda t: np.einsum("ijk,k->ij", EPSILON, [1.0, 0.0, np.cos(t)]), 2.0, 50)
    assert callers == [("_precess", (5,), 1, float), ("_precess", (3,), 1, float), ("_precess", (3,), 1, float)]


def test_no_solver_path_calls_eigh_on_a_resolved_grid(monkeypatch):
    # every step exponential is linalg._expm1, and on a grid that resolves
    # the model the norm bound certifies every Magnus step: no path, the
    # oracle included, decomposes a matrix to step
    def forbidden(*args, **kwargs):
        raise AssertionError("a solver path called an eigendecomposition")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    h = trig_random(4, seed=1, scale=2.0)
    assert np.isfinite(solve_factored(h, 3.0, 100, Z_max=2.0).est_error)
    assert hierarchical_solve(h, 3.0, 100, Z_max=2.0).level_restarts
    assert solve_factored(trig_random(4, n=2, seed=1, scale=2.0), 3.0, 100, Z_max=2.0).restarts
    assert integrate_so5(_so5_coupling(3, 1.5), 1.6, 40, Z_max=1.5)[2]
    crosscheck_so5(_so5_coupling(3, 1.5), 1.6, 40, Z_max=1.5)
    crosscheck_su2([1.0, 0.5, 0.0], 4.0, 100)
    assert np.isfinite(propagate(h, 3.0, 100).U_final).all()


def test_rk4_exponential_decay():
    y = np.array([1.0])
    dt = 0.1
    for k in range(10):
        y = rk4_step(lambda x, v: -v, y, dt, -y, None, None)
    assert abs(y[0] - np.exp(-1.0)) < 1e-6


def test_su2_transverse_closed_form():
    # B = (1, 0, 0): z(t) = i tan(t/2)
    h = spin_half([1.0, 0.0, 0.0])
    res = solve_factored(h, 1.0, 2000)
    z = res.z_samples[:, 0, 0]
    expected = 1j * np.tan(res.times / 2.0)
    assert np.max(np.abs(z - expected)) < 1e-12
    assert len(res.restarts) == 0


def test_su2_restart_near_pole():
    # |z| = tan(t/2) passes the threshold before t = pi; the restart record
    # must carry a unitary accumulated evolution and z resets to zero there.
    h = spin_half([1.0, 0.0, 0.0])
    res = solve_factored(h, 4.0, 2000, Z_max=10.0)
    assert len(res.restarts) >= 1
    t_r, U_accum = res.restarts[0]
    assert abs(t_r - 2.0 * np.arctan(10.0)) < 0.02
    assert frobenius(U_accum @ U_accum.conj().T - np.eye(2)) < 1e-10
    k = np.searchsorted(res.times, t_r)
    assert np.allclose(res.z_samples[k], 0.0)


def test_stiffness_error_when_threshold_tiny():
    h = spin_half([1.0, 0.0, 0.0])
    with pytest.raises(StiffnessError):
        solve_factored(h, 3.0, 60, Z_max=0.05)


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
    with pytest.raises(StiffnessError, match=r"restart requested again after \d steps at t=\S+ \(step \d+\)") as info:
        GUARD_PATHS[path]()
    err = info.value
    assert f"at t={err.t:.6g} (step {err.step})" in str(err)
    assert err.t == pytest.approx(err.step * 3.0 / 60, abs=1e-12)
    assert err.peak >= 0.05


@pytest.mark.parametrize("solver", [solve_factored, hierarchical_solve])
def test_an_early_first_restart_is_no_thrash(solver):
    # the guard spaces restarts apart, not the first one from t = 0: a field
    # pulse folds once, at step 2, and the solve goes on
    pulse = spin_half(lambda t: [10.0 * np.exp(-((t / 0.2) ** 2)), 0.0, 0.0])
    res = solver(pulse, 3.0, 30, Z_max=1.0)
    assert [t for t, _ in res.restarts] == [pytest.approx(0.2, abs=1e-12)]


# Twelve steps to t = 3 are far too coarse for these couplings: the first
# Magnus step's exponent spans far more than pi, so the solve stops there.
UNRESOLVED = r"unresolved step: the Magnus exponent spans \S+ \(dt \(lambda_max - lambda_min\) >= pi\) "
RUNAWAY_PATHS = {
    "factored": lambda: solve_factored(trig_random(4, seed=1, scale=80), 3.0, 12),
    "hierarchical": lambda: hierarchical_solve(trig_random(4, seed=1, scale=80), 3.0, 12),
    "so5": lambda: integrate_so5(_so5_coupling(0, 50.0), 3.0, 12),
}


@pytest.mark.parametrize("path", sorted(RUNAWAY_PATHS))
def test_runaway_after_restart_raises(path):
    with pytest.raises(StiffnessError, match=UNRESOLVED + r"at t=0 \(step 0\)") as info:
        RUNAWAY_PATHS[path]()
    assert (info.value.t, info.value.step) == (0.0, 0)
    assert f"spans {info.value.peak:.3g} (" in str(info.value) and info.value.peak > np.pi


@pytest.mark.filterwarnings("error")  # numpy must not warn before the driver names the divergence
def test_non_finite_coordinate_raises():
    # a coupling of 1e200 overflows the first step's Magnus exponent, here and
    # in the factored solve: the guard names that step, with an infinite
    # spread, before the step is taken or the coordinate read
    with pytest.raises(StiffnessError, match=UNRESOLVED + r"at t=0 \(step 0\)") as info:
        integrate_so5(_so5_coupling(0, 1e200), 12.0, 12)
    assert (info.value.t, info.value.step) == (0.0, 0) and not np.isfinite(info.value.peak)
    with pytest.raises(StiffnessError, match=UNRESOLVED + r"at t=0 \(step 0\)") as info:
        solve_factored(constant_hamiltonian(1e200 * (np.ones((4, 4)) - np.eye(4))), 3.0, 12)
    assert (info.value.t, info.value.step) == (0.0, 0) and not np.isfinite(info.value.peak)
    # at a coupling of 1e30, or at field scale 200, the spread is finite, and
    # as far above pi
    with pytest.raises(StiffnessError, match=UNRESOLVED + r"at t=0 \(step 0\)") as info:
        integrate_so5(_so5_coupling(0, 1e30), 12.0, 12)
    assert info.value.peak == pytest.approx(2e30)
    with pytest.raises(StiffnessError, match=UNRESOLVED + r"at t=0 \(step 0\)"):
        solve_factored(trig_random(4, seed=1, scale=200), 3.0, 12)


def _with_entry(n, value):
    M = np.zeros((n, n))
    M[0, 1] = value
    return M


# A non-finite model is rejected where it is read, before any step is taken.
NON_FINITE_PATHS = {
    "factored": lambda v: solve_factored(constant_hamiltonian(_with_entry(3, v)), 1.0, 10),
    "hierarchical": lambda v: hierarchical_solve(constant_hamiltonian(_with_entry(3, v)), 1.0, 10),
    "so5": lambda v: integrate_so5(so5_coefficients(_with_entry(5, v)), 1.0, 10),
    "crosscheck_so5": lambda v: crosscheck_so5(so5_coefficients(_with_entry(5, v)), 1.0, 10),
    "oracle": lambda v: propagate(constant_hamiltonian(_with_entry(3, v)), 1.0, 10),
}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("path", sorted(NON_FINITE_PATHS))
def test_non_finite_model_is_a_model_error(path, value):
    with pytest.raises(ModelError, match=r"\(t=\S+\) is not finite"):
        NON_FINITE_PATHS[path](value)


# Each run raises StiffnessError at step 0 when its model is valid throughout.
STIFF_PATHS = {
    "factored": (lambda h: solve_factored(h, 3.0, 12), trig_random(4, seed=1, scale=200)),
    "hierarchical": (lambda h: hierarchical_solve(h, 3.0, 12), trig_random(4, seed=1, scale=200)),
    "so5": (lambda c: integrate_so5(c, 3.0, 12), _so5_coupling(0, 50.0)),
}


@pytest.mark.parametrize("path", sorted(STIFF_PATHS))
def test_every_node_is_read_before_the_first_step(path):
    # a model that is not finite only at the last node is a ModelError naming
    # that node, although the first step would already raise StiffnessError
    solve, model = STIFF_PATHS[path]
    with pytest.raises(StiffnessError, match=UNRESOLVED + r"at t=0 \(step 0\)"):
        solve(model)
    last = lambda t: np.nan if t > 3.0 - 1e-9 else 1.0  # noqa: E731
    if path == "so5":
        broken = so5_coefficients(lambda t: model.F(t) * last(t))
    else:
        broken = BlockedHamiltonian(N=4, n=1, evaluator=lambda t: model.evaluator(t) * last(t))
    with pytest.raises(ModelError, match=r"is not finite") as info:
        solve(broken)
    t = float(re.search(r"\(t=(\S+)\)", str(info.value)).group(1))
    assert t == pytest.approx(3.0, abs=1e-12)


def _jump(t):
    """Field scale 1 before t = 1.51 and 200 after: a jump inside step 30 of 60 to t = 3."""
    return 200.0 if t > 1.51 else 1.0


_M4 = random_traceless_hermitian(np.random.default_rng(3), 4, 1.0)
_F5 = _random_F(np.random.default_rng(3), 0.3)
_B3 = np.array([0.6, -0.3, 0.8])

# The step from t = 1.5 reads the field at scale 200 at its midpoint and end,
# where dt ||H|| is about 10: each path stops at that step, before it takes it,
# and names its Magnus step's spread (the precession's is 17.4).
JUMP_PATHS = {
    "factored": lambda: solve_factored(piecewise_constant([0.0, 1.51], [_M4, 200.0 * _M4]), 3.0, 60),
    "hierarchical": lambda: hierarchical_solve(piecewise_constant([0.0, 1.51], [_M4, 200.0 * _M4]), 3.0, 60),
    "so5": lambda: integrate_so5(so5_coefficients(lambda t: _jump(t) * _F5), 3.0, 60),
    "precession": lambda: precess(lambda t: _jump(t) * np.einsum("ijk,k->ij", EPSILON, _B3), 3.0, 60),
}


@pytest.mark.parametrize("path", sorted(JUMP_PATHS))
def test_unresolved_step_after_a_jump_raises_at_that_step(path):
    with pytest.raises(StiffnessError, match=UNRESOLVED + r"at t=1.5 \(step 30\)") as info:
        JUMP_PATHS[path]()
    assert (info.value.t, info.value.step) == (pytest.approx(1.5, abs=1e-12), 30)
    assert info.value.peak > 3.0 * np.pi


@pytest.mark.parametrize("path", sorted(GUARD_PATHS))
def test_resolved_first_step_past_a_tiny_threshold_raises(path):
    # 60 steps to t = 3 resolve these fields (spreads far below pi), but the
    # first step from z = 0 already takes ||z||_F past Z_max = 0.01, and the
    # step retaken from z = 0 does the same
    solve = {
        "factored": lambda: solve_factored(spin_half([1.0, 0.0, 0.0]), 3.0, 60, Z_max=0.01),
        "hierarchical": lambda: hierarchical_solve(spin_half([1.0, 0.0, 0.0]), 3.0, 60, Z_max=0.01),
        "so5": lambda: integrate_so5(_so5_coupling(3, 0.5), 3.0, 60, Z_max=0.01),
    }[path]
    with pytest.raises(StiffnessError, match=r"reaches \S+ within one step of a restart at t=0 \(step 0\)") as info:
        solve()
    assert (info.value.t, info.value.step) == (0.0, 0)
    assert 0.01 <= info.value.peak < 0.1


@pytest.mark.parametrize("Z_max", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("path", ["factored", "hierarchical", "so5"])
def test_threshold_must_be_positive(path, Z_max):
    # no norm stays below a threshold of 0, -1 or nan: the call is refused
    # with the value named, not with a StiffnessError about the coordinate
    # singularity at the first step; an infinite threshold never folds
    solve = {
        "factored": lambda Z: solve_factored(trig_random(3, seed=1, scale=2), 3.0, 50, Z_max=Z),
        "hierarchical": lambda Z: hierarchical_solve(trig_random(3, seed=1, scale=2), 3.0, 50, Z_max=Z),
        "so5": lambda Z: integrate_so5(_so5_coupling(3, 1.5), 1.6, 40, Z_max=Z),
    }[path]
    with pytest.raises(ValueError, match=re.escape(f"Z_max must be positive, got {Z_max}")):
        solve(Z_max)
    solve(np.inf)


def test_step_doubling_error_estimate_scales():
    h = trig_random(3, seed=4)
    e_coarse = solve_factored(h, 1.0, 125).est_error
    e_fine = solve_factored(h, 1.0, 250).est_error
    ratio = e_coarse / e_fine
    # fourth order: halving dt cuts the estimate by ~2^4 (125 steps, odd, and
    # 250), well above its roundoff floor
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


def _so5_cos_coupling():
    # F + F_cos cos(1.3 t) with F54 dominant: three restarts by t = 2 at Z_max = 2
    rng = np.random.default_rng(34)
    F0, Fc = _random_F(rng, 0.3), _random_F(rng, 0.3)
    F0[4, 3], F0[3, 4], Fc[4, 3], Fc[3, 4] = 1.6, -1.6, 0.4, -0.4
    return so5_coefficients(lambda t: F0 + Fc * np.cos(1.3 * t))


def _so5_constant():
    return so5_coefficients(_random_F(np.random.default_rng(33), 0.6))


# coefficients, t_end, steps, Z_max, restarts
SO5_RUNS = {
    "constant": (_so5_constant, 1.0, 800, 10.0, 0),
    "cos_restarts": (_so5_cos_coupling, 2.0, 400, 2.0, 3),
}


def test_so5_trajectory_matches_matrix_form():
    # the four-parameter form takes the matrix form's step, so the two agree
    # at every node to roundoff and restart at the same grid times
    from unitint.hamiltonian import build_so5

    for make, t_end, steps, Z_max, folds in SO5_RUNS.values():
        coeffs = make()
        times, zs, restarts = integrate_so5(coeffs, t_end, steps, Z_max=Z_max)
        res = solve_factored(build_so5(coeffs), t_end, steps, Z_max=Z_max)
        assert len(restarts) == folds
        assert restarts == [t for t, _ in res.restarts]
        assert np.max(np.abs(zs - so5_z_params(res.z_samples))) < 1e-13
        # the full 2x2 z too, so a matrix solve leaving the quaternionic span fails
        rendered = np.array([so5_z_matrix(z) for z in zs])
        assert np.max(np.abs(rendered - res.z_samples)) < 1e-13


def _so5_reference(coeffs, times, restarts):
    # DOP853 on so5_rhs, started again from z = 0 at each restart node
    ks = [0, *np.searchsorted(times, restarts), len(times) - 1]
    ref = np.empty((len(times), 4))
    for a, b in zip(ks[:-1], ks[1:]):
        sol = solve_ivp(lambda t, z: so5_rhs(coeffs.at(t), z), (times[a], times[b]),
                        np.zeros(4), method="DOP853", rtol=1e-13, atol=1e-13,
                        t_eval=times[a:b + 1])
        ref[a:b + 1] = sol.y.T
    return ref


# run, steps, bound on the every-node error at those steps
SO5_ACCURACY = [("constant", 400, 1e-9), ("cos_restarts", 400, 5e-9)]


@pytest.mark.parametrize("run,steps,bound", SO5_ACCURACY)
def test_so5_accuracy_against_reference(run, steps, bound):
    # one Magnus step per grid step: fourth order at every node, restarts
    # included, with the error pinned at a fixed step count; for a constant F
    # each step is exact, so both grids read the reference's own error
    make, t_end, _, Z_max, folds = SO5_RUNS[run]
    coeffs, errors = make(), []
    for s in (steps // 2, steps):
        times, zs, restarts = integrate_so5(coeffs, t_end, s, Z_max=Z_max)
        assert len(restarts) == folds
        errors.append(np.max(np.abs(zs - _so5_reference(coeffs, times, restarts))))
    assert errors[1] < bound
    if run == "constant":
        assert errors[0] < bound
    else:
        assert errors[0] / errors[1] > 12.0


@pytest.mark.parametrize("run", sorted(SO5_RUNS))
def test_so5_reads_each_node_once(run):
    # F at t, t + dt/2 and t + dt per step, the first carried over from the
    # step before; a step retaken after a fold reuses its nodes
    make, t_end, steps, Z_max, folds = SO5_RUNS[run]
    coeffs, reads = make(), []

    def counted(t):
        reads.append(t)
        return coeffs.F(t)

    _, _, restarts = integrate_so5(so5_coefficients(counted), t_end, steps, Z_max=Z_max)
    assert len(restarts) == folds
    assert len(reads) == 2 * steps + 1
    assert len(set(reads)) == len(reads)


STEP_PATHS = {
    "factored": lambda steps: solve_factored(spin_half([1.0, 0.0, 0.0]), 1.0, steps),
    "hierarchical": lambda steps: hierarchical_solve(spin_half([1.0, 0.0, 0.0]), 1.0, steps),
    "so5": lambda steps: integrate_so5(_so5_coupling(3, 0.5), 1.0, steps),
    "crosscheck_su2": lambda steps: crosscheck_su2([1.0, 0.0, 0.0], 1.0, steps),
    "crosscheck_so5": lambda steps: crosscheck_so5(_so5_coupling(3, 0.5), 1.0, steps),
    "precess": lambda steps: precess(lambda t: np.zeros((3, 3)), 1.0, steps),
    "oracle": lambda steps: propagate(spin_half([1.0, 0.0, 0.0]), 1.0, steps),
}


@pytest.mark.parametrize("steps", [0, -2])
@pytest.mark.parametrize("path", sorted(STEP_PATHS))
def test_every_grid_rejects_fewer_than_one_step(path, steps):
    with pytest.raises(ValueError, match="steps must be >= 1"):
        STEP_PATHS[path](steps)


@pytest.mark.parametrize(
    "path, t_end, Z_max, message",
    [(path, 1.0, 0.0, "Z_max must be positive, got 0.0") for path in ("factored", "hierarchical", "so5")]
    + [
        (path, t_end, 10.0, f"t_end must be finite, got {t_end}")
        for path in ("factored", "hierarchical", "so5", "precess", "oracle")
        for t_end in (np.nan, np.inf, -np.inf)
    ],
)
def test_argument_errors_come_before_any_read(path, t_end, Z_max, message):
    # a bad threshold or a non-finite t_end is refused with its own message
    # while the model is still unread, and with no numpy warning
    reads = []
    h, F = spin_half([1.0, 0.0, 0.0]), _so5_coupling(3, 0.5).F
    model = BlockedHamiltonian(N=2, n=1, evaluator=lambda t: reads.append(t) or h.matrix(t))
    run = {
        "factored": lambda: solve_factored(model, t_end, 50, Z_max=Z_max),
        "hierarchical": lambda: hierarchical_solve(model, t_end, 50, Z_max=Z_max),
        "so5": lambda: integrate_so5(
            so5_coefficients(lambda t: reads.append(t) or F(t)), t_end, 50, Z_max=Z_max
        ),
        "precess": lambda: precess(lambda t: reads.append(t) or np.zeros((3, 3)), t_end, 50),
        "oracle": lambda: propagate(model, t_end, 50),
    }[path]
    with pytest.raises(ValueError, match=re.escape(message)):
        run()
    assert reads == []
