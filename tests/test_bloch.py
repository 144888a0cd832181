import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitint import bloch, factorization
from unitint.bloch import (
    CrosscheckReport,
    _spin_generator,
    crosscheck_pictures,
    crosscheck_so5,
    crosscheck_su2,
    precess,
    project2,
    project5,
)
from unitint.factorization import base_coordinate, solve_factored
from unitint.hamiltonian import (
    BlockedHamiltonian,
    ModelError,
    build_so5,
    constant_hamiltonian,
    from_config,
    piecewise_constant,
    so5_coefficients,
    spin_half,
    trig_random,
)
from unitint.riccati import so5_z_params


def _random_F(rng, scale=0.5):
    A = rng.standard_normal((5, 5)) * scale
    return A - A.T


def test_project2_examples():
    assert np.allclose(project2(0.0), [0.0, 0.0, 1.0])
    # z = i tan(t/2) maps to rotation about x: m = (0, sin t, cos t)
    t = 0.8
    m = project2(1j * np.tan(t / 2.0))
    assert np.allclose(m, [0.0, np.sin(t), np.cos(t)], atol=1e-14)
    # |z| -> infinity approaches the south pole
    assert np.allclose(project2(1e9), [0.0, 0.0, -1.0], atol=1e-8)


def test_project5_examples():
    assert np.allclose(project5(np.zeros(4)), [0, 0, 0, 0, 1])
    # z4 = tan(ct): m = (0, 0, 0, -sin 2ct, cos 2ct)
    ct = 0.6
    m = project5(np.array([0.0, 0.0, 0.0, np.tan(ct)]))
    assert np.allclose(m, [0.0, 0.0, 0.0, -np.sin(2 * ct), np.cos(2 * ct)], atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(re=st.floats(-20, 20), im=st.floats(-20, 20))
def test_project2_unit_norm(re, im):
    assert abs(np.linalg.norm(project2(re + 1j * im)) - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_project5_unit_norm(zs):
    assert abs(np.linalg.norm(project5(np.array(zs))) - 1.0) < 1e-12


def test_bloch3_rhs_example():
    # B along z, m along x: dm/dt = -B x m = (0, -1, 0) for unit fields
    out = _spin_generator([0.0, 0.0, 1.0]) @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(out, [0.0, -1.0, 0.0])
    B, m = np.array([0.4, -0.3, 0.9]), np.array([0.2, 0.7, -0.5])
    assert np.max(np.abs(_spin_generator(B) @ m + np.cross(B, m))) < 1e-15


def test_bloch3_norm_conserved():
    Omega = _spin_generator([0.4, -0.3, 0.9])
    m = precess(lambda t: Omega, 5.0, 2000)
    assert np.max(np.abs(np.linalg.norm(m, axis=1) - 1.0)) < 1e-12


def test_bloch5_rhs_antisymmetry_conserves_norm():
    rng = np.random.default_rng(3)
    F = _random_F(rng)
    m = rng.standard_normal(5)
    assert abs(m @ (2.0 * F @ m)) < 1e-12
    traj = precess(lambda t: 2.0 * F, 3.0, 1500)
    assert np.max(np.abs(np.linalg.norm(traj, axis=1) - 1.0)) < 1e-11


def test_bloch3_precession_closed_form():
    # constant B = (b, 0, 0): from the pole, m = (0, sin bt, cos bt)
    b = 1.7
    traj = precess(lambda t: _spin_generator([b, 0.0, 0.0]), 2.0, 1000)
    t = np.linspace(0.0, 2.0, 1001)
    assert np.max(np.abs(traj[:, 1] - np.sin(b * t))) < 1e-9
    assert np.max(np.abs(traj[:, 2] - np.cos(b * t))) < 1e-9


def test_precess_reads_each_node_once():
    reads = []

    def omega(t):
        reads.append(t)
        return _spin_generator([0.3, np.cos(t), 0.5])

    precess(omega, 1.0, 8)
    assert len(reads) == len(set(reads)) == 17
    assert sorted(reads) == sorted([*np.linspace(0.0, 1.0, 9), *(np.arange(8) + 0.5) / 8])


def test_precess_is_fourth_order_and_keeps_the_norm():
    # a time-dependent spin generator to T = 3: the Magnus step's error falls
    # 16x per halving of dt against a 6400-step run (measured 15.996 and
    # 15.999; 5.9e-8 at 50 steps, where an RK4 step matrix errs 1.8e-7),
    # and each step is orthogonal, so |m| = 1 to roundoff (drift at most
    # 1.1e-15 measured; RK4's is 1.3e-8 at 50 steps)
    def omega(t):
        return _spin_generator([0.3, np.cos(t), 0.5])

    fine = precess(omega, 3.0, 6400)
    errors = []
    for steps in (50, 100, 200):
        m = precess(omega, 3.0, steps)
        errors.append(np.max(np.linalg.norm(m - fine[:: 6400 // steps], axis=1)))
        assert np.max(np.abs(np.linalg.norm(m, axis=1) - 1.0)) < 4e-15
    assert errors[0] < 1e-7
    assert all(15.9 < errors[k] / errors[k + 1] < 16.1 for k in (0, 1))


def test_precess_raises_at_the_first_non_finite_step():
    # omega turns NaN after t = 0.5: the midpoint of step 5 is the first such
    # node, and the model contract names it before any step is taken
    def omega(t):
        return _spin_generator([0.3, 1.0, 0.5]) * (np.nan if t > 0.5 else 1.0)

    with pytest.raises(ModelError, match=r"^Omega\(t=0\.55\d*\) is not finite$"):
        precess(omega, 1.0, 10)
    # and a generator that is not antisymmetric is no precession
    with pytest.raises(ModelError, match=r"^Omega\(t=0\.0\) is not antisymmetric"):
        precess(lambda t: np.eye(3), 1.0, 10)


def test_crosscheck_pictures_across_on_grid_jumps():
    # three spin-1/2 pieces with jumps at t = 1 and 2 on the grid: the linear
    # picture reads the Riccati picture's nodes (left limit and fresh read at
    # each jump), and its Magnus step is the image of the Riccati step, so
    # the pictures agree to roundoff at both step counts (8.8e-15 and
    # 9.2e-15 measured); reading omega at the plain grid nodes would
    # straddle the jumps (first order, 1.8e-3 at 300 steps)
    fields = ([0.8, 0.5, 0.3], [-0.4, 1.1, 0.2], [0.3, -0.6, 0.9])
    reads = []

    def matrix(t):
        reads.append(t)
        return piece.evaluator(t)

    piece = piecewise_constant([0.0, 1.0, 2.0], [spin_half(B).matrix(0.0) for B in fields])
    h = replace(piece, evaluator=matrix)
    deviations = []
    for steps in (300, 600):
        reads.clear()
        result = solve_factored(h, 3.0, steps)
        solve_reads = list(reads)
        deviations.append(crosscheck_pictures(result).max_deviation)
        assert len(solve_reads) == 2 * steps + 1 + 2
        assert reads[len(solve_reads) :] == solve_reads
    assert max(deviations) < 1e-13


def test_crosscheck_su2_pictures_agree():
    rep = crosscheck_su2([0.8, 0.5, 0.3], 2.0, 1000)
    assert rep.max_deviation < 1e-6
    assert rep.norm_drift < 1e-9
    # measured precession constant in dm/dt = -kappa B x m
    assert abs(rep.kappa - 1.0) < 1e-4
    # centered-difference residual of dm/dt = -B x m along the mapped trajectory
    assert rep.fd_residual < 1e-5


def test_crosscheck_su2_across_restart():
    # transverse field crosses the coordinate pole; linear picture does not care
    rep = crosscheck_su2([1.0, 0.0, 0.0], 4.0, 2000)
    assert rep.restarts >= 1
    assert rep.max_deviation < 1e-6


def test_crosscheck_so5_pictures_agree():
    rng = np.random.default_rng(4)
    rep = crosscheck_so5(so5_coefficients(_random_F(rng)), 2.0, 1500)
    assert rep.max_deviation < 1e-6
    assert rep.norm_drift < 1e-9
    # centered-difference residual of dm/dt = 2 F m along the mapped trajectory
    assert rep.fd_residual < 1e-5
    # measured precession constant in dm/dt = kappa 2 F m
    assert abs(rep.kappa - 1.0) < 1e-4


def test_crosscheck_so5_across_restart():
    F = np.zeros((5, 5))
    F[4, 3], F[3, 4] = 1.0, -1.0
    rep = crosscheck_so5(so5_coefficients(F), 2.0, 2000)
    assert rep.restarts >= 1
    assert rep.max_deviation < 1e-6


def _so5_restart_coupling(rng, cos):
    # so5_restart's shape: F54 dominant, so Z_max 1.5 folds 2-4 times in T 1.6
    F0 = _random_F(rng, 0.15)
    F0[4, 3], F0[3, 4] = 1.8, -1.8
    if not cos:
        return F0
    Fc = _random_F(rng, 0.1)
    Fc[4, 3], Fc[3, 4] = 0.3, -0.3
    return lambda t: F0 + Fc * np.cos(1.3 * t)


def _same_report(a, b):
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), name
        assert type(x) is type(y), name


@pytest.mark.parametrize("cos", [False, True], ids=["const", "cos"])
def test_crosscheck_so5_reads_each_node_once(cos):
    # one integration gives both pictures: F is called once per node of the
    # schedule, 2 steps + 1 times, across every fold
    F = _so5_restart_coupling(np.random.default_rng(7), cos)
    calls = []

    def counted(t):
        calls.append(t)
        return F(t) if cos else F

    rep = crosscheck_so5(so5_coefficients(counted), 1.6, 40, Z_max=1.5)
    assert rep.restarts >= 2
    assert len(calls) == len(set(calls)) == 2 * 40 + 1


def test_crosscheck_reads_no_fiber_and_no_est_error(monkeypatch):
    # the cross-checks read z from the product alone: no fiber U2 (_frames,
    # whose n = 2 U1 is a batched SVD) and no step doubling (_est_error)
    def forbidden(*args, **kwargs):
        raise AssertionError("a cross-check read the fiber or est_error")

    for module, name in ((np.linalg, "svd"), (factorization, "_est_error"), (factorization, "_frames")):
        monkeypatch.setattr(module, name, forbidden)
    F = _so5_restart_coupling(np.random.default_rng(8), True)
    assert crosscheck_so5(so5_coefficients(F), 1.6, 40, Z_max=1.5).restarts >= 2
    assert crosscheck_su2([1.0, 0.0, 0.3], 4.0, 200, Z_max=3.0).restarts >= 1
    with pytest.raises(AssertionError, match="fiber or est_error"):
        solve_factored(spin_half([1.0, 0.0, 0.3]), 4.0, 200)


def test_crosscheck_equals_crosscheck_pictures_of_the_solve():
    # every report field, bit for bit, against the cross-check of a full
    # factored solve, which reads H again; across folds for both models
    rng = np.random.default_rng(9)
    for cos in (False, True, False, True):
        coeffs = so5_coefficients(_so5_restart_coupling(rng, cos))
        rep = crosscheck_so5(coeffs, 1.6, 40, Z_max=1.5)
        assert rep.restarts >= 2
        _same_report(rep, crosscheck_pictures(solve_factored(build_so5(coeffs), 1.6, 40, Z_max=1.5)))
    B = lambda t: [1.0, 0.2 * np.sin(t), 0.3 * np.cos(2.0 * t)]  # noqa: E731
    rep = crosscheck_su2(B, 4.0, 300, Z_max=3.0)
    assert rep.restarts >= 1
    _same_report(rep, crosscheck_pictures(solve_factored(spin_half(B), 4.0, 300, Z_max=3.0)))


def _solved(config, t_end, steps):
    return solve_factored(from_config(config), t_end, steps)


def test_crosscheck_pictures_dispatch():
    rep = crosscheck_pictures(
        _solved({"family": "spin_half", "params": {"B": [0.0, 0.0, 1.0]}}, 1.0, 200)
    )
    assert rep.max_deviation < 1e-9
    F0 = np.zeros((5, 5))
    F0[4, 3], F0[3, 4] = 0.5, -0.5
    Fc = np.zeros((5, 5))
    Fc[4, 0], Fc[0, 4] = 0.3, -0.3
    params = {"F": F0.tolist(), "F_cos": Fc.tolist(), "omega": 2.0}
    rep5 = crosscheck_pictures(_solved({"family": "so5", "params": params}, 1.0, 200))
    assert rep5.max_deviation < 1e-9
    # the driving term reaches the Riccati picture: F_cos couples z1 to the pole
    static = crosscheck_pictures(
        _solved({"family": "so5", "params": {"F": params["F"]}}, 1.0, 200)
    )
    assert np.max(np.abs(rep5.m_riccati - static.m_riccati)) > 1e-3
    with pytest.raises(ValueError):
        crosscheck_pictures(solve_factored(trig_random(3), 1.0, 10))


def test_crosscheck_pictures_on_any_spin_model():
    # B(t) is read back from H(t), so an N = 2 trig_random model cross-checks too
    rep = crosscheck_pictures(solve_factored(trig_random(2, seed=5), 2.0, 800))
    assert rep.max_deviation < 1e-8
    assert rep.norm_drift < 1e-9
    assert abs(rep.kappa - 1.0) < 1e-4
    assert rep.fd_residual < 1e-5


@pytest.mark.parametrize(
    "M",
    [[[0.3, 1.0], [0.2j, -0.3]], [[1.3, 0.5], [0.5, 0.7]]],
    ids=["not_hermitian", "trace_2"],
)
def test_crosscheck_pictures_rejects_invalid_spin_model(M):
    # read through the model contract, not projected onto -(1/2) sigma.B
    valid = solve_factored(spin_half([0.3, 0.0, 1.0]), 1.0, 50)
    with pytest.raises(ModelError):
        crosscheck_pictures(replace(valid, h=constant_hamiltonian(M)))


def test_crosscheck_pictures_names_the_node_outside_the_so5_span():
    # H(t = 0.5) alone gains sz x I: Hermitian and traceless, so read passes
    # it, but it is no SO(5) Hamiltonian, and the read-back names that node
    coeffs = so5_coefficients(_random_F(np.random.default_rng(6)))
    valid = solve_factored(build_so5(coeffs), 1.0, 50)
    P = np.diag([1.0, 1.0, -1.0, -1.0])
    bump = lambda t: P if abs(t - 0.5) < 1e-9 else 0.0  # noqa: E731
    h = BlockedHamiltonian(N=4, n=2, evaluator=lambda t: valid.h.matrix(t) + bump(t))
    assert crosscheck_pictures(valid).max_deviation < 1e-6
    with pytest.raises(ModelError, match="is not an SO\\(5\\) two-qubit Hamiltonian") as info:
        crosscheck_pictures(replace(valid, h=h))
    t = float(re.search(r"\(t=(\S+)\)", str(info.value)).group(1))
    assert t == pytest.approx(0.5, abs=1e-12)


def test_so5_span_check_in_blocks_names_the_first_node_outside(monkeypatch):
    # the span check runs _BLOCK nodes at a time: with blocks of 7 nodes F,
    # and so the whole report, is the same to the bit, and of two nodes
    # outside the span, t = 0.5 (read 50 of 101) and t = 0.8, both past the
    # first block, the error names the first
    coeffs = so5_coefficients(_random_F(np.random.default_rng(6)))
    valid = solve_factored(build_so5(coeffs), 1.0, 50)
    want = crosscheck_pictures(valid)
    monkeypatch.setattr(bloch, "_BLOCK", 7)
    got = crosscheck_pictures(valid)
    for field in fields(CrosscheckReport):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name), equal_nan=True), field.name
    P = np.diag([1.0, 1.0, -1.0, -1.0])
    bump = lambda t: P if min(abs(t - 0.5), abs(t - 0.8)) < 1e-9 else 0.0  # noqa: E731
    h = BlockedHamiltonian(N=4, n=2, evaluator=lambda t: valid.h.matrix(t) + bump(t))
    with pytest.raises(ModelError, match="is not an SO\\(5\\) two-qubit Hamiltonian") as info:
        crosscheck_pictures(replace(valid, h=h))
    t = float(re.search(r"\(t=(\S+)\)", str(info.value)).group(1))
    assert t == pytest.approx(0.5, abs=1e-12)


def test_bloch_maps_stack_over_samples():
    # the cross-checks map all U_samples in one expression; it equals the
    # per-sample maps, across restarts included
    su2 = solve_factored(spin_half([0.8, 0.5, 0.3]), 4.0, 300, Z_max=3.0)
    F = _random_F(np.random.default_rng(4), 1.0)
    so5 = solve_factored(build_so5(so5_coefficients(F)), 2.0, 300, Z_max=1.5)
    assert su2.restarts and so5.restarts
    stacked = project2(base_coordinate(su2.U_samples, 2, 1)[:, 0, 0])
    single = np.array([project2(base_coordinate(U, 2, 1)[0, 0]) for U in su2.U_samples])
    assert stacked.shape == single.shape == (301, 3)
    assert np.max(np.abs(stacked - single)) < 1e-14
    stacked = project5(so5_z_params(base_coordinate(so5.U_samples, 4, 2)))
    single = np.array([project5(so5_z_params(base_coordinate(U, 4, 2))) for U in so5.U_samples])
    assert stacked.shape == single.shape == (301, 5)
    assert np.max(np.abs(stacked - single)) < 1e-14
