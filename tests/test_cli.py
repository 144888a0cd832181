import argparse
import csv
import dataclasses
import json

import numpy as np
import pytest

import unitint.bloch
import unitint.cli
import unitint.riccati
from unitint.cli import (
    ScenarioError,
    _worst_unitarity,
    load_scenario,
    main,
    parse_scenario,
    run_property_suite,
    run_scenario,
)
from unitint.factorization import hierarchical_solve, solve_factored
from unitint.hamiltonian import BlockedHamiltonian, spin_half
from unitint.linalg import random_traceless_hermitian, unitarity_defect
from unitint.riccati import StiffnessError


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def _spin_half_scenario(**overrides):
    s = {
        "id": "spin-z",
        "family": "spin_half",
        "N": 2,
        "n": 1,
        "params": {"B": [0.0, 0.0, 1.0]},
        "t_end": 1.0,
        "steps": 400,
        "paths": ["factorized", "oracle"],
        "tolerances": {"oracle_distance": 1e-8, "unitarity": 1e-9},
    }
    s.update(overrides)
    return s


def test_load_scenario_defaults(tmp_path):
    p = _write(tmp_path, "s.json", {"id": "a", "family": "spin_half",
                                    "params": {"B": [0, 0, 1]}, "t_end": 1.0, "steps": 10})
    s = load_scenario(p)
    assert s["N"] == 2 and s["n"] == 1
    assert s["Z_max"] == 10.0
    assert s["paths"] == ["factorized", "oracle"]


def test_load_scenario_accepts_integral_floats(tmp_path):
    p = _write(tmp_path, "s.json", {"id": "a", "family": "spin_half", "N": 2.0,
                                    "params": {"B": [0, 0, 1]}, "t_end": 1, "steps": 10.0})
    s = load_scenario(p)
    report = run_scenario(s, tmp_path / "out")
    assert len(report["endpoint_U"]["factorized"]) == 2


def test_load_scenario_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(p)


def test_load_scenario_rejects_missing_fields(tmp_path):
    p = _write(tmp_path, "s.json", {"id": "a", "family": "spin_half"})
    with pytest.raises(ScenarioError, match="t_end"):
        load_scenario(p)


def test_load_scenario_rejects_bad_block(tmp_path):
    p = _write(tmp_path, "s.json", {"id": "a", "family": "trig_random", "N": 3,
                                    "n": 2, "t_end": 1.0, "steps": 10})
    with pytest.raises(ScenarioError, match="N"):
        load_scenario(p)


def test_load_scenario_rejects_unknown_path(tmp_path):
    p = _write(tmp_path, "s.json", {"id": "a", "family": "spin_half",
                                    "params": {"B": [0, 0, 1]}, "t_end": 1.0,
                                    "steps": 10, "paths": ["magic"]})
    with pytest.raises(ScenarioError, match="magic"):
        load_scenario(p)


def test_run_scenario_spin_half(tmp_path):
    report = run_scenario(_spin_half_scenario(), tmp_path)
    assert all(v["pass"] for v in report["verdicts"].values())
    # U(1) = diag(e^{i/2}, e^{-i/2}) and mu = -t/2
    U = np.asarray(report["endpoint_U"]["factorized"])
    U = U[..., 0] + 1j * U[..., 1]
    assert np.allclose(U, np.diag([np.exp(0.5j), np.exp(-0.5j)]), atol=1e-9)
    assert abs(report["phases"]["factorized"]["mu_total"] + 0.5) < 1e-9
    assert report["distances"]["factorized_vs_oracle"]["phase_insensitive"] < 1e-8
    assert (tmp_path / "spin-z_report.json").exists()
    assert (tmp_path / "spin-z_trajectory.csv").exists()


def test_run_scenario_solves_each_path_once(tmp_path, monkeypatch):
    # all four paths: one Magnus product, read by both Riccati paths and the
    # bloch path, and H read once per node: 2S + 1 for the one integration and
    # for the bloch path's precession, S for the oracle
    products, reads = [], []
    product, read = unitint.riccati._product, BlockedHamiltonian.read

    def counting_product(*args, **kwargs):
        products.append(args)
        return product(*args, **kwargs)

    def counting_read(self, ts):
        reads.extend(ts)
        return read(self, ts)

    monkeypatch.setattr(unitint.riccati, "_product", counting_product)
    monkeypatch.setattr(BlockedHamiltonian, "read", counting_read)
    steps = 52
    s = _spin_half_scenario(
        params={"B0": 1.2, "B1": 0.8, "omega": 1.7}, t_end=2.0, steps=steps,
        paths=["factorized", "hierarchical", "bloch", "oracle"],
        tolerances={"oracle_distance": 5e-2, "unitarity": 1e-8, "bloch_deviation": 5e-2},
    )
    report = run_scenario(s, tmp_path)
    assert all(v["pass"] for v in report["verdicts"].values())
    assert len(products) == 1
    assert len(reads) == 2 * (2 * steps + 1) + steps


def _pairs(M):
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def _both_paths_scenarios():
    rng = np.random.default_rng(7)
    both = ["factorized", "hierarchical", "oracle"]
    return [
        {"id": "constant", "family": "constant", "N": 3,
         "params": {"matrix": _pairs(random_traceless_hermitian(rng, 3, 2.0))},
         "t_end": 2.0, "steps": 110, "paths": both},
        _spin_half_scenario(id="rotating", params={"B0": 1.2, "B1": 0.8, "omega": 1.7}, t_end=2.0,
                            steps=52, paths=["factorized", "hierarchical", "bloch", "oracle"]),
        {"id": "piecewise", "family": "piecewise", "N": 4,
         "params": {"times": [0.0, 0.5, 1.0, 1.5],
                    "matrices": [_pairs(random_traceless_hermitian(rng, 4, 2.0)) for _ in range(4)]},
         "t_end": 2.0, "steps": 88, "paths": both},
        {"id": "folding", "family": "trig_random", "N": 4, "seed": 11,
         "params": {"harmonics": 2, "scale": 2.0}, "t_end": 2.0, "steps": 84, "Z_max": 2.0, "paths": both},
    ]


def _assert_same_result(result, alone):
    # every field but the model, bit for bit; restarts hold (t, U) or (t, level)
    for f in dataclasses.fields(result):
        mine, theirs = getattr(result, f.name), getattr(alone, f.name)
        if f.name == "h":
            continue
        if f.name.endswith("restarts"):
            assert len(mine) == len(theirs), f.name
            for a, b in zip(mine, theirs):
                assert a[0] == b[0] and np.array_equal(a[1], b[1]), f.name
        else:
            assert np.array_equal(mine, theirs, equal_nan=True), f.name


def test_run_scenario_reads_both_paths_from_one_integration(tmp_path, monkeypatch):
    # one integration gives each Riccati path the result of its standalone
    # solver, field for field and bit for bit, and both results share one U
    solved = []
    solve = unitint.cli._solve
    monkeypatch.setattr(unitint.cli, "_solve", lambda *a, **kw: solved.append(solve(*a, **kw)) or solved[-1])
    for scenario in _both_paths_scenarios():
        solved.clear()
        run_scenario(scenario, tmp_path)
        (factored, hier), = solved
        parsed, h = parse_scenario(scenario)
        args = (h, parsed["t_end"], parsed["steps"])
        _assert_same_result(factored, solve_factored(*args, Z_max=parsed["Z_max"]))
        _assert_same_result(hier, hierarchical_solve(*args, Z_max=parsed["Z_max"]))
        assert hier.U_samples is factored.U_samples
        if scenario["id"] == "folding":
            assert factored.restarts and len(hier.level_restarts) > len(hier.restarts)


def test_run_scenario_keeps_the_error_order(tmp_path, capsys):
    # an unresolved step of the one product raises what a standalone
    # solve_factored raises; a fold refused below level 0 (solve_factored's
    # reading succeeds) still fails the run.  Both exit 3 and write nothing
    unresolved = _spin_half_scenario(id="unresolved", params={"B": [60.0, 0.0, 0.0]}, t_end=2.0, steps=12,
                                     paths=["factorized", "hierarchical"])
    deep = {"id": "deep", "family": "trig_random", "N": 3, "seed": 1, "params": {"scale": 2.0},
            "t_end": 3.0, "steps": 40, "Z_max": 1.0, "paths": ["factorized", "hierarchical"]}
    out = tmp_path / "out"
    cases = ((unresolved, solve_factored, "unresolved step"), (deep, hierarchical_solve, "restart requested again"))
    for scenario, solver, what in cases:
        parsed, h = parse_scenario(scenario)
        args = (h, parsed["t_end"], parsed["steps"])
        if solver is hierarchical_solve:
            solve_factored(*args, Z_max=parsed["Z_max"])
        with pytest.raises(StiffnessError, match=what) as alone:
            solver(*args, Z_max=parsed["Z_max"])
        with pytest.raises(StiffnessError) as run:
            run_scenario(scenario, out)
        assert (str(run.value), run.value.t, run.value.step) == (str(alone.value), alone.value.t, alone.value.step)
        path = _write(tmp_path, f"{scenario['id']}.json", scenario)
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"solver error in {scenario['id']}: {alone.value}\n"
    assert not out.exists()


def test_unitarity_verdict_includes_the_endpoint():
    # at 125 steps the stride of 2 skips U(T), which the report prints
    U = np.tile(np.eye(2, dtype=complex), (126, 1, 1))
    U[-1] *= 1.0 + 1e-6
    U[123] *= 1.0 + 1e-3  # off the stride: not sampled
    assert _worst_unitarity(U) == unitarity_defect(U[-1]) > 0.0


def test_run_scenario_hierarchical_phases(tmp_path):
    s = {
        "id": "tr3",
        "family": "trig_random",
        "N": 3,
        "n": 1,
        "seed": 4,
        "t_end": 1.0,
        "steps": 600,
        "Z_max": 10.0,
        "paths": ["factorized", "hierarchical", "oracle"],
        "tolerances": {"oracle_distance": 1e-5},
    }
    report = run_scenario(s, tmp_path)
    assert all(v["pass"] for v in report["verdicts"].values())
    levels = report["phases"]["hierarchical"]
    assert [lv["level"] for lv in levels] == [0, 1]
    # level 0 of the peel agrees with the direct factorized corner phase
    assert abs(levels[0]["mu_total"] - report["phases"]["factorized"]["mu_total"]) < 1e-6


def test_run_scenario_logs_each_level_fold(tmp_path):
    # a hierarchical restart entry names the level that folded; level 0
    # folds where the factorized path does, and levels 1 and 2 fold on their own
    s = {
        "id": "tr4",
        "family": "trig_random",
        "N": 4,
        "n": 1,
        "seed": 52,
        "params": {"scale": 3.0},
        "t_end": 3.0,
        "steps": 240,
        "Z_max": 2.0,
        "paths": ["factorized", "hierarchical"],
    }
    log = run_scenario(s, tmp_path)["restarts"]
    factorized = [r["t"] for r in log if r["path"] == "factorized"]
    hierarchical = [(r["t"], r["level"]) for r in log if r["path"] == "hierarchical"]
    assert len(factorized) == 3
    assert [t for t, level in hierarchical if level == 0] == factorized
    assert {level for _, level in hierarchical} == {0, 1, 2}
    assert [t for t, _ in hierarchical] == sorted(t for t, _ in hierarchical)


def test_run_scenario_so5_restart_logged(tmp_path):
    F = np.zeros((5, 5))
    F[4, 3], F[3, 4] = 1.0, -1.0
    s = {
        "id": "so5",
        "family": "so5",
        "N": 4,
        "n": 2,
        "params": {"F": F.tolist()},
        "t_end": 2.0,
        "steps": 1200,
        "Z_max": 10.0,
        "paths": ["factorized", "oracle", "bloch"],
        "tolerances": {"oracle_distance": 1e-5, "bloch_deviation": 1e-6},
    }
    report = run_scenario(s, tmp_path)
    assert all(v["pass"] for v in report["verdicts"].values())
    assert any(r["path"] == "factorized" for r in report["restarts"])
    assert report["bloch"]["norm_drift"] < 1e-9


def test_run_scenario_zero_hamiltonian(tmp_path):
    s = {
        "id": "zero",
        "family": "constant",
        "N": 2,
        "n": 1,
        "params": {"matrix": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
        "t_end": 1.0,
        "steps": 50,
        "paths": ["factorized", "oracle"],
        "tolerances": {"oracle_distance": 1e-12, "unitarity": 1e-12},
    }
    report = run_scenario(s, tmp_path)
    U = np.asarray(report["endpoint_U"]["factorized"])
    assert np.allclose(U[..., 0], np.eye(2), atol=1e-12)
    assert np.allclose(U[..., 1], 0.0, atol=1e-12)


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_main_writes_null_kappa_at_the_pole(tmp_path):
    # B along the pole: m stays at (0, 0, 1), Omega m = 0 all along, so the
    # least-squares kappa is nan, which the report writes as null
    scenario = _write(tmp_path, "pole.json", _spin_half_scenario(
        id="pole", steps=20, paths=["factorized", "bloch"], tolerances={}))
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0
    bloch = _strict_json((tmp_path / "out" / "pole_report.json").read_text())["bloch"]
    assert bloch["kappa"] is None
    assert bloch["max_deviation"] == bloch["fd_residual"] == 0.0
    factored = solve_factored(spin_half([0.0, 0.0, 1.0]), 1.0, 20)
    assert np.isnan(unitint.bloch.crosscheck_pictures(factored).kappa)
    # a transverse field writes its finite kappa
    tilted = _write(tmp_path, "tilted.json", _spin_half_scenario(
        id="tilted", params={"B": [0.4, 0.0, 1.0]}, steps=20, paths=["factorized", "bloch"], tolerances={}))
    assert main(["run", str(tilted), "--out", str(tmp_path / "out")]) == 0
    kappa = _strict_json((tmp_path / "out" / "tilted_report.json").read_text())["bloch"]["kappa"]
    assert abs(kappa - 1.0) < 1e-3


def test_main_exit_codes(tmp_path):
    ok = _write(tmp_path, "ok.json", _spin_half_scenario())
    assert main(["run", str(ok), "--out", str(tmp_path / "out")]) == 0

    # tolerance failure -> 1 (a rotating field: for a constant one the
    # Magnus product and the oracle are both exact, and agree bit for bit)
    failing = _write(
        tmp_path, "fail.json",
        _spin_half_scenario(
            id="fail",
            params={"B0": 1.0, "B1": 0.5, "omega": 2.0},
            tolerances={"oracle_distance": 1e-30},
        ),
    )
    assert main(["run", str(failing), "--out", str(tmp_path / "out")]) == 1

    # parse error -> 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2

    # solver error (stiff restart thrashing) -> 3
    stiff = _write(
        tmp_path, "stiff.json",
        {"id": "stiff", "family": "spin_half", "params": {"B": [1.0, 0.0, 0.0]},
         "t_end": 3.0, "steps": 60, "Z_max": 0.05, "paths": ["factorized"]},
    )
    assert main(["run", str(stiff), "--out", str(tmp_path / "out")]) == 3


def test_main_runaway_is_solver_error(tmp_path, capsys):
    # 12 steps cannot resolve a field of 60: the first step's Magnus exponent
    # spans far more than pi, which is a solver error, not a tolerance failure
    p = _write(tmp_path, "runaway.json", _spin_half_scenario(
        id="runaway", params={"B": [60.0, 0.0, 0.0]}, t_end=2.0, steps=12))
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
    assert "solver error in runaway" in capsys.readouterr().err


def _constant_model(matrix):
    return {"family": "constant", "N": len(matrix),
            "params": {"matrix": [[[v, 0.0] for v in row] for row in matrix]}}


_NAN_F = np.zeros((5, 5))
_NAN_F[4, 3], _NAN_F[3, 4] = np.nan, np.nan


@pytest.mark.parametrize(
    "model, message",
    [
        (_constant_model([[1.0, 2.0], [0.0, -1.0]]), "Hermitian"),
        (_constant_model([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]), "traceless"),
        ({"family": "so5", "N": 4, "n": 2, "params": {"F": _NAN_F.tolist()}}, "finite"),
    ],
    ids=["non_hermitian", "traceful", "so5_nan_F"],
)
def test_main_invalid_model_is_solver_error(tmp_path, capsys, model, message):
    p = _write(tmp_path, "invalid.json", {"id": "invalid", **model, "t_end": 1.0, "steps": 10})
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "solver error in invalid" in err
    assert message in err


_TRIG_N4_N2 = {"family": "trig_random", "N": 4, "n": 2, "params": {}}
_Z_PAIRS = _constant_model([[0.5, 0.0], [0.0, -0.5]])["params"]["matrix"]
_SO5, _F0 = {"family": "so5", "N": 4, "n": 2}, [[0.0] * 5] * 5
# a jump at t = 1.5 of 3: on a grid node at 230 and 232 steps, inside step 115 at 231
_JUMP_AT_1_5 = {
    "family": "piecewise", "t_end": 3.0, "tolerances": {"est_error": 1e-6},
    "params": {"times": [0.0, 1.5], "matrices": [_Z_PAIRS, _constant_model([[0.0, 1.0], [1.0, 0.0]])["params"]["matrix"]]},
}


@pytest.mark.parametrize(
    "overrides, args",
    [
        ({"params": {}}, []),
        ({"family": "no_such_family"}, []),
        ({"tolerances": {"unitarity": "abc"}}, []),
        ({"tolerances": {"no_such_tolerance": 1e-3}}, []),
        ({"family": "trig_random", "N": 3, "params": {}, "paths": ["bloch"]}, []),
        ({"t_end": "nan"}, []),
        ({"family": "trig_random", "N": 3, "params": {}}, ["--paths", "bloch"]),
        ({"steps": 20.7}, []),
        ({"steps": True}, []),
        ({"N": 2.9}, []),
        ({"n": 1.5}, []),
        ({"Z_max": True}, []),
        (_TRIG_N4_N2 | {"paths": ["factorized", "hierarchical"]}, []),
        (_TRIG_N4_N2, ["--paths", "factorized,hierarchical"]),
        ({"family": "so5", "N": 4, "params": {"F": [[0.0] * 5] * 5}, "paths": ["hierarchical"]}, []),
        (_constant_model(np.diag([1.0, 0.0, -1.0])) | {"N": 2}, []),
        ({"N": 3}, []),
        ({"family": "so5", "N": 4, "n": 1, "params": {"F": [[0.0] * 5] * 5}}, []),
        (_TRIG_N4_N2 | {"n": 1, "params": {"harmonics": 1.5}}, []),
        (_TRIG_N4_N2 | {"n": 1, "params": {"harmonics": "3"}}, []),
        (_TRIG_N4_N2 | {"n": 1, "params": {"harmonics": True}}, []),
        (_TRIG_N4_N2 | {"n": 1, "params": {"harmonic": 3}}, []),
        (_TRIG_N4_N2 | {"n": 1, "params": {"harmonics": -1}}, []),
        ({"family": "piecewise", "params": {"times": [0.0, 0.5, 0.2], "matrices": [_Z_PAIRS] * 3}}, []),
        (_SO5 | {"params": {"F": _F0, "F_cos": [[0.0] * 4] * 4}}, []),
        (_SO5 | {"params": {"F": _F0, "F_sin": [[0.0] * 5] * 4}}, []),
        (_SO5 | {"params": {"F": [[0.0] * 4] * 4}}, []),
        ({"family": "constant", "params": {"matrix": [row[:1] for row in _Z_PAIRS]}}, []),
        ({"params": {"B": [1.0, 0.0]}}, []),
        ({"steps": 1, "tolerances": {"est_error": 1e-6}}, []),
        ({"tolerances": {"est_error": 1e-6}}, ["--steps", "1"]),
        (_JUMP_AT_1_5 | {"steps": 231}, []),
        (_JUMP_AT_1_5, ["--steps", "231"]),
    ],
    ids=["no_B", "unknown_family", "tolerance_abc", "unknown_tolerance", "bloch_on_trig",
         "t_end_nan", "bloch_override", "steps_fraction", "steps_bool", "N_fraction",
         "n_fraction", "Z_max_bool", "hierarchical_n2", "hierarchical_override",
         "hierarchical_so5", "constant_N_mismatch", "spin_half_N3", "so5_n1", "harmonics_fraction",
         "harmonics_string", "harmonics_bool", "unknown_parameter", "harmonics_negative",
         "piecewise_decreasing", "so5_F_cos_4x4", "so5_F_sin_4x5", "so5_F_4x4", "constant_2x1",
         "spin_half_B2", "est_error_one_step", "est_error_one_step_override",
         "est_error_breakpoint_inside_a_step", "est_error_breakpoint_inside_a_step_override"],
)
def test_main_malformed_scenario_is_parse_error(tmp_path, capsys, overrides, args):
    p = _write(tmp_path, "bad.json", _spin_half_scenario(id="bad", **overrides))
    assert main(["run", str(p), "--out", str(tmp_path / "out"), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("steps", [230, 232])
def test_main_est_error_with_breakpoints_on_the_grid(tmp_path, steps):
    # the same scenario as est_error_breakpoint_inside_a_step, with the jump
    # on a grid node: it runs, and est_error reads roundoff (each piece's
    # Magnus steps are exact)
    p = _write(tmp_path, "jump.json", _spin_half_scenario(id="jump", **_JUMP_AT_1_5, steps=steps))
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "jump_report.json").read_text())
    assert report["verdicts"]["est_error"]["measured"] < 1e-12


def test_main_parses_each_file_once(tmp_path, monkeypatch):
    # unitint run checks the fields and builds the model once per file
    calls = []
    check, build = unitint.cli._check_fields, unitint.cli.from_config
    monkeypatch.setattr(unitint.cli, "_check_fields", lambda s: calls.append("fields") or check(s))
    monkeypatch.setattr(unitint.cli, "from_config", lambda s: calls.append("model") or build(s))
    files = [_write(tmp_path, f"{i}.json", _spin_half_scenario(id=f"s{i}", steps=40)) for i in range(2)]
    assert main(["run", *map(str, files), "--out", str(tmp_path / "out"), "--steps", "20"]) == 0
    assert calls == ["fields", "model"] * 2


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # the parser is built on the first call and reused by every call after it
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    unitint.cli._parser.cache_clear()
    try:
        p = _write(tmp_path, "s.json", _spin_half_scenario(steps=20))
        for _ in range(2):
            assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 0
    finally:
        unitint.cli._parser.cache_clear()  # later calls build a parser of their own
    assert built == ["unitint", "unitint run", "unitint verify"]


@pytest.mark.parametrize("sid", ["../escaped", "", ".", "..", "a/b", "a\\b"])
def test_main_id_must_be_plain_file_name(tmp_path, capsys, sid):
    out = tmp_path / "run" / "out"
    out.mkdir(parents=True)
    p = _write(tmp_path, "s.json", _spin_half_scenario(id=sid))
    assert main(["run", str(p), "--out", str(out)]) == 2
    assert "id must be a plain file name" in capsys.readouterr().err
    written = sorted(q.relative_to(tmp_path) for q in tmp_path.rglob("*") if q.is_file())
    assert [str(q) for q in written] == ["s.json"]


def test_main_overrides(tmp_path):
    p = _write(tmp_path, "s.json", _spin_half_scenario(id="ovr"))
    assert main(["run", str(p), "--out", str(tmp_path / "o"),
                 "--steps", "100", "--paths", "factorized"]) == 0
    report = json.loads((tmp_path / "o" / "ovr_report.json").read_text())
    assert list(report["unitarity"]) == ["factorized"]


def test_outputs_deterministic(tmp_path):
    s = {
        "id": "det",
        "family": "trig_random",
        "N": 3,
        "n": 1,
        "seed": 9,
        "t_end": 1.0,
        "steps": 300,
        "paths": ["factorized", "oracle"],
        "tolerances": {"oracle_distance": 1e-4},
    }
    run_scenario(dict(s), tmp_path / "a")
    run_scenario(dict(s), tmp_path / "b")
    for suffix in ("_report.json", "_trajectory.csv"):
        assert (tmp_path / "a" / f"det{suffix}").read_bytes() == (
            tmp_path / "b" / f"det{suffix}"
        ).read_bytes()


def test_trajectory_csv_contents(tmp_path, monkeypatch):
    # every cell parses back to the solve's own value, bit for bit
    solved = []
    solve, pictures = unitint.cli._solve, unitint.bloch.crosscheck_pictures

    def keep(fn, part=lambda result: result):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            solved.append(part(result))
            return result
        return wrapped

    monkeypatch.setattr(unitint.cli, "_solve", keep(solve, lambda results: results[0]))  # the factorized reading
    monkeypatch.setattr(unitint.bloch, "crosscheck_pictures", keep(pictures))
    spin_z = ["t", "z00_re", "z00_im", "mu_total", "phase_geometric", "phase_dynamical"]
    scenarios = [
        (_spin_half_scenario(id="csv"), spin_z),
        (_spin_half_scenario(id="csv_bloch", params={"B0": 1.2, "B1": 0.8, "omega": 1.7},
                             t_end=2.0, steps=52, paths=["factorized", "bloch"]),
         spin_z + ["m1", "m2", "m3"]),
        ({"id": "csv_n2", "family": "trig_random", "N": 4, "n": 2, "seed": 3, "t_end": 1.0,
          "steps": 30, "paths": ["factorized"]},
         ["t"] + [f"z{ij}_{part}" for ij in ("00", "01", "10", "11") for part in ("re", "im")]),
    ]
    for scenario, expected_header in scenarios:
        solved.clear()
        run_scenario(load_scenario(_write(tmp_path, "s.json", scenario)), tmp_path)
        factored, bloch_report = solved if len(solved) == 2 else (solved[0], None)
        with (tmp_path / f"{scenario['id']}_trajectory.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        n = factored.z_samples.shape[2]
        assert header == expected_header
        assert len(rows) == scenario["steps"] + 1
        for k, row in enumerate(rows):
            expected = [factored.times[k]]
            for z in factored.z_samples[k].ravel():
                expected += [z.real, z.imag]
            if n == 1:
                expected += [factored.mu_total[k], factored.phase_geometric[k],
                             factored.phase_dynamical[k]]
            if bloch_report is not None:
                expected += list(bloch_report.m_riccati[k])
            assert [float(cell) for cell in row] == expected


def test_verify_suite_passes():
    results = run_property_suite(seed=42, count=8, max_dim=5)
    for name, (worst, tol, bad) in results.items():
        assert bad == [], f"{name} exceeded {tol} with {worst}"
        assert worst <= tol


def test_verify_cli_exit(capsys):
    assert main(["verify", "--count", "4", "--max-dim", "4"]) == 0
    out = capsys.readouterr().out
    assert "picture_crosscheck" in out and "FAIL" not in out
