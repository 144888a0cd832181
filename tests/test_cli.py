import json

import numpy as np
import pytest

from unitint.cli import ScenarioError, load_scenario, main, run_property_suite, run_scenario


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


def test_main_exit_codes(tmp_path):
    ok = _write(tmp_path, "ok.json", _spin_half_scenario())
    assert main(["run", str(ok), "--out", str(tmp_path / "out")]) == 0

    # tolerance failure -> 1
    failing = _write(
        tmp_path, "fail.json",
        _spin_half_scenario(
            id="fail",
            params={"B": [1.0, 0.5, 0.2]},
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
    # 12 steps cannot resolve a field of 60: the step retaken after the first
    # restart runs away, which is a solver error, not a tolerance failure
    p = _write(tmp_path, "runaway.json", _spin_half_scenario(
        id="runaway", params={"B": [60.0, 0.0, 0.0]}, t_end=2.0, steps=12))
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
    assert "solver error in runaway" in capsys.readouterr().err


@pytest.mark.parametrize(
    "matrix",
    [[[1.0, 2.0], [0.0, -1.0]], [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]],
    ids=["non_hermitian", "traceful"],
)
def test_main_invalid_model_is_solver_error(tmp_path, capsys, matrix):
    p = _write(tmp_path, "invalid.json", {
        "id": "invalid", "family": "constant", "N": len(matrix),
        "params": {"matrix": [[[v, 0.0] for v in row] for row in matrix]},
        "t_end": 1.0, "steps": 10,
    })
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
    assert "solver error in invalid" in capsys.readouterr().err


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


def test_trajectory_csv_contents(tmp_path):
    run_scenario(_spin_half_scenario(id="csv"), tmp_path)
    lines = (tmp_path / "csv_trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["t", "z00_re", "z00_im"]
    assert "mu_total" in header and "phase_dynamical" in header
    assert len(lines) == 402  # header + steps + 1 samples
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_verify_suite_passes():
    results = run_property_suite(seed=42, count=8, max_dim=5)
    for name, (worst, tol, bad) in results.items():
        assert bad == [], f"{name} exceeded {tol} with {worst}"
        assert worst <= tol


def test_verify_cli_exit(capsys):
    assert main(["verify", "--count", "4", "--max-dim", "4"]) == 0
    out = capsys.readouterr().out
    assert "picture_crosscheck" in out and "FAIL" not in out
