"""Scenario runner and verification suite.

``unitint run scenario.json`` integrates one or more scenario files along the
requested solver paths (factorized, hierarchical, bloch, oracle), writes a
trajectory CSV and a JSON report per scenario, and exits nonzero when a
named tolerance fails.  The two Riccati paths are read from one
integration per scenario (factorization._solve: one model read, one
Magnus product, one level-0 fold search), each equal to its standalone
solver's result bit for bit.  The ``est_error`` tolerance gates on the factorized
path's estimate of its own error in the final U (solve_factored's
est_error, step doubling on the grid's own nodes): an estimate, not a
bound, that read 0.999 to 1.001 times the error on smooth models.  A
one-step grid has no pair of steps to double, and on a grid with a
breakpoint inside a step the step across the jump is first order, which
step doubling does not see: a scenario that sets it is a parse error on
either.  ``unitint verify`` runs the seeded
invariant suite across random instances and prints worst-case residuals.

Exit codes: 0 all verdicts pass, 1 tolerance failure, 2 parse error,
3 solver error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bloch as bloch_mod
from .factorization import (
    _solve,
    effective_hamiltonian_hermitian,
    gamma1_inv_sqrt_closed,
    gamma1_sqrt_closed,
    recursion_hamiltonian,
    solve_factored,
    unitarity_closure,
    unitarized_U1,
)
from .hamiltonian import ModelError, _number, from_config, so5_coefficients, trig_random
from .linalg import (
    SingularMatrixError,
    dagger,
    frobenius,
    inv_sqrt_hpd,
    random_traceless_hermitian,
    sqrt_hpd,
)
from .oracle import compare, propagate
from .riccati import DEFAULT_Z_MAX, StiffnessError, _straddled, riccati_rhs


class ScenarioError(ValueError):
    """Scenario file fails schema validation."""


def _matrix_to_pairs(M: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(M, complex)]


PATHS = ("factorized", "hierarchical", "bloch", "oracle")
BLOCH_FAMILIES = ("spin_half", "so5")
TOLERANCE_NAMES = ("oracle_distance", "unitarity", "bloch_deviation", "est_error")


def _read(path: Path) -> dict:
    """The JSON object of a scenario file, as written; raises ScenarioError."""
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, col {exc.colno}: {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read the file: {exc}") from None
    if not isinstance(raw, dict):
        raise ScenarioError("a scenario is a JSON object")
    return raw


def load_scenario(path: Path) -> dict:
    """Read and parse a scenario file: the scenario with its defaults and the model's N and n."""
    return parse_scenario(_read(path))[0]


def parse_scenario(scenario: dict):
    """The one parse of a scenario: (scenario with its defaults and the model's N and n, model).

    The run defaults, the run fields (_check_fields), the model (from_config,
    the one reader of N, n, seed and the family's parameters), the
    hierarchical path's block size and an est_error tolerance against the
    model's breakpoints, in that order; raises ScenarioError.
    """
    scenario = {"Z_max": DEFAULT_Z_MAX, "paths": ["factorized", "oracle"], "tolerances": {}, **scenario}
    try:
        parsed = _check_fields(scenario)
        h = from_config(scenario)
        if "hierarchical" in scenario["paths"] and h.n != 1:
            raise ScenarioError(f"path hierarchical peels with block size 1, not n={h.n}")
    except KeyError as exc:
        raise ScenarioError(f"family {scenario['family']!r} needs parameter {exc}") from None
    except (TypeError, ValueError) as exc:  # ModelError included
        raise ScenarioError(str(exc)) from None
    if "est_error" in scenario["tolerances"] and _straddled(parsed["t_end"], parsed["steps"], h.breakpoints):
        raise ScenarioError(
            "tolerance est_error needs every breakpoint on a step's end node: a step across one is "
            "first order, and step doubling does not see it"
        )
    return {**scenario, **parsed, "N": h.N, "n": h.n}, h


def _check_fields(scenario: dict) -> dict:
    """Check every field but the model's; returns t_end, steps and Z_max as numbers."""
    for key in ("id", "family", "t_end", "steps"):
        if key not in scenario:
            raise ScenarioError(f"missing required field {key!r}")
    sid = scenario["id"]
    if not isinstance(sid, str) or sid in ("", ".", "..") or any(c in sid for c in "/\\\0"):
        raise ScenarioError(f"id must be a plain file name, got {sid!r}")
    t_end, steps = _number(scenario, "t_end"), _number(scenario, "steps", integral=True)
    if not (np.isfinite(t_end) and t_end > 0) or steps < 1:
        raise ScenarioError(f"need a finite t_end > 0 and steps >= 1, got {t_end} and {steps}")
    z_max = _number(scenario, "Z_max")
    if not z_max > 0:
        raise ScenarioError(f"need Z_max > 0, got {scenario['Z_max']!r}")
    paths, tolerances = scenario["paths"], scenario["tolerances"]
    if not isinstance(paths, list) or not isinstance(tolerances, dict):
        raise ScenarioError("paths must be a list and tolerances an object")
    unknown = [p for p in paths if p not in PATHS]
    if unknown:
        raise ScenarioError(f"unknown paths {unknown}")
    if "bloch" in paths and scenario["family"] not in BLOCH_FAMILIES:
        raise ScenarioError(
            f"path bloch needs a family in {BLOCH_FAMILIES}, not {scenario['family']!r}"
        )
    for name in tolerances:
        if name not in TOLERANCE_NAMES:
            raise ScenarioError(f"unknown tolerance name {name!r}")
        if not _number(tolerances, name) >= 0:
            raise ScenarioError(f"tolerance {name} must be >= 0, got {tolerances[name]!r}")
    if "est_error" in tolerances and steps < 2:
        raise ScenarioError("tolerance est_error needs steps >= 2: step doubling pairs the steps")
    return {"t_end": t_end, "steps": steps, "Z_max": z_max}


def run_scenario(scenario: dict, out_dir: Path) -> dict:
    """Execute one scenario; returns the report dict (also written to disk).

    A malformed scenario raises ScenarioError before any solve.  The model
    is integrated once (factorization._solve) for the factorized reading,
    which always runs since it gives the trajectory CSV, and for the peel
    when the hierarchical path is asked for; the two share one U, so one
    unitarity check serves both.  A solver error propagates before anything
    is written.
    """
    scenario, h = parse_scenario(scenario)
    t_end, steps, z_max, paths = (scenario[key] for key in ("t_end", "steps", "Z_max", "paths"))

    endpoint_U: dict[str, np.ndarray] = {}
    unitarity: dict[str, float] = {}
    phases = {}
    bloch_report = None

    factored, hier = _solve(h, t_end, steps, z_max, peel="hierarchical" in paths)
    restart_log = [{"path": "factorized", "t": float(t)} for t, _ in factored.restarts]
    riccati_paths = [path for path in ("factorized", "hierarchical") if path in paths]
    if riccati_paths:
        defect = _worst_unitarity(factored.U_samples)
        for path in riccati_paths:
            endpoint_U[path], unitarity[path] = factored.U_samples[-1], defect
    if "factorized" in paths and factored.mu_total is not None:
        phases["factorized"] = {
            "mu_total": float(factored.mu_total[-1]),
            "geometric": float(factored.phase_geometric[-1]),
            "dynamical": float(factored.phase_dynamical[-1]),
        }
    if hier is not None:
        restart_log += [
            {"path": "hierarchical", "t": float(t), "level": level} for t, level in hier.level_restarts
        ]
        phases["hierarchical"] = [
            {
                "level": int(lvl),
                "mu_total": float(hier.level_mu[-1, lvl]),
                "geometric": float(hier.level_geo[-1, lvl]),
                "dynamical": float(hier.level_dyn[-1, lvl]),
            }
            for lvl in range(h.N - 1)
        ]
    if "oracle" in paths:
        oracle_res = propagate(h, t_end, steps)
        endpoint_U["oracle"] = oracle_res.U_final
        unitarity["oracle"] = _worst_unitarity(oracle_res.U_samples)
    if "bloch" in paths:
        bloch_report = bloch_mod.crosscheck_pictures(factored)

    distances = {}
    names = sorted(endpoint_U)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            cmp = compare(endpoint_U[a], endpoint_U[b])
            distances[f"{a}_vs_{b}"] = {
                "plain": cmp.plain,
                "phase_insensitive": cmp.phase_insensitive,
            }

    # verdicts for every named tolerance
    measured = {
        "oracle_distance": max(
            (d["phase_insensitive"] for key, d in distances.items() if "oracle" in key),
            default=0.0,
        ),
        "unitarity": max(unitarity.values(), default=0.0),
        "bloch_deviation": bloch_report.max_deviation if bloch_report else 0.0,
        "est_error": factored.est_error,
    }
    verdicts = {}
    for name, tol in scenario["tolerances"].items():
        tol, value = float(tol), float(measured[name])
        verdicts[name] = {"tolerance": tol, "measured": value, "pass": bool(value <= tol)}

    report = {
        "id": scenario["id"],
        "endpoint_U": {k: _matrix_to_pairs(v) for k, v in endpoint_U.items()},
        "distances": distances,
        "unitarity": {k: float(v) for k, v in unitarity.items()},
        "phases": phases,
        "restarts": restart_log,
        "verdicts": verdicts,
    }
    if bloch_report is not None:
        report["bloch"] = {
            "max_deviation": bloch_report.max_deviation,
            "norm_drift": bloch_report.norm_drift,
            "restarts": bloch_report.restarts,
            "kappa": bloch_report.kappa,
            "fd_residual": bloch_report.fd_residual,
        }

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{scenario['id']}_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    _write_trajectory_csv(out_dir / f"{scenario['id']}_trajectory.csv", factored, bloch_report)
    return report


def _worst_unitarity(U_samples: np.ndarray) -> float:
    """Largest ||U^H U - I||_F over about 50 evenly spaced samples and U(T)."""
    stride = max(1, (len(U_samples) - 1) // 50)
    U = np.concatenate((U_samples[::stride], U_samples[-1:]))
    return float(np.max(np.linalg.norm(dagger(U) @ U - np.eye(U.shape[-1]), axis=(-2, -1))))


def _write_trajectory_csv(path: Path, factored, bloch_report) -> None:
    """One row per sample: t, z as re/im pairs, the n = 1 corner phases and m (bloch)."""
    z = factored.z_samples
    m, n = z.shape[1:]
    header = ["t"] + [f"z{i}{j}_{part}" for i in range(m) for j in range(n) for part in ("re", "im")]
    columns = [factored.times[:, None], np.stack((z.real, z.imag), axis=-1).reshape(len(z), -1)]
    if factored.mu_total is not None:
        header += ["mu_total", "phase_geometric", "phase_dynamical"]
        columns.append(
            np.column_stack((factored.mu_total, factored.phase_geometric, factored.phase_dynamical))
        )
    if bloch_report is not None:
        header += [f"m{k + 1}" for k in range(bloch_report.m_riccati.shape[1])]
        columns.append(bloch_report.m_riccati)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(np.hstack(columns).tolist())


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------


def _random_z(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def run_property_suite(seed: int = 42, count: int = 50, max_dim: int = 6) -> dict:
    """Seeded invariant sweep; returns {check name: (worst residual, tolerance, failing seeds)}."""
    checks: dict[str, list] = {
        "closure_z_eq_minus_gamma1_w": [0.0, 1e-10, []],
        "gamma1_sqrt_closed_form": [0.0, 1e-12, []],
        "gamma1_sqrt_squares": [0.0, 1e-12, []],
        "hermitian_effective_blocks": [0.0, 1e-9, []],
        "recursion_trace_identity": [0.0, 1e-10, []],
        "gamma_dot_identity": [0.0, 1e-7, []],
        "phase_split": [0.0, 1e-7, []],
        "picture_crosscheck": [0.0, 1e-6, []],
    }

    def record(name, value, inst_seed):
        entry = checks[name]
        entry[0] = max(entry[0], value)
        if value > entry[1]:
            entry[2].append(inst_seed)

    for i in range(count):
        inst_seed = seed + i
        rng = np.random.default_rng(inst_seed)
        N = int(rng.integers(2, max_dim + 1))
        n = int(rng.integers(1, N // 2 + 1))
        m = N - n

        z = _random_z(rng, m, n)
        w, g1, g2 = unitarity_closure(z)
        record("closure_z_eq_minus_gamma1_w", frobenius(z + g1 @ w), inst_seed)

        zc = _random_z(rng, m, 1)
        record(
            "gamma1_sqrt_closed_form",
            max(
                frobenius(gamma1_sqrt_closed(zc) - sqrt_hpd(np.eye(m) + zc @ dagger(zc))),
                frobenius(
                    gamma1_inv_sqrt_closed(zc) - inv_sqrt_hpd(np.eye(m) + zc @ dagger(zc))
                ),
            ),
            inst_seed,
        )
        s = gamma1_sqrt_closed(zc)
        record(
            "gamma1_sqrt_squares",
            frobenius(s @ s - (np.eye(m) + zc @ dagger(zc))),
            inst_seed,
        )

        H = random_traceless_hermitian(rng, N)
        blocks = (H[:m, :m], H[:m, m:], H[m:, m:])
        z_dot = riccati_rhs(blocks, z)
        upper, lower = effective_hamiltonian_hermitian(blocks, z, z_dot)
        record(
            "hermitian_effective_blocks",
            max(frobenius(upper - dagger(upper)), frobenius(lower - dagger(lower))),
            inst_seed,
        )

        blocks1 = (H[: N - 1, : N - 1], H[: N - 1, N - 1 :], H[N - 1 :, N - 1 :])
        z1 = _random_z(rng, N - 1, 1)
        Hrec = recursion_hamiltonian(blocks1, z1)
        bracket = H[N - 1, N - 1].real + (dagger(blocks1[1]) @ z1)[0, 0].real
        record(
            "recursion_trace_identity",
            abs(np.trace(Hrec).real + bracket) + abs(np.trace(Hrec).imag),
            inst_seed,
        )

    # trajectory-level checks on a few instances only (they integrate ODEs)
    for i in range(min(count, 5)):
        inst_seed = seed + 1000 + i
        h = trig_random(3, n=1, seed=inst_seed, scale=0.5)
        res = solve_factored(h, 1.0, 2000)
        H = h.read(res.times)  # one checked read of the trajectory's grid nodes
        worst = 0.0
        for k in range(1, len(res.times) - 1, 11):
            z0, z1_, z2 = res.z_samples[k - 1], res.z_samples[k], res.z_samples[k + 1]
            g = lambda zz: 1.0 + (dagger(zz) @ zz)[0, 0].real
            fd = (g(z2) - g(z0)) / (res.times[k + 1] - res.times[k - 1])
            V = H[k, :-1, -1:]
            an = (1j * g(z1_) * ((dagger(V) @ z1_) - (dagger(z1_) @ V)))[0, 0].real
            worst = max(worst, abs(fd - an))
        record("gamma_dot_identity", worst, inst_seed)
        # dynamical phase = -integral of (U1^H H U1)_NN, by trapezoid on the stored grid
        corner = [(dagger(U1) @ Hk @ U1)[-1, -1].real for Hk, U1 in zip(H, map(unitarized_U1, res.z_samples))]
        dyn = -np.trapezoid(corner, res.times)
        record("phase_split", abs(dyn - res.phase_dynamical[-1]), inst_seed)

    rep = bloch_mod.crosscheck_su2(np.array([1.0, 0.0, 0.5]), 2.0, 2000)
    record("picture_crosscheck", rep.max_deviation, seed)
    F = np.zeros((5, 5))
    F[4, 3], F[3, 4] = 1.0, -1.0
    rep5 = bloch_mod.crosscheck_so5(so5_coefficients(F), 2.0, 2000)
    record("picture_crosscheck", rep5.max_deviation, seed)

    return {name: tuple(entry) for name, entry in checks.items()}


def _cmd_run(args) -> int:
    exit_code = 0
    for file_path in args.files:
        try:
            scenario = _read(Path(file_path))
            if args.steps is not None:
                scenario["steps"] = args.steps
            if args.paths is not None:
                scenario["paths"] = args.paths.split(",")
            report = run_scenario(scenario, Path(args.out))
        except ScenarioError as exc:
            print(f"error: {file_path}: {exc}", file=sys.stderr)
            return 2
        except (StiffnessError, SingularMatrixError, ModelError) as exc:
            print(f"solver error in {scenario['id']}: {exc}", file=sys.stderr)
            return 3
        failed = [k for k, v in report["verdicts"].items() if not v["pass"]]
        status = "FAIL" if failed else "ok"
        print(f"{scenario['id']}: {status}" + (f" ({', '.join(failed)})" if failed else ""))
        if failed:
            exit_code = 1
    return exit_code


def _cmd_verify(args) -> int:
    results = run_property_suite(seed=args.seed, count=args.count, max_dim=args.max_dim)
    width = max(len(k) for k in results)
    failed = False
    print(f"{'check':<{width}}  {'worst':>12}  {'tolerance':>10}  verdict")
    for name, (worst, tol, bad_seeds) in results.items():
        verdict = "ok" if not bad_seeds else f"FAIL (seeds {sorted(set(bad_seeds))})"
        failed = failed or bool(bad_seeds)
        print(f"{name:<{width}}  {worst:>12.3e}  {tol:>10.1e}  {verdict}")
    return 1 if failed else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="unitint",
        description="Riccati-factorized evolution operators: scenario runner and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="run scenario JSON files",
        description="Tolerances: oracle_distance, unitarity, bloch_deviation and est_error, the factorized "
        "path's estimate of its error in the final U by step doubling (needs steps >= 2).",
    )
    p_run.add_argument("files", nargs="+", help="scenario JSON files")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--steps", type=int, default=None, help="override step count")
    p_run.add_argument("--paths", default=None, help="comma-separated solver paths")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the seeded invariant suite")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--count", type=int, default=50)
    p_verify.add_argument("--max-dim", type=int, default=6, dest="max_dim")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
