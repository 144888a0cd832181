"""The four benchmark workloads: seeded inputs, the timed call, references, checks.

Every workload is a fixed list of cases built from the workload seed.  One
pass solves each case once through the public API; the timed loop repeats
whole passes, so every run sees the same mix of case sizes.  References come
from scipy (DOP853 at rtol = atol = 1e-13, or ``expm`` for constant pieces)
on Hamiltonians the benchmark writes down itself where the family allows;
``trig_random`` models are integrated through their own ``matrix`` evaluator,
since the model is the input.  The checks below use no unitint code.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

UNITARITY_TOL = 1e-8
REF_TOL = 1e-13

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PAULI = (SX, SY, SZ)


@dataclass
class Case:
    label: str
    steps: int  # grid steps summed over the solver-path calls of one solve
    params: dict
    model: object = None


@dataclass
class Check:
    err: float  # largest distance to the reference
    failures: list = field(default_factory=list)
    fingerprint: bytes = b""  # must repeat bit for bit on every pass
    counts: dict = field(default_factory=dict)  # exact per-solve counters


# ---------------------------------------------------------------------------
# independent helpers
# ---------------------------------------------------------------------------


def phase_distance(A: np.ndarray, B: np.ndarray) -> float:
    """min over global phases of ||A - e^{i phi} B||_F, materialized."""
    overlap = complex(np.trace(A.conj().T @ B))
    phase = np.conj(overlap) / abs(overlap) if overlap != 0 else 1.0
    return float(np.linalg.norm(A - phase * B))


def unitarity_defect(U_samples: np.ndarray) -> float:
    """Largest ||U^H U - I||_F over about 50 samples and the endpoint."""
    stride = max(1, (len(U_samples) - 1) // 50)
    picked = np.concatenate((U_samples[::stride], U_samples[-1:]))
    eye = np.eye(U_samples.shape[-1])
    return float(max(np.linalg.norm(U.conj().T @ U - eye) for U in picked))


def evolve(H, T: float, N: int, t_eval=None):
    """U(T) (or U on t_eval) for i dU/dt = H(t) U by DOP853."""

    def rhs(t, y):
        return (-1j * (H(t) @ y.reshape(N, N))).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, T),
        np.eye(N, dtype=complex).ravel(),
        method="DOP853",
        rtol=REF_TOL,
        atol=REF_TOL,
        t_eval=t_eval,
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    if t_eval is None:
        return sol.y[:, -1].reshape(N, N)
    return sol.y.T.reshape(-1, N, N)


def random_hermitian(rng, N: int, scale: float) -> np.ndarray:
    G = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    H = (G + G.conj().T) / 2
    H -= np.trace(H) / N * np.eye(N)
    return H * (scale / np.linalg.norm(H))


def so5_hamiltonian(F: np.ndarray) -> np.ndarray:
    """Two-qubit 4x4 H of an antisymmetric F (qubit 1 leftmost), from the model."""
    H = (
        F[1, 0] * np.kron(I2, SZ)
        - F[2, 0] * np.kron(I2, SY)
        + F[2, 1] * np.kron(I2, SX)
        - F[4, 3] * np.kron(SY, I2)
    )
    for i in range(3):
        H = H - F[3, i] * np.kron(SZ, PAULI[i]) + F[4, i] * np.kron(SX, PAULI[i])
    return H


def so5_bloch(U: np.ndarray) -> np.ndarray:
    """Unit 5-vector of the base coordinate z = U_tr U_br^{-1} (z = z4 I - i z.sigma)."""
    zmat = U[:2, 2:] @ np.linalg.inv(U[2:, 2:])
    z4 = np.trace(zmat).real / 2
    zi = [(0.5j * np.trace(zmat @ s)).real for s in PAULI]
    return bloch5(np.array([*zi, z4]))


def bloch5(z: np.ndarray) -> np.ndarray:
    g = 1.0 + float(z @ z)
    return np.concatenate((-2.0 * z / g, [(2.0 - g) / g]))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Seeded case list plus the timed call, reference and check per case."""

    name = ""
    tolerance = 0.0  # largest accepted distance to the reference

    def __init__(self, ui, seed: int, workdir: Path):
        self.ui = ui
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.cases = self.build()

    def build(self) -> list[Case]:
        raise NotImplementedError

    def solve(self, case: Case):
        raise NotImplementedError

    def reference(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, result, ref) -> Check:
        raise NotImplementedError

    def _gate(self, check: Check, defect: float | None = None) -> Check:
        if not check.err <= self.tolerance:
            check.failures.append(f"distance {check.err:.3e} above {self.tolerance:g}")
        if defect is not None and not defect <= UNITARITY_TOL:
            check.failures.append(f"unitarity defect {defect:.3e} above {UNITARITY_TOL:g}")
        return check


class FactoredSweep(Workload):
    """solve_factored on trig_random, N in {2,3,4,6}, n in {1, N/2}."""

    name = "factored_sweep"
    tolerance = 5e-3
    shapes = ((2, 1), (3, 1), (4, 1), (4, 2), (6, 1), (6, 3))
    harmonics = (1, 2, 3)
    copies = 1
    scale, T, steps, z_max = 2.0, 3.0, 230, 2.0

    def build(self):
        cases = []
        for N, n in self.shapes:
            steps = self.steps_for(N)
            for harm in self.harmonics:
                for copy in range(self.copies):
                    seed = int(self.rng.integers(2**31))
                    model = self.ui.trig_random(
                        N, n=n, seed=seed, harmonics=harm, scale=self.scale
                    )
                    params = dict(N=N, n=n, harmonics=harm, seed=seed, T=self.T)
                    cases.append(Case(f"N{N}n{n}h{harm}.{copy}", steps, params, model))
        return cases

    def steps_for(self, N: int) -> int:
        return self.steps

    def solve(self, case):
        return self.ui.solve_factored(case.model, case.params["T"], case.steps, Z_max=self.z_max)

    def reference(self, case):
        return evolve(case.model.matrix, case.params["T"], case.params["N"])

    def check(self, case, result, ref):
        U = result.U_samples[-1]
        return self._gate(
            Check(phase_distance(U, ref), fingerprint=U.tobytes()),
            unitarity_defect(result.U_samples),
        )


class HierPeel(FactoredSweep):
    """hierarchical_solve on trig_random, N in {3,4,6,8}, n = 1.

    Step counts fall with N so that every solve costs about the same with the
    code as first benchmarked (0.5, 0.65, 1.3, 1.8 ms/step at full speed),
    which keeps the solve-time median inside one cluster of similar solves.
    """

    name = "hier_peel"
    tolerance = 1e-4
    shapes = ((3, 1), (4, 1), (6, 1), (8, 1))
    copies = 2
    steps_for_N = {3: 325, 4: 260, 6: 130, 8: 98}

    def steps_for(self, N: int) -> int:
        return self.steps_for_N[N]

    def solve(self, case):
        return self.ui.hierarchical_solve(
            case.model, case.params["T"], case.steps, Z_max=self.z_max
        )


class So5Restart(Workload):
    """crosscheck_so5 + integrate_so5 with F54 dominant and Z_max = 1.5.

    The pole coordinate z4 ~ tan(F54 t) crosses the restart threshold
    |z4| = Z_max / sqrt(2) every ~0.82 / F54, so each solve folds 2-4 times,
    at least 9 steps apart.
    """

    name = "so5_restart"
    tolerance = 5e-3
    cases_per_kind = 8
    T, steps, z_max = 1.6, 40, 1.5

    def _antisymmetric(self, scale):
        A = self.rng.standard_normal((5, 5)) * scale
        return A - A.T

    def build(self):
        cases = []
        for kind in ("const", "cos"):
            for i in range(self.cases_per_kind):
                F0 = self._antisymmetric(0.15)
                c0 = float(self.rng.uniform(1.4, 2.0))
                F0[4, 3], F0[3, 4] = c0, -c0
                if kind == "const":
                    Fc, omega = np.zeros((5, 5)), 0.0
                else:
                    Fc = self._antisymmetric(0.1)
                    c1 = float(self.rng.uniform(0.0, 2.2 - c0))
                    Fc[4, 3], Fc[3, 4] = c1, -c1
                    omega = float(self.rng.uniform(0.5, 2.0))
                params = dict(F0=F0, Fc=Fc, omega=omega, T=self.T)
                coeffs = self.ui.so5_coefficients(
                    F0 if kind == "const" else self._F_of(params)
                )
                cases.append(Case(f"{kind}{i}", 2 * self.steps, params, coeffs))
        return cases

    @staticmethod
    def _F_of(p):
        F0, Fc, w = p["F0"], p["Fc"], p["omega"]
        return lambda t: F0 + Fc * np.cos(w * t)

    def solve(self, case):
        rep = self.ui.crosscheck_so5(case.model, self.T, self.steps, Z_max=self.z_max)
        z_run = self.ui.integrate_so5(case.model, self.T, self.steps, Z_max=self.z_max)
        return rep, z_run

    def reference(self, case):
        F = self._F_of(case.params)
        grid = np.linspace(0.0, self.T, self.steps + 1)
        return evolve(lambda t: so5_hamiltonian(F(t)), self.T, 4, t_eval=grid)

    def check(self, case, result, ref):
        rep, (times, z_samples, restart_times) = result
        U_T = ref[-1]
        m_ref = so5_bloch(U_T)
        # integrate_so5 restarts at grid times; its last segment starts there
        k = int(round(restart_times[-1] / (self.T / self.steps))) if restart_times else 0
        m_seg = so5_bloch(U_T @ ref[k].conj().T)
        dists = (
            np.linalg.norm(rep.m_riccati[-1] - m_ref),
            np.linalg.norm(rep.m_linear[-1] - m_ref),
            np.linalg.norm(bloch5(z_samples[-1]) - m_seg),
        )
        check = Check(
            float(max(dists)),
            fingerprint=rep.m_riccati.tobytes() + z_samples.tobytes(),
        )
        if not rep.max_deviation <= self.tolerance:
            check.failures.append(f"picture deviation {rep.max_deviation:.3e}")
        return self._gate(check)


class ScenarioBatch(Workload):
    """In-process ``unitint run`` over generated scenario files, one file per call."""

    name = "scenario_batch"
    tolerance = 5e-2
    variants = 3
    T = 2.0
    steps_for_family = {"constant": 110, "spin_half": 52, "piecewise": 88, "trig_random": 84}

    def build(self):
        self.cli = importlib.import_module(f"{self.ui.__name__}.cli")
        self.scen_dir = self.workdir / "scenarios"
        self.out_dir = self.workdir / "out"
        for d in (self.scen_dir, self.out_dir):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        cases = []
        for family, steps in self.steps_for_family.items():
            for i in range(self.variants):
                scen = getattr(self, f"_{family}")()
                scen.update(id=f"{family}-{i}", family=family, t_end=self.T, steps=steps)
                path = self.scen_dir / f"{scen['id']}.json"
                path.write_text(json.dumps(scen))
                n_paths = len(set(scen["paths"]) | {"factorized"})
                cases.append(Case(scen["id"], steps * n_paths, dict(scen=scen, path=path)))
        return cases

    @staticmethod
    def _pairs(M):
        return [[[float(v.real), float(v.imag)] for v in row] for row in M]

    def _tolerances(self, **extra):
        return {"oracle_distance": self.tolerance, "unitarity": UNITARITY_TOL, **extra}

    def _constant(self):
        M = random_hermitian(self.rng, 3, 2.0)
        return dict(
            N=3, n=1, params={"matrix": self._pairs(M)},
            paths=["factorized", "hierarchical", "oracle"], tolerances=self._tolerances(),
        )

    def _spin_half(self):
        B0, B1, w = (float(x) for x in self.rng.uniform((0.5, 0.5, 0.5), (2.0, 2.0, 3.0)))
        return dict(
            N=2, n=1, params={"B0": B0, "B1": B1, "omega": w},
            paths=["factorized", "hierarchical", "bloch", "oracle"],
            tolerances=self._tolerances(bloch_deviation=self.tolerance),
        )

    def _piecewise(self):
        # breakpoints on the grid: the oracle's midpoint nodes never straddle one
        times = [self.T * k / 4 for k in range(4)]
        mats = [self._pairs(random_hermitian(self.rng, 4, 2.0)) for _ in times]
        return dict(
            N=4, n=1, params={"times": times, "matrices": mats},
            paths=["factorized", "hierarchical", "oracle"], tolerances=self._tolerances(),
        )

    def _trig_random(self):
        # Z_max 2, as in factored_sweep: near the pole the error has a heavy tail
        return dict(
            N=4, n=1, Z_max=2.0, seed=int(self.rng.integers(2**31)),
            params={"harmonics": int(self.rng.integers(1, 4)), "scale": 2.0},
            paths=["factorized", "hierarchical", "oracle"], tolerances=self._tolerances(),
        )

    def solve(self, case):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main(["run", str(case.params["path"]), "--out", str(self.out_dir)])
        return code, sink.getvalue()

    def reference(self, case):
        scen = case.params["scen"]
        p, T = scen["params"], scen["t_end"]
        if scen["family"] == "constant":
            return scipy.linalg.expm(-1j * T * self._matrix(p["matrix"]))
        if scen["family"] == "piecewise":
            U = np.eye(scen["N"], dtype=complex)
            edges = [*p["times"], T]
            for k, M in enumerate(p["matrices"]):
                U = scipy.linalg.expm(-1j * (edges[k + 1] - edges[k]) * self._matrix(M)) @ U
            return U
        if scen["family"] == "spin_half":
            B0, B1, w = p["B0"], p["B1"], p["omega"]
            return evolve(
                lambda t: -0.5 * (B1 * np.cos(w * t) * SX + B1 * np.sin(w * t) * SY + B0 * SZ),
                T, 2,
            )
        model = self.ui.trig_random(
            scen["N"], n=scen["n"], seed=scen["seed"],
            harmonics=p["harmonics"], scale=p["scale"],
        )
        return evolve(model.matrix, T, scen["N"])

    @staticmethod
    def _matrix(pairs):
        a = np.asarray(pairs, dtype=float)
        return a[..., 0] + 1j * a[..., 1]

    def check(self, case, result, ref):
        code, output = result
        sid = case.params["scen"]["id"]
        report_path = self.out_dir / f"{sid}_report.json"
        csv_path = self.out_dir / f"{sid}_trajectory.csv"
        check = Check(float("inf"))
        if code != 0:
            check.failures.append(f"exit code {code}: {output.strip()[-200:]}")
            return check
        text = report_path.read_bytes()
        report = json.loads(text)
        dists = [phase_distance(self._matrix(U), ref) for U in report["endpoint_U"].values()]
        check.err = float(max(dists))
        check.fingerprint = text + csv_path.read_bytes()
        check.counts["cli.bytes_written"] = len(check.fingerprint)
        failed = [k for k, v in report["verdicts"].items() if not v["pass"]]
        if failed:
            check.failures.append(f"report verdicts failed: {failed}")
        return self._gate(check, max(report["unitarity"].values()))


WORKLOADS = {w.name: w for w in (FactoredSweep, HierPeel, So5Restart, ScenarioBatch)}
