"""unitint benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload factored_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
run sets up (import, inputs, one warm-up solve), computes the references,
then repeats whole passes over the workload's cases for ``--seconds``,
checking every solve.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` the first half of the time runs
untraced and the second half traced, and the line holds the per-layer
metrics.  Scratch files go to ``bench/_work/``.  See ``bench/README.md``.
"""

import os

# BLAS must be pinned before numpy loads; the benchmark is single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("factored_sweep", "hier_peel", "so5_restart", "scenario_batch")
SETUP_REPEATS = 5  # this process plus four fresh ones
TAIL_LADDER = (99.9, 99.0, 95.0, 75.0, 50.0)
PROBE_REF_S = 1.85e-3  # speed-probe time on a 2-core x86 VM whose cores run at full speed


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing package, failed probe)."""


def import_unitint():
    if not (SRC / "unitint" / "__init__.py").is_file():
        raise BenchError(f"no unitint package under {SRC}")
    sys.path.insert(0, str(SRC))
    import unitint

    if Path(unitint.__file__).resolve().parent != SRC / "unitint":
        raise BenchError(f"imported unitint from {unitint.__file__}, not {SRC}")
    return unitint


def setup(workload: str, seed: int, workdir: Path):
    """Import unitint, build the workload's inputs and run one warm-up solve.

    Returns (seconds, workload); the benchmark's own module import is not timed.
    """
    t0 = time.perf_counter()
    ui = import_unitint()
    t_import = time.perf_counter() - t0
    from workloads import WORKLOADS

    t1 = time.perf_counter()
    wl = WORKLOADS[workload](ui, seed, workdir)
    wl.solve(wl.cases[0])
    return t_import + time.perf_counter() - t1, wl


class SpeedProbe:
    """A fixed numpy kernel, timed before every solve and after every set-up.

    On a VM whose cores are shared with other tenants the CPU speed can change
    by 1.8x within a minute, and the probe slows by the same factor as the
    solves: on a 2-core x86 VM, per-pass times divided by probe times stayed
    within 7% while the raw pass times ranged over 1.8x.  Timings are
    therefore reported at the reference speed, wall time * PROBE_REF_S /
    probe time (averaged over a pass); the raw figures are printed too.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.np, self.A, self.H = np, A, A + A.conj().T

    def _once(self) -> float:
        np, A, H = self.np, self.A, self.H
        t0 = time.perf_counter()
        for _ in range(50):
            B = np.kron(A[:2, :2], A[2:, 2:]) @ H
            w, Q = np.linalg.eigh(H)
            (Q * np.exp(-1j * w)) @ Q.conj().T + B
        return time.perf_counter() - t0

    def slowdown(self, rounds: int = 1) -> float:
        """Current slowdown against the reference speed: best of three, averaged."""
        best = [min(self._once() for _ in range(3)) for _ in range(rounds)]
        return statistics.fmean(best) / PROBE_REF_S


def normalized_setup(workload: str, seed: int, workdir: Path):
    """Set-up seconds at the reference speed, and the workload.

    One probe reading varies by 19% from the next, so ten are averaged.
    """
    seconds, wl = setup(workload, seed, workdir)
    return seconds / SpeedProbe().slowdown(rounds=10), wl


def probe_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class Loop:
    """Closed loop of whole passes over the cases; one caller, no think time."""

    def __init__(self, wl, refs, probe: SpeedProbe):
        self.wl, self.refs, self.probe = wl, refs, probe
        self.durations: list[float] = []  # wall seconds per solve
        self.slowdowns: list[float] = []  # probe slowdown just before each solve
        self.steps = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.errs: list[float] = []
        self.fingerprints: dict[int, bytes] = {}
        self.pass_counts: list[Counter] = []  # exact counters per pass

    def run(self, seconds: float, min_passes: int, tracer=None) -> None:
        passes = 0
        deadline = time.perf_counter() + seconds
        while passes < min_passes or time.perf_counter() < deadline:
            self._pass(tracer)
            passes += 1

    def _pass(self, tracer) -> None:
        counts: Counter = Counter()
        before = Counter(tracer.counters) if tracer else None
        lo = tracer.mark() if tracer else 0
        with tracer.span("bench.pass") if tracer else nullcontext():
            for i, case in enumerate(self.wl.cases):
                self.slowdowns.append(self.probe.slowdown())
                with tracer.span("bench.solve") if tracer else nullcontext():
                    t0 = time.perf_counter()
                    try:
                        result, error = self.wl.solve(case), None
                    except Exception as exc:  # a failed solve is a result
                        result, error = None, f"{type(exc).__name__}: {exc}"
                    self.durations.append(time.perf_counter() - t0)
                self.attempted += 1
                self.steps += case.steps
                problems = [error] if error else self._check(i, case, result, counts)
                if problems:
                    self.failed += 1
                    self.failures.append(f"{case.label}: {'; '.join(problems)}")
        if tracer:
            hi = tracer.mark()
            counts.update(tracer.counters - before)
            slowdown = statistics.fmean(self.slowdowns[-len(self.wl.cases):])
            for name, (calls, incl, self_s) in tracer.totals(lo, hi).items():
                counts[f"calls.{name}"] = calls
                counts[f"incl_s.{name}"] = incl / slowdown
                counts[f"self_s.{name}"] = self_s / slowdown
        self.pass_counts.append(counts)

    def normalized(self) -> list[float]:
        """Solve times at the reference speed, each scaled by its pass's mean slowdown.

        A single probe reading is too short to track the speed over one solve
        (readings 0.15 s apart correlate at only 0.4), so it would add noise;
        the pass mean follows the speed changes that last seconds.
        """
        n = len(self.wl.cases)
        out = []
        for i in range(0, len(self.durations), n):
            slowdown = statistics.fmean(self.slowdowns[i : i + n])
            out += [d / slowdown for d in self.durations[i : i + n]]
        return out

    def steps_per_s(self) -> float:
        return self.steps / sum(self.normalized())

    def _check(self, i, case, result, counts) -> list[str]:
        check = self.wl.check(case, result, self.refs[i])
        self.errs.append(check.err)
        counts.update(check.counts)
        first = self.fingerprints.setdefault(i, check.fingerprint)
        if check.fingerprint != first:
            check.failures.append("result differs from the first pass")
        return check.failures


def tail(durations):
    """Highest ladder percentile with at least 10 samples beyond it."""
    n = len(durations)
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            return p
    return TAIL_LADDER[-1]


def percentile(values, p):
    import numpy as np

    return float(np.percentile(values, p))


def end_to_end(loop: Loop, setup_times):
    ms = [1e3 * d for d in loop.normalized()]
    p_tail = tail(ms)
    finite = [e for e in loop.errs if math.isfinite(e)]
    err_max = max(finite) if finite else float("inf")  # all failed: reads 0 digits
    metrics = {
        "steps_per_s": (loop.steps_per_s(), "1/s"),
        "solve_ms_p50": (percentile(ms, 50), "ms"),
        "solve_ms_tail": (percentile(ms, p_tail), "ms"),
        "err_max_digits": (-math.log10(min(max(err_max, 1e-16), 1.0)), "digits"),
        "ok_ratio": (1 - loop.failed / loop.attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "samples": len(ms),
        "tail_percentile": p_tail,
        "err_max": err_max,
        "fail_ratio": loop.failed / loop.attempted,
        "setup_runs_s": setup_times,
        "raw_steps_per_s": loop.steps / sum(loop.durations),
        "raw_solve_ms_p50": 1e3 * statistics.median(loop.durations),
        "slowdown_median": statistics.median(loop.slowdowns),
    }
    return metrics, info


# per-layer metrics: (kind, sources); every value is per pass unless per step
PER_LAYER = {
    "hamiltonian.evals_per_step": ("per_step", ["hamiltonian.evals"]),
    "hamiltonian.distinct_t_ratio": ("ratio", ["hamiltonian.distinct_t", "hamiltonian.evals"]),
    "hamiltonian.self_s": ("self_prefix", ["hamiltonian."]),
    "hamiltonian.so5_matrix_s": ("incl", ["hamiltonian.so5_matrix"]),
    "hamiltonian.so5_at_calls": ("calls", ["hamiltonian.SO5Coefficients.at"]),
    "linalg.eigh_per_step": ("calls_per_step", ["linalg.hermitian_eigendecomposition"]),
    "linalg.eigh_self_s": ("self", ["linalg.hermitian_eigendecomposition"]),
    "linalg.hermitian_checks": ("calls", ["linalg.is_hermitian"]),
    "linalg.unitary_step_calls": ("calls", ["linalg.unitary_step"]),
    "linalg.sqrt_calls": ("calls", ["linalg.sqrt_hpd", "linalg.inv_sqrt_hpd"]),
    "riccati.rhs_per_step": ("calls_per_step", ["riccati.riccati_rhs", "riccati.so5_rhs"]),
    "riccati.rhs_self_s": ("self", ["riccati.riccati_rhs", "riccati.so5_rhs"]),
    "riccati.rk4_calls": ("calls", ["riccati.rk4_step"]),
    "riccati.rk4_self_s": ("self", ["riccati.rk4_step"]),
    "riccati.restarts": ("count", ["riccati.restarts"]),
    "riccati.stiffness_errors": ("count", ["raised.StiffnessError"]),
    "factorization.u1_calls": ("calls", ["factorization.unitarized_U1"]),
    "factorization.u1_self_s": ("self", [
        "factorization.unitarized_U1", "factorization.assemble_tilde_U1",
        "factorization.unitarity_closure", "factorization.gauge_unitarize",
        "factorization.gauge_factor",
    ]),
    "factorization.effective_h_self_s": ("self", [
        "factorization.effective_hamiltonian_hermitian",
        "factorization.effective_hamiltonian_tilde", "factorization.sqrt_derivative",
    ]),
    "factorization.recursion_self_s": ("self", ["factorization.recursion_hamiltonian"]),
    "factorization.solve_self_s": ("self", [
        "factorization.solve_factored", "factorization.hierarchical_solve",
    ]),
    "factorization.samples_bytes": ("count", ["factorization.samples_bytes"]),
    "oracle.propagate_s": ("incl", ["oracle.propagate"]),
    "oracle.steps": ("count", ["oracle.steps"]),
    "oracle.est_share": ("ratio", ["oracle.est_steps", "oracle.steps"]),
    "oracle.compare_calls": ("calls", ["oracle.compare"]),
    "bloch.integrate_s": ("incl", ["bloch.integrate_bloch3", "bloch.integrate_bloch5"]),
    "bloch.crosscheck_self_s": ("self", [
        "bloch.crosscheck_su2", "bloch.crosscheck_so5", "bloch.crosscheck_pictures",
    ]),
    "bloch.base_coordinate_calls": ("calls", ["factorization.base_coordinate"]),
    "cli.load_s": ("incl", ["cli.load_scenario"]),
    "cli.run_scenario_self_s": ("self", ["cli.run_scenario"]),
    "cli.bytes_written": ("count", ["cli.bytes_written"]),
}
UNITS = {"per_step": "1/step", "calls_per_step": "1/step", "ratio": "ratio",
         "calls": "count", "count": "count", "self": "s", "self_prefix": "s", "incl": "s"}
COMPUTED_BYTES = ("factorization.samples_bytes", "cli.bytes_written")
# counters that must repeat bit for bit on every pass and every run of a seed
EXACT = ("hamiltonian.evals", "riccati.restarts", "factorization.samples_bytes",
         "cli.bytes_written", "calls.linalg.hermitian_eigendecomposition",
         "calls.riccati.riccati_rhs", "calls.riccati.so5_rhs")


def per_layer(passes: list[Counter], steps_per_pass: int):
    """Per-layer metrics averaged over the traced passes."""
    mean = Counter()
    for c in passes:
        mean.update(c)
    mean = {k: v / len(passes) for k, v in mean.items()}

    def get(prefix, names):
        return sum(mean.get(f"{prefix}{n}", 0) for n in names)

    metrics = {}
    for name, (kind, src) in PER_LAYER.items():
        if kind in ("per_step", "count"):
            value = get("", src)
        elif kind == "ratio":
            value = get("", src[:1]) / get("", src[1:]) if get("", src[1:]) else 0.0
        elif kind in ("calls", "calls_per_step"):
            value = get("calls.", src)
        elif kind == "self":
            value = get("self_s.", src)
        elif kind == "self_prefix":
            value = sum(v for k, v in mean.items() if k.startswith("self_s." + src[0]))
        else:
            value = get("incl_s.", src)
        if kind.endswith("per_step"):
            value /= steps_per_pass
        unit = "B_computed" if name in COMPUTED_BYTES else UNITS[kind]
        metrics[name] = (value, unit)
    return metrics


def exact_counts(passes: list[Counter]) -> dict:
    return {k: passes[0].get(k, 0) for k in EXACT}


def check_repeat(passes: list[Counter], path: Path) -> list[str]:
    """Exact counters must match across passes and across runs of the same code."""
    problems = []
    first = exact_counts(passes)
    for i, c in enumerate(passes[1:], start=1):
        diff = {k: (first[k], c.get(k, 0)) for k in EXACT if c.get(k, 0) != first[k]}
        if diff:
            problems.append(f"pass {i} counts differ from pass 0: {diff}")
    digest = hashlib.sha256()
    for f in sorted([*SRC.glob("unitint/*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(f.read_bytes())
    record = {"source": digest.hexdigest(), "counts": first}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous["source"] == record["source"] and previous["counts"] != first:
            problems.append(f"counts differ from the previous run of this seed: "
                            f"{previous['counts']} vs {first}")
    path.write_text(json.dumps(record, sort_keys=True))
    return problems


def describe(metrics):
    for name, (value, unit) in metrics.items():
        note = " (computed)" if unit == "B_computed" else ""
        print(f"  {name:34s} {value:>16.6g} {unit}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    workdir = BENCH_DIR / "_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    if args.setup_probe:
        seconds, _ = normalized_setup(args.workload, args.seed, workdir / "probe")
        print(repr(seconds))
        return 0

    own, wl = normalized_setup(args.workload, args.seed, workdir / "main")
    setup_times = [own] + [probe_setup(args.workload, args.seed)
                           for _ in range(SETUP_REPEATS - 1)]
    import numpy
    import scipy

    refs = [wl.reference(case) for case in wl.cases]
    probe = SpeedProbe()
    loop = Loop(wl, refs, probe)
    print(f"unitint benchmark: workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} cases/pass={len(wl.cases)} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} nproc={os.cpu_count()} "
          f"threads: {' '.join(f'{v}=1' for v in THREAD_VARS)}")
    problems = []
    if args.trace == 0:
        loop.run(args.seconds, min_passes=1)
        metrics, info = end_to_end(loop, setup_times)
    else:
        from spans import Tracer

        loop.run(args.seconds / 2, min_passes=1)
        traced = Loop(wl, refs, probe)
        traced.fingerprints = loop.fingerprints
        tracer = Tracer(wl.ui)
        tracer.install()
        try:
            traced.run(args.seconds / 2, min_passes=2, tracer=tracer)
        finally:
            tracer.uninstall()
        steps_per_pass = sum(case.steps for case in wl.cases)
        metrics = per_layer(traced.pass_counts, steps_per_pass)
        untraced = loop.steps_per_s()
        metrics["trace.steps_per_s_delta"] = (traced.steps_per_s() - untraced, "1/s")
        problems += check_repeat(traced.pass_counts, workdir / f"counts-{args.seed}.json")
        tracer.save(workdir / "trace.npz")
        info = {"passes_traced": len(traced.pass_counts), "spans": tracer.mark(),
                "exact_counts_per_pass": exact_counts(traced.pass_counts),
                "untraced_steps_per_s": untraced}
        for attr in ("attempted", "failed"):
            setattr(loop, attr, getattr(loop, attr) + getattr(traced, attr))
        loop.failures += traced.failures

    print(f"attempted={loop.attempted} failed={loop.failed} "
          f"fail_ratio={loop.failed / loop.attempted:.6g}")
    for line in loop.failures[:20]:
        print(f"  FAILED {line}")
    for line in problems:
        print(f"  CHECK {line}")
    print("  " + json.dumps(info, default=float))
    describe(metrics)
    result = {
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
