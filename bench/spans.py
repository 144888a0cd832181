"""Outside-in tracer for the unitint package.

Wraps every public function and every public method of a public class in the
modules of ``unitint`` so that each call records a span (function, start,
end, parent span).  Names bound into other modules by ``from .x import y``
are patched in every namespace that holds them, because that copy is the one
the importing module looks up.  Spans stay in memory until ``save`` writes
them out; self time is derived afterwards as duration minus the child spans.

A few wrapped callables carry hooks that turn arguments or results into
exact counters (H evaluation nodes, restarts, sample bytes, oracle steps).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("hamiltonian", "riccati", "linalg", "factorization", "oracle", "bloch", "cli")


def _result_nbytes(result) -> int:
    """Bytes held by the ndarray fields (or tuple items) of a solver result."""
    items = result if isinstance(result, tuple) else vars(result).values()
    return sum(v.nbytes for v in items if isinstance(v, np.ndarray))


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self, package):
        self.package = package
        self.modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        }
        self.names: list[str] = []  # fid -> "layer.qualname"
        self.fid_of: dict[str, int] = {}
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self._seen_t: set = set()
        self._last_exc = None
        self._patches: list = []  # (namespace, attribute, original)
        self._hook_table = self._hooks()

    # -- spans ------------------------------------------------------------

    def _fid(self, name: str) -> int:
        if name not in self.fid_of:
            self.fid_of[name] = len(self.names)
            self.names.append(name)
        return self.fid_of[name]

    def _open(self, fid: int) -> int:
        idx = len(self.starts)
        self.fids.append(fid)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span owned by the benchmark itself, e.g. one solve.

        Distinct H evaluation times are counted per ``bench.solve`` span.
        """
        if name == "bench.solve":
            self._seen_t = set()
        idx = self._open(self._fid(name))
        try:
            yield
        finally:
            self._close(idx)

    def mark(self) -> int:
        return len(self.starts)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        fid = self._fid(name)
        hook = self._hook_table.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(fid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if exc is not tracer._last_exc:  # count at the raising layer only
                    tracer._last_exc = exc
                    tracer.counters[f"raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _hooks(self):
        c = self.counters

        def arg(args, kwargs, pos, name, default=None):
            return args[pos] if len(args) > pos else kwargs.get(name, default)

        def h_eval(args, kwargs, _result):
            c["hamiltonian.evals"] += 1
            t = arg(args, kwargs, 1, "t")
            if t not in self._seen_t:
                self._seen_t.add(t)
                c["hamiltonian.distinct_t"] += 1

        def h_solver(_args, _kwargs, result):
            c["riccati.restarts"] += len(result.restarts)
            c["factorization.samples_bytes"] += _result_nbytes(result)

        def h_so5(_args, _kwargs, result):
            c["riccati.restarts"] += len(result[2])
            c["factorization.samples_bytes"] += _result_nbytes(result)

        def h_propagate(args, kwargs, _result):
            steps = int(arg(args, kwargs, 2, "steps"))
            estimate = arg(args, kwargs, 3, "estimate_error", True)
            c["oracle.steps"] += steps * (3 if estimate else 1)
            c["oracle.est_steps"] += 2 * steps if estimate else 0

        return {
            "hamiltonian.BlockedHamiltonian.matrix": h_eval,
            "factorization.solve_factored": h_solver,
            "factorization.hierarchical_solve": h_solver,
            "riccati.integrate_so5": h_so5,
            "oracle.propagate": h_propagate,
        }

    def _patch(self, namespace, attr, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        namespaces = [self.package, *self.modules.values()]
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        if vars(ns).get(attr) is obj:
                            self._patch(ns, attr, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self, lo: int = 0, hi: int | None = None):
        # slicing copies, so no buffer export pins the growing arrays
        hi = len(self.starts) if hi is None else hi
        fids = np.frombuffer(self.fids[lo:hi], dtype=np.int32)
        parents = np.frombuffer(self.parents[lo:hi], dtype=np.int32)
        dur = np.frombuffer(self.ends[lo:hi]) - np.frombuffer(self.starts[lo:hi])
        return fids, parents, dur

    def totals(self, lo: int = 0, hi: int | None = None):
        """Per-function (calls, inclusive seconds, self seconds) over spans lo..hi.

        Self time is duration minus the summed duration of direct children;
        the spans lo..hi must be whole subtrees (e.g. one benchmark pass).
        """
        fids, parents, dur = self.arrays(lo, hi)
        nf = len(self.names)
        child = np.zeros(len(dur))
        has_parent = parents >= lo
        np.add.at(child, parents[has_parent] - lo, dur[has_parent])
        calls = np.bincount(fids, minlength=nf)
        incl = np.bincount(fids, weights=dur, minlength=nf)
        self_s = np.bincount(fids, weights=dur - child, minlength=nf)
        return {
            name: (int(calls[i]), float(incl[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        fids, parents, _ = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            fid=fids,
            parent=parents,
            start=np.frombuffer(self.starts[:]),
            end=np.frombuffer(self.ends[:]),
        )
