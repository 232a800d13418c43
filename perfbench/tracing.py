"""Spans around calls into the program, recorded from the benchmark's side.

:func:`install` replaces each traced public function of ``parabolic_sv`` by a
timing wrapper in every module that holds a reference to it, so calls made
by the program itself are caught too.  Nothing in the package changes on disk.

Two kinds of wrapper:

* a *span* keeps one record per call: id, name, parent id, start, end,
  workload, error (if any), result metadata, and ``sub`` -- the time spent in
  each outermost descendant, keyed by span name;
* a *leaf* is for calls too frequent to keep one by one (the Black-Scholes
  kernel): it only adds its count and busy time to the tracer's totals and
  its time to ``sub`` of the enclosing span.

Spans stay in memory and are written out by :meth:`Tracer.dump`.
"""
from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from time import perf_counter

# (module, attribute, kind) of every traced function.  ``meta`` pulls the
# numbers a metric needs out of the return value.
TARGETS = (
    ("averaging", "effective_params", "span"),
    ("black_scholes", "bs_call_price", "leaf"),
    ("black_scholes", "d1d2_call", "leaf"),
    ("pricer", "price_first_order", "span"),
    ("calibration", "calibrate_effective", "span"),
    ("calibration", "estimate_a", "span"),
    ("monte_carlo", "mc_price", "span"),
    ("monte_carlo", "simulate_terminal", "span"),
    ("cli", "main", "span"),
)

META = {
    "averaging.effective_params": lambda out: {"n_nodes": out.n_nodes},
    "calibration.calibrate_effective": lambda out: {"iterations": out.iterations},
    "monte_carlo.mc_price": lambda out: {"std_error": out.std_error},
}


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.leaves: dict[str, list] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        meta = META.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            rec = {"id": next(self._ids), "name": name,
                   "parent": parent["id"] if parent else None,
                   "workload": self.workload, "sub": {}}
            stack.append(rec)
            rec["start"] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                rec["end"] = end = perf_counter()
                stack.pop()
                if parent is not None:
                    psub = parent["sub"]
                    for key, val in rec["sub"].items():
                        if key != name:
                            psub[key] = psub.get(key, 0.0) + val
                    psub[name] = psub.get(name, 0.0) + end - rec["start"]
                self.spans.append(rec)
            if meta is not None:
                rec.setdefault("meta", {}).update(meta(out))
            return out

        return wrapper

    def leaf(self, name: str, fn):
        totals = self.leaves.setdefault(name, [0, 0.0])
        local = self._local

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                totals[0] += 1
                totals[1] += dur
                stack = getattr(local, "stack", None)
                if stack:
                    sub = stack[-1]["sub"]
                    sub[name] = sub.get(name, 0.0) + dur

        return wrapper

    def annotate(self, **kv) -> None:
        """Attach values to the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            stack[-1].setdefault("meta", {}).update(kv)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            for name, (count, busy) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "workload": self.workload,
                                     "count": count, "busy_s": busy}) + "\n")


def _replace_everywhere(modules, orig, wrapper) -> None:
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of ``parabolic_sv``, importing it first."""
    mods = {name: importlib.import_module(f"parabolic_sv.{name}") for name, _, _ in TARGETS}
    averaging, calibration = mods["averaging"], mods["calibration"]
    modules = [m for n, m in sys.modules.items() if n == "parabolic_sv" or n.startswith("parabolic_sv.")]
    for mod_name, attr, kind in TARGETS:
        mod = mods[mod_name]
        orig = getattr(mod, attr)
        name = f"{mod_name}.{attr}"
        wrapper = tracer.span(name, orig) if kind == "span" else tracer.leaf(name, orig)
        _replace_everywhere(modules, orig, wrapper)

    # The Nelder-Mead optimiser that calibration calls, and the objective it hands over.
    orig_minimize = calibration.minimize
    traced_minimize = tracer.span("calibration.minimize", orig_minimize)

    def minimize(fun, x0, *args, **kwargs):
        return traced_minimize(tracer.span("calibration.objective", fun), x0, *args, **kwargs)

    calibration.minimize = minimize

    # Cache hits: the compute callback runs only on a miss.
    orig_get = averaging.AveragingCache.get_or_compute

    def get_or_compute(self, key, fn):
        computed = []

        def compute():
            computed.append(True)
            return fn()

        out = orig_get(self, key, compute)
        tracer.annotate(cache_hit=not computed)
        return out

    averaging.AveragingCache.get_or_compute = get_or_compute
