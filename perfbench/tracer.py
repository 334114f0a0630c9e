"""Spans around the calls into each layer of eebounds, recorded from outside
the package.

``Tracer.install`` replaces every function named in a module's ``__all__``
(and ``cli.main``) by a wrapper, in that module, in the package namespace and
in every other eebounds module that imported it by name, so calls made inside
the package are caught too. A span is ``(id, name, layer, start, end,
parent)``; spans stay in memory until ``write``.

Layers are module names. A layer's self time is the duration of its spans
minus the part covered by their child spans; ``layer_self_times`` checks
that the self times of all layers plus the time outside any span add up to
the traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("numerics", "binary", "spherical", "finite", "simulate", "cli")
SOLVERS = ("solve_bracketed", "maximize_unimodal")
# Arguments recorded on the span of the few calls whose size the metrics need.
RECORDED_ARGS = {
    "simulate_bsc": ("trials", "workers", "seed"),
    "simulate_awgn": ("trials", "workers", "seed"),
    "simulate_cone_exit": ("trials", "workers", "seed", "n"),
    "exact_margin_probability": ("code",),
}
ALLOC_LAYERS = ("finite", "simulate")


class Tracer:
    def __init__(self, alloc: bool = False):
        self.spans: list[tuple] = []
        self.args: dict[int, dict] = {}
        self.f_evals = 0
        self.cold: set[int] = set()
        self.bounds = {"binary": [0, 0], "spherical": [0, 0]}  # [values, invalid]
        self.alloc = alloc
        self.peak_alloc = defaultdict(int)
        self._alloc_depth = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("eebounds")
        modules = {layer: importlib.import_module(f"eebounds.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            names = ["main"] if layer == "cli" else mod.__all__
            for name in names:
                fn = getattr(mod, name)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, name, layer))
        for mod in [pkg, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, fn, name: str, layer: str):
        clock = time.perf_counter
        spans, local, ids = self.spans, self._local, self._ids
        is_solver = name in SOLVERS
        recorded = RECORDED_ARGS.get(name)
        sig = inspect.signature(fn) if recorded else None
        memo = getattr(fn, "cache_info", None)
        bounds = self.bounds.get(layer)
        alloc = self.alloc and layer in ALLOC_LAYERS

        def count_evals(f):
            def counted(x):
                self.f_evals += 1
                return f(x)

            return counted

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            if is_solver:
                if args:
                    args = (count_evals(args[0]), *args[1:])
                else:
                    kwargs["f"] = count_evals(kwargs["f"])
            if recorded:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.args[sid] = {
                    k: (v.n if k == "code" else v) for k, v in bound.arguments.items() if k in recorded
                }
            misses = memo().misses if memo else 0
            if alloc:
                self._alloc_enter()
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, layer, t0, t1, parent))
                if alloc:
                    self._alloc_exit(layer)
                if memo and memo().misses > misses:
                    self.cold.add(sid)
            if bounds is not None:
                for v in result if isinstance(result, tuple) else (result,):
                    if hasattr(v, "valid"):
                        bounds[0] += 1
                        bounds[1] += not v.valid
            return result

        return wrapper

    def _alloc_enter(self) -> None:
        # tracemalloc runs only inside the outermost finite/simulate span:
        # tracing every allocation of a pass would make it many times slower.
        if self._alloc_depth == 0:
            tracemalloc.start()
        self._alloc_depth += 1

    def _alloc_exit(self, layer: str) -> None:
        self._alloc_depth -= 1
        if self._alloc_depth == 0:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peak_alloc[layer] = max(self.peak_alloc[layer], peak)

    # -- results --------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, layer, t0, t1, parent in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "layer": layer, "start": t0,
                                     "end": t1, "parent": parent, **self.args.get(sid, {})}) + "\n")

    def metrics(self, wall: float, nproc: int) -> tuple[dict, bool]:
        """Per-layer metrics of one traced pass of ``wall`` seconds."""
        selfs, harness, ok = layer_self_times(self.spans, wall)
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s[1]].append(s)

        def dur(names):
            return sum(s[4] - s[3] for n in names for s in by_name[n])

        def calls(layer):
            return sum(1 for s in self.spans if s[2] == layer)

        solves = len(by_name["solve_bracketed"]) + len(by_name["maximize_unimodal"])
        oracle_s = dur(["exact_margin_probability"])
        words = sum(1 << self.args[s[0]]["code"] for s in by_name["exact_margin_probability"])
        m = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
        m.update({
            "numerics.solves": solves,
            "numerics.f_evals": self.f_evals,
            "numerics.evals_per_solve": self.f_evals / solves if solves else 0.0,
            "numerics.log_sum_calls": len(by_name["log_sum"]),
            "binary.calls": calls("binary"),
            "binary.invalid_frac": _frac(*self.bounds["binary"][::-1]),
            "spherical.elias_theta_calls": len(by_name["elias_theta"]),
            "spherical.decoding_radius_calls": len(by_name["decoding_radius"]),
            "spherical.landmarks_cold_s": sum(
                s[4] - s[3] for s in by_name["spherical_landmarks"] if s[0] in self.cold
            ),
            "spherical.invalid_frac": _frac(*self.bounds["spherical"][::-1]),
            "finite.union_bound_s": dur(["binary_union_bound", "awgn_union_bound"]),
            "finite.oracle_s": oracle_s,
            "finite.oracle_words_per_s": words / oracle_s if oracle_s else 0.0,
            "cli.calls": calls("cli"),
            "trace.harness_frac": harness / wall if wall else 0.0,
        })
        trials_total, time_total = 0, 0.0
        for kind, fn in (("bsc", "simulate_bsc"), ("awgn", "simulate_awgn"), ("cone", "simulate_cone_exit")):
            t = sum(self.args[s[0]]["trials"] for s in by_name[fn])
            d = dur([fn])
            m[f"simulate.{kind}_trials_per_s"] = t / d if d else 0.0
            trials_total += t
            time_total += d
        m["simulate.trials_per_s"] = trials_total / time_total if time_total else 0.0
        m["simulate.parallel_efficiency"] = self._parallel_efficiency(nproc)
        return m, ok

    def _parallel_efficiency(self, nproc: int) -> float:
        """Speed-up of workers=nproc over workers=1 on identical calls,
        divided by nproc."""
        by_call = defaultdict(dict)
        for s in self.spans:
            a = self.args.get(s[0])
            if a and "workers" in a:
                key = (s[1], a["trials"], a["seed"], a.get("n"))
                by_call[key][a["workers"]] = s[4] - s[3]
        serial = sum(d[1] for d in by_call.values() if 1 in d and nproc in d)
        parallel = sum(d[nproc] for d in by_call.values() if 1 in d and nproc in d)
        return serial / (parallel * nproc) if parallel and nproc > 1 else 0.0


def _frac(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_self_times(spans, wall: float, eps: float = 1e-9) -> tuple[dict, float, bool]:
    """Self time per layer, the time outside every span, and whether the
    arithmetic holds: every child lies within its parent's duration, and the
    self times plus the outside time equal ``wall``.

    ``spans`` holds ``(id, name, layer, start, end, parent)`` tuples.
    """
    covered = defaultdict(float)
    for _, _, _, t0, t1, parent in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    selfs = defaultdict(float)
    roots = 0.0
    ok = True
    for sid, _, layer, t0, t1, parent in spans:
        d = t1 - t0
        if covered[sid] > d + eps:
            ok = False
        selfs[layer] += d - covered[sid]
        if parent < 0:
            roots += d
    outside = wall - roots
    total = sum(selfs.values()) + outside
    ok = ok and outside >= -eps and abs(total - wall) <= eps * max(1.0, len(spans))
    return dict(selfs), outside, ok
