"""Outside-in tracer for the voltmark layers.

The tracer wraps every public function of the layer modules (kernels,
stabilizer, riccati, simulate, markowitz, montecarlo, cli) and patches
every namespace that holds one: the defining module, modules that bound
the name at import (``montecarlo`` holds ``gamma0`` and
``simulate_wealth``), the package namespace and dicts such as the CLI's
runner table.  Lazy ``from .x import y`` statements inside the CLI
runners read the patched module attributes at call time.  Nothing in
``src/`` is edited.

Each call becomes a span (name, start, end, parent, run id, growth of
the process's ``ru_maxrss`` across the call).  Spans stay in memory
until ``write_spans`` at the end of the run.  A few functions also have
an observer that counts work and builds an argument key from the call,
so ``.unique_ratio`` = distinct keys / calls shows recomputation.
"""

import dataclasses
import functools
import hashlib
import inspect
import json
import os
import resource
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("kernels", "stabilizer", "riccati", "simulate", "markowitz", "montecarlo", "cli")

# stages of `voltmark full`: the runner span under cli.run_full -> stage name
_STAGES = {
    "cli.run_stabilizer": "stabilizer",
    "cli.run_riccati": "riccati",
    "cli.run_simulate": "stationarity",
    "cli.run_wealth": "wealth",
    "cli.run_laplace": "laplace",
}
FULL_STAGES = ("stabilizer", "riccati", "stationarity", "wealth",
               "frontier_T0.5", "frontier_T1", "frontier_T5", "laplace")


# ---------------------------------------------------------------------------
# argument keys
# ---------------------------------------------------------------------------

def _array_key(a: np.ndarray):
    """Shape, dtype and a hash of a strided sample of at most ~64 x 64 entries.

    Hashing every byte of a path ensemble would cost more than the call
    being traced; different seeds or inputs differ in every sampled cell.
    """
    if a.ndim == 0:
        return ("scalar", a.item())
    sample = a[tuple(slice(None, None, max(1, s // 64)) for s in a.shape)]
    digest = hashlib.blake2b(np.ascontiguousarray(sample).tobytes(), digest_size=12)
    return ("array", a.shape, a.dtype.str, digest.hexdigest())


def arg_key(v):
    if isinstance(v, np.ndarray):
        return _array_key(v)
    if v is None or isinstance(v, (bool, int, float, str, np.number)):
        return v
    if isinstance(v, (list, tuple)):
        return tuple(arg_key(x) for x in v)
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return (type(v).__name__,) + tuple(
            arg_key(getattr(v, f.name)) for f in dataclasses.fields(v))
    return (type(v).__name__, id(v))


# ---------------------------------------------------------------------------
# observers: count work and record argument keys for selected functions
# ---------------------------------------------------------------------------

def _record_key(tr, counter, name, args):
    tr.keys[counter].add((name, arg_key(tuple(args.values()))))


def _obs_build(tr, name, args, result):
    _record_key(tr, "stabilizer.build", name, args)


def _obs_adams(tr, name, args, result):
    _record_key(tr, "riccati.adams", name, args)
    tr.counts["riccati.adams_steps"] += int(args["n"])


def _obs_factor(tr, name, args, result):
    spec, grid = args["spec"], args["grid"]
    tr.keys["simulate.factor"].add((spec.family, spec.alpha, spec.beta, grid.T, grid.n))
    tr.counts["simulate.factor_rank"] = max(tr.counts["simulate.factor_rank"], result.rank)


def _obs_paths(tr, name, args, result):
    tr.counts["simulate.path_steps"] += int(args["M"]) * args["model"].d * args["grid"].n


def _obs_wealth(tr, name, args, result):
    ens = args["ensemble"]
    tr.counts["markowitz.wealth_path_steps"] += ens.M * ens.model.d * ens.grid.n


def _obs_ensemble_stats(tr, name, args, result):
    _record_key(tr, "montecarlo.bootstrap", name, args)
    paths = np.asarray(args["paths"])
    tr.counts["montecarlo.resample_cells"] += int(args["n_boot"]) * paths.shape[0] * paths.shape[1]


def _obs_terminal_bootstrap(tr, name, args, result):
    _record_key(tr, "montecarlo.bootstrap", name, args)
    tr.counts["montecarlo.resample_cells"] += int(args["n_boot"]) * len(args["terminal"])


def _obs_write_csv(tr, name, args, result):
    tr.counts["cli.bytes_written"] += os.path.getsize(args["path"])


def _obs_write_manifest(tr, name, args, result):
    tr.counts["cli.bytes_written"] += os.path.getsize(
        os.path.join(args["out_dir"], "manifest.json"))


OBSERVERS = {
    "stabilizer.build_stabilizer": _obs_build,
    "riccati.solve_riccati_adams": _obs_adams,
    "simulate.build_gaussian_factor": _obs_factor,
    "simulate.simulate_variance_paths": _obs_paths,
    "markowitz.simulate_wealth": _obs_wealth,
    "montecarlo.ensemble_stats": _obs_ensemble_stats,
    "montecarlo.terminal_bootstrap": _obs_terminal_bootstrap,
    "cli.write_csv": _obs_write_csv,
    "cli.write_manifest": _obs_write_manifest,
}


def _label_frontier(args, kwargs):
    T = kwargs.get("T", args[2] if len(args) > 2 else None)
    return "cli.run_frontier" if T is None else f"cli.run_frontier[T={T:g}]"


LABELS = {"cli.run_frontier": _label_frontier}


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []          # (name, parent, start, end, rss_growth_kb)
        self._stack: list[int] = []
        self._observer_in: dict[int, float] = defaultdict(float)  # span -> observer time
        self.observer_s = 0.0
        self.keys: dict[str, set] = defaultdict(set)
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)
        label = LABELS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = label(args, kwargs) if label else name
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            rss0 = _maxrss_kb()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                spans[idx] = (span_name, parent, t0, t1, _maxrss_kb() - rss0)
                stack.pop()
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, name, bound.arguments, result)
                spent = time.perf_counter() - t1
                self.observer_s += spent
                if parent >= 0:
                    self._observer_in[parent] += spent
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function and patch every namespace holding it."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"voltmark.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)  # keeps fn alive
        namespaces = [vars(m) for key, m in list(sys.modules.items())
                      if key == "voltmark" or key.startswith("voltmark.")]
        namespaces += [v for ns in namespaces for v in ns.values() if isinstance(v, dict)]
        for ns in namespaces:
            for attr, value in list(ns.items()):
                if id(value) in wrappers:
                    ns[attr] = wrappers[id(value)]

    @staticmethod
    def calibrate(calls: int = 20000) -> float:
        """Per-call cost of the wrapper around a function that does nothing."""
        def noop():
            return None

        traced = Tracer("calibration").wrap("calibration.noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        return max((t2 - t1) - (t1 - t0), 0.0) / calls

    # -- results -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, drss) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "parent": parent, "name": name,
                    "start": t0 - origin, "end": t1 - origin, "rss_growth_kb": drss,
                }) + "\n")

    def layer_metrics(self, wall_s: float, per_call_s: float) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = Counter()
        rss_mb = defaultdict(float)
        stages = dict.fromkeys(FULL_STAGES, 0.0)
        for i, (name, parent, t0, t1, drss) in enumerate(spans):
            fn = name.split("[", 1)[0]
            self_s[fn] += (t1 - t0) - child[i] - self._observer_in.get(i, 0.0)
            calls[fn] += 1
            rss_mb[fn] += drss / 1024.0
            if parent >= 0 and spans[parent][0] == "cli.run_full":
                stage = _STAGES.get(name)
                if name.startswith("cli.run_frontier[T="):
                    stage = "frontier_T" + name[len("cli.run_frontier[T="):-1]
                if stage in stages:
                    stages[stage] += t1 - t0

        def total(*fns):
            return sum(self_s[f] for f in fns)

        def layer_total(layer, what):
            return sum(v for f, v in what.items() if f.startswith(layer + "."))

        def ratio(counter, n_calls):
            return len(self.keys[counter]) / n_calls if n_calls else 0.0

        c = self.counts
        engine_s = total("simulate.simulate_variance_paths")
        boot_calls = calls["montecarlo.ensemble_stats"] + calls["montecarlo.terminal_bootstrap"]
        m = {f"{layer}.self_s": layer_total(layer, self_s) for layer in LAYERS}
        m["kernels.calls"] = layer_total("kernels", calls)
        m["kernels.resolvent_density.calls"] = calls["kernels.resolvent_density"]
        m["kernels.kernel_cross_segment.calls"] = calls["kernels.kernel_cross_segment"]
        m["stabilizer.build_s"] = total("stabilizer.build_stabilizer", "stabilizer.stabilizer_coeffs",
                                        "stabilizer.density_l2_norm")
        m["stabilizer.build.calls"] = calls["stabilizer.build_stabilizer"]
        m["stabilizer.build.unique_ratio"] = ratio("stabilizer.build", calls["stabilizer.build_stabilizer"])
        m["stabilizer.residual_s"] = total("stabilizer.functional_equation_residual",
                                           "stabilizer.stabilizer_residual")
        m["riccati.adams_s"] = total("riccati.solve_riccati_adams", "riccati.solve_laplace_riccati",
                                     "riccati.riccati_bound")
        m["riccati.adams.calls"] = calls["riccati.solve_riccati_adams"]
        m["riccati.adams_steps"] = c["riccati.adams_steps"]
        m["riccati.adams.unique_ratio"] = ratio("riccati.adams", calls["riccati.solve_riccati_adams"])
        m["simulate.factor_s"] = total("simulate.build_gaussian_factor")
        m["simulate.factor.calls"] = calls["simulate.build_gaussian_factor"]
        m["simulate.factor.unique_ratio"] = ratio("simulate.factor",
                                                  calls["simulate.build_gaussian_factor"])
        m["simulate.factor_rank"] = c["simulate.factor_rank"]
        m["simulate.engine_s"] = engine_s
        m["simulate.path_steps"] = c["simulate.path_steps"]
        m["simulate.path_steps_per_s"] = c["simulate.path_steps"] / engine_s if engine_s else 0.0
        m["simulate.rss_growth_mb"] = rss_mb["simulate.simulate_variance_paths"]
        m["markowitz.wealth_s"] = total("markowitz.simulate_wealth", "markowitz.control_coefficient")
        m["markowitz.wealth.calls"] = calls["markowitz.simulate_wealth"]
        m["markowitz.wealth_path_steps"] = c["markowitz.wealth_path_steps"]
        m["markowitz.wealth.rss_growth_mb"] = rss_mb["markowitz.simulate_wealth"]
        m["markowitz.gamma0_s"] = total("markowitz.gamma0")
        m["markowitz.gamma0.calls"] = calls["markowitz.gamma0"]
        m["markowitz.laplace_closed_s"] = total("markowitz.laplace_closed_form")
        m["montecarlo.bootstrap_s"] = total("montecarlo.ensemble_stats", "montecarlo.terminal_bootstrap")
        m["montecarlo.bootstrap.calls"] = boot_calls
        m["montecarlo.bootstrap.unique_ratio"] = ratio("montecarlo.bootstrap", boot_calls)
        m["montecarlo.resample_cells"] = c["montecarlo.resample_cells"]
        m["cli.io_s"] = total("cli.write_csv", "cli.write_manifest")
        m["cli.bytes_written"] = c["cli.bytes_written"]
        for stage in FULL_STAGES:
            m[f"cli.stage.{stage}_s"] = stages[stage]
        m["trace.wall_s"] = wall_s
        m["trace.spans"] = len(spans)
        m["trace.overhead_est_s"] = len(spans) * per_call_s + self.observer_s
        return m
