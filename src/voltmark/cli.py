"""Configuration-driven command line interface.

Each experiment is a subcommand writing CSV artifacts plus a JSON
manifest (parameters, seeds, library versions, config hash) into the
output directory:

    voltmark <subcommand> [--config FILE] [--seed N] [--out DIR]

Subcommands: stabilizer, riccati, simulate, wealth, frontier, laplace,
full, print-config.  Without --config the bundled two-asset rough
configuration is used.  Exit codes: 0 success, 2 configuration error,
3 numerical failure, 4 acceptance-check failure (a stabilizer residual
above 1e-3, a Monte Carlo gate).

CSV bodies are byte-stable for a fixed config, seed and VOLTMARK_THREADS:
12 significant digits, comma separated, LF line endings.
VOLTMARK_THREADS caps the BLAS thread count (the package applies it on
import, before numpy loads).  The manifest records the cap
(``blas_threads``, null without one), the engine's paths per chunk
(``chunk_paths``) and its bit generator (``bit_generator``), the
settings besides config and seed that the CSV bits depend on.

``main`` builds one ``RunContext`` (model, stabilizers, grid, streams)
from the validated config, and every stage of ``full`` runs on it; a
frontier at another horizon takes ``RunContext.at(T)``.  ``full`` first
applies its late stages' own rules (the frontier horizons and targets,
the target m, the Laplace forcing u), so a config that one of them
would refuse fails before the first stage writes anything.  Every stage
with paths is a block fold on a stream of the context's
``simulate.Streams``, which draws each stream once for all of its
folds: the frontier at the config horizon reads the wealth stage's
(A_T, B_T), and the Laplace check its time integrals when laplace_M
equals mc.M (the same paths).
The manifest's ``stages`` holds one record per stage in run order (the
command itself, or each stage of ``full``): its name, ``wall_s`` and the
process's peak resident set at its end, ``vmhwm_mb``; ``status`` holds
the exit code of a run that ends 0 or 4 (a run that fails writes no
manifest).
"""

import argparse
import configparser
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

import voltmark

from . import markowitz, montecarlo, riccati, simulate, stabilizer
from .kernels import ParameterError
from .model import Grid, MarketModel

_DEFAULT_CONFIG = """\
[model]
d = 2
alpha = 0.6, 0.9
lam = 0.2, 0.2
nu = 0.40, 0.32
rho = -0.7, -0.55
theta = 0.1, 0.12
mu0 = 2.0, 1.0
c = 0.01, 0.03
r = 0.02
x0 = 2.0

[grid]
T = 1.0
n = 600

[mc]
M = 5000
seed = 7041

[experiment]
m = 2.255
u = -0.05, -0.05
m_count = 8
frontier_horizons = 0.5, 1.0, 5.0
laplace_M = 5000
stationarity_M = 10000
output_dir = voltmark-out
"""

# every config key by section, in INI order, as (kind, least accepted
# value, unit): kind is int, float, str, list (of numbers) or "d" (a list
# of d numbers).  Every Monte Carlo estimate reports a sample spread (two
# paths at least), and numpy seeds are non-negative.
_SCHEMA = {
    "model": {"d": (int,), "alpha": ("d",), "lam": ("d",), "nu": ("d",), "rho": ("d",),
              "theta": ("d",), "mu0": ("d",), "c": ("d",), "r": (float,), "x0": (float,)},
    "grid": {"T": (float,), "n": (int,)},
    "mc": {"M": (int, 2, " paths"), "seed": (int, 0)},
    "experiment": {"m": (float,), "u": ("d",), "m_count": (int, 1, " targets"),
                   "frontier_horizons": (list,), "laplace_M": (int, 2, " paths"),
                   "stationarity_M": (int, 2, " paths"), "output_dir": (str,)},
}

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4

# largest accepted stabilizer functional-equation residual (relative to
# c lam^2), the tolerance of the stabilizer acceptance criterion
RESIDUAL_TOL = 1e-3


class ConfigError(ValueError):
    pass


def _parse(parser, path: str, kind):
    """Config field ``path`` ("section.key") as ``kind``: int, float, str or list of floats."""
    raw = parser.get(*path.split("."))
    try:
        if kind is list:
            return [float(tok) for tok in raw.replace(",", " ").split()]
        return kind(raw)
    except ValueError as exc:
        what = {int: "an integer", float: "a number", list: "numbers"}[kind]
        raise ConfigError(f"{path}: cannot parse {raw!r} as {what}") from exc


def _require_min(path: str, value: int, low: int, unit: str = "") -> None:
    if value < low:
        raise ConfigError(f"{path}: expected >= {low}{unit}, got {value}")


def load_config(text: str) -> dict:
    """Parse and validate the flat INI configuration into {key: value}.

    Every key of ``_SCHEMA`` is required; unknown sections or keys are
    rejected so typos fail loudly.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case sensitive (T vs t)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
    for section, keys in _SCHEMA.items():
        if section not in parser:
            raise ConfigError(f"missing config section [{section}]")
        for key in sorted(keys):
            if key not in parser[section]:
                raise ConfigError(f"missing config field {section}.{key}")
    cfg = {}
    for section, keys in _SCHEMA.items():
        for key, (kind, *least) in keys.items():
            path = f"{section}.{key}"
            cfg[key] = value = _parse(parser, path, list if kind == "d" else kind)
            if kind == "d" and len(value) != cfg["d"]:
                raise ConfigError(f"{path}: expected {cfg['d']} values, got {len(value)}")
            if least:
                _require_min(path, value, *least)
    return cfg


def write_csv(path: str, header: list[str], rows) -> None:
    """12-significant-digit CSV with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.12g}" for v in row) + "\n")


def write_manifest(out_dir: str, cfg: dict, config_text: str, extra: dict | None = None) -> None:
    manifest = {
        "package": "voltmark",
        "version": voltmark.__version__,
        "numpy": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "parameters": cfg,
        # the CSV bits depend on these three besides the config and seed
        "blas_threads": voltmark._blas_threads,
        "chunk_paths": simulate._CHUNK_PATHS,
        "bit_generator": simulate._BIT_GENERATOR.__name__,
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


class _Dump:
    """The --dump-paths fold: it writes each block of V into the raw
    little-endian dump, made at its first block: header M, d, n as int64
    and T as float64, then V row-major (path, asset, time)."""

    increments = False

    def __init__(self, model: MarketModel, stabs, grid: Grid, M: int, path: str):
        self.path, self.T, self.shape, self.body = path, grid.T, (M, model.d, grid.n + 1), None

    def __call__(self, first, lo, V, dB):
        M, d, n1 = self.shape
        if self.body is None:
            with open(self.path, "wb") as fh:
                np.array([M, d, n1 - 1], dtype="<i8").tofile(fh)
                np.array([self.T], dtype="<f8").tofile(fh)
                fh.truncate(32 + 8 * M * d * n1)
            self.body = np.memmap(self.path, dtype="<f8", mode="r+", offset=32, shape=self.shape)
        paths = slice(first, first + V.shape[-1])
        self.body[paths, :, lo : lo + V.shape[1]] = V.transpose(2, 0, 1)
        if paths.stop == M and lo + V.shape[1] == n1:     # the stream's last block
            self.body = None


@dataclasses.dataclass(frozen=True)
class RunContext:
    """What every stage of one run shares: the validated config, the
    model at the config horizon, its stabilizers, the path grid and the
    block streams at every horizon."""

    cfg: dict
    model: MarketModel
    stabs: list
    grid: Grid
    streams: simulate.Streams

    @classmethod
    def build(cls, cfg: dict) -> "RunContext":
        model = MarketModel(**{key: cfg[key] for key in _SCHEMA["model"]}, T=cfg["T"])
        return cls(cfg, model, model.build_stabilizers(), Grid(model.T, cfg["n"]),
                   simulate.Streams(cfg["seed"]))

    def at(self, T: float) -> "RunContext":
        """The context at horizon T, with the same stabilizers: they depend
        on (alpha, lam, c) alone.  At the run's own horizon this is the
        context itself, so its psi solves are shared through the memo."""
        if T == self.model.T:
            return self
        return dataclasses.replace(self, model=dataclasses.replace(self.model, T=T),
                                   grid=Grid(T, self.grid.n))


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def run_stabilizer(run: RunContext, out_dir: str) -> int:
    model, stabs = run.model, run.stabs
    n_res = min(run.grid.n, 200)
    times = Grid(model.T, n_res).times
    ok = True
    for i in range(model.d):
        res = stabilizer.functional_equation_residual(
            stabs[i], model.lam[i], model.c[i], model.T, n_res)
        sig = np.asarray(stabs[i].eval(times))
        write_csv(
            os.path.join(out_dir, f"stabilizer_asset{i + 1}.csv"),
            ["t", "sigma", "residual"],
            zip(times, sig, res),
        )
        within = res.max() <= RESIDUAL_TOL
        ok &= within
        print(f"asset {i + 1}: max residual {res.max():.3e}{'' if within else ' OFF'}")
    return 0 if ok else EXIT_ACCEPTANCE


def run_riccati(run: RunContext, out_dir: str) -> int:
    sol = riccati.solve_riccati_adams(run.model, run.stabs, run.grid.n)
    header = ["t"] + [f"psi{i + 1}" for i in range(run.model.d)]
    write_csv(os.path.join(out_dir, "riccati_psi.csv"), header,
              zip(sol.grid.times, *sol.psi))
    print(f"psi(T) = {sol.psi[:, -1]}")
    return 0


def run_simulate(run: RunContext, out_dir: str, M: int | None = None,
                 dump_paths: bool = False, gate: bool = False) -> int:
    """Stationary-start statistics on M paths (mc.M by default); they and
    --dump-paths read V alone, so no Brownian increments are simulated."""
    M = run.cfg["M"] if M is None else M
    stream = (run.model, run.stabs, run.grid, M, "stationary")
    if dump_paths:
        run.streams.fold(*stream, _Dump, os.path.join(out_dir, "paths.bin"))
    moments = run.streams.result(*stream, montecarlo._VarianceMoments)
    report = montecarlo.stationarity_report(run.model, moments.stats())
    for i, st in enumerate(report.stats):
        write_csv(
            os.path.join(out_dir, f"variance_stats_asset{i + 1}.csv"),
            ["t", "mean", "variance", "ci_low", "ci_high"],
            zip(run.grid.times, st.mean, st.variance, st.ci_low, st.ci_high),
        )
    print(f"stationarity: mean coverage {report.mean_coverage}, "
          f"variance coverage {report.var_coverage}, passed={report.passed}")
    return 0 if (report.passed or not gate) else EXIT_ACCEPTANCE


def run_wealth(run: RunContext, out_dir: str) -> int:
    """Wealth under the optimal strategy, folded block by block of the
    variance paths (``montecarlo._WealthMoments``)."""
    cfg, model, stabs, grid = run.cfg, run.model, run.stabs, run.grid
    sol = riccati.solve_riccati_adams(model, stabs, grid.n)
    ms = markowitz.solve_markowitz(model, sol, stabs, cfg["m"])
    wealth = run.streams.result(model, stabs, grid, cfg["M"], "fixed",
                                montecarlo._WealthMoments, ms.xi_star)
    xstats, *astats = wealth.moments.stats()
    cols = [grid.times, xstats.mean, xstats.ci_low, xstats.ci_high]
    header = ["t", "X_mean", "X_ci_low", "X_ci_high"]
    for i, st in enumerate(astats):
        # the strategy lives on cells: its last value is repeated at T
        cols += [np.append(col, col[-1]) for col in (st.mean, st.ci_low, st.ci_high)]
        header += [f"alpha{i + 1}_mean", f"alpha{i + 1}_ci_low", f"alpha{i + 1}_ci_high"]
    write_csv(os.path.join(out_dir, "wealth_stats.csv"), header, zip(*cols))
    terminal_mean = float(xstats.mean[-1])
    z = markowitz.z_score(terminal_mean, cfg["m"], xstats.mean_se[-1])
    print(f"Gamma0={ms.gamma0:.8f} xi*={ms.xi_star:.8f} "
          f"E[X_T]={terminal_mean:.6f} target m={cfg['m']} (z={z:.2f})")
    return 0 if z <= 3.0 else EXIT_ACCEPTANCE


def run_frontier(run: RunContext, out_dir: str, T: float | None = None) -> int:
    """Frontier at the config horizon, or at T (frontier_T<T>.csv).  A
    horizon beyond 1 is held to 10% relative instead of 5%: the terminal
    wealth grows heavy-tailed, and one variance estimate noisier."""
    here = run if T is None else run.at(T)
    cfg, model, stabs, grid = here.cfg, here.model, here.stabs, here.grid

    points = montecarlo.frontier_report(
        model, stabs, grid, montecarlo.frontier_m_grid(model, cfg["m_count"]),
        lambda: here.streams.result(model, stabs, grid, cfg["M"], "fixed", markowitz._Wealth))
    tag = f"_T{model.T:g}" if T is not None else ""
    write_csv(
        os.path.join(out_dir, f"frontier{tag}.csv"),
        ["m", "sigma_theoretical", "sigma_mc", "mc_se", "v_theory", "v_mc", "v_mc_se"],
        [(p.m, p.sigma_theory, p.sigma_mc, p.sigma_mc_se, p.v_theory, p.v_mc, p.v_mc_se)
         for p in points],
    )
    tolerance = 0.10 if model.T > 1.0 else 0.05
    ok = True
    for p in points:
        within = (markowitz.z_score(p.v_mc, p.v_theory, p.v_mc_se) <= 3.0
                  or abs(p.v_mc - p.v_theory) <= tolerance * p.v_theory)
        ok &= within
        print(f"T={model.T:g} m={p.m:.4f}: V_mc={p.v_mc:.5f}±{p.v_mc_se:.5f} "
              f"V={p.v_theory:.5f} {'ok' if within else 'OFF'}")
    return 0 if ok else EXIT_ACCEPTANCE


def run_laplace(run: RunContext, out_dir: str) -> int:
    """The Laplace check on the time integrals of laplace_M fixed-start paths;
    u is checked before any path is drawn."""
    cfg = run.cfg
    riccati._laplace_forcing(run.model, cfg["u"])
    integrals = run.streams.result(run.model, run.stabs, run.grid, cfg["laplace_M"], "fixed",
                                   markowitz._TimeIntegrals)
    rep = markowitz.laplace_report(run.model, run.stabs, cfg["u"], run.grid, integrals.total)
    write_csv(
        os.path.join(out_dir, "laplace_check.csv"),
        ["mc_value", "mc_se", "closed_form", "z_score", "beta"],
        [(rep.mc_value, rep.mc_se, rep.closed_form, rep.z_score, rep.beta)],
    )
    print(f"laplace: mc={rep.mc_value:.8f}±{rep.mc_se:.2e} closed={rep.closed_form:.8f} "
          f"z={rep.z_score:.2f} passed={rep.passed}")
    return 0 if rep.passed else EXIT_ACCEPTANCE


def run_full(run: RunContext, out_dir: str, stage) -> int:
    """Every stage in turn, each timed by stage(name), a context manager
    (``_Stages``)."""
    cfg = run.cfg
    # the late stages' own rules, so that a config they refuse writes nothing
    for T in cfg["frontier_horizons"]:
        montecarlo.frontier_m_grid(run.at(T).model, cfg["m_count"])
    markowitz._riskless(run.model, cfg["m"])
    markowitz._finite_variance(run.model, cfg["m"])
    riccati._laplace_forcing(run.model, cfg["u"])
    status = 0
    print("== stabilizer ==")
    with stage("stabilizer"):
        status = max(status, run_stabilizer(run, out_dir))
    print("== riccati ==")
    with stage("riccati"):
        status = max(status, run_riccati(run, out_dir))
    print("== stationarity ==")
    with stage("stationarity"):
        status = max(status, run_simulate(run, out_dir, M=cfg["stationarity_M"], gate=True))
    print("== wealth ==")
    # so that the wealth stream also folds the Laplace integrals when it is theirs
    run.streams.fold(run.model, run.stabs, run.grid, cfg["laplace_M"], "fixed",
                     markowitz._TimeIntegrals)
    with stage("wealth"):
        status = max(status, run_wealth(run, out_dir))
    for T in cfg["frontier_horizons"]:
        print(f"== frontier T={T:g} ==")
        with stage(f"frontier_T{T:g}"):
            status = max(status, run_frontier(run, out_dir, T=T))
    print("== laplace ==")
    with stage("laplace"):
        status = max(status, run_laplace(run, out_dir))
    return status


class _Stages:
    """Per-stage telemetry of one command: ``stage(name)`` times the block it
    wraps and appends {name, wall_s, vmhwm_mb} to ``records``, in run order,
    with the process's peak resident set (VmHWM in /proc/self/status, in
    MB; None where the file or the field is absent) at the stage's end."""

    def __init__(self):
        self.records = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        yield
        self.records.append({"name": name, "wall_s": time.perf_counter() - t0,
                             "vmhwm_mb": _vmhwm_mb()})


def _vmhwm_mb():
    """VmHWM of this process in MB, or None where /proc does not give it."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


_RUNNERS = {
    "stabilizer": run_stabilizer,
    "riccati": run_riccati,
    "simulate": run_simulate,
    "wealth": run_wealth,
    "frontier": run_frontier,
    "laplace": run_laplace,
    "full": run_full,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="voltmark",
        description="Fake stationary Volterra market: simulation and mean-variance solver",
    )
    parser.add_argument("command", choices=sorted(_RUNNERS) + ["print-config"])
    parser.add_argument("--config", help="INI config file (bundled defaults when omitted)")
    parser.add_argument("--seed", type=int, help="override mc.seed")
    parser.add_argument("--out", help="override experiment.output_dir")
    parser.add_argument("--dump-paths", action="store_true",
                        help="simulate: also write the raw path binary")
    args = parser.parse_args(argv)

    if args.command == "print-config":
        sys.stdout.write(_DEFAULT_CONFIG)
        return 0

    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = _DEFAULT_CONFIG
        cfg = load_config(text)
        if args.seed is not None:
            _require_min("--seed", args.seed, 0)
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["output_dir"] = args.out
        out_dir = cfg["output_dir"]
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:   # ConfigError, a file not in UTF-8, a NUL in a path
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        run = RunContext.build(cfg)
        stage = _Stages()
        if args.command == "full":
            status = run_full(run, out_dir, stage)
        else:
            with stage(args.command):
                if args.command == "simulate":
                    status = run_simulate(run, out_dir, dump_paths=args.dump_paths)
                else:
                    status = _RUNNERS[args.command](run, out_dir)
        write_manifest(out_dir, cfg, text, extra={"command": args.command, "status": status,
                                                  "stages": stage.records})
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (riccati.BlowupError, simulate.FactorizationError,
            markowitz.ConsistencyError, stabilizer.TruncationError,
            simulate.NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return status


if __name__ == "__main__":
    sys.exit(main())
