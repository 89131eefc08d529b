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
import, before numpy loads).  With VOLTMARK_THREADS=1 the path engine advances the assets
on one thread each, up to the CPUs the process may use.  The manifest
records the cap (``blas_threads``, null without one) and the engine's
paths per chunk (``chunk_paths``), the two settings besides config and
seed that the CSV bits depend on.
"""

import argparse
import configparser
import hashlib
import json
import os
import sys
import time

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
n_boot = 1000

[riccati]
truncation_K = 120

[experiment]
m = 2.255
u = -0.05, -0.05
m_count = 8
frontier_horizons = 0.5, 1.0, 5.0
laplace_M = 20000
stationarity_M = 10000
output_dir = voltmark-out
"""

_SCHEMA = {
    "model": {"d", "alpha", "lam", "nu", "rho", "theta", "mu0", "c", "r", "x0"},
    "grid": {"T", "n"},
    "mc": {"M", "seed", "n_boot"},
    "riccati": {"truncation_K"},
    "experiment": {
        "m", "u", "m_count", "frontier_horizons", "laplace_M",
        "stationarity_M", "output_dir",
    },
}

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4

# largest accepted stabilizer functional-equation residual (relative to
# c lam^2), the tolerance of the stabilizer acceptance criterion
RESIDUAL_TOL = 1e-3


class ConfigError(ValueError):
    pass


def _parse_floats(raw: str, path: str):
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{path}: cannot parse {raw!r} as numbers") from exc


def _require_min(path: str, value: int, low: int, unit: str = "") -> None:
    if value < low:
        raise ConfigError(f"{path}: expected >= {low}{unit}, got {value}")


def load_config(text: str) -> dict:
    """Parse and validate the flat INI configuration.

    Every key of the schema is required; unknown sections or keys are
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
    cfg = {}
    for section, keys in _SCHEMA.items():
        if section not in parser:
            raise ConfigError(f"missing config section [{section}]")
        for key in sorted(keys):
            if key not in parser[section]:
                raise ConfigError(f"missing config field {section}.{key}")
    c = parser
    cfg["d"] = c.getint("model", "d")
    for key in ("alpha", "lam", "nu", "rho", "theta", "mu0", "c"):
        vals = _parse_floats(c.get("model", key), f"model.{key}")
        if len(vals) != cfg["d"]:
            raise ConfigError(f"model.{key}: expected {cfg['d']} values, got {len(vals)}")
        cfg[key] = vals
    cfg["r"] = c.getfloat("model", "r")
    cfg["x0"] = c.getfloat("model", "x0")
    cfg["T"] = c.getfloat("grid", "T")
    cfg["n"] = c.getint("grid", "n")
    # every Monte Carlo estimate reports a sample spread (two paths, two
    # resamples at least), and numpy seeds are non-negative
    cfg["M"] = c.getint("mc", "M")
    _require_min("mc.M", cfg["M"], 2, " paths")
    cfg["seed"] = c.getint("mc", "seed")
    _require_min("mc.seed", cfg["seed"], 0)
    cfg["n_boot"] = c.getint("mc", "n_boot")
    _require_min("mc.n_boot", cfg["n_boot"], 2)
    cfg["truncation_K"] = c.getint("riccati", "truncation_K")
    cfg["m"] = c.getfloat("experiment", "m")
    cfg["u"] = _parse_floats(c.get("experiment", "u"), "experiment.u")
    if len(cfg["u"]) != cfg["d"]:
        raise ConfigError(f"experiment.u: expected {cfg['d']} values, got {len(cfg['u'])}")
    cfg["m_count"] = c.getint("experiment", "m_count")
    _require_min("experiment.m_count", cfg["m_count"], 1, " targets")
    cfg["frontier_horizons"] = _parse_floats(
        c.get("experiment", "frontier_horizons"), "experiment.frontier_horizons")
    cfg["laplace_M"] = c.getint("experiment", "laplace_M")
    _require_min("experiment.laplace_M", cfg["laplace_M"], 2, " paths")
    cfg["stationarity_M"] = c.getint("experiment", "stationarity_M")
    _require_min("experiment.stationarity_M", cfg["stationarity_M"], 2, " paths")
    cfg["output_dir"] = c.get("experiment", "output_dir")
    return cfg


def _build_model(cfg: dict, T: float | None = None):
    from .model import MarketModel

    return MarketModel(
        d=cfg["d"], alpha=cfg["alpha"], lam=cfg["lam"], nu=cfg["nu"], rho=cfg["rho"],
        theta=cfg["theta"], mu0=cfg["mu0"], c=cfg["c"], r=cfg["r"], x0=cfg["x0"],
        T=cfg["T"] if T is None else T,
    )


def write_csv(path: str, header: list[str], rows) -> None:
    """12-significant-digit CSV with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.12g}" for v in row) + "\n")


def write_manifest(out_dir: str, cfg: dict, config_text: str, extra: dict | None = None) -> None:
    import numpy
    import scipy

    from . import __version__, _blas_threads
    from .simulate import _CHUNK_PATHS

    manifest = {
        "package": "voltmark",
        "version": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "parameters": cfg,
        # the CSV bits depend on these two besides the config and seed
        "blas_threads": _blas_threads,
        "chunk_paths": _CHUNK_PATHS,
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _dump_paths(path: str, ensemble) -> None:
    """Raw little-endian dump: header M, d, n as int64 and T as float64,
    then the V array row-major (path, asset, time)."""
    import numpy as np

    with open(path, "wb") as fh:
        np.array([ensemble.M, ensemble.model.d, ensemble.grid.n], dtype="<i8").tofile(fh)
        np.array([ensemble.grid.T], dtype="<f8").tofile(fh)
        np.ascontiguousarray(ensemble.V, dtype="<f8").tofile(fh)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def run_stabilizer(cfg: dict, out_dir: str) -> int:
    import numpy as np

    from .model import Grid
    from .stabilizer import functional_equation_residual

    model = _build_model(cfg)
    stabs = model.build_stabilizers(cfg["truncation_K"])
    n_res = min(cfg["n"], 200)
    grid = Grid(model.T, n_res)
    ok = True
    for i in range(model.d):
        res = functional_equation_residual(
            stabs[i], model.lam[i], model.c[i], model.T, n_res)
        sig = np.asarray(stabs[i].eval(grid.times))
        write_csv(
            os.path.join(out_dir, f"stabilizer_asset{i + 1}.csv"),
            ["t", "sigma", "residual"],
            zip(grid.times, sig, res),
        )
        within = res.max() <= RESIDUAL_TOL
        ok &= within
        print(f"asset {i + 1}: max residual {res.max():.3e}{'' if within else ' OFF'}")
    return 0 if ok else EXIT_ACCEPTANCE


def run_riccati(cfg: dict, out_dir: str) -> int:
    from .riccati import solve_riccati_adams

    model = _build_model(cfg)
    stabs = model.build_stabilizers(cfg["truncation_K"])
    sol = solve_riccati_adams(model, stabs, cfg["n"])
    header = ["t"] + [f"psi{i + 1}" for i in range(model.d)]
    write_csv(os.path.join(out_dir, "riccati_psi.csv"), header,
              zip(sol.grid.times, *sol.psi))
    print(f"psi(T) = {sol.psi[:, -1]}")
    return 0


def _simulate(cfg: dict, M: int, initial: str):
    """V-only ensemble: the stationarity statistics and --dump-paths read V alone."""
    from .model import Grid
    from .simulate import simulate_variance_paths

    model = _build_model(cfg)
    stabs = model.build_stabilizers(cfg["truncation_K"])
    grid = Grid(model.T, cfg["n"])
    ens = simulate_variance_paths(model, stabs, grid, M, cfg["seed"], initial=initial,
                                  increments=False)
    return model, stabs, grid, ens


def run_simulate(cfg: dict, out_dir: str, dump_paths: bool = False,
                 gate: bool = False) -> int:
    from .montecarlo import stationarity_diagnostics

    model, stabs, grid, ens = _simulate(cfg, cfg["M"], "stationary")
    report = stationarity_diagnostics(ens, model, cfg["n_boot"], cfg["seed"])
    for i, st in enumerate(report.stats):
        write_csv(
            os.path.join(out_dir, f"variance_stats_asset{i + 1}.csv"),
            ["t", "mean", "variance", "ci_low", "ci_high"],
            zip(st.times, st.mean, st.variance, st.ci_low, st.ci_high),
        )
    print(f"stationarity: mean coverage {report.mean_coverage}, "
          f"variance coverage {report.var_coverage}, passed={report.passed}")
    if dump_paths:
        _dump_paths(os.path.join(out_dir, "paths.bin"), ens)
    return 0 if (report.passed or not gate) else EXIT_ACCEPTANCE


def run_wealth(cfg: dict, out_dir: str) -> int:
    from .markowitz import simulate_wealth, solve_markowitz
    from .model import Grid
    from .montecarlo import ensemble_stats
    from .riccati import solve_riccati_adams
    from .simulate import simulate_variance_paths

    model = _build_model(cfg)
    stabs = model.build_stabilizers(cfg["truncation_K"])
    grid = Grid(model.T, cfg["n"])
    sol = solve_riccati_adams(model, stabs, cfg["n"])
    ms = solve_markowitz(model, sol, stabs, cfg["m"])
    ens = simulate_variance_paths(model, stabs, grid, cfg["M"], cfg["seed"], initial="fixed")
    wealth = simulate_wealth(model, ens, sol, stabs, ms.xi_star)
    xstats = ensemble_stats(wealth.X, grid.times, cfg["n_boot"], cfg["seed"])
    cols = [grid.times, xstats.mean, xstats.ci_low, xstats.ci_high]
    header = ["t", "X_mean", "X_ci_low", "X_ci_high"]
    for i in range(model.d):
        astats = ensemble_stats(wealth.alpha_paths[:, i, :], grid.times[:-1],
                                cfg["n_boot"], cfg["seed"] + 11 * (i + 1))
        pad = list(astats.mean) + [astats.mean[-1]]
        lo = list(astats.ci_low) + [astats.ci_low[-1]]
        hi = list(astats.ci_high) + [astats.ci_high[-1]]
        cols += [pad, lo, hi]
        header += [f"alpha{i + 1}_mean", f"alpha{i + 1}_ci_low", f"alpha{i + 1}_ci_high"]
    write_csv(os.path.join(out_dir, "wealth_stats.csv"), header, zip(*cols))
    z = abs(wealth.terminal_mean - cfg["m"]) / (xstats.mean_se[-1] or 1e-300)
    print(f"Gamma0={ms.gamma0:.8f} xi*={ms.xi_star:.8f} "
          f"E[X_T]={wealth.terminal_mean:.6f} target m={cfg['m']} (z={z:.2f})")
    return 0 if z <= 3.0 else EXIT_ACCEPTANCE


def run_frontier(cfg: dict, out_dir: str, T: float | None = None,
                 tolerance: float = 0.05) -> int:
    import numpy as np

    from .model import Grid
    from .montecarlo import frontier_experiment, frontier_m_grid

    model = _build_model(cfg, T=T)
    stabs = model.build_stabilizers(cfg["truncation_K"])
    grid = Grid(model.T, cfg["n"])
    points = frontier_experiment(
        model, frontier_m_grid(model, cfg["m_count"]), cfg["M"], cfg["seed"],
        grid=grid, stabs=stabs, n_boot=cfg["n_boot"],
    )
    tag = f"_T{model.T:g}" if T is not None else ""
    write_csv(
        os.path.join(out_dir, f"frontier{tag}.csv"),
        ["m", "sigma_theoretical", "sigma_mc", "mc_se", "v_theory", "v_mc", "v_mc_se"],
        [(p.m, p.sigma_theory, p.sigma_mc, p.v_mc_se, p.v_theory, p.v_mc, p.v_mc_se)
         for p in points],
    )
    ok = True
    for p in points:
        gap = abs(p.v_mc - p.v_theory)
        within = gap <= max(3.0 * p.v_mc_se, tolerance * p.v_theory)
        ok &= within
        print(f"T={model.T:g} m={p.m:.4f}: V_mc={p.v_mc:.5f}±{p.v_mc_se:.5f} "
              f"V={p.v_theory:.5f} {'ok' if within else 'OFF'}")
    return 0 if ok else EXIT_ACCEPTANCE


def run_laplace(cfg: dict, out_dir: str) -> int:
    from .markowitz import laplace_affine_check
    from .model import Grid

    model = _build_model(cfg)
    stabs = model.build_stabilizers(cfg["truncation_K"])
    grid = Grid(model.T, cfg["n"])
    rep = laplace_affine_check(model, stabs, cfg["u"], grid, cfg["laplace_M"], cfg["seed"])
    write_csv(
        os.path.join(out_dir, "laplace_check.csv"),
        ["mc_value", "mc_se", "closed_form", "z_score"],
        [(rep.mc_value, rep.mc_se, rep.closed_form, rep.z_score)],
    )
    print(f"laplace: mc={rep.mc_value:.8f}±{rep.mc_se:.2e} closed={rep.closed_form:.8f} "
          f"z={rep.z_score:.2f} passed={rep.passed}")
    return 0 if rep.passed else EXIT_ACCEPTANCE


def run_full(cfg: dict, out_dir: str) -> int:
    status = 0
    print("== stabilizer ==")
    status = max(status, run_stabilizer(cfg, out_dir))
    print("== riccati ==")
    status = max(status, run_riccati(cfg, out_dir))
    print("== stationarity ==")
    cfg_station = dict(cfg, M=cfg["stationarity_M"])
    status = max(status, run_simulate(cfg_station, out_dir, gate=True))
    print("== wealth ==")
    status = max(status, run_wealth(cfg, out_dir))
    for T in cfg["frontier_horizons"]:
        print(f"== frontier T={T:g} ==")
        tol = 0.10 if T > 1.0 else 0.05
        status = max(status, run_frontier(cfg, out_dir, T=T, tolerance=tol))
    print("== laplace ==")
    status = max(status, run_laplace(cfg, out_dir))
    return status


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
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.out is not None:
        cfg["output_dir"] = args.out
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)

    from .kernels import ParameterError

    try:
        from .markowitz import ConsistencyError
        from .riccati import BlowupError, ConvergenceError
        from .simulate import FactorizationError, NonFiniteError
        from .stabilizer import TruncationError

        if args.command == "simulate":
            status = run_simulate(cfg, out_dir, dump_paths=args.dump_paths)
        else:
            status = _RUNNERS[args.command](cfg, out_dir)
        write_manifest(out_dir, cfg, text, extra={"command": args.command})
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowupError, ConvergenceError, FactorizationError,
            ConsistencyError, TruncationError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return status


if __name__ == "__main__":
    sys.exit(main())
