"""Ensemble statistics, bootstrap bands, and the experiment drivers.

Bootstrap resampling is over whole paths (per-time resampling would
understate path-level variance) and implemented as multinomial weight
matrices hitting the path array in a single matrix product, so 1000
resamples of 10^4 paths stay cheap.  Standard errors for variances come
from the same bootstrap distribution rather than asymptotic formulas;
terminal wealth is heavy-tailed for ambitious targets.
"""

from dataclasses import dataclass, field

import numpy as np

from .kernels import ParameterError
from .markowitz import affine_wealth_terminal, gamma0, variance_of_terminal, xi_eta_star
from .model import Grid, MarketModel
from .riccati import solve_riccati_adams
from .simulate import (
    PathEnsemble,
    require_finite,
    simulate_variance_chunks,
)

_DEFAULT_BOOT = 1000


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Per-time mean/variance with 95% bootstrap bands of the mean."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    mean_se: np.ndarray = field(repr=False)
    var_se: np.ndarray = field(repr=False)
    n_boot: int = _DEFAULT_BOOT


def _require_resamples(n_boot: int) -> None:
    # a bootstrap standard error is a spread over resamples: it needs two
    if n_boot < 2:
        raise ParameterError(f"bootstrap needs n_boot >= 2 resamples, got {n_boot}")


# resamples per multinomial draw of ``_bootstrap_weights``
_WEIGHT_ROWS = 64


def _bootstrap_weights(M: int, n_boot: int, rng: np.random.Generator) -> np.ndarray:
    """(n_boot, M) resampling weights, counts / M of n_boot multinomial draws.

    The draws are taken a block of rows at a time, which consumes the
    generator exactly as one draw of all rows would, so the weights are
    those of ``rng.multinomial(M, p, size=n_boot) / M`` without its
    (n_boot, M) integer temporary.
    """
    w = np.empty((n_boot, M))
    p = np.full(M, 1.0 / M)
    for lo in range(0, n_boot, _WEIGHT_ROWS):
        hi = min(lo + _WEIGHT_ROWS, n_boot)
        np.divide(rng.multinomial(M, p, size=hi - lo), M, out=w[lo:hi])
    return w


def ensemble_stats(paths: np.ndarray, times: np.ndarray, n_boot: int = _DEFAULT_BOOT,
                   seed: int = 0) -> EnsembleStats:
    """Sample mean/variance over paths with percentile-bootstrap CIs.

    paths has shape (M, len(times)); whole paths are resampled.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2 or paths.shape[0] < 2:
        raise ParameterError("ensemble_stats needs an (M, n_times) array with M >= 2")
    _require_resamples(n_boot)
    M = paths.shape[0]
    rng = np.random.default_rng(seed)
    w = _bootstrap_weights(M, n_boot, rng)           # (n_boot, M)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        boot_mean = w @ paths                        # (n_boot, n_times)
        boot_sq = w @ (paths * paths)
        boot_var = (boot_sq - boot_mean**2) * M / (M - 1.0)
        lo, hi = np.percentile(boot_mean, [2.5, 97.5], axis=0)
        stats = EnsembleStats(
            times=np.asarray(times, dtype=float),
            mean=paths.mean(axis=0),
            variance=paths.var(axis=0, ddof=1),
            ci_low=lo,
            ci_high=hi,
            mean_se=boot_mean.std(axis=0, ddof=1),
            var_se=boot_var.std(axis=0, ddof=1),
            n_boot=n_boot,
        )
    for name in ("mean", "variance", "mean_se", "var_se"):
        require_finite(f"ensemble {name.replace('_', ' ')}", getattr(stats, name))
    return stats


@dataclass(frozen=True)
class StationarityReport:
    """Fraction of grid times whose 3-SE band captures the constants."""

    mean_coverage: np.ndarray   # per asset
    var_coverage: np.ndarray
    passed: bool
    stats: tuple[EnsembleStats, ...] = field(repr=False)   # per asset
    mean_threshold: float = 0.99
    var_threshold: float = 0.95


def stationarity_diagnostics(ensemble: PathEnsemble, model: MarketModel,
                             n_boot: int = _DEFAULT_BOOT, seed: int = 0) -> StationarityReport:
    """Check that per-time sample moments stay on the stationary constants.

    For each asset the sample mean of V must sit within 3 bootstrap SEs
    of x_inf at >= 99% of grid times and the sample variance within 3
    SEs of v0 at >= 95% of times.  Asset i's ``ensemble_stats`` (seed
    + i) are returned with the report.
    """
    stats = tuple(ensemble_stats(ensemble.V[:, i, :], ensemble.grid.times, n_boot, seed + i)
                  for i in range(model.d))
    mean_cov = np.empty(model.d)
    var_cov = np.empty(model.d)
    for i, st in enumerate(stats):
        z_mean = np.abs(st.mean - model.x_inf[i]) / st.mean_se
        z_var = np.abs(st.variance - model.v0[i]) / st.var_se
        mean_cov[i] = float(np.mean(z_mean <= 3.0))
        var_cov[i] = float(np.mean(z_var <= 3.0))
    passed = bool(np.all(mean_cov >= 0.99) and np.all(var_cov >= 0.95))
    return StationarityReport(mean_coverage=mean_cov, var_coverage=var_cov, passed=passed,
                              stats=stats)


@dataclass(frozen=True)
class FrontierPoint:
    m: float
    xi_star: float
    v_theory: float
    v_mc: float
    v_mc_se: float
    mean_terminal: float
    mean_se: float

    @property
    def sigma_theory(self) -> float:
        return float(np.sqrt(self.v_theory))

    @property
    def sigma_mc(self) -> float:
        return float(np.sqrt(max(self.v_mc, 0.0)))


def terminal_bootstrap(terminal: np.ndarray, n_boot: int = _DEFAULT_BOOT,
                       seed: int = 0) -> tuple[float, float, float, float]:
    """(mean, mean SE, variance, variance SE) of terminal wealth."""
    terminal = np.asarray(terminal, dtype=float)
    return affine_bootstrap(terminal, np.zeros_like(terminal), [0.0], n_boot, seed)[0]


def _resample_moments(A: np.ndarray, B: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-resample E_w of (a, b, a^2, ab, b^2), with a, b = A, B minus their means.

    Centring leaves every bootstrap variance unchanged and keeps the
    closed-form variances below free of cancellation.
    """
    a = A - A.mean()
    b = B - B.mean()
    return w @ np.column_stack([a, b, a * a, a * b, b * b])      # (n_boot, 5)


def _resample_mean_var(moments: np.ndarray, A: np.ndarray, B: np.ndarray,
                       xi: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-resample mean and unbiased variance of x = A + xi B from the moments."""
    M = len(A)
    mean_c = moments[:, 0] + xi * moments[:, 1]
    sq_c = moments[:, 2] + 2.0 * xi * moments[:, 3] + xi * xi * moments[:, 4]
    return A.mean() + xi * B.mean() + mean_c, (sq_c - mean_c**2) * M / (M - 1.0)


def affine_bootstrap(A: np.ndarray, B: np.ndarray, xi_values, n_boot: int = _DEFAULT_BOOT,
                     seed: int = 0) -> list[tuple[float, float, float, float]]:
    """``terminal_bootstrap`` of x = A + xi B for every xi, from one weight draw.

    One (n_boot, M) x (M, 5) product gives each resample's moments of
    (A, B); each target's resampled means and variances then follow in
    closed form.  Point estimates come from x itself.
    """
    _require_resamples(n_boot)
    w = _bootstrap_weights(len(A), n_boot, np.random.default_rng(seed))
    out = []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        moments = _resample_moments(A, B, w)
        for xi in xi_values:
            x = A + xi * B
            bm, bv = _resample_mean_var(moments, A, B, xi)
            out.append((
                float(np.mean(x)),
                float(np.std(bm, ddof=1)),
                float(np.var(x, ddof=1)),
                float(np.std(bv, ddof=1)),
            ))
    require_finite("terminal wealth statistics", np.array(out))
    return out


def frontier_experiment(model: MarketModel, m_values, M: int, seed: int, *,
                        grid: Grid | None = None, stabs=None,
                        n_boot: int = _DEFAULT_BOOT) -> list[FrontierPoint]:
    """Monte Carlo frontier: simulated Var(X_T) against V(m) per target m.

    One variance ensemble (deterministic V0 = x_inf, matching the single
    Gamma0 that prices the frontier) serves all targets.  The terminal
    wealth is affine in xi*, so one recursion gives the pair (A_T, B_T)
    and each target's X_T = A_T + xi* B_T.  The recursion runs chunk by
    chunk (``simulate_variance_chunks``) and keeps only (A_T, B_T), so
    no path outlives its chunk.  One bootstrap weight draw (seed + 7919)
    serves every target through ``affine_bootstrap``.  psi is solved on the path grid through the
    memo of ``solve_riccati_adams``, so a caller's own solve is reused.
    """
    grid = grid or Grid(model.T, 600)
    stabs = stabs or model.build_stabilizers()
    solution = solve_riccati_adams(model, stabs, grid.n)
    g0 = gamma0(model, solution, stabs)  # m-independent, priced once
    chunks = simulate_variance_chunks(model, stabs, grid, M, seed, initial="fixed")
    # map drops each chunk before the next one is simulated
    terminals = list(map(lambda chunk: affine_wealth_terminal(model, chunk, solution, stabs),
                         chunks))
    A = np.concatenate([a for a, _ in terminals])
    B = np.concatenate([b for _, b in terminals])
    m_values = np.atleast_1d(np.asarray(m_values, dtype=float))
    xis = [xi_eta_star(g0, model, float(m))[0] for m in m_values]
    stats = affine_bootstrap(A, B, xis, n_boot=n_boot, seed=seed + 7919)
    return [
        FrontierPoint(
            m=float(m), xi_star=xi,
            v_theory=variance_of_terminal(g0, model, float(m)),
            v_mc=var, v_mc_se=var_se, mean_terminal=mean, mean_se=mean_se,
        )
        for m, xi, (mean, mean_se, var, var_se) in zip(m_values, xis, stats)
    ]


def frontier_m_grid(model: MarketModel, count: int = 8) -> np.ndarray:
    """Target means spanning [x0 e^((r+0.01)T), x0 e^((r+0.5)T)]."""
    lo = model.x0 * np.exp((model.r + 0.01) * model.T)
    hi = model.x0 * np.exp((model.r + 0.5) * model.T)
    return np.linspace(lo, hi, count)
