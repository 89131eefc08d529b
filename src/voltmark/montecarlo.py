"""Ensemble statistics, bootstrap bands, and the experiment drivers.

Bootstrap resampling is over whole paths (per-time resampling would
understate path-level variance).  A resample is a row of weights, the
counts of M paths drawn with replacement over M; one product of the
(n_boot, M) weights with the centred columns, and one with their
squares, give every resample's means and variances.  Columns of the same
paths (the assets of an ensemble, the wealth and its strategies, the
terminal wealth of each frontier target) share one weight draw in
``joint_ensemble_stats``, so each resample picks whole joint paths.
Standard errors for variances come from the same bootstrap distribution
rather than asymptotic formulas; terminal wealth is heavy-tailed for
ambitious targets.
"""

from dataclasses import dataclass, field

import numpy as np

from .kernels import ParameterError
from .markowitz import affine_wealth_terminal, gamma0, variance_of_terminal, xi_eta_star, z_score
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


# resamples per block of path indices drawn by ``_bootstrap_weights``
_WEIGHT_ROWS = 64


def _bootstrap_weights(M: int, n_boot: int, seed: int) -> np.ndarray:
    """(n_boot, M) resampling weights from ``default_rng(seed)``.

    Each row is the counts of M path indices drawn uniformly, over M:
    the multinomial(M, 1/M) law, drawn faster than numpy's multinomial
    sampler (0.22 s against 0.64 s at M = 10^4, n_boot = 1000).  The
    indices come ``_WEIGHT_ROWS`` rows at a time, so their array stays small.
    """
    if n_boot < 2:
        # a bootstrap standard error is a spread over resamples: it needs two
        raise ParameterError(f"bootstrap needs n_boot >= 2 resamples, got {n_boot}")
    rng = np.random.default_rng(seed)
    w = np.empty((n_boot, M))
    for lo in range(0, n_boot, _WEIGHT_ROWS):
        rows = rng.integers(0, M, size=(min(_WEIGHT_ROWS, n_boot - lo), M))
        for out, row in zip(w[lo:], rows):
            np.divide(np.bincount(row, minlength=M), M, out=out)
    return w


def _resampled_stats(w: np.ndarray, paths: np.ndarray, times) -> EnsembleStats:
    """Statistics of the columns of paths (M, k) over the resamples w.

    Centring the columns leaves every resampled variance unchanged and
    keeps it free of cancellation; point estimates come from the paths.
    """
    M = paths.shape[0]
    mean = paths.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the callers
        centred = paths - mean
        boot_mean = w @ centred                      # (n_boot, k)
        boot_var = w @ np.square(centred, out=centred)
        del centred
        boot_var = (boot_var - boot_mean**2) * (M / (M - 1.0))
        boot_mean += mean
        lo, hi = np.percentile(boot_mean, [2.5, 97.5], axis=0)
        return EnsembleStats(times=np.asarray(times, dtype=float), mean=mean,
                             variance=paths.var(axis=0, ddof=1), ci_low=lo, ci_high=hi,
                             mean_se=boot_mean.std(axis=0, ddof=1),
                             var_se=boot_var.std(axis=0, ddof=1), n_boot=len(w))


def joint_ensemble_stats(columns, n_boot: int = _DEFAULT_BOOT,
                         seed: int = 0) -> list[EnsembleStats]:
    """Mean/variance over paths (M, len(times)) with bootstrap CIs per pair, one weight draw.

    Row j of every paths array is a part of the same joint path j, so
    each resample picks whole joint paths.  The weights go on return.
    """
    columns = [(np.asarray(paths, dtype=float), times) for paths, times in columns]
    M = len(columns[0][0])
    if any(paths.ndim != 2 or len(paths) != M for paths, _ in columns) or M < 2:
        raise ParameterError("joint_ensemble_stats needs (M, n_times) arrays of the same M >= 2")
    w = _bootstrap_weights(M, n_boot, seed)
    out = [_resampled_stats(w, paths, times) for paths, times in columns]
    for stats in out:
        for name in ("mean", "variance", "mean_se", "var_se"):
            require_finite(f"ensemble {name.replace('_', ' ')}", getattr(stats, name))
    return out


@dataclass(frozen=True)
class StationarityReport:
    """Fraction of grid times whose 3-SE band captures the constants."""

    mean_coverage: np.ndarray   # per asset
    var_coverage: np.ndarray
    passed: bool
    stats: tuple[EnsembleStats, ...] = field(repr=False)   # per asset


def stationarity_diagnostics(ensemble: PathEnsemble, model: MarketModel,
                             n_boot: int = _DEFAULT_BOOT, seed: int = 0) -> StationarityReport:
    """Check that per-time sample moments stay on the stationary constants.

    For each asset the sample mean of V must sit within 3 bootstrap SEs
    of x_inf at >= 99% of grid times and the sample variance within 3
    SEs of v0 at >= 95% of times, by ``z_score``.  Each asset's
    statistics are returned with the report; the assets share one weight
    draw (seed).
    """
    times = ensemble.grid.times
    stats = tuple(joint_ensemble_stats([(ensemble.V[:, i, :], times) for i in range(model.d)],
                                       n_boot, seed))
    mean_cov = np.empty(model.d)
    var_cov = np.empty(model.d)
    for i, st in enumerate(stats):
        mean_cov[i] = np.mean(z_score(st.mean, model.x_inf[i], st.mean_se) <= 3.0)
        var_cov[i] = np.mean(z_score(st.variance, model.v0[i], st.var_se) <= 3.0)
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
    st, = joint_ensemble_stats([(np.asarray(terminal, dtype=float)[:, None], [0.0])], n_boot, seed)
    return float(st.mean[0]), float(st.mean_se[0]), float(st.variance[0]), float(st.var_se[0])


def frontier_experiment(model: MarketModel, m_values, M: int, seed: int, *,
                        grid: Grid | None = None, stabs=None,
                        n_boot: int = _DEFAULT_BOOT, terminal=None) -> list[FrontierPoint]:
    """Monte Carlo frontier: simulated Var(X_T) against V(m) per target m.

    One variance ensemble (deterministic V0 = x_inf, matching the single
    Gamma0 that prices the frontier) serves all targets.  The terminal
    wealth is affine in xi*, so one recursion gives the pair (A_T, B_T)
    and each target's X_T = A_T + xi* B_T.  The recursion runs chunk by
    chunk (``simulate_variance_chunks``) and keeps only (A_T, B_T), so
    no path outlives its chunk.  A caller that ran it over the same paths
    (``voltmark full``, in its wealth stage) passes the pair as
    ``terminal``, and none is simulated.  The targets' X_T are the
    columns of one (M, targets) array, so one bootstrap weight draw
    (seed + 7919) of ``joint_ensemble_stats`` serves them all.  psi is
    solved on the path grid through the memo of ``solve_riccati_adams``,
    so a caller's own solve is reused.
    """
    grid = grid or Grid(model.T, 600)
    stabs = stabs or model.build_stabilizers()
    solution = solve_riccati_adams(model, stabs, grid.n)
    g0 = gamma0(model, solution, stabs)  # m-independent, priced once
    if terminal is None:
        chunks = simulate_variance_chunks(model, stabs, grid, M, seed, initial="fixed")
        # map drops each chunk before the next one is simulated
        terminal = map(np.concatenate, zip(*map(
            lambda chunk: affine_wealth_terminal(model, chunk, solution, stabs), chunks)))
    A, B = terminal
    m_values = np.atleast_1d(np.asarray(m_values, dtype=float))
    xis = [xi_eta_star(g0, model, float(m))[0] for m in m_values]
    # column-major, so each target's point estimates reduce one contiguous x
    x = np.empty((len(A), len(xis)), order="F")
    for j, xi in enumerate(xis):
        x[:, j] = A + xi * B
    st, = joint_ensemble_stats([(x, xis)], n_boot, seed + 7919)
    return [
        FrontierPoint(
            m=float(m), xi_star=xi,
            v_theory=variance_of_terminal(g0, model, float(m)),
            v_mc=float(st.variance[j]), v_mc_se=float(st.var_se[j]),
            mean_terminal=float(st.mean[j]), mean_se=float(st.mean_se[j]),
        )
        for j, (m, xi) in enumerate(zip(m_values, xis))
    ]


def frontier_m_grid(model: MarketModel, count: int = 8) -> np.ndarray:
    """Target means spanning [x0 e^((r+0.01)T), x0 e^((r+0.5)T)]."""
    lo = model.x0 * np.exp((model.r + 0.01) * model.T)
    hi = model.x0 * np.exp((model.r + 0.5) * model.T)
    return np.linspace(lo, hi, count)
