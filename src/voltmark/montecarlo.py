"""Ensemble statistics, the stationarity and frontier reports, and their folds.

Every statistic of the stationarity, wealth and frontier stages is a
plug-in moment estimate over whole paths, folded from the block stream
(``simulate.fold_stream``): per-time statistics fold each 64-step block
into an accumulator of its own (``ColumnMoments``, ``joined_stats``),
and the frontier's per-path terminal wealth is the stream's (A_T, B_T),
so no stage holds whole paths.  The Laplace check
(``markowitz.laplace_report``) keeps one sample per path instead, and
its SE is their ddof = 1 sample SE.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .kernels import ParameterError
from .markowitz import _WEALTH_TILE, _Wealth, gamma0, variance_of_terminal, xi_eta_star, z_score
from .model import Grid, MarketModel
from .riccati import solve_riccati_adams
from .simulate import Streams, require_finite


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Per-column mean/variance with their standard errors and the 95% band of the mean."""

    mean: np.ndarray
    variance: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    mean_se: np.ndarray = field(repr=False)
    var_se: np.ndarray = field(repr=False)


class ColumnMoments:
    """Count, mean and central sums M2, M3, M4 of each column, folded chunk by chunk.

    ``add(x)`` folds the rows (paths) of an (m, k) array in, tile by tile
    of ``_WEALTH_TILE`` rows in row order, by the pairwise merges of Chan,
    Golub & LeVeque (Am. Stat. 37, 1983) for M2 and of Pebay (Sandia
    report SAND2008-6212, 2008) for M3 and M4; a whole ensemble is one
    chunk.  A tile's two temporaries, of 512 x k floats at most (k = 65
    for a block of X), are taken back from the heap by the next tile; a
    whole block's, megabytes at 10 000 paths, would stay on the heap
    after the fold.  With m_k = M_k / M, ``stats`` gives the
    variance M2 / (M - 1), the SEs sqrt(m2 / M) of the mean and
    sqrt((m4 - m2^2) / M) M / (M - 1) of the variance, and the 95% band
    mean -/+ 1.96 SE.  Overflowing sums are left to ``stats``.
    """

    count = 0
    mean = m2 = m3 = m4 = None

    def add(self, x) -> None:
        x = np.asarray(x, dtype=float)
        for t0 in range(0, len(x), _WEALTH_TILE):
            self._merge(x[t0 : t0 + _WEALTH_TILE])

    def _merge(self, x) -> None:
        """Fold one tile's rows in."""
        nb = len(x)
        with np.errstate(over="ignore", invalid="ignore"):  # checked by ``stats``
            mean_b = x.mean(axis=0)
            c = x - mean_b
            c2 = np.square(c)
            m2b = c2.sum(axis=0)
            m3b = np.multiply(c2, c, out=c).sum(axis=0)
            m4b = np.square(c2, out=c2).sum(axis=0)
            if not self.count:
                self.count, self.mean, self.m2, self.m3, self.m4 = nb, mean_b, m2b, m3b, m4b
                return
            na, n = self.count, self.count + nb
            wa, wb, d = na / n, nb / n, mean_b - self.mean
            # in this order, each update reads the previous lower sums
            self.m4 += (m4b + d**4 * (na * wb * (wa * wa - wa * wb + wb * wb))
                        + 6.0 * d**2 * (wa * wa * m2b + wb * wb * self.m2)
                        + 4.0 * d * (wa * m3b - wb * self.m3))
            self.m3 += m3b + d**3 * (na * wb * (wa - wb)) + 3.0 * d * (wa * m2b - wb * self.m2)
            self.m2 += m2b + d**2 * (na * wb)
            self.mean = self.mean + d * wb
            self.count = n

    def stats(self) -> EnsembleStats:
        """The plug-in statistics of the columns folded so far.

        Raises ParameterError below two paths and NonFiniteError when a
        statistic left the finite floats (|x - mean| near 1e77 overflows m4).
        """
        M = self.count
        if M < 2:
            raise ParameterError(f"ensemble statistics need M >= 2 paths, got {M}")
        with np.errstate(over="ignore", invalid="ignore"):
            m2, m4 = self.m2 / M, self.m4 / M
            mean_se = np.sqrt(m2 / M)
            # m4 >= m2^2 holds exactly; the clip only drops rounding below it
            var_se = np.sqrt(np.maximum(m4 - m2 * m2, 0.0) / M) * (M / (M - 1.0))
            out = EnsembleStats(mean=self.mean, variance=self.m2 / (M - 1.0),
                                ci_low=self.mean - 1.96 * mean_se,
                                ci_high=self.mean + 1.96 * mean_se, mean_se=mean_se, var_se=var_se)
        for name in ("mean", "variance", "mean_se", "var_se"):
            require_finite(f"ensemble {name.replace('_', ' ')}", getattr(out, name))
        return out


class _TimeMoments:
    """Per-time moments of series folded block by block: a ``ColumnMoments``
    per series and block of times, by the block's first time lo."""

    def __init__(self):
        self.blocks = {}

    def add(self, lo: int, *series) -> None:
        """Fold each series' (paths, times) array of the block at lo."""
        for acc, x in zip(self.blocks.setdefault(lo, [ColumnMoments() for _ in series]), series):
            acc.add(x)

    def stats(self) -> list[EnsembleStats]:
        return [joined_stats(accs) for accs in zip(*self.blocks.values())]


class _VarianceMoments(_TimeMoments):
    """The stationarity stage's fold: each asset's per-time moments of V.
    A block folds its times lo .. hi-1, the next block's row 0 repeating
    hi, and the chunk's last block time n too: no block of columns is a
    lone column, so the statistics have the bits of whole rows
    (``joined_stats``)."""

    increments = False

    def __init__(self, model: MarketModel, stabs, grid: Grid, M: int):
        super().__init__()
        self.n = grid.n

    def __call__(self, first, lo, V, dB):
        last = lo + V.shape[1] - 1 == self.n
        self.add(lo, *(rows.T if last else rows[:-1].T for rows in V))


class _WealthMoments(_Wealth):
    """The wealth stage's fold: the wealth recursion at xi* with the
    per-time moments of X and of each asset's strategy, each tile of
    paths (``markowitz._Wealth``) folded as it is stepped, so no block of
    a chunk's paths is held whole.  A tile of block [lo, hi) folds X at
    lo .. hi-1, and at lo .. n in the chunk's last block, and the
    strategies at lo .. hi-1."""

    def __init__(self, model: MarketModel, stabs, grid: Grid, M: int, xi_star: float):
        super().__init__(model, stabs, grid, M, xi_star)
        self.moments = _TimeMoments()

    def read(self, lo, tile, X, alpha):
        last = lo + len(X) - 1 == self.grid.n
        self.moments.add(lo, (X if last else X[:-1]).T, *(a.T for a in alpha))


def joined_stats(blocks) -> EnsembleStats:
    """The ``stats`` of ColumnMoments over consecutive column blocks of the
    same rows, as one EnsembleStats.  Each column's arithmetic is its own,
    so blocks of two or more columns give the bits of one accumulator over
    whole rows; numpy sums a lone column's mean pairwise instead of in
    row order, which can move its last bit."""
    parts = [acc.stats() for acc in blocks]
    return EnsembleStats(*(np.concatenate([getattr(st, f.name) for st in parts])
                           for f in fields(EnsembleStats)))


@dataclass(frozen=True)
class StationarityReport:
    """Fraction of grid times whose 3-SE band captures the constants."""

    mean_coverage: np.ndarray   # per asset
    var_coverage: np.ndarray
    passed: bool
    stats: tuple[EnsembleStats, ...] = field(repr=False)   # per asset


def stationarity_report(model: MarketModel, stats) -> StationarityReport:
    """Check that per-time sample moments stay on the stationary constants.

    stats holds each asset's statistics, a column per grid time
    (``_VarianceMoments``).  The sample mean of V must sit within 3 SEs
    of x_inf at >= 99% of grid times and the sample variance within 3
    SEs of v0 at >= 95% of times, by ``z_score``.
    """
    stats = tuple(stats)
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

    @property
    def sigma_mc_se(self) -> float:
        """Delta-method SE of sigma_mc, v_mc_se / (2 sigma_mc); 0 where sigma_mc is 0."""
        sigma = self.sigma_mc
        return self.v_mc_se / (2.0 * sigma) if sigma > 0.0 else 0.0


def terminal_bootstrap(terminal: np.ndarray, n_boot=None,
                       seed=None) -> tuple[float, float, float, float]:
    """(mean, mean SE, variance, variance SE) of terminal wealth; n_boot and seed
    are unused, kept because the benchmark's workloads and tracer use them."""
    acc = ColumnMoments()
    acc.add(np.asarray(terminal, dtype=float)[:, None])
    st = acc.stats()
    return float(st.mean[0]), float(st.mean_se[0]), float(st.variance[0]), float(st.var_se[0])


def frontier_report(model: MarketModel, stabs, grid: Grid, m_values,
                    wealth) -> list[FrontierPoint]:
    """Monte Carlo frontier: simulated Var(X_T) against V(m) per target m.

    The terminal wealth is affine in xi*, so the (A_T, B_T) of the
    ``markowitz._Wealth`` fold that wealth() returns once its stream has
    run (on fixed-start paths, V0 = x_inf, matching the single Gamma0
    that prices the frontier) gives each target's X_T = A_T + xi* B_T.
    wealth is called once the targets are priced, so a refused target
    draws no path.
    """
    solution = solve_riccati_adams(model, stabs, grid.n)
    g0 = gamma0(model, solution, stabs)  # m-independent, priced once
    m_values = np.atleast_1d(np.asarray(m_values, dtype=float))
    xis = [xi_eta_star(g0, model, float(m))[0] for m in m_values]
    terminal = wealth()
    moments = ColumnMoments()
    # column-major, so each target's moments reduce one contiguous column
    moments.add((terminal.A_T + np.multiply.outer(xis, terminal.B_T)).T)
    st = moments.stats()
    return [
        FrontierPoint(
            m=float(m), xi_star=xi,
            v_theory=variance_of_terminal(g0, model, float(m)),
            v_mc=float(st.variance[j]), v_mc_se=float(st.var_se[j]),
            mean_terminal=float(st.mean[j]), mean_se=float(st.mean_se[j]),
        )
        for j, (m, xi) in enumerate(zip(m_values, xis))
    ]


def frontier_experiment(model: MarketModel, m_values, M: int, seed: int, *,
                        grid: Grid, stabs=None, n_boot=None) -> list[FrontierPoint]:
    """``frontier_report`` on M fixed-start paths of their own stream.
    n_boot is unused, kept because the benchmark's workloads pass it."""
    stabs = stabs or model.build_stabilizers()
    return frontier_report(model, stabs, grid, m_values, lambda: Streams(seed).result(
        model, stabs, grid, M, "fixed", _Wealth))


def frontier_m_grid(model: MarketModel, count: int = 8) -> np.ndarray:
    """Target means spanning [x0 e^((r+0.01)T), x0 e^((r+0.5)T)]; ParameterError
    when the top one is not finite (the bottom one is then finite too)."""
    with np.errstate(over="ignore"):  # checked below
        lo = model.x0 * np.exp((model.r + 0.01) * model.T)
        hi = model.x0 * np.exp((model.r + 0.5) * model.T)
    if not np.isfinite(hi):
        raise ParameterError(f"frontier targets beyond the floats at T = {model.T:g}")
    return np.linspace(lo, hi, count)
