"""Closed-form mean-variance quantities and the optimal-strategy simulator.

With psi solved, everything the Markowitz problem needs is explicit:

* Gamma0 = exp(2 r T + sum_i V0_i I^(1-alpha_i) psi_i(T)
                      + sum_i mu0_i I^1 psi_i(T)),
  the initial value of the Riccati-BSDE factor at V0 = x_inf.  It is
  the direct quadrature of the defining integral formula, which like the
  Laplace closed form integrates the solver's own F (``_rhs_along``),
  cross-checked against the fractional-integral form; both are
  Richardson-extrapolated over three psi grids, and a disagreement beyond
  their error estimates and beyond 1e-6 relative raises.
* the optimal target split xi* = m - eta*, the feedback strategy
  alpha*_i = -(theta_i + rho_i nu_i sig_i(t) psi_i(T-t)) sqrt(V_i)
             (X - xi* e^(-r(T-t))),
  the efficient frontier m = x0 e^(rT) + sigma sqrt(e^(2rT)/Gamma0 - 1)
  and the optimal terminal variance V(m).
* a wealth Euler scheme driven by the same increments as the variance
  paths, run as one block fold of its affine form X = A + xi* B
  (``_Wealth``), which gives the wealth and strategy of one target or
  the X_T of every frontier target, and the
  exponential-affine Laplace-transform check that pits a Monte Carlo
  functional of the paths, controlled by the exact mean of its
  exponent, against the closed form, by the 3-SE gate that every Monte
  Carlo check reads (``z_score``).
"""

from dataclasses import dataclass, field

import numpy as np

from .kernels import ParameterError, _gamma, _legendre_rule, fractional_integral
from .model import Grid, MarketModel
from .riccati import (
    RiccatiSolution,
    _laplace_forcing,
    _rhs_along,
    solve_laplace_riccati,
    solve_riccati_adams,
)
from .simulate import (
    PathEnsemble,
    Streams,
    _mapped,
    correlate_asset_brownian,
    require_finite,
)

_GAMMA0_REFINE = 2400
_GAMMA0_TOL = 1e-6
_GL_CELL = 8


class ConsistencyError(RuntimeError):
    """The two Gamma0 integral forms disagree beyond tolerance."""


@dataclass(frozen=True)
class MarkowitzSolution:
    """Closed-form outputs for one target expected terminal wealth m."""

    gamma0: float
    m: float
    xi_star: float
    eta_star: float
    v_of_m: float


@dataclass(frozen=True, eq=False)
class WealthEnsemble:
    """Whole wealth paths under the optimal strategy (``simulate_wealth``), X[:, 0] = x0."""

    X: np.ndarray = field(repr=False)            # (M, n+1)
    alpha_paths: np.ndarray = field(repr=False)  # (M, d, n)
    A_T: np.ndarray = field(repr=False)          # (M,); X_T = A_T + xi B_T
    B_T: np.ndarray = field(repr=False)          # (M,)   for every target xi

    @property
    def terminal(self) -> np.ndarray:
        return self.X[:, -1]


def _cell_quadrature(n: int, T: float):
    nodes, weights = _legendre_rule(_GL_CELL)
    dt = T / n
    edges = np.arange(n) * dt
    s = edges[:, None] + 0.5 * dt * (nodes[None, :] + 1.0)
    w = np.tile(0.5 * dt * weights, (n, 1))
    return s.ravel(), w.ravel()


def _gamma0_forms(model: MarketModel, solution: RiccatiSolution, stabs) -> tuple[float, float]:
    """log Gamma0 on the grid of one psi solve: (fractional-integral form,
    direct quadrature of int_0^T (-theta^2 + F(s, psi(T-s))) ds by per-cell
    Legendre over ``_rhs_along``)."""
    s, w = _cell_quadrature(solution.n, model.T)
    direct = _rhs_along(solution, stabs, s)
    v0 = model.x_inf
    expo_const = expo_direct = 2.0 * model.r * model.T
    for i in range(model.d):
        r_ord = 1.0 - model.alpha[i]
        if r_ord == 0.0:
            frac = float(solution.psi[i, -1])
        else:
            frac = fractional_integral(r_ord, solution.psi[i], model.T)
        mu_term = model.mu0[i] * fractional_integral(1.0, solution.psi[i], model.T)
        expo_const += v0[i] * frac + mu_term
        expo_direct += v0[i] * float(w @ direct[i]) + mu_term
    return float(expo_const), float(expo_direct)


def _extrapolate(v1: float, v2: float, v3: float) -> tuple[float, float]:
    """(limit, estimate) of values on n/4, n/2 and n steps: v3 + d2 q / (1 - q)
    and that tail's size when d1 = v2 - v1 and d2 = v3 - v2 contract
    (0 < q = d2/d1 < 1) above rounding (1e-13 relative), else (v3, |d2|)."""
    d1, d2 = v2 - v1, v3 - v2
    if abs(d2) > 1e-13 * max(1.0, abs(v3)) and d1 * d2 > 0.0 and abs(d2) < abs(d1):
        q = d2 / d1
        tail = d2 * q / (1.0 - q)
        return v3 + tail, abs(tail)
    return v3, abs(d2)


def _log_gamma0(model: MarketModel, solution: RiccatiSolution, stabs):
    """Both forms of log Gamma0 (``_gamma0_forms``), Richardson-extrapolated
    from psi on N/4, N/2 and N steps (``_extrapolate``; Diethelm & Walz,
    Numer. Algorithms 16, 1997): ((fractional, estimate), (direct, estimate)).

    N = max(solution.n, ``_GAMMA0_REFINE``) rounded up to a multiple of 4
    (a refinement of 0 makes a caller's grid of 4k steps the finest level);
    the caller's solution serves its own level and the memo of
    ``solve_riccati_adams`` the others.
    """
    top = -(-max(solution.n, _GAMMA0_REFINE) // 4) * 4
    levels = [solution if solution.n == n else solve_riccati_adams(model, stabs, n)
              for n in (top // 4, top // 2, top)]
    frac, direct = zip(*(_gamma0_forms(model, sol, stabs) for sol in levels))
    return _extrapolate(*frac), _extrapolate(*direct)


def gamma0(model: MarketModel, solution: RiccatiSolution, stabs) -> float:
    """Initial Riccati-BSDE factor Gamma0 at the stationary mean V0 = x_inf.

    exp of the direct form of ``_log_gamma0``, which converges faster
    (order about 1.7 against 1).  ConsistencyError when the two
    extrapolated forms differ by more than the sum of their estimates and
    by more than ``_GAMMA0_TOL`` relative.  ``_GAMMA0_TOL`` and
    ``_GAMMA0_REFINE`` are read at call time.
    """
    (frac, est_frac), (direct, est_direct) = _log_gamma0(model, solution, stabs)
    if abs(frac - direct) > max(_GAMMA0_TOL * max(1.0, abs(direct)), est_frac + est_direct):
        raise ConsistencyError(
            f"Gamma0 exponent mismatch: fractional-integral form {frac!r} vs "
            f"direct quadrature {direct!r}"
        )
    return float(np.exp(direct))


def _riskless(model: MarketModel, m: float) -> bool:
    """Whether m is the riskless level m0 = x0 e^(rT); ParameterError below it."""
    m0 = model.m0
    if m < m0 * (1.0 - 1e-12) - 1e-12:
        raise ParameterError(f"target mean m = {m} below the riskless level m0 = {m0}")
    return abs(m - m0) <= 1e-12 * max(1.0, abs(m0))


def _market_denominator(gamma0_value: float, model: MarketModel) -> float:
    """1 - Gamma0 e^(-2rT), the denominator of xi*, eta* and V(m) for m > m0;
    ParameterError, the market being degenerate, unless Gamma0 > 0 and it exceeds 1e-12."""
    disc = model.discount(model.T)
    denom = 1.0 - gamma0_value * (disc * disc)
    if not (gamma0_value > 0.0 and denom > 1e-12):
        raise ParameterError(
            f"Gamma0 = {gamma0_value} outside (0, e^(2rT)); market degenerate for m > m0"
        )
    return denom


def xi_eta_star(gamma0_value: float, model: MarketModel, m: float) -> tuple[float, float]:
    """Optimal shift xi* and Lagrange multiplier eta* = m - xi*.

    Feasibility requires m >= m0 = x0 e^(rT); at m = m0 the riskless
    portfolio is optimal and eta* = 0 exactly.
    """
    if _riskless(model, m):
        return model.m0, 0.0
    denom = _market_denominator(gamma0_value, model)
    disc1 = model.discount(model.T)
    xi = (m - gamma0_value * disc1 * model.x0) / denom
    eta = gamma0_value * disc1 * (model.x0 - m * disc1) / denom
    return float(xi), float(eta)


def variance_of_terminal(gamma0_value: float, model: MarketModel, m: float) -> float:
    """Optimal terminal-wealth variance V(m) = G0 |x0 - m e^-rT|^2 / (1 - G0 e^-2rT);
    ParameterError in a degenerate market (``_market_denominator``) or when
    V(m) is not finite (m = 1e300, inf or nan)."""
    if _riskless(model, m):
        return 0.0
    return _finite_variance(model, m, gamma0_value, _market_denominator(gamma0_value, model))


def _finite_variance(model: MarketModel, m: float, g0: float = 1.0, denom: float = 1.0) -> float:
    """g0 |x0 - m e^-rT|^2 / denom; ParameterError when it is not finite
    (m = 1e300, inf or nan), a rule that with the defaults needs no Gamma0."""
    try:
        v = g0 * (model.x0 - m * model.discount(model.T)) ** 2 / denom
    except OverflowError:  # a Python float's square raises where a product gives inf
        v = np.inf
    if not np.isfinite(v):
        raise ParameterError(f"target mean m = {m} gives a terminal variance V(m) "
                             "beyond the floats")
    return float(v)


def frontier_slope(gamma0_value: float, model: MarketModel) -> float:
    """Capital-market-line slope sqrt(e^(2rT)/Gamma0 - 1); ParameterError in
    a degenerate market (``_market_denominator``)."""
    _market_denominator(gamma0_value, model)
    return float(np.sqrt(np.exp(2.0 * model.r * model.T) / gamma0_value - 1.0))


def efficient_frontier(gamma0_value: float, model: MarketModel, m_values) -> list[tuple[float, float]]:
    """(sigma, m) points of the frontier for each requested mean."""
    return [
        (float(np.sqrt(variance_of_terminal(gamma0_value, model, m))), float(m))
        for m in np.atleast_1d(np.asarray(m_values, dtype=float))
    ]


def solve_markowitz(model: MarketModel, solution: RiccatiSolution, stabs,
                    m: float) -> MarkowitzSolution:
    """Bundle Gamma0 (at V0 = x_inf), xi*, eta* and V(m) for one target mean."""
    g0 = gamma0(model, solution, stabs)
    xi, eta = xi_eta_star(g0, model, m)
    return MarkowitzSolution(
        gamma0=g0, m=float(m), xi_star=xi, eta_star=eta,
        v_of_m=variance_of_terminal(g0, model, m),
    )


def control_coefficient(model: MarketModel, solution: RiccatiSolution, stabs, t) -> np.ndarray:
    """Per-asset factor theta_i + rho_i nu_i sig_i(t) psi_i(T-t), shape (d,) + t.shape."""
    t = np.asarray(t, dtype=float)
    psi_rev = solution.psi_at(model.T - t)
    sig = np.stack([np.asarray(stabs[i].eval(t)) for i in range(model.d)])
    return model.theta.reshape((-1,) + (1,) * t.ndim) + (
        model.rho.reshape((-1,) + (1,) * t.ndim) * model.nu.reshape((-1,) + (1,) * t.ndim)
        * sig * psi_rev
    )


def _gain(coef, V, out=(None, None)):
    """Per-asset gain -coef sqrt(V^+) of the optimal feedback, and sqrt(V^+).

    alpha*_i = gain_i (X - xi* e^(-r(T-t))); coef broadcasts against V.
    ``out`` = (gain, root), arrays of V's shape, take the results if given.
    """
    root = np.sqrt(np.maximum(V, 0.0, out=out[1]), out=out[1])
    return np.multiply(-coef, root, out=out[0]), root


def optimal_control(model: MarketModel, solution: RiccatiSolution, stabs, xi_star: float,
                    t: float, X_t, V_t) -> np.ndarray:
    """Optimal amounts alpha*_i(t, X, V), vectorized over paths.

    alpha_i = -(theta_i + rho_i nu_i sig_i(t) psi_i(T-t)) sqrt(V_i^+)
              (X - xi* e^(-r(T-t))); zero exactly on-target or at V = 0.
    """
    coef = control_coefficient(model, solution, stabs, float(t))  # (d,)
    V_t = np.asarray(V_t, dtype=float)
    X_t = np.asarray(X_t, dtype=float)
    gap = X_t - xi_star * model.discount(model.T - float(t))
    gain, _ = _gain(coef, V_t)
    if V_t.ndim == 2:  # (M, d) batch
        return gain * gap[:, None]
    return gain * gap


# paths per tile of the wealth recursion and of every moment fold
# (``montecarlo.ColumnMoments.add``); fixed so that the output never
# depends on the environment
_WEALTH_TILE = 512


class _Wealth:
    """The Euler wealth of the optimal feedback in its affine form X_k = A_k + xi* B_k.

    X(t_k) = X(t_{k-1}) + (r X(t_{k-1}) + sum_i theta_i sqrt(V_i) alpha_i) dt
             + sum_i alpha_i DB_i,

    with alpha = g (X - xi* e^(-r(T-t))) at the left node, g = -coef
    sqrt(V^+) the gain of ``_gain`` from the same variance paths and DB
    their asset increments.  The scheme is affine in xi*: with the
    per-step factor s_k = (g sqrt(V^+)) . theta dt + g . DB_k,

        A_{k+1} = A_k (1 + r dt + s_k),                       A_0 = x0,
        B_{k+1} = B_k (1 + r dt + s_k) - e^(-r(T-t_k)) s_k,   B_0 = 0.

    A block fold (``simulate.fold_stream``) of a stream of M paths with
    increments, on psi's grid (``solution``, or solved on grid through
    the memo); psi on another grid raises ParameterError.  ``A_T`` and
    ``B_T``, shape (M,), hold each path's A and B at the last time
    stepped; a chunk's last block raises NonFiniteError unless its paths'
    A and B are finite.  Each block is stepped in tiles of ``_WEALTH_TILE``
    paths, in path order, in one map per chunk (``simulate._mapped``)
    that is sized by the chunk's first block, its widest, and freed by
    its last.

    With xi*, each tile of a block [lo, hi) also forms X_lo .. X_hi
    (hi - lo + 1, t), X = A + xi* B, and alpha_lo .. alpha_{hi-1}
    (d, hi - lo, t), both time-major, and hands them to
    read(lo, tile, X, alpha) after NonFiniteError unless both are
    finite; both are views that the next tile overwrites.
    """

    increments = True

    def __init__(self, model: MarketModel, stabs, grid: Grid, M: int, xi_star=None, solution=None):
        if solution is None:
            solution = solve_riccati_adams(model, stabs, grid.n)
        if solution.grid != grid:
            raise ParameterError("wealth scheme requires the psi grid to match the path grid")
        times = grid.times[:-1]
        self.model, self.grid, self.xi_star = model, grid, xi_star
        self.coef = control_coefficient(model, solution, stabs, times)  # (d, n)
        self.disc = np.exp(-model.r * (model.T - times))[:, None]      # (n, 1)
        self.A_T, self.B_T = np.full(M, float(model.x0)), np.zeros(M)
        self.flat = None     # the chunk's tile map

    def read(self, lo: int, tile: slice, X: np.ndarray, alpha: np.ndarray) -> None:
        """Take a tile's wealth and strategy over a block (with xi*); no reader here."""

    def __call__(self, first, lo, V, dB):
        model, xi_star, (d, w, m) = self.model, self.xi_star, dB.shape
        if lo == 0:
            self.flat = _mapped(((2 * d + 5) * w * _WEALTH_TILE,))
        flat, A, B = self.flat, self.A_T[first : first + m], self.B_T[first : first + m]
        coef, dt = self.coef[:, lo : lo + w, None], self.grid.dt
        disc, growth = self.disc[lo : lo + w], 1.0 + model.r * dt
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for t0 in range(0, m, _WEALTH_TILE):
                t = min(_WEALTH_TILE, m - t0)
                tile, size = slice(t0, t0 + t), w * t
                slots = flat[: (2 * d + 5) * size].reshape(2 * d + 5, w, t)
                gain, root, (s, sums, a_rows, ds, b_rows) = slots[:d], slots[d:-5], slots[-5:]
                # X_lo .. X_hi, w + 1 rows over the slots of s and the d-sums
                X = flat[2 * d * size : (2 * d + 1) * size + t].reshape(w + 1, t)
                _gain(coef, V[:, :w, tile], out=(gain, root))
                np.multiply(np.einsum("dwt,dwt,d->wt", gain, root, model.theta, out=sums), dt,
                            out=s)
                s += np.einsum("dwt,dwt->wt", gain, dB[:, :, tile], out=sums)
                np.add(s, growth, out=a_rows)   # the growth, then A in place
                np.multiply(s, disc, out=ds)
                a_k, b_k = A[tile], B[tile]
                if xi_star is not None:         # X_lo, before the steps move A and B
                    np.add(a_k, np.multiply(b_k, xi_star, out=X[0]), out=X[0])
                for k in range(w):
                    np.multiply(b_k, a_rows[k], out=b_rows[k])
                    b_rows[k] -= ds[k]
                    np.multiply(a_k, a_rows[k], out=a_rows[k])
                    a_k, b_k = a_rows[k], b_rows[k]
                A[tile], B[tile] = a_k, b_k
                if xi_star is None:
                    continue
                np.add(a_rows, np.multiply(b_rows, xi_star, out=b_rows), out=X[1:])
                np.subtract(X[:-1], xi_star * disc, out=ds)   # the gap
                alpha = np.multiply(gain, ds, out=root)
                require_finite("wealth paths", X)
                require_finite("optimal strategy", alpha)
                self.read(lo, tile, X, alpha)
        if lo + w == self.grid.n:
            require_finite("terminal wealth A_T", A)
            require_finite("terminal wealth B_T", B)
            self.flat = None


def simulate_wealth(model: MarketModel, ensemble: PathEnsemble, solution: RiccatiSolution,
                    stabs, xi_star: float) -> WealthEnsemble:
    """Whole wealth and strategy paths of ``_Wealth`` at target xi*
    (``voltmark wealth`` folds its blocks instead).  Raises
    NonFiniteError when a wealth or strategy value is not finite, and
    ParameterError on a V-only ensemble or on a model of another rho.
    """
    correlate_asset_brownian(ensemble, model)
    X = np.empty((ensemble.M, ensemble.grid.n + 1))
    alpha_paths = np.empty((ensemble.M, model.d, ensemble.grid.n))

    def store(lo, tile, x, alpha):
        X[tile, lo : lo + len(x)] = x.T
        alpha_paths[tile, :, lo : lo + alpha.shape[1]] = alpha.transpose(2, 0, 1)

    wealth = _Wealth(model, stabs, ensemble.grid, ensemble.M, xi_star, solution)
    wealth.read = store
    ensemble.fold([wealth])
    return WealthEnsemble(X=X, alpha_paths=alpha_paths, A_T=wealth.A_T, B_T=wealth.B_T)


class _TimeIntegrals:
    """The Laplace check's block fold: ``total``, shape (d, M), is each
    path's time integral of V, to which each block adds its trapezoid
    cells dt (V_k + V_{k+1}) / 2 one at a time, in time order.  Over the
    whole stream this is what np.trapezoid(V, dx=dt, axis=2) computes on
    the (M, d, n+1) paths, without its (M, d, n) temporary.
    """

    increments = False

    def __init__(self, model: MarketModel, stabs, grid: Grid, M: int):
        self.total, self.dt = np.zeros((model.d, M)), grid.dt

    def __call__(self, first, lo, V, dB):
        total, cell = self.total[:, first : first + V.shape[-1]], np.empty(V[:, 0].shape)
        for k in range(V.shape[1] - 1):
            np.add(V[:, k + 1], V[:, k], out=cell)
            cell *= self.dt
            cell /= 2.0
            total += cell


def _controlled_mean(X: np.ndarray, mean_X: float) -> tuple[float, float, float]:
    """Mean of exp(X) by the regression control C = X - mean_X, whose mean is 0:
    (mean of R, its ddof = 1 SE, beta) with R = exp(X) - beta C and beta
    the least-squares slope of exp(X) on C, 0 where C has no spread.
    NonFiniteError unless X, exp(X), beta and the SE are finite."""
    require_finite("Laplace samples", X)
    with np.errstate(over="ignore"):
        Y = np.exp(X)
    require_finite("Laplace samples", Y)
    C = X - mean_X
    dC = C - np.mean(C)
    with np.errstate(over="ignore", invalid="ignore"):
        spread = dC @ dC
        beta = float((Y - np.mean(Y)) @ dC / spread) if spread != 0.0 else 0.0
        R = Y - beta * C
        se = float(np.std(R, ddof=1) / np.sqrt(len(R)))
    require_finite("Laplace control coefficient", np.array(beta))
    require_finite("Laplace residual SE", np.array(se))
    return float(np.mean(R)), se, beta


def z_score(value, target, se):
    """|value - target| / se, the statistic of every 3-SE gate (pass at z <= 3).

    inf where se = 0, and 0 where z > 3 but value equals target to 1e-6
    relative: a degenerate Monte Carlo spread (nu = 0, u = 0, a riskless
    target) leaves an SE of 0, or of rounding size, while the closed form
    carries its own discretization error.  Elementwise over arrays.
    """
    gap = np.abs(np.asarray(value, dtype=float) - target)
    z = np.divide(gap, se, out=np.full_like(gap, np.inf), where=se > 0.0)
    return np.where((z > 3.0) & (gap <= 1e-6 * np.maximum(1.0, np.abs(target))), 0.0, z)[()]


@dataclass(frozen=True)
class LaplaceReport:
    """Two sides of the exponential-affine transform identity at t = 0."""

    mc_value: float
    mc_se: float
    closed_form: float
    z_score: float
    passed: bool
    beta: float


def laplace_closed_form(model: MarketModel, stabs, u, n_solver: int = _GAMMA0_REFINE) -> float:
    """Right side of the affine transform formula at t = 0.

    exp( int_0^T (u + F(s, psi(T-s)))^T g0(s) ds ) with
    g0_i(s) = x_inf_i + mu0_i s^alpha_i / Gamma(alpha_i + 1) and F the
    drift-quadratic functional without risk-premium terms, by per-cell
    Legendre over ``_rhs_along``.  psi comes from ``solve_laplace_riccati``
    on ``n_solver`` steps, through the memo of ``solve_riccati_adams``:
    repeated calls with the same (model, stabs, u, n_solver) solve the
    system once per process.
    """
    sol = solve_laplace_riccati(model, stabs, n_solver, u)
    s, w = _cell_quadrature(sol.grid.n, model.T)
    rhs = _rhs_along(sol, stabs, s, forcing=u)
    expo = 0.0
    for i in range(model.d):
        g0_i = model.x_inf[i] + model.mu0[i] * s ** model.alpha[i] / _gamma(model.alpha[i] + 1.0)
        expo += float(w @ (rhs[i] * g0_i))
    return float(np.exp(expo))


def laplace_report(model: MarketModel, stabs, u, grid: Grid, total) -> LaplaceReport:
    """Monte Carlo test of the exponential-affine Laplace formula on paths
    started from x_inf, from their time integrals of V on grid, ``total``
    of shape (d, M) (``_TimeIntegrals``): it estimates
    E[exp(int_0^T V^T u ds)] and compares it against the closed form by
    ``z_score``.

    The estimator is controlled (Glasserman, Monte Carlo Methods in
    Financial Engineering, 2003, sec. 4.1).  From V_0 = x_inf the scheme's
    drift is linear in V and its noise has mean 0, so E[V_k] = x_inf at
    every grid time and C = X - u^T x_inf T, with X = int_0^T V^T u ds
    per path, has mean 0 in the discrete scheme itself.  With
    Y = exp(X), beta = sum (Y - mean Y)(C - mean C) / sum (C - mean C)^2,
    or 0 when that denominator is 0 (u = 0, nu = 0), and
    R = Y - beta C, ``mc_value`` is the mean of R and ``mc_se`` its
    ddof = 1 sample standard deviation over sqrt(M).

    NonFiniteError when a sample, beta or the SE is not finite;
    ParameterError when u > 0.
    """
    u = _laplace_forcing(model, u)
    closed = laplace_closed_form(model, stabs, u, n_solver=max(grid.n, _GAMMA0_REFINE))
    X = total.T @ u
    mc, se, beta = _controlled_mean(X, float(u @ model.x_inf) * model.T)
    z = float(z_score(mc, closed, se))
    return LaplaceReport(mc_value=mc, mc_se=se, closed_form=closed, z_score=z,
                         passed=z <= 3.0, beta=beta)


def laplace_affine_check(model: MarketModel, stabs, u, grid: Grid, M: int, seed: int, *,
                         ensemble: PathEnsemble | None = None) -> LaplaceReport:
    """``laplace_report`` on M paths from x_inf (V only) of their own
    stream, or on a given ensemble.  ParameterError when u > 0, before
    any path is drawn, or when the ensemble lies on another grid.
    """
    if ensemble is not None and ensemble.grid != grid:
        raise ParameterError("Laplace check requires the ensemble's grid to match the given grid")
    _laplace_forcing(model, u)
    if ensemble is None:
        integrals = Streams(seed).result(model, stabs, grid, M, "fixed", _TimeIntegrals)
    else:
        integrals = _TimeIntegrals(model, stabs, grid, ensemble.M)
        ensemble.fold([integrals])
    return laplace_report(model, stabs, u, grid, integrals.total)
