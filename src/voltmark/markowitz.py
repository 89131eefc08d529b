"""Closed-form mean-variance quantities and the optimal-strategy simulator.

With psi solved, everything the Markowitz problem needs is explicit:

* Gamma0 = exp(2 r T + sum_i V0_i I^(1-alpha_i) psi_i(T)
                      + sum_i mu0_i I^1 psi_i(T)),
  the initial value of the Riccati-BSDE factor at V0 = x_inf.  It is
  computed through fractional integrals and cross-checked against the
  direct quadrature of the defining integral formula, which like the
  Laplace closed form integrates the solver's own F (``_rhs_along``);
  disagreement beyond 1e-6 relative raises.
* the optimal target split xi* = m - eta*, the feedback strategy
  alpha*_i = -(theta_i + rho_i nu_i sig_i(t) psi_i(T-t)) sqrt(V_i)
             (X - xi* e^(-r(T-t))),
  the efficient frontier m = x0 e^(rT) + sigma sqrt(e^(2rT)/Gamma0 - 1)
  and the optimal terminal variance V(m).
* a wealth Euler scheme driven by the same increments as the variance
  ensemble, run in one recursion of its affine form X = A + xi* B, which
  gives the wealth and strategy of one target block by block of steps, or
  the X_T of every frontier target, and the exponential-affine Laplace-transform check that pits
  a Monte Carlo functional of the paths, controlled by the exact mean of
  its exponent, against the closed form, by the 3-SE gate that every
  Monte Carlo check reads (``z_score``).
"""

import functools
import itertools
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
    _asset_increments,
    _increments,
    _mapped,
    _pool_size,
    _workers,
    require_finite,
    simulate_variance_chunks,
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
    """Whole wealth paths under the optimal strategy, X[-, 0] = x0, for the
    readers of whole paths: the tests, and the benchmark's refine_t5
    workload through ``terminal``."""

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


def gamma0(model: MarketModel, solution: RiccatiSolution, stabs) -> float:
    """Initial Riccati-BSDE factor Gamma0 at the stationary mean V0 = x_inf.

    Computes the fractional-integral form and the direct quadrature of
    the defining integral, int_0^T (-theta^2 + F(s, psi(T-s))) ds by
    per-cell Legendre over ``_rhs_along``; the two routes must agree to
    ``_GAMMA0_TOL`` relative or ConsistencyError is raised.  The
    integrals converge like a positive power of the step, so the psi
    grid is refined to at least ``_GAMMA0_REFINE`` max(T, 1) steps
    internally (0 disables it); both are read at call time.  The refined
    solve goes through the memo of ``solve_riccati_adams``, so repeated
    calls on one (model, stabs) pair run it once per process.
    """
    # the agreement of the two forms is limited by the step size, so the
    # refinement target scales with the horizon
    n_target = int(np.ceil(_GAMMA0_REFINE * max(model.T, 1.0)))
    if solution.n < n_target:
        solution = solve_riccati_adams(model, stabs, n_target)
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
    if abs(expo_const - expo_direct) > _GAMMA0_TOL * max(1.0, abs(expo_const)):
        raise ConsistencyError(
            f"Gamma0 exponent mismatch: fractional-integral form {float(expo_const)!r} vs "
            f"direct quadrature {float(expo_direct)!r}"
        )
    return float(np.exp(expo_const))


def _riskless(model: MarketModel, m: float) -> bool:
    """Whether m is the riskless level m0 = x0 e^(rT); ParameterError below it."""
    m0 = model.m0
    if m < m0 * (1.0 - 1e-12) - 1e-12:
        raise ParameterError(f"target mean m = {m} below the riskless level m0 = {m0}")
    return abs(m - m0) <= 1e-12 * max(1.0, abs(m0))


def xi_eta_star(gamma0_value: float, model: MarketModel, m: float) -> tuple[float, float]:
    """Optimal shift xi* and Lagrange multiplier eta* = m - xi*.

    Feasibility requires m >= m0 = x0 e^(rT); at m = m0 the riskless
    portfolio is optimal and eta* = 0 exactly.
    """
    if _riskless(model, m):
        return model.m0, 0.0
    disc1 = model.discount(model.T)
    disc2 = disc1 * disc1
    denom = 1.0 - gamma0_value * disc2
    if gamma0_value <= 0.0 or denom <= 1e-12:
        raise ParameterError(
            f"Gamma0 = {gamma0_value} outside (0, e^(2rT)); market degenerate for m > m0"
        )
    xi = (m - gamma0_value * disc1 * model.x0) / denom
    eta = gamma0_value * disc1 * (model.x0 - m * disc1) / denom
    return float(xi), float(eta)


def variance_of_terminal(gamma0_value: float, model: MarketModel, m: float) -> float:
    """Optimal terminal-wealth variance V(m) = G0 |x0 - m e^-rT|^2 / (1 - G0 e^-2rT);
    ParameterError when it is not finite (m = 1e300, inf or nan)."""
    if _riskless(model, m):
        return 0.0
    denom = 1.0 - gamma0_value * model.discount(model.T) ** 2
    if denom <= 1e-12:
        raise ParameterError("Gamma0 >= e^(2rT): variance formula degenerate")
    return _finite_variance(model, m, gamma0_value, denom)


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
    """Capital-market-line slope sqrt(e^(2rT)/Gamma0 - 1)."""
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


# time steps per block of the wealth recursion; fixed so that the
# output never depends on the environment
_WEALTH_BLOCK = 64


def _asset_sum(a, b, weights, out, term):
    """sum_i a[:, i] b[:, i] weights_i over the assets of (m, d, w) a and b,
    into (m, w) out; weights None stands for ones and term is (m, w)
    scratch.  The terms are formed and added from zero in asset order,
    which gives np.einsum's bits except in a one-step block of three or
    more assets, where einsum unrolls the sum."""
    out.fill(0.0)
    for i in range(a.shape[1]):
        np.multiply(a[:, i], b[:, i], out=term)
        if weights is not None:
            term *= weights[i]
        out += term
    return out


def _step_factors(model: MarketModel, ensemble: PathEnsemble, coef: np.ndarray, paths: slice):
    """Gains and per-step wealth factors of the optimal feedback, in blocks of steps.

    With g = -coef sqrt(V^+) at the left node and s_k = (g sqrt(V^+)) . theta dt
    + g . DB_k, the wealth under alpha = g (X - xi* e^(-r(T-t))) steps as
    X_{k+1} = X_k (1 + r dt) + (X_k - xi* e^(-r(T-t_k))) s_k.  coef is the
    (d, n) ``control_coefficient`` at the left nodes.  Yields (first step,
    g (m, d, w), s (w, m)) for the m paths in ``paths`` per block of
    ``_WEALTH_BLOCK`` steps, in one memory map of the call's own (``_mapped``,
    so that a worker thread leaves nothing in its malloc arena) that each
    block overwrites; the d-sums (``_asset_sum``) run in two (m, w) slots
    of it.
    """
    V, dW, dWperp = (a[paths] for a in (ensemble.V, *_increments(ensemble)))
    (m, d, n), dt = dW.shape, ensemble.grid.dt
    flat = _mapped(((3 * d + 3) * m * _WEALTH_BLOCK,))
    for lo in range(0, n, _WEALTH_BLOCK):
        hi = min(lo + _WEALTH_BLOCK, n)
        w = hi - lo
        gain, root_v, dB = flat[: 3 * m * d * w].reshape(3, m, d, w)
        s = flat[3 * m * d * w : (3 * d + 1) * m * w].reshape(w, m)
        acc, term = flat[(3 * d + 1) * m * w : (3 * d + 3) * m * w].reshape(2, m, w)
        _asset_increments(model, dW[:, :, lo:hi], dWperp[:, :, lo:hi], out=(dB, gain))
        _gain(coef[None, :, lo:hi], V[:, :, lo:hi], out=(gain, root_v))
        np.multiply(_asset_sum(gain, root_v, model.theta, acc, term).T, dt, out=s)
        s += _asset_sum(gain, dB, None, acc, term).T
        yield lo, gain, s


def _wealth_recursion(model: MarketModel, ensemble: PathEnsemble, solution: RiccatiSolution,
                      stabs, xi_star=None, fold=None) -> tuple[np.ndarray, np.ndarray]:
    """The Euler wealth of the optimal feedback in its affine form X_k = A_k + xi* B_k.

    X(t_k) = X(t_{k-1}) + (r X(t_{k-1}) + sum_i theta_i sqrt(V_i) alpha_i) dt
             + sum_i alpha_i (rho_i DW_i - sqrt(1-rho_i^2) DWperp_i),

    with alpha = g (X - xi* e^(-r(T-t))) at the left node from the same
    variance paths.  The scheme is affine in xi*: with the per-step factor
    s_k of ``_step_factors``,

        A_{k+1} = A_k (1 + r dt + s_k),                       A_0 = x0,
        B_{k+1} = B_k (1 + r dt + s_k) - e^(-r(T-t_k)) s_k,   B_0 = 0.

    The paths run on the pool in ranges of whole 64-path blocks, one per
    worker; each path's arithmetic is elementwise, so the split keeps the
    bits.  Without fold, each range runs to T on its own.  With fold, each
    step also writes alpha_k and X_{k+1} = A_{k+1} + xi* B_{k+1} into
    path-major buffers of one block of ``_WEALTH_BLOCK`` steps [lo, hi);
    the ranges meet after each block, and fold(lo, X, alpha) takes
    X_lo .. X_hi (M, hi - lo + 1) and alpha_lo .. alpha_{hi-1}
    (M, d, hi - lo), views that the next block overwrites, after
    NonFiniteError has been raised unless both are finite.  Returns
    (A_T, B_T) unchecked (a finite X_T has finite A_T and B_T);
    ParameterError on a V-only ensemble or a psi grid unlike the path grid.
    """
    if solution.grid != ensemble.grid:
        raise ParameterError("wealth scheme requires the psi grid to match the path grid")
    grid = ensemble.grid
    coef = control_coefficient(model, solution, stabs, grid.times[:-1])  # (d, n)
    disc = np.exp(-model.r * (model.T - grid.times[:-1]))               # (n,)
    A = np.full(ensemble.M, float(model.x0))
    B = np.zeros(ensemble.M)
    if fold is not None:  # the block buffers, X_lo .. X_hi and alpha_lo .. alpha_{hi-1}
        X = np.full((ensemble.M, _WEALTH_BLOCK + 1), float(model.x0))
        alpha = np.empty((ensemble.M, model.d, _WEALTH_BLOCK))
    width = -(-ensemble.M // (64 * _pool_size())) * 64
    ranges = [slice(c0, c0 + width) for c0 in range(0, ensemble.M, width)]
    factors = [_step_factors(model, ensemble, coef, paths) for paths in ranges]

    def advance(paths, blocks, count):
        a, b_ = A[paths], B[paths]
        with np.errstate(over="ignore", invalid="ignore"):  # per thread; the callers check
            for lo, gain, s in itertools.islice(blocks, count):
                for b in range(len(s)):
                    growth = 1.0 + model.r * grid.dt + s[b]
                    a *= growth
                    b_ *= growth
                    b_ -= disc[lo + b] * s[b]
                    if fold is not None:
                        gap = X[paths, b] - xi_star * disc[lo + b]
                        np.multiply(gain[:, :, b], gap[:, None], out=alpha[paths, :, b])
                        X[paths, b + 1] = a + xi_star * b_

    def jobs(count):  # count blocks of each range, or all of them for None
        return [functools.partial(advance, paths, blocks, count)
                for paths, blocks in zip(ranges, factors)]

    with _workers(len(ranges)) as run:
        if fold is None:
            run(jobs(None))
            return A, B
        for lo in range(0, grid.n, _WEALTH_BLOCK):
            run(jobs(1))
            w = min(_WEALTH_BLOCK, grid.n - lo)
            require_finite("wealth paths", X[:, : w + 1])
            require_finite("optimal strategy", alpha[:, :, :w])
            fold(lo, X[:, : w + 1], alpha[:, :, :w])
            X[:, 0] = X[:, w]
    return A, B


def simulate_wealth(model: MarketModel, ensemble: PathEnsemble, solution: RiccatiSolution,
                    stabs, xi_star: float) -> WealthEnsemble:
    """Whole wealth and strategy paths of ``_wealth_recursion`` at target
    xi*, for readers of whole paths (the tests, the benchmark's refine_t5
    workload); ``voltmark wealth`` folds its blocks instead.  Raises
    NonFiniteError when a wealth or strategy value is not finite, and
    ParameterError on a V-only ensemble.
    """
    X = np.empty((ensemble.M, ensemble.grid.n + 1))
    alpha_paths = np.empty((ensemble.M, model.d, ensemble.grid.n))

    def store(lo, x, alpha):
        X[:, lo : lo + x.shape[1]] = x
        alpha_paths[:, :, lo : lo + alpha.shape[2]] = alpha

    A, B = _wealth_recursion(model, ensemble, solution, stabs, xi_star, store)
    return WealthEnsemble(X=X, alpha_paths=alpha_paths, A_T=A, B_T=B)


def affine_wealth_terminal(model: MarketModel, ensemble: PathEnsemble,
                           solution: RiccatiSolution, stabs) -> tuple[np.ndarray, np.ndarray]:
    """Terminal wealth of every target at once: X_T = A_T + xi* B_T.

    ``_wealth_recursion`` without a reader: neither the increment array,
    the wealth paths nor the strategy are stored.  Returns (A_T, B_T),
    each of shape (M,); raises NonFiniteError when either is not finite,
    and ParameterError on a V-only ensemble.
    """
    A, B = _wealth_recursion(model, ensemble, solution, stabs)
    require_finite("terminal wealth A_T", A)
    require_finite("terminal wealth B_T", B)
    return A, B


def _trapezoid_rows(V: np.ndarray, dt: float) -> np.ndarray:
    """Per-path trapezoid integral over time of an (M, d, n+1) V, as (d, M).

    Sums (dt (V_k + V_{k+1})) / 2 over k in order, one time row at a
    time; this is what np.trapezoid(V, dx=dt, axis=2) computes, without
    its (M, d, n) temporary.
    """
    rows = V.transpose(1, 2, 0)                               # (d, n+1, M)
    total = np.zeros(rows[:, 0].shape)
    cell = np.empty_like(total)
    for k in range(rows.shape[1] - 1):
        np.add(rows[:, k + 1], rows[:, k], out=cell)
        cell *= dt
        cell /= 2.0
        total += cell
    return total


def _laplace_exponents(V: np.ndarray, dt: float, u: np.ndarray) -> np.ndarray:
    """Per-path exponent int_0^T V^T u ds of an (M, d, n+1) V, trapezoidal in time."""
    return _trapezoid_rows(V, dt).T @ u


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


def laplace_affine_check(model: MarketModel, stabs, u, grid: Grid, M: int, seed: int, *,
                         ensemble: PathEnsemble | None = None,
                         exponents=None) -> LaplaceReport:
    """Monte Carlo test of the exponential-affine Laplace formula.

    Simulates M paths started from x_inf (V only, without the Brownian
    increments) unless an ensemble or the exponents are given, estimates
    E[exp(int_0^T V^T u ds)] with a per-path trapezoidal time integral,
    and compares against the closed form by ``z_score``.  The paths are
    taken one chunk at a time (``simulate_variance_chunks``; a given
    ensemble is the one chunk) and only the per-path exponents are kept.
    ``exponents`` holds those of all M paths, one array per chunk
    (``_laplace_exponents``), when a caller already had the paths
    (``voltmark full``, from the wealth stage's chunks); the engine is
    then not called.  The integral runs over the time-major rows of each
    chunk's V with (d, chunk) buffers, in the order and rounding of
    ``np.trapezoid`` along the time axis.

    The estimator is controlled (Glasserman, Monte Carlo Methods in
    Financial Engineering, 2003, sec. 4.1).  From V_0 = x_inf the scheme's
    drift is linear in V and its noise has mean 0, so E[V_k] = x_inf at
    every grid time and C = X - u^T x_inf T, with X = int_0^T V^T u ds
    per path, has mean 0 in the discrete scheme itself.  With
    Y = exp(X), beta = sum (Y - mean Y)(C - mean C) / sum (C - mean C)^2,
    or 0 when that denominator is 0 (u = 0, nu = 0), and
    R = Y - beta C, ``mc_value`` is the mean of R and ``mc_se`` its
    ddof = 1 sample standard deviation over sqrt(M).  X and Y are nearly
    collinear, so the SE is 70 to 560 times the plain estimator's smaller.

    The gate's resolution is coarser than that SE: ``z_score`` passes any
    gap up to 1e-6 relative to the closed form, tens of SE on the bundled
    check, whatever z it has.  The closed form on at least 2400 Adams
    steps itself misses its limit by a few 1e-8 at T = 1.

    NonFiniteError when a sample, beta or the SE is not finite;
    ParameterError when u > 0 (before any path is drawn) or a given
    ensemble lies on another grid.
    """
    if ensemble is not None and ensemble.grid != grid:
        raise ParameterError("Laplace check requires the ensemble's grid to match the given grid")
    u = _laplace_forcing(model, u)
    closed = laplace_closed_form(model, stabs, u, n_solver=max(grid.n, _GAMMA0_REFINE))
    if exponents is None:
        chunks = ([ensemble] if ensemble is not None
                  else simulate_variance_chunks(model, stabs, grid, M, seed, initial="fixed",
                                                increments=False))
        # map drops each chunk before the next one is simulated
        exponents = map(lambda chunk: _laplace_exponents(chunk.V, grid.dt, u), chunks)
    X = np.concatenate(list(exponents))
    mc, se, beta = _controlled_mean(X, float(u @ model.x_inf) * model.T)
    z = float(z_score(mc, closed, se))
    return LaplaceReport(mc_value=mc, mc_se=se, closed_form=closed, z_score=z,
                         passed=z <= 3.0, beta=beta)
