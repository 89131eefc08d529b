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
  ensemble, its terminal-only affine form X_T = A_T + xi* B_T that
  serves every frontier target from one recursion, and the
  exponential-affine Laplace-transform check that pits a Monte Carlo
  functional of the paths against the closed form, by the 3-SE gate
  that every Monte Carlo check reads (``z_score``).
"""

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import roots_legendre

from .kernels import ParameterError, fractional_integral
from .model import Grid, MarketModel
from .riccati import RiccatiSolution, _rhs_along, solve_laplace_riccati, solve_riccati_adams
from .simulate import (
    PathEnsemble,
    _asset_increments,
    _increments,
    _mapped,
    _pool_size,
    _run_concurrently,
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
    slope: float
    v_of_m: float


@dataclass(frozen=True, eq=False)
class WealthEnsemble:
    """Wealth paths under the optimal strategy, X[-, 0] = x0 (``terminal``
    serves the benchmark's refine_t5 workload)."""

    model: MarketModel
    grid: Grid
    xi_star: float
    X: np.ndarray = field(repr=False)            # (M, n+1)
    alpha_paths: np.ndarray = field(repr=False)  # (M, d, n)

    @property
    def terminal(self) -> np.ndarray:
        return self.X[:, -1]


def _cell_quadrature(n: int, T: float):
    nodes, weights = roots_legendre(_GL_CELL)
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
    disc1 = model.discount(model.T)
    denom = 1.0 - gamma0_value * disc1**2
    if denom <= 1e-12:
        raise ParameterError("Gamma0 >= e^(2rT): variance formula degenerate")
    try:
        v = gamma0_value * (model.x0 - m * disc1) ** 2 / denom
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
    """Bundle Gamma0 (at V0 = x_inf), xi*, eta*, slope and V(m) for one target mean."""
    g0 = gamma0(model, solution, stabs)
    xi, eta = xi_eta_star(g0, model, m)
    return MarkowitzSolution(
        gamma0=g0, m=float(m), xi_star=xi, eta_star=eta,
        slope=frontier_slope(g0, model),
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


# time steps per block of the wealth recursions; fixed so that the
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


def _over_path_ranges(model: MarketModel, ensemble: PathEnsemble, solution: RiccatiSolution,
                      stabs, recursion) -> None:
    """Run ``recursion(paths, steps of those paths)`` on the pool, one range of
    whole 64-path blocks per worker; each path's arithmetic is elementwise,
    so the split keeps the bits.  ParameterError on a V-only ensemble or a
    psi grid unlike the path grid."""
    if solution.grid != ensemble.grid:
        raise ParameterError("wealth scheme requires the psi grid to match the path grid")
    coef = control_coefficient(model, solution, stabs, ensemble.grid.times[:-1])  # (d, n)
    width = -(-ensemble.M // (64 * _pool_size())) * 64
    _run_concurrently([
        functools.partial(recursion, paths, _step_factors(model, ensemble, coef, paths))
        for paths in (slice(c0, c0 + width) for c0 in range(0, ensemble.M, width))
    ])


def simulate_wealth(model: MarketModel, ensemble: PathEnsemble, solution: RiccatiSolution,
                    stabs, xi_star: float) -> WealthEnsemble:
    """Euler scheme for the wealth under the optimal feedback strategy.

    X(t_k) = X(t_{k-1}) + (r X(t_{k-1}) + sum_i theta_i sqrt(V_i) alpha_i) dt
             + sum_i alpha_i (rho_i DW_i - sqrt(1-rho_i^2) DWperp_i),

    with alpha evaluated at the left node from the same variance paths,
    taken as X_k (1 + r dt) + gap_k s_k and alpha_k = g_k gap_k with
    gap_k = X_k - xi* e^(-r(T-t_k)) and g, s of ``_step_factors``, run
    over path ranges on the pool (``_over_path_ranges``).
    Raises NonFiniteError when a wealth or strategy value is not finite,
    and ParameterError on a V-only ensemble.
    Stores every path and strategy; when only X_T is needed, for any
    number of targets, ``affine_wealth_terminal`` is far cheaper.
    """
    grid = ensemble.grid
    growth = 1.0 + model.r * grid.dt
    target = xi_star * np.exp(-model.r * (model.T - grid.times[:-1]))    # (n,)
    X = np.empty((ensemble.M, grid.n + 1))
    X[:, 0] = model.x0
    alpha_paths = np.empty((ensemble.M, model.d, grid.n))

    def recursion(paths, steps):
        x, alpha = X[paths], alpha_paths[paths]
        with np.errstate(over="ignore", invalid="ignore"):  # per thread; checked below
            for lo, gain, s in steps:
                for b in range(len(s)):
                    k = lo + b
                    gap = x[:, k] - target[k]
                    np.multiply(gain[:, :, b], gap[:, None], out=alpha[:, :, k])
                    x[:, k + 1] = x[:, k] * growth + gap * s[b]

    _over_path_ranges(model, ensemble, solution, stabs, recursion)
    require_finite("wealth paths", X)
    require_finite("optimal strategy", alpha_paths)
    return WealthEnsemble(model=model, grid=grid, xi_star=xi_star, X=X, alpha_paths=alpha_paths)


def affine_wealth_terminal(model: MarketModel, ensemble: PathEnsemble,
                           solution: RiccatiSolution, stabs) -> tuple[np.ndarray, np.ndarray]:
    """Terminal wealth of every target at once: X_T = A_T + xi* B_T.

    The optimal feedback is affine in xi*, so the Euler scheme of
    ``simulate_wealth`` is too.  With the per-step factor s_k of
    ``_step_factors``,

        A_k = A_{k-1} (1 + r dt + s_k),                       A_0 = x0,
        B_k = B_{k-1} (1 + r dt + s_k) - e^(-r(T-t_{k-1})) s_k, B_0 = 0.

    V and the Brownian increments are read in fixed blocks of time
    steps; neither the increment array, the wealth paths nor the
    strategy are stored; path ranges run on the pool (``_over_path_ranges``).
    Returns (A_T, B_T), each of shape (M,); raises NonFiniteError when
    either is not finite, and ParameterError on a V-only ensemble.
    """
    grid = ensemble.grid
    disc = np.exp(-model.r * (model.T - grid.times[:-1]))               # (n,)
    A = np.full(ensemble.M, float(model.x0))
    B = np.zeros(ensemble.M)

    def recursion(paths, steps):
        a, b_ = A[paths], B[paths]
        with np.errstate(over="ignore", invalid="ignore"):  # per thread; checked below
            for lo, _, s in steps:
                for b in range(len(s)):
                    growth = 1.0 + model.r * grid.dt + s[b]
                    a *= growth
                    b_ *= growth
                    b_ -= disc[lo + b] * s[b]

    _over_path_ranges(model, ensemble, solution, stabs, recursion)
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


def _laplace_samples(V: np.ndarray, dt: float, u: np.ndarray) -> np.ndarray:
    """Per-path exp(int_0^T V^T u ds) of an (M, d, n+1) V, trapezoidal in time;
    quiet on overflow, since ``voltmark full`` takes samples before u is checked."""
    with np.errstate(over="ignore"):
        return np.exp(_trapezoid_rows(V, dt).T @ u)


def z_score(value, target, se):
    """|value - target| / se, the statistic of every 3-SE gate (pass at z <= 3).

    inf where se = 0, and 0 where z > 3 but value equals target to 1e-6
    relative: a degenerate Monte Carlo spread (nu = 0, u = 0, a riskless
    target) leaves an SE of 0, or of rounding size, while the closed form
    carries its own discretization error.  Elementwise over arrays.
    """
    gap = np.abs(np.asarray(value, dtype=float) - target)
    z = np.divide(gap, se, out=np.full_like(gap, np.inf), where=se > 0.0)
    return np.where((z > 3.0) & (gap <= 1e-6 * max(1.0, abs(target))), 0.0, z)[()]


@dataclass(frozen=True)
class LaplaceReport:
    """Two sides of the exponential-affine transform identity at t = 0."""

    mc_value: float
    mc_se: float
    closed_form: float
    z_score: float
    passed: bool
    u: np.ndarray


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
        g0_i = model.x_inf[i] + model.mu0[i] * s ** model.alpha[i] / gamma_fn(model.alpha[i] + 1.0)
        expo += float(w @ (rhs[i] * g0_i))
    return float(np.exp(expo))


def laplace_affine_check(model: MarketModel, stabs, u, grid: Grid, M: int, seed: int, *,
                         ensemble: PathEnsemble | None = None, head=()) -> LaplaceReport:
    """Monte Carlo test of the exponential-affine Laplace formula.

    Simulates M paths started from x_inf (V only, without the Brownian
    increments) unless an ensemble is given, estimates
    E[exp(int_0^T V^T u ds)] with a per-path trapezoidal time integral,
    and compares against the closed form by ``z_score``.  The paths are
    taken one chunk at a time (``simulate_variance_chunks``; a given
    ensemble is the one chunk) and only the per-path samples are kept.
    ``head`` holds the samples of the leading chunks, one array each,
    when a caller already had those paths (``voltmark full``, from the
    wealth stage's chunks); the simulation starts after them.  The
    integral runs over the time-major rows of each chunk's V with
    (d, chunk) buffers, in the order and rounding of ``np.trapezoid``
    along the time axis.
    ParameterError when a given ensemble lies on another grid.
    """
    if ensemble is not None and ensemble.grid != grid:
        raise ParameterError("Laplace check requires the ensemble's grid to match the given grid")
    u = np.broadcast_to(np.asarray(u, dtype=float), (model.d,)).copy()
    # solve_laplace_riccati rejects u > 0 before any path is drawn
    closed = laplace_closed_form(model, stabs, u, n_solver=max(grid.n, _GAMMA0_REFINE))
    chunks = ([ensemble] if ensemble is not None
              else simulate_variance_chunks(model, stabs, grid, M, seed, initial="fixed",
                                            increments=False, start=len(head)))
    # map drops each chunk before the next one is simulated
    samples = np.concatenate(list(head) + list(map(
        lambda chunk: _laplace_samples(chunk.V, grid.dt, u), chunks)))
    mc = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / np.sqrt(len(samples)))
    z = float(z_score(mc, closed, se))
    return LaplaceReport(mc_value=mc, mc_se=se, closed_form=closed, z_score=z,
                         passed=z <= 3.0, u=u)
