"""Closed-form mean-variance quantities and the optimal-strategy simulator.

With psi solved, everything the Markowitz problem needs is explicit:

* Gamma0 = exp(2 r T + sum_i V0_i I^(1-alpha_i) psi_i(T)
                      + sum_i mu0_i I^1 psi_i(T)),
  the initial value of the Riccati-BSDE factor.  It is computed through
  fractional integrals and cross-checked against the direct quadrature
  of the defining integral formula; disagreement beyond 1e-6 relative
  raises (it would indicate an inconsistent discretization).
* the optimal target split xi* = m - eta*, the feedback strategy
  alpha*_i = -(theta_i + rho_i nu_i sig_i(t) psi_i(T-t)) sqrt(V_i)
             (X - xi* e^(-r(T-t))),
  the efficient frontier m = x0 e^(rT) + sigma sqrt(e^(2rT)/Gamma0 - 1)
  and the optimal terminal variance V(m).
* a wealth Euler scheme driven by the same increments as the variance
  ensemble, its terminal-only affine form X_T = A_T + xi* B_T that
  serves every frontier target from one recursion, and the
  exponential-affine Laplace-transform check that pits a Monte Carlo
  functional of the paths against the closed form.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import roots_legendre

from .kernels import ParameterError, fractional_integral
from .model import Grid, MarketModel
from .riccati import RiccatiSolution, solve_laplace_riccati, solve_riccati_adams
from .simulate import (
    PathEnsemble,
    _asset_increments,
    _increments,
    ensemble_chunks,
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
    """Wealth paths under the optimal strategy, X[-, 0] = x0."""

    model: MarketModel
    grid: Grid
    xi_star: float
    X: np.ndarray = field(repr=False)            # (M, n+1)
    alpha_paths: np.ndarray = field(repr=False)  # (M, d, n)

    @property
    def terminal(self) -> np.ndarray:
        return self.X[:, -1]

    @property
    def terminal_mean(self) -> float:
        return float(np.mean(self.X[:, -1]))

    @property
    def terminal_var(self) -> float:
        return float(np.var(self.X[:, -1], ddof=1))


def _cell_quadrature(n: int, T: float):
    nodes, weights = roots_legendre(_GL_CELL)
    dt = T / n
    edges = np.arange(n) * dt
    s = edges[:, None] + 0.5 * dt * (nodes[None, :] + 1.0)
    w = np.tile(0.5 * dt * weights, (n, 1))
    return s.ravel(), w.ravel()


def _direct_gamma_integral(model: MarketModel, solution: RiccatiSolution, stabs, i: int) -> float:
    """int_0^T (-theta_i^2 + F_i(s, psi(T-s))) ds by per-cell Legendre.

    The stabilizer is evaluated analytically at the quadrature nodes and
    psi(T-s) by linear interpolation on the solver grid, so the rule
    integrates exactly what the discrete solution represents.
    """
    grid = solution.grid
    s, w = _cell_quadrature(grid.n, grid.T)
    sig = np.asarray(stabs[i].eval(s))
    psi_rev = np.interp(grid.T - s, grid.times, solution.psi[i])
    th, rho, nu, lam = model.theta[i], model.rho[i], model.nu[i], model.lam[i]
    q = (
        -th**2
        - 2.0 * th * rho * nu * sig * psi_rev
        - lam * psi_rev
        + 0.5 * nu**2 * (1.0 - 2.0 * rho**2) * (sig * psi_rev) ** 2
    )
    return float(w @ q)


def gamma0(model: MarketModel, solution: RiccatiSolution, stabs, v0=None, *,
           refine_to: int = _GAMMA0_REFINE, check_tol: float = _GAMMA0_TOL) -> float:
    """Initial Riccati-BSDE factor Gamma0 for initial variance v0.

    Computes the fractional-integral form and the direct quadrature of
    the defining integral; the two routes must agree to ``check_tol``
    relative or ConsistencyError is raised.  The integrals converge like
    a positive power of the step, so the psi grid is refined to at least
    ``refine_to`` steps internally (pass 0 to disable).  The refined
    solve goes through the memo of ``solve_riccati_adams``, so repeated
    calls on one (model, stabs) pair run it once per process.

    v0 defaults to the stationary mean x_inf, matching the convention
    that a single Gamma0 prices the frontier.
    """
    v0 = model.x_inf if v0 is None else np.broadcast_to(np.asarray(v0, float), (model.d,))
    if np.any(v0 < 0.0):
        raise ParameterError("initial variance v0 must be >= 0 componentwise")
    # the agreement of the two forms is limited by the step size, so the
    # refinement target scales with the horizon
    n_target = int(np.ceil(refine_to * max(model.T, 1.0)))
    if solution.n < n_target:
        solution = solve_riccati_adams(model, stabs, n_target)
    two_rT = 2.0 * model.r * model.T
    expo_const = two_rT
    expo_direct = two_rT
    for i in range(model.d):
        r_ord = 1.0 - model.alpha[i]
        if r_ord == 0.0:
            frac = float(solution.psi[i, -1])
        else:
            frac = fractional_integral(r_ord, solution.psi[i], model.T)
        mu_term = model.mu0[i] * fractional_integral(1.0, solution.psi[i], model.T)
        expo_const += v0[i] * frac + mu_term
        expo_direct += v0[i] * _direct_gamma_integral(model, solution, stabs, i) + mu_term
    if abs(expo_const - expo_direct) > check_tol * max(1.0, abs(expo_const)):
        raise ConsistencyError(
            f"Gamma0 exponent mismatch: fractional-integral form {expo_const!r} vs "
            f"direct quadrature {expo_direct!r}"
        )
    return float(np.exp(expo_const))


def xi_eta_star(gamma0_value: float, model: MarketModel, m: float) -> tuple[float, float]:
    """Optimal shift xi* and Lagrange multiplier eta* = m - xi*.

    Feasibility requires m >= m0 = x0 e^(rT); at m = m0 the riskless
    portfolio is optimal and eta* = 0 exactly.
    """
    m0 = model.m0
    if m < m0 * (1.0 - 1e-12) - 1e-12:
        raise ParameterError(f"target mean m = {m} below the riskless level m0 = {m0}")
    if abs(m - m0) <= 1e-12 * max(1.0, abs(m0)):
        return m0, 0.0
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
    """Optimal terminal-wealth variance V(m) = G0 |x0 - m e^-rT|^2 / (1 - G0 e^-2rT)."""
    m0 = model.m0
    if m < m0 * (1.0 - 1e-12) - 1e-12:
        raise ParameterError(f"target mean m = {m} below the riskless level m0 = {m0}")
    if abs(m - m0) <= 1e-12 * max(1.0, abs(m0)):
        return 0.0
    disc1 = model.discount(model.T)
    denom = 1.0 - gamma0_value * disc1**2
    if denom <= 1e-12:
        raise ParameterError("Gamma0 >= e^(2rT): variance formula degenerate")
    return float(gamma0_value * (model.x0 - m * disc1) ** 2 / denom)


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


def _gain(coef, V):
    """Per-asset gain -coef sqrt(V^+) of the optimal feedback, and sqrt(V^+).

    alpha*_i = gain_i (X - xi* e^(-r(T-t))); coef broadcasts against V.
    """
    root = np.sqrt(np.maximum(V, 0.0))
    return -coef * root, root


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


def _step_factors(model: MarketModel, ensemble: PathEnsemble, solution: RiccatiSolution,
                  stabs):
    """Gains and per-step wealth factors of the optimal feedback, in blocks of steps.

    With g = -coef sqrt(V^+) at the left node and s_k = (g sqrt(V^+)) . theta dt
    + g . DB_k, the wealth under alpha = g (X - xi* e^(-r(T-t))) steps as
    X_{k+1} = X_k (1 + r dt) + (X_k - xi* e^(-r(T-t_k))) s_k.  Yields (first
    step, g (M, d, w), s (w, M)) per block of ``_WEALTH_BLOCK`` steps.  Raises
    ParameterError on a V-only ensemble or a psi grid unlike the path grid.
    """
    if solution.grid != ensemble.grid:
        raise ParameterError("wealth scheme requires the psi grid to match the path grid")
    grid = ensemble.grid
    dW, dWperp = _increments(ensemble)
    n, dt = grid.n, grid.dt
    coef = control_coefficient(model, solution, stabs, grid.times[:-1])  # (d, n)
    for lo in range(0, n, _WEALTH_BLOCK):
        hi = min(lo + _WEALTH_BLOCK, n)
        gain, root_v = _gain(coef[None, :, lo:hi], ensemble.V[:, :, lo:hi])  # (M, d, w)
        dB = _asset_increments(model, dW[:, :, lo:hi], dWperp[:, :, lo:hi])
        s = (np.einsum("mdk,mdk,d->km", gain, root_v, model.theta) * dt
             + np.einsum("mdk,mdk->km", gain, dB))                         # (w, M)
        yield lo, gain, s


def simulate_wealth(model: MarketModel, ensemble: PathEnsemble, solution: RiccatiSolution,
                    stabs, xi_star: float) -> WealthEnsemble:
    """Euler scheme for the wealth under the optimal feedback strategy.

    X(t_k) = X(t_{k-1}) + (r X(t_{k-1}) + sum_i theta_i sqrt(V_i) alpha_i) dt
             + sum_i alpha_i (rho_i DW_i - sqrt(1-rho_i^2) DWperp_i),

    with alpha evaluated at the left node from the same variance paths,
    taken as X_k (1 + r dt) + gap_k s_k and alpha_k = g_k gap_k with
    gap_k = X_k - xi* e^(-r(T-t_k)) and g, s of ``_step_factors``.
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for lo, gain, s in _step_factors(model, ensemble, solution, stabs):
            for b in range(len(s)):
                k = lo + b
                gap = X[:, k] - target[k]
                np.multiply(gain[:, :, b], gap[:, None], out=alpha_paths[:, :, k])
                X[:, k + 1] = X[:, k] * growth + gap * s[b]
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
    strategy are stored.  Returns (A_T, B_T), each of shape (M,);
    raises NonFiniteError when either is not finite, and ParameterError
    on a V-only ensemble.
    """
    grid = ensemble.grid
    disc = np.exp(-model.r * (model.T - grid.times[:-1]))               # (n,)
    A = np.full(ensemble.M, float(model.x0))
    B = np.zeros(ensemble.M)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for lo, _, s in _step_factors(model, ensemble, solution, stabs):
            for b in range(len(s)):
                growth = 1.0 + model.r * grid.dt + s[b]
                A *= growth
                B *= growth
                B -= disc[lo + b] * s[b]
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
    """Per-path exp(int_0^T V^T u ds) of an (M, d, n+1) V, trapezoidal in time."""
    return np.exp(_trapezoid_rows(V, dt).T @ u)


@dataclass(frozen=True)
class LaplaceReport:
    """Two sides of the exponential-affine transform identity at t = 0."""

    mc_value: float
    mc_se: float
    closed_form: float
    z_score: float
    passed: bool
    u: np.ndarray


def laplace_closed_form(model: MarketModel, stabs, u, v0=None, n_solver: int = _GAMMA0_REFINE) -> float:
    """Right side of the affine transform formula at t = 0.

    exp( int_0^T g0(s)^T u ds + int_0^T F(s, psi(T-s))^T g0(s) ds ) with
    g0_i(s) = V0_i + mu0_i s^alpha_i / Gamma(alpha_i + 1) and F the
    drift-quadratic functional without risk-premium terms.  psi comes
    from ``solve_laplace_riccati`` on ``n_solver`` steps, through the
    memo of ``solve_riccati_adams``: repeated calls with the same
    (model, stabs, u, n_solver) solve the system once per process.
    """
    u = np.broadcast_to(np.asarray(u, dtype=float), (model.d,))
    v0 = model.x_inf if v0 is None else np.broadcast_to(np.asarray(v0, float), (model.d,))
    sol = solve_laplace_riccati(model, stabs, n_solver, u)
    s, w = _cell_quadrature(sol.grid.n, model.T)
    expo = 0.0
    for i in range(model.d):
        g0_i = v0[i] + model.mu0[i] * s ** model.alpha[i] / gamma_fn(model.alpha[i] + 1.0)
        psi_rev = np.interp(model.T - s, sol.grid.times, sol.psi[i])
        sig = np.asarray(stabs[i].eval(s))
        F_i = -model.lam[i] * psi_rev + 0.5 * model.nu[i] ** 2 * (sig * psi_rev) ** 2
        expo += float(w @ ((u[i] + F_i) * g0_i))
    return float(np.exp(expo))


def laplace_affine_check(model: MarketModel, stabs, u, grid: Grid, M: int, seed: int, *,
                         ensemble: PathEnsemble | None = None) -> LaplaceReport:
    """Monte Carlo test of the exponential-affine Laplace formula.

    Simulates M paths started from x_inf (V only, without the Brownian
    increments) unless an ensemble is given, estimates
    E[exp(int_0^T V^T u ds)] with a per-path trapezoidal time integral,
    and compares against the closed form within 3 standard errors.  The
    paths are taken one chunk at a time (``simulate_variance_chunks``,
    or ``ensemble_chunks`` of a given ensemble, with the same samples)
    and only the per-path samples are kept.  The integral runs over the
    time-major rows of each chunk's V with (d, chunk) buffers, in the
    order and rounding of ``np.trapezoid`` along the time axis.  A
    degenerate Monte Carlo spread (nu = 0 or u = 0) demands equality to
    1e-6 relative instead (the closed form still carries its own
    discretization error).
    """
    u = np.broadcast_to(np.asarray(u, dtype=float), (model.d,)).copy()
    if np.any(u > 0.0):
        raise ParameterError("Laplace check requires u <= 0 componentwise")
    closed = laplace_closed_form(model, stabs, u, n_solver=max(grid.n, _GAMMA0_REFINE))
    chunks = (ensemble_chunks(ensemble) if ensemble is not None
              else simulate_variance_chunks(model, stabs, grid, M, seed, initial="fixed",
                                            increments=False))
    # map drops each chunk before the next one is simulated
    samples = np.concatenate(list(map(lambda chunk: _laplace_samples(chunk.V, grid.dt, u),
                                      chunks)))
    mc = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / np.sqrt(len(samples)))
    if se == 0.0:
        passed = abs(mc - closed) <= 1e-6 * max(1.0, abs(closed))
        z = 0.0 if passed else np.inf
    else:
        z = abs(mc - closed) / se
        passed = z <= 3.0
    return LaplaceReport(mc_value=mc, mc_se=se, closed_form=closed, z_score=float(z),
                         passed=passed, u=u)
