"""Riccati-Volterra system for the mean-variance stochastic factor.

Solves, per asset i on [0, T],

    psi_i(t) = int_0^t K_i(t-s) ( -theta_i^2 + F_i(T-s, psi(s)) ) ds,
    F_i(s, psi) = -2 theta_i rho_i nu_i sig_i(s) psi_i + (D^T psi)_i
                  + nu_i^2/2 (1 - 2 rho_i^2) (sig_i(s) psi_i)^2,

with the fractional kernel K_i of order alpha_i and D = -diag(lam).  The
workhorse is the generalized Adams-Bashforth-Moulton predictor-corrector
with the classical product-trapezoidal corrector weights; a Picard
fixed-point iteration on a finer grid acts as an independent oracle.
The same machinery solves the measure-extended equation used by the
Laplace-transform check (forcing u, no risk-premium terms, quadratic
coefficient nu_i^2/2).

Runtime guards: solutions are non-positive in exact arithmetic and
bounded by theta_i^2 / lam_bar_i (1 - R_{lam_bar_i}(T)) whenever
lam_bar_i = lam_i + 2 nu_i rho_i theta_i ||sig_i||_inf 1{rho_i <= 0} is
positive; the solver aborts once any psi_i turns NaN/Inf or |psi_i|
exceeds ten times that bound (or a fixed cap when the bound does not
apply).
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .kernels import ParameterError, ResolventSpec, _power_moments, fractional_kernel, resolvent
from .model import Grid, MarketModel

_FALLBACK_CAP = 1e6
_BLOWUP_FACTOR = 10.0


class BlowupError(RuntimeError):
    """Riccati solution left the admissible region (likely finite-time blow-up)."""


class ConvergenceError(RuntimeError):
    """Picard iteration failed to reach the requested tolerance."""


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """psi on the uniform grid, shape (d, n+1), psi[:, 0] = 0."""

    grid: Grid
    psi: np.ndarray
    model: MarketModel

    @property
    def n(self) -> int:
        return self.grid.n

    def psi_at(self, t) -> np.ndarray:
        """Linear interpolation of each component at times t."""
        t = np.asarray(t, dtype=float)
        out = np.empty((self.model.d,) + t.shape)
        for i in range(self.model.d):
            out[i] = np.interp(t, self.grid.times, self.psi[i])
        return out


def _second_diff_weights(alpha: float, n: int) -> np.ndarray:
    """d[m] = (m+2)^(a+1) + m^(a+1) - 2 (m+1)^(a+1), m = 0..n-1.

    Large m suffers cancellation (the result is a second difference of a
    smooth power), so beyond m = 16 the expansion
    d[m] = m^(a+1) sum_{k>=2} binom(a+1, k) (2^k - 2) m^-k is summed
    instead of the raw differences.
    """
    b = alpha + 1.0
    m = np.arange(n, dtype=float)
    out = np.empty(n)
    direct = m < 16
    md = m[direct]
    out[direct] = (md + 2.0) ** b + md**b - 2.0 * (md + 1.0) ** b
    ms = m[~direct]
    if len(ms):
        h = 1.0 / ms
        acc = np.zeros_like(ms)
        coef = 1.0  # binom(b, k) via recurrence
        hk = np.ones_like(ms)
        for k in range(1, 60):
            coef *= (b - k + 1.0) / k
            hk = hk * h
            if k >= 2:
                term = coef * (2.0**k - 2.0) * hk
                acc += term
                if np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
                    break
        out[~direct] = ms**b * acc
    return out


def _adams_weights(alpha: float, n: int, dt: float):
    """Predictor/corrector weight tables for one asset.

    Returns (b_block, a_first, a_inner, a_diag):
    b_block[m] = dt^a/G(a+1) (m^a - (m-1)^a) for m = 1..n (lag-indexed),
    a_first[k] = weight of j=0 in the corrector for step k+1,
    a_inner[m] = dt^a/G(a+2) d[m] for the 1 <= j <= k terms (lag k-j),
    a_diag     = dt^a/G(a+2).
    """
    m = np.arange(1, n + 1, dtype=float)
    blk = np.empty(n + 1)
    blk[0] = 0.0  # unused
    small = m < 2
    blk[1:][small] = m[small] ** alpha - (m[small] - 1.0) ** alpha
    ms = m[~small]
    blk[1:][~small] = (ms - 1.0) ** alpha * np.expm1(alpha * np.log1p(1.0 / (ms - 1.0)))
    b_block = dt**alpha / gamma_fn(alpha + 1.0) * blk

    k = np.arange(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = k * np.expm1(-alpha * np.log1p(1.0 / k)) + alpha
    bracket[0] = alpha  # k = 0 term is exactly alpha
    a_first = dt**alpha / gamma_fn(alpha + 2.0) * (k + 1.0) ** alpha * bracket

    a_inner = dt**alpha / gamma_fn(alpha + 2.0) * _second_diff_weights(alpha, n)
    a_diag = dt**alpha / gamma_fn(alpha + 2.0)
    return b_block, a_first, a_inner, a_diag


def _rhs_tables(model: MarketModel, stabs, grid: Grid, forcing, include_theta):
    """Per-grid-node coefficient tables of the quadratic rhs.

    rhs(j, y) = forcing + lin_sig[j] * y + D^T y + quad_sig[j] * y^2 with
    all stabilizer factors evaluated at the reversed times T - t_j.
    """
    t_rev = grid.T - grid.times
    sig_rev = np.stack([np.asarray(st.eval(t_rev)) for st in stabs], axis=1)  # (n+1, d)
    if include_theta:
        force = -model.theta**2 if forcing is None else np.asarray(forcing, dtype=float)
        lin_sig = -2.0 * model.theta * model.rho * model.nu * sig_rev
        quad_sig = 0.5 * model.nu**2 * (1.0 - 2.0 * model.rho**2) * sig_rev**2
    else:
        if forcing is None:
            raise ParameterError("forcing vector required for the measure-extended system")
        force = np.asarray(forcing, dtype=float)
        lin_sig = np.zeros_like(sig_rev)
        quad_sig = 0.5 * model.nu**2 * sig_rev**2
    DT = model.D.T

    def rhs(j: int, y: np.ndarray) -> np.ndarray:
        return force + lin_sig[j] * y + DT @ y + quad_sig[j] * y * y

    return rhs


# overflow and NaN are caught by the blow-up guard, which raises with one
# message; numpy's own warnings would only repeat it on stderr
@np.errstate(over="ignore", invalid="ignore")
def solve_riccati_adams(model: MarketModel, stabs, n: int, *,
                        forcing=None, include_theta: bool = True,
                        cap=None) -> RiccatiSolution:
    """Fractional Adams predictor-corrector solve on t_k = k T / n.

    y_{k+1}^P = sum_{j<=k} b_{j,k+1} f(t_j, y_j),
    y_{k+1}   = sum_{j<=k} a_{j,k+1} f(t_j, y_j)
                + a_{k+1,k+1} f(t_{k+1}, y_{k+1}^P),    y_0 = 0,

    with f(t_j, y) = -theta^2 + F(T - t_j, y).  Raises BlowupError when
    any psi_i is not finite or |psi_i| exceeds 10x the resolvent bound
    (or 1e6 without one).
    """
    if n < 2:
        raise ParameterError("Adams solve needs n >= 2")
    grid = Grid(model.T, n)
    d = model.d
    rhs = _rhs_tables(model, stabs, grid, forcing, include_theta)
    weights = [_adams_weights(model.alpha[i], n, grid.dt) for i in range(d)]
    if cap is None:
        if include_theta and forcing is None:
            bounds = riccati_bound(model, stabs, model.T, warn=False)
            cap = np.where(np.isfinite(bounds), _BLOWUP_FACTOR * bounds, _FALLBACK_CAP)
            cap = np.maximum(cap, 1e-6)  # theta = 0 assets stay at zero anyway
        else:
            cap = np.full(d, _FALLBACK_CAP)
    else:
        cap = np.broadcast_to(np.asarray(cap, dtype=float), (d,)).copy()

    psi = np.zeros((n + 1, d))
    fhist = np.empty((n + 1, d))
    fhist[0] = rhs(0, psi[0])
    for k in range(n):
        y_pred = np.empty(d)
        for i in range(d):
            b_block = weights[i][0]
            # lags k+1-j for j = 0..k  ->  b_block[k+1], ..., b_block[1]
            y_pred[i] = fhist[: k + 1, i] @ b_block[1 : k + 2][::-1]
        f_pred = rhs(k + 1, y_pred)
        y_new = np.empty(d)
        for i in range(d):
            _, a_first, a_inner, a_diag = weights[i]
            acc = a_first[k] * fhist[0, i]
            if k >= 1:
                acc += fhist[1 : k + 1, i] @ a_inner[:k][::-1]
            y_new[i] = acc + a_diag * f_pred[i]
        if not np.all(np.isfinite(y_new)) or np.any(np.abs(y_new) > cap):
            raise BlowupError(
                f"psi not finite or beyond the blow-up guard at t = {grid.times[k + 1]:.6g} "
                f"(values {y_new}, caps {cap})"
            )
        psi[k + 1] = y_new
        fhist[k + 1] = rhs(k + 1, y_new)
    return RiccatiSolution(grid=grid, psi=psi.T.copy(), model=model)


def oracle_volterra_picard(model: MarketModel, stabs, n_fine: int, sweeps: int = 80, *,
                           forcing=None, include_theta: bool = True,
                           tol: float = 1e-10) -> RiccatiSolution:
    """Brute-force fixed-point oracle psi <- K * (f + F(psi)).

    Product-rectangle quadrature (left endpoints, exact kernel cell
    integrals) on a fine grid, iterated until successive sweeps differ
    by less than ``tol`` in sup norm.  Entirely independent of the Adams
    weights, which it serves to validate.
    """
    if sweeps < 1:
        raise ParameterError("need at least one Picard sweep")
    grid = Grid(model.T, n_fine)
    d = model.d
    rhs = _rhs_tables(model, stabs, grid, forcing, include_theta)
    c_seg = [_power_moments(model.alpha[i], n_fine, grid.dt)[0] for i in range(d)]
    psi = np.zeros((n_fine + 1, d))
    for _ in range(sweeps):
        g = np.empty((n_fine, d))
        for j in range(n_fine):
            g[j] = rhs(j, psi[j])
        new = np.zeros_like(psi)
        for i in range(d):
            new[1:, i] = np.convolve(c_seg[i], g[:, i])[:n_fine]
        delta = float(np.max(np.abs(new - psi)))
        psi = new
        if delta < tol:
            return RiccatiSolution(grid=grid, psi=psi.T.copy(), model=model)
    raise ConvergenceError(f"Picard iteration stalled at delta = {delta:.3e} after {sweeps} sweeps")


def riccati_bound(model: MarketModel, stabs, T: float, warn: bool = True) -> np.ndarray:
    """Per-asset sup bound theta_i^2 / lam_bar_i (1 - R_{lam_bar_i}(T)).

    lam_bar_i = lam_i + 2 nu_i rho_i theta_i ||sig_i||_inf 1{rho_i <= 0};
    components with lam_bar_i <= 0 get nan (bound inapplicable) and a
    warning.
    """
    out = np.empty(model.d)
    for i in range(model.d):
        sup_sig = stabs[i].sup(T)
        lam_bar = model.lam[i]
        if model.rho[i] <= 0.0:
            lam_bar += 2.0 * model.nu[i] * model.rho[i] * model.theta[i] * sup_sig
        if lam_bar <= 0.0:
            if warn:
                warnings.warn(
                    f"lam_bar[{i}] = {lam_bar:.4g} <= 0: resolvent bound inapplicable",
                    RuntimeWarning,
                )
            out[i] = np.nan
            continue
        spec = ResolventSpec(fractional_kernel(model.alpha[i]), lam_bar)
        out[i] = model.theta[i] ** 2 / lam_bar * (1.0 - resolvent(spec, T))
    return out


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    lhs: float
    threshold: float
    a_const: float
    a_of_p: float
    p: float


def admissibility_constant(p: float, sigma_norm: float) -> float:
    """a(p) = max[ p (2 + |Sigma|), 2 (8 p^2 - 2 p) (1 + |Sigma|^2) ]."""
    if p < 1.0:
        raise ParameterError("admissibility exponent p must be >= 1")
    return float(max(p * (2.0 + sigma_norm), 2.0 * (8.0 * p**2 - 2.0 * p) * (1.0 + sigma_norm**2)))


def check_admissibility(model: MarketModel, solution: RiccatiSolution, stabs,
                        p: float = 1.0, a: float = 1.0) -> AdmissibilityReport:
    """Boundedness condition on the risk premia and the solved psi.

    Checks max_i sup_t (theta_i^2 + nu_i^2 sig_i(t)^2 psi_i(T-t)^2)
    <= a / a(p) with |Sigma| = tr(Sigma^T Sigma).
    """
    a_p = admissibility_constant(p, model.sigma_norm)
    times = solution.grid.times
    lhs = 0.0
    for i in range(model.d):
        sig = np.asarray(stabs[i].eval(times))
        psi_rev = solution.psi[i][::-1]  # psi(T - t_k) on the same grid
        lhs = max(lhs, float(np.max(model.theta[i] ** 2 + model.nu[i] ** 2 * sig**2 * psi_rev**2)))
    threshold = a / a_p
    return AdmissibilityReport(
        passed=lhs <= threshold, lhs=lhs, threshold=threshold,
        a_const=a, a_of_p=a_p, p=p,
    )


def solve_laplace_riccati(model: MarketModel, stabs, n: int, u) -> RiccatiSolution:
    """Measure-extended Riccati solve for the exponential-affine transform.

    psi(t) = int_0^t K(t-s) (u + F(T-s, psi(s))) ds with
    F_i = (D^T psi)_i + nu_i^2/2 (sig_i psi_i)^2; u <= 0 guarantees a
    global non-positive solution.
    """
    u = np.broadcast_to(np.asarray(u, dtype=float), (model.d,)).copy()
    if np.any(u > 0.0):
        raise ParameterError("Laplace forcing u must be <= 0 componentwise")
    return solve_riccati_adams(model, stabs, n, forcing=u, include_theta=False)
