"""Riccati-Volterra system for the mean-variance stochastic factor.

Solves, per asset i on [0, T],

    psi_i(t) = int_0^t K_i(t-s) ( -theta_i^2 + F_i(T-s, psi(s)) ) ds,
    F_i(s, psi) = -2 theta_i rho_i nu_i sig_i(s) psi_i + (D^T psi)_i
                  + nu_i^2/2 (1 - 2 rho_i^2) (sig_i(s) psi_i)^2,

with the fractional kernel K_i of order alpha_i and D = -diag(lam).  The
workhorse is the generalized Adams-Bashforth-Moulton predictor-corrector
with the classical product-trapezoidal corrector weights (Diethelm, Ford
& Freed, Nonlinear Dyn. 29, 2002).  It steps in scalars: the d-vectors
of a step are Python floats, and numpy does only the two history sums
per asset and step, each one dot of the asset's contiguous row of past
rhs values with a weight row reversed once per solve.  The same
machinery solves the measure-extended equation used by the
Laplace-transform check (forcing u, no risk-premium terms, quadratic
coefficient nu_i^2/2).  ``_system`` states F once for both systems:
the solver's tables and ``_rhs_along``, which the Gamma0 direct form
and the Laplace closed form integrate, read its constants.

Runtime guards: solutions are non-positive in exact arithmetic and
bounded by theta_i^2 / lam_bar_i (1 - R_{lam_bar_i}(T)) whenever
lam_bar_i = lam_i + 2 nu_i rho_i theta_i ||sig_i||_inf 1{rho_i <= 0} is
positive; the solver aborts once any psi_i turns NaN/Inf or |psi_i|
exceeds ten times that bound (or a fixed cap when the bound does not
apply or ten times it overflows).

`solve_riccati_adams` keeps its last few distinct solutions, so the
Gamma0 refinement and the Laplace closed form, which re-solve the same
system on a fixed fine grid, run each solve once per process.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .kernels import ParameterError, ResolventSpec, _gamma, fractional_kernel, resolvent
from .model import Grid, MarketModel

_FALLBACK_CAP = 1e6
_BLOWUP_FACTOR = 10.0


class BlowupError(RuntimeError):
    """Riccati solution left the admissible region (likely finite-time blow-up)."""


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
        return np.stack([np.interp(t, self.grid.times, row) for row in self.psi])


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
    """Predictor/corrector weights for one asset, as the scalar solver reads them.

    Returns (b_rev, a_first, a_rev, a_diag):
    b_rev[n-m]   = dt^a/G(a+1) (m^a - (m-1)^a) for lags m = 1..n,
    a_first[k]   = weight of j=0 in the corrector for step k+1 (a list),
    a_rev[n-1-m] = dt^a/G(a+2) d[m] for the 1 <= j <= k terms (lag m = k-j),
    a_diag       = dt^a/G(a+2) (a float).
    The lag rows are contiguous and reversed, so each history sum of step
    k is one dot with a tail of its row.
    """
    m = np.arange(1, n + 1, dtype=float)
    blk = np.empty(n)
    small = m < 2
    blk[small] = m[small] ** alpha - (m[small] - 1.0) ** alpha
    ms = m[~small]
    blk[~small] = (ms - 1.0) ** alpha * np.expm1(alpha * np.log1p(1.0 / (ms - 1.0)))
    b_rev = dt**alpha / _gamma(alpha + 1.0) * blk[::-1]

    k = np.arange(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = k * np.expm1(-alpha * np.log1p(1.0 / k)) + alpha
    bracket[0] = alpha  # k = 0 term is exactly alpha
    a_first = dt**alpha / _gamma(alpha + 2.0) * (k + 1.0) ** alpha * bracket

    a_rev = dt**alpha / _gamma(alpha + 2.0) * _second_diff_weights(alpha, n)[::-1]
    return b_rev, a_first.tolist(), a_rev, float(dt**alpha / _gamma(alpha + 2.0))


def _system(model: MarketModel, forcing):
    """Per-asset constants (force, lin, quad) of the rhs force + F, the only
    statement of F_i(s, psi) = lin_i sig_i(s) psi_i - lam_i psi_i + quad_i (sig_i(s) psi_i)^2.

    ``forcing`` None selects the mean-variance system (force -theta^2), a
    vector u the measure-extended Laplace system (no risk-premium terms).
    """
    if forcing is None:
        return (-model.theta**2, -2.0 * model.theta * model.rho * model.nu,
                0.5 * model.nu**2 * (1.0 - 2.0 * model.rho**2))
    return (np.broadcast_to(np.asarray(forcing, dtype=float), (model.d,)),
            np.zeros(model.d), 0.5 * model.nu**2)


def _rhs_tables(model: MarketModel, stabs, grid: Grid, forcing):
    """Per-grid-node coefficient tables of the quadratic rhs of ``_system``.

    rhs(j, y) = force + lin_sig[j] * y + D^T y + quad_sig[j] * y^2 with
    all stabilizer factors evaluated at the reversed times T - t_j.  It maps
    d floats to a list of d, reading row j as floats per call; (D^T y)_i = -lam_i y_i.
    """
    t_rev = grid.T - grid.times
    sig_rev = np.stack([np.asarray(st.eval(t_rev)) for st in stabs], axis=1)  # (n+1, d)
    force, lin, quad = _system(model, forcing)
    lin_sig, quad_sig = lin * sig_rev, quad * sig_rev**2
    force, neg_lam = force.tolist(), (-model.lam).tolist()

    def rhs(j: int, y) -> list:
        return [f + lin * x + dl * x + q * x * x
                for f, lin, dl, q, x in zip(force, lin_sig[j].tolist(), neg_lam,
                                            quad_sig[j].tolist(), y)]

    return rhs


def _rhs_along(solution: RiccatiSolution, stabs, s, forcing=None) -> np.ndarray:
    """force + F(s, psi(T - s)) of the system ``forcing`` selects at the times s, (d, len(s)).

    sig is evaluated analytically at s and psi(T - s) by linear interpolation
    on the solver grid (``psi_at``), so a quadrature over s integrates
    exactly what the discrete solution represents.
    """
    model = solution.model
    force, lin, quad, lam = (np.asarray(c)[:, None] for c in (*_system(model, forcing), model.lam))
    psi = solution.psi_at(model.T - np.asarray(s, dtype=float))
    sig = np.stack([np.asarray(st.eval(s)) for st in stabs])
    return force + (lin * sig * psi - lam * psi + quad * (sig * psi) ** 2)


# solutions kept by solve_riccati_adams (least recently used dropped)
_MEMO_SIZE = 8


def solve_riccati_adams(model: MarketModel, stabs, n: int, *, forcing=None) -> RiccatiSolution:
    """Fractional Adams predictor-corrector solve on t_k = k T / n.

    y_{k+1}^P = sum_{j<=k} b_{j,k+1} f(t_j, y_j),
    y_{k+1}   = sum_{j<=k} a_{j,k+1} f(t_j, y_j)
                + a_{k+1,k+1} f(t_{k+1}, y_{k+1}^P),    y_0 = 0,

    with f(t_j, y) = force + F(T - t_j, y) of ``_system``.  Raises
    BlowupError when any psi_i is not finite or |psi_i| exceeds 10x the
    resolvent bound (or 1e6 for the Laplace system, or where that bound
    does not apply or 10x it overflows).

    Solutions are memoized per process (``_solve_memo``): the key is the
    identity of ``model`` and of each stabilizer (both immutable)
    together with ``n`` and ``forcing`` by value, and the last few
    distinct solves are kept.  A repeated call returns
    the same RiccatiSolution, whose ``psi`` is read-only.  A blow-up is
    never kept, so it raises on every call.
    """
    if forcing is not None:
        forcing = tuple(np.asarray(forcing, dtype=float).ravel().tolist())
    return _solve_memo(model, tuple(stabs), n, forcing)


# lru_cache hashes the model and the stabilizers by identity and holds
# them in its keys, so an id cannot be reused while its entry lives; it
# stays consistent under concurrent callers and caches no exception
@functools.lru_cache(maxsize=_MEMO_SIZE)
def _solve_memo(model: MarketModel, stabs: tuple, n: int, forcing: tuple | None) -> RiccatiSolution:
    solution = _solve_adams(model, stabs, n, forcing)
    solution.psi.flags.writeable = False
    return solution


# overflow and NaN are caught by the blow-up guard, which raises with one
# message; numpy's own warnings would only repeat it on stderr
@np.errstate(over="ignore", invalid="ignore")
def _solve_adams(model: MarketModel, stabs, n: int, forcing) -> RiccatiSolution:
    """The Adams solve behind ``solve_riccati_adams``, without the memo."""
    if n < 2:
        raise ParameterError("Adams solve needs n >= 2")
    grid = Grid(model.T, n)
    d = model.d
    rhs = _rhs_tables(model, stabs, grid, forcing)
    b_rev, a_first, a_rev, a_diag = zip(*(_adams_weights(a, n, grid.dt) for a in model.alpha))
    if forcing is None:
        # the finiteness test goes on the scaled bound: 10x a finite
        # bound near the float limit overflows to inf
        cap = _BLOWUP_FACTOR * riccati_bound(model, stabs, model.T)
        cap = np.where(np.isfinite(cap), cap, _FALLBACK_CAP)
        cap = np.maximum(cap, 1e-6).tolist()  # theta = 0 assets stay at zero anyway
    else:
        cap = [_FALLBACK_CAP] * d
    psi = np.zeros((d, n + 1))
    fh = np.empty((d, n + 1))
    fh[:, 0] = f0 = rhs(0, [0.0] * d)
    for k in range(n):
        y_pred = [float(fi[: k + 1].dot(bi[n - k - 1 :])) for fi, bi in zip(fh, b_rev)]
        f_pred = rhs(k + 1, y_pred)
        y_new = [af[k] * f0_i + float(fi[1 : k + 1].dot(ai[n - k :])) + ad * fp
                 for af, f0_i, fi, ai, ad, fp in zip(a_first, f0, fh, a_rev, a_diag, f_pred)]
        # false for NaN and, the cap being finite, for +-inf
        if not all(abs(y) <= c for y, c in zip(y_new, cap)):
            raise BlowupError(
                f"psi not finite or beyond the blow-up guard at t = {grid.times[k + 1]:.6g} "
                f"(values {np.array(y_new)}, caps {np.array(cap)})"
            )
        psi[:, k + 1] = y_new
        fh[:, k + 1] = rhs(k + 1, y_new)
    return RiccatiSolution(grid=grid, psi=psi, model=model)


def riccati_bound(model: MarketModel, stabs, T: float) -> np.ndarray:
    """Per-asset sup bound theta_i^2 / lam_bar_i (1 - R_{lam_bar_i}(T)).

    lam_bar_i = lam_i + 2 nu_i rho_i theta_i ||sig_i||_inf 1{rho_i <= 0};
    components with lam_bar_i <= 0 get nan (bound inapplicable).
    """
    out = np.empty(model.d)
    for i in range(model.d):
        sup_sig = stabs[i].sup(T)
        lam_bar = model.lam[i]
        if model.rho[i] <= 0.0:
            lam_bar += 2.0 * model.nu[i] * model.rho[i] * model.theta[i] * sup_sig
        if lam_bar <= 0.0:
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
    global non-positive solution.  Goes through the memo of
    ``solve_riccati_adams`` (u is part of its key by value).
    """
    return solve_riccati_adams(model, stabs, n, forcing=_laplace_forcing(model, u))


def _laplace_forcing(model: MarketModel, u) -> np.ndarray:
    """u as a float d-vector; ParameterError unless u <= 0 (NaN fails too)."""
    u = np.broadcast_to(np.asarray(u, dtype=float), (model.d,)).copy()
    if not np.all(u <= 0.0):
        raise ParameterError("Laplace forcing u must be <= 0 componentwise")
    return u
