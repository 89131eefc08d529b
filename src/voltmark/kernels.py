"""The fractional kernel, its resolvents and the special functions behind them.

The model uses one kernel family: the fractional kernel t^(a-1)/G(a) of
order a in (1/2, 1] (Hurst exponent H = a - 1/2).  Its Markovian edge
a = 1 is the constant kernel K = 1.  On top of plain evaluation this
module provides

* the lambda-resolvent R_lam, solving R + lam K*R = 1, and its density
  f_lam = -R'_lam, both Mittag-Leffler functions (exponentials at a = 1),
* one- and two-parameter Mittag-Leffler evaluation that stays accurate
  for large negative arguments (power series for |z| <= 1, Laplace
  inversion on a parabolic contour beyond),
* the kernel's product-integration weights on a uniform grid, the one
  place they are computed, without cancellation (``_product_weights``):
  the cell integrals C[j], which are the product-rectangle weights, and
  the product-trapezoid weights.  The Adams solver, the path engine and
  Gamma0 read them here,
* the exact entries of the path engine's cell covariance
  (``_kernel_products``): its lag diagonal and its first row,
* Riemann-Liouville fractional integrals of grid functions by the
  product-trapezoid weights (exact for piecewise-linear data).

All evaluators accept scalars or numpy arrays and are pure functions of
immutable specs, so they can be shared freely across threads.

The other layers take the package's Gamma function and its cached Gauss
rules from this module, which computes them with numpy and ``math`` alone.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np


class ParameterError(ValueError):
    """Kernel or resolvent parameters outside their admissible range."""


class DomainError(ValueError):
    """Evaluation point outside the domain of the requested quantity."""


# Switch from the power series to the contour integral of the
# Mittag-Leffler functions beyond this |z|: the alternating series cancels
# (relative error 1.7e-2 at alpha = beta = 0.501 on |z| <= 5, within
# 3.8e-15 on |z| <= 1, against 40-digit mpmath).
_ML_SERIES_RADIUS = 1.0
_ML_MAX_TERMS = 250
_N_JACOBI = 32
_N_LEGENDRE = 32


@dataclass(frozen=True)
class KernelSpec:
    """The fractional kernel K(t) = t^(alpha-1)/Gamma(alpha).

    ``alpha`` lies in (1/2, 1]; alpha = 1 is the constant kernel K = 1.
    ``family`` and ``beta`` are class constants, readable for code that
    keys on them.
    """

    alpha: float
    family: ClassVar[str] = "fractional"
    beta: ClassVar[None] = None

    def __post_init__(self):
        if not 0.5 < self.alpha <= 1.0:
            raise ParameterError(f"fractional kernel requires alpha in (1/2, 1], got {self.alpha}")

    @property
    def singular(self) -> bool:
        """True when K(0+) = +inf, i.e. alpha < 1."""
        return self.alpha < 1.0


def fractional_kernel(alpha: float) -> KernelSpec:
    return KernelSpec(alpha)


@dataclass(frozen=True)
class ResolventSpec:
    """Kernel together with a mean-reversion rate lambda > 0.

    R_lam solves R_lam(t) + lam * (K * R_lam)(t) = 1 with R_lam(0) = 1
    and decays to 0, so its density f_lam = -R'_lam integrates to 1.
    """

    kernel: KernelSpec
    lam: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ParameterError(f"resolvent requires lambda > 0, got {self.lam}")


def _gamma(x):
    """Gamma by ``math.gamma``, once per element; a 0-d x gives a float."""
    if np.ndim(x) == 0:
        return math.gamma(x)
    return np.array([math.gamma(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


# ---------------------------------------------------------------------------
# Mittag-Leffler machinery
# ---------------------------------------------------------------------------

@np.errstate(over="ignore")  # z^k overflows for a large positive z
def _ml_series(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Power series sum_k z^k / Gamma(alpha k + beta), vectorized in z;
    DomainError when the sum leaves the floats."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    term = np.full_like(z, 1.0 / _gamma(beta))
    out += term
    zk = np.ones_like(z)
    for k in range(1, _ML_MAX_TERMS):
        zk = zk * z
        term = zk / _gamma(alpha * k + beta)
        out += term
        if np.all(np.abs(term) <= 1e-16 * np.maximum(np.abs(out), 1e-300)):
            break
    if not np.all(np.isfinite(out)):
        raise DomainError(f"Mittag-Leffler series beyond the floats at z = {np.max(z):g}")
    return out


@lru_cache(maxsize=1)
def _parabola_nodes():
    # midpoint rule with M nodes over u in [-U, U] on the parabolic
    # Laplace-inversion contour p = mu (1+iu)^2
    M, U = 64, 4.0
    mu = 0.25 * M / U**2 * np.pi
    h = 2.0 * U / M
    u = -U + (np.arange(M) + 0.5) * h
    p = mu * (1.0 + 1j * u) ** 2
    dp = 2j * mu * (1.0 + 1j * u)
    return p, np.exp(p) * dp * h / (2.0j * np.pi)


def _ml_contour(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Laplace inversion on a parabolic contour, accurate for large x.

    Evaluates E_{alpha,beta}(-x) = (2 pi i)^-1 int_C e^p p^(alpha-beta) /
    (p^alpha + x) dp.  For alpha in (0, 1) the principal branch of
    p^alpha keeps the denominator zero-free off the negative axis, so
    deforming the Hankel contour to the parabola is exact; the midpoint
    trapezoid then converges geometrically and is uniform in x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p, w = _parabola_nodes()
    vals = (w * p ** (alpha - beta))[None, :] / (p[None, :] ** alpha + x[:, None])
    return vals.sum(axis=1).real


def _ml(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(-x) of a 1-d x: the power series for x <= 1, where
    (positive arguments included) it loses no precision, and the contour
    integral beyond."""
    out = np.empty_like(x)
    small = x <= _ML_SERIES_RADIUS
    if np.any(small):
        out[small] = _ml_series(alpha, beta, -x[small])
    if np.any(~small):
        out[~small] = _ml_contour(alpha, beta, x[~small])
    return out


def mittag_leffler(alpha: float, z) -> float | np.ndarray:
    """Standard Mittag-Leffler function E_alpha(z) = E_{alpha,1}(z) for real
    z, by ``_ml``; E_1(z) = exp(z) exactly.  DomainError at a NaN z and
    where the value leaves the floats."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"mittag_leffler requires alpha in (0, 1], got {alpha}")
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(np.isnan(z)):
        raise DomainError("Mittag-Leffler function at z = nan")
    with np.errstate(over="ignore"):
        out = np.exp(z) if alpha == 1.0 else _ml(alpha, 1.0, -z)
    if np.any(np.isinf(out)):
        raise DomainError(f"Mittag-Leffler function beyond the floats at z = {np.max(z):g}")
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Kernel evaluation and resolvents
# ---------------------------------------------------------------------------

def eval_kernel(spec: KernelSpec, t) -> float | np.ndarray:
    """Evaluate K(t) for t > 0 (a singular kernel rejects t <= 0, every kernel t = NaN)."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(np.isnan(t)):
        raise DomainError("fractional kernel at t = nan")
    if spec.singular and np.any(t <= 0.0):
        raise DomainError("fractional kernel is singular at t <= 0")
    out = t ** (spec.alpha - 1.0) / _gamma(spec.alpha)
    return float(out[0]) if scalar else out


def resolvent(spec: ResolventSpec, t) -> float | np.ndarray:
    """R_lam(t) = E_alpha(-lam t^alpha) for t >= 0 (exp(-lam t) at alpha = 1)."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(t >= 0.0):  # NaN fails too
        raise DomainError("resolvent requires t >= 0")
    alpha, lam = spec.kernel.alpha, spec.lam
    out = np.asarray(mittag_leffler(alpha, -lam * t ** alpha))
    return float(out[0]) if scalar else out


def resolvent_density(spec: ResolventSpec, t) -> float | np.ndarray:
    """f_lam(t) = -R'_lam(t) = lam t^(alpha-1) E_{alpha,alpha}(-lam t^alpha), t > 0.

    E_{alpha,alpha} comes from ``_ml``; alpha = 1 gives lam e^(-lam t).
    """
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(t > 0.0):  # NaN fails too
        raise DomainError("resolvent_density requires t > 0")
    alpha, lam = spec.kernel.alpha, spec.lam
    if alpha == 1.0:
        out = lam * np.exp(-lam * t)
    else:
        out = lam * t ** (alpha - 1.0) * _ml(alpha, alpha, lam * t ** alpha)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Quadrature rules and cell integrals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _jacobi_rule(e: float):
    """Gauss-Jacobi rule for the weight (1 - x)^e on [-1, 1], read-only, by
    Golub-Welsch: the nodes are the Jacobi matrix's eigenvalues (``eigh``
    reads its lower triangle), the weights 2^(e+1)/(e+1) v_0^2 of each
    eigenvector v."""
    k = np.arange(1.0, _N_JACOBI)
    s = 2.0 * k + e
    diag = np.concatenate(([-e / (e + 2.0)], -e * e / (s * (s + 2.0))))
    off = 2.0 * k * (k + e) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    w = 2.0 ** (e + 1.0) / (e + 1.0) * v[0] ** 2
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=8)
def _legendre_rule(n: int = _N_LEGENDRE):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only (shared by every caller)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _product_weights(alpha: float, n: int, dt: float, steps=None):
    """Product-integration weights of K(u) = u^(a-1)/G(a), a in (0, 1], on
    t_j = j dt (Diethelm, Ford & Freed, Nonlinear Dyn. 29, 2002).

    Without ``steps``, the product-rectangle weights: the cell integrals
    C[m] = int_{m dt}^{(m+1) dt} K(u) du = dt^a/G(a+1) ((m+1)^a - m^a),
    m = 0..n-1, in lag order.  With ``steps`` (an array of k < n), the
    product-trapezoid weights of the rows t_{k+1}, which integrate
    K(t_{k+1} - s) against the piecewise-linear interpolant of t_0..t_{k+1},
    as (first, inner, diag) with c = dt^a/G(a+2):
    first[i] = c (k^(a+1) - (k-a) (k+1)^a) weighs t_0 in row k = steps[i],
    inner[m] = c ((m+2)^(a+1) + m^(a+1) - 2 (m+1)^(a+1)), m = 0..n-2,
               weighs t_j at lag m = k - j for 1 <= j <= k,
    diag     = c (a float) weighs t_{k+1}.
    The differences of powers go through expm1/log1p, and beyond m = 16
    the second difference, which cancels there, is summed as its series
    m^(a+1) sum_{i>=2} binom(a+1, i) (2^i - 2) m^-i.
    """
    if steps is None:
        j = np.arange(1.0, n)
        cells = np.concatenate(([1.0], j**alpha * np.expm1(alpha * np.log1p(1.0 / j))))
        return dt**alpha / _gamma(alpha + 1.0) * cells
    c = dt**alpha / _gamma(alpha + 2.0)
    k = np.asarray(steps, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = k * np.expm1(-alpha * np.log1p(1.0 / k)) + alpha
    bracket[k == 0.0] = alpha  # the k = 0 term is exactly alpha
    b = alpha + 1.0
    m = np.arange(n - 1, dtype=float)
    second = np.empty(n - 1)
    near, far = m[:16], m[16:]
    second[:16] = (near + 2.0) ** b + near**b - 2.0 * (near + 1.0) ** b
    if len(far):
        h = 1.0 / far
        acc, hk, coef = np.zeros_like(far), h, b
        for i in range(2, 60):
            coef *= (b - i + 1.0) / i  # binom(b, i)
            hk = hk * h
            term = coef * (2.0**i - 2.0) * hk
            acc += term
            if np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
                break
        second[16:] = far**b * acc
    return c * (k + 1.0) ** alpha * bracket, c * second, float(c)


def _kernel_products(alpha: float, n: int, dt: float):
    """(diag, row0), the exact entries of the cell covariance that the thin
    factor reads, at the lags t_j = (j+1) dt, j < n; K = 1 gives dt for both.

    diag[j] = int_0^dt K(t_j - s)^2 ds, the cell integral of u^(2a-2)/G(a)^2:
    ``_product_weights`` at order 2a - 1 times G(2a)/((2a-1) G(a)^2), and
    diag[0] = dt^(2a-1)/((2a-1) G(a)^2).  row0[j] = int_0^dt K(t_j - s)
    K(dt - s) ds by the Gauss-Jacobi rule that absorbs the (dt - s)^(a-1)
    endpoint singularity, one dot per element.
    """
    if alpha == 1.0:
        return np.full(n, dt), np.full(n, dt)
    p, g = 2.0 * alpha - 1.0, _gamma(alpha)
    diag = _product_weights(p, n, dt) * (_gamma(2.0 * alpha) / (p * g**2))
    diag[0] = dt**p / (p * g**2)
    h = 0.5 * dt
    nodes, weights = _jacobi_rule(alpha - 1.0)
    # the regular factor K(t_j - s) over the rule's nodes, j >= 1
    u = np.arange(2.0, n + 1.0)[:, None] * dt - h * (nodes + 1.0)
    smooth = u ** (alpha - 1.0) / g * (1.0 / g)
    return diag, np.concatenate(([diag[0]], [h**alpha * (weights @ row) for row in smooth]))


def fractional_integral(r: float, f: np.ndarray, T: float) -> float:
    """Riemann-Liouville fractional integral I^r f(T) of a grid function.

    f is sampled on the uniform grid over [0, T]; the last row of the
    product-trapezoid weights (``_product_weights``) integrates (T-s)^(r-1)
    against the piecewise-linear interpolant exactly, so I^1 reduces to
    the trapezoidal rule.
    """
    if not 0.0 < r <= 1.0:
        raise ParameterError(f"fractional order r must be in (0, 1], got {r}")
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or len(f) < 2:
        raise DomainError("f must be a 1-d grid function with at least 2 samples")
    n = len(f) - 1
    first, inner, diag = _product_weights(r, n, T / n, steps=[n - 1])
    return float(first[0] * f[0] + f[1:n] @ inner[::-1] + diag * f[n])
