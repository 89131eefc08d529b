"""The fractional kernel, its resolvents and the special functions behind them.

The model uses one kernel family: the fractional kernel t^(a-1)/G(a) of
order a in (1/2, 1] (Hurst exponent H = a - 1/2).  Its Markovian edge
a = 1 is the constant kernel K = 1.  On top of plain evaluation this
module provides

* the lambda-resolvent R_lam, solving R + lam K*R = 1, and its density
  f_lam = -R'_lam, both Mittag-Leffler functions (exponentials at a = 1),
* one- and two-parameter Mittag-Leffler evaluation that stays accurate
  for large negative arguments (power series near zero, Laplace
  inversion on a parabolic contour far out),
* exact segment integrals of the kernel and of kernel products, the
  building blocks of the simulation covariance matrices,
* Riemann-Liouville fractional integrals of grid functions by product
  integration (exact for piecewise-linear data).

All evaluators accept scalars or numpy arrays and are pure functions of
immutable specs, so they can be shared freely across threads.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import roots_jacobi, roots_legendre


class ParameterError(ValueError):
    """Kernel or resolvent parameters outside their admissible range."""


class DomainError(ValueError):
    """Evaluation point outside the domain of the requested quantity."""


# Switch from the power series to the spectral integral representation of
# the Mittag-Leffler functions beyond this |z|; the alternating series
# loses precision for large negative arguments.
_ML_SERIES_RADIUS = 5.0
_ML_MAX_TERMS = 250
_N_JACOBI = 32
_N_LEGENDRE = 32
# Mittag-Leffler terms of the resolvent convolved in closed form by
# resolvent_equation_residual
_RESOLVENT_HEAD = 3


@dataclass(frozen=True)
class KernelSpec:
    """The fractional kernel K(t) = t^(alpha-1)/Gamma(alpha).

    ``alpha`` lies in (1/2, 1]; alpha = 1 is the constant kernel K = 1.
    ``family`` is always ``"fractional"`` and ``beta`` always None; both
    are kept as readable attributes for code that keys on them.
    """

    family: str
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.family != "fractional" or self.beta is not None:
            raise ParameterError(
                f"only the fractional kernel is supported, got family {self.family!r}, "
                f"beta {self.beta}"
            )
        if self.alpha is None or not 0.5 < self.alpha <= 1.0:
            raise ParameterError(f"fractional kernel requires alpha in (1/2, 1], got {self.alpha}")

    @property
    def singular(self) -> bool:
        """True when K(0+) = +inf, i.e. alpha < 1."""
        return self.alpha < 1.0


def fractional_kernel(alpha: float) -> KernelSpec:
    return KernelSpec("fractional", alpha=alpha)


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


# ---------------------------------------------------------------------------
# Mittag-Leffler machinery
# ---------------------------------------------------------------------------

def _ml_series(alpha: float, offset: float, z: np.ndarray) -> np.ndarray:
    """Power series sum_k z^k / Gamma(alpha k + offset), vectorized in z."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    term = np.full_like(z, 1.0 / gamma_fn(offset))
    out += term
    zk = np.ones_like(z)
    for k in range(1, _ML_MAX_TERMS):
        zk = zk * z
        term = zk / gamma_fn(alpha * k + offset)
        out += term
        if np.all(np.abs(term) <= 1e-16 * np.maximum(np.abs(out), 1e-300)):
            break
    return out


@lru_cache(maxsize=8)
def _parabola_nodes(M: int = 64, U: float = 4.0):
    # midpoint rule on the parabolic Laplace-inversion contour p = mu (1+iu)^2
    mu = 0.25 * M / U**2 * np.pi
    h = 2.0 * U / M
    u = -U + (np.arange(M) + 0.5) * h
    p = mu * (1.0 + 1j * u) ** 2
    dp = 2j * mu * (1.0 + 1j * u)
    return p, np.exp(p) * dp * h / (2.0j * np.pi)


def _ml_contour(alpha: float, x: np.ndarray, power_alpha: bool = True) -> np.ndarray:
    """Laplace inversion on a parabolic contour, accurate for large x.

    Evaluates (2 pi i)^-1 int_C e^p p^q / (p^alpha + x) dp with q =
    alpha-1 (giving E_alpha(-x)) or q = 0 (giving the kernel of the
    resolvent density).  For alpha in (0, 1) the principal branch of
    p^alpha keeps the denominator zero-free off the negative axis, so
    deforming the Hankel contour to the parabola is exact; the midpoint
    trapezoid then converges geometrically and is uniform in x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p, w = _parabola_nodes()
    num = p ** (alpha - 1.0) if power_alpha else np.ones_like(p)
    vals = (w * num)[None, :] / (p[None, :] ** alpha + x[:, None])
    return vals.sum(axis=1).real


def mittag_leffler(alpha: float, z) -> float | np.ndarray:
    """Standard Mittag-Leffler function E_alpha(z) for real z.

    Uses the power series for |z| <= 5 and the parabolic-contour Laplace
    inversion for large negative arguments.  E_1(z) = exp(z) exactly.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"mittag_leffler requires alpha in (0, 1], got {alpha}")
    scalar = np.isscalar(z)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if alpha == 1.0:
        out = np.exp(z)
        return float(out[0]) if scalar else out
    out = np.empty_like(z)
    small = z >= -_ML_SERIES_RADIUS
    if np.any(small):
        # positive arguments have no cancellation, the series is safe there
        out[small] = _ml_series(alpha, 1.0, z[small])
    if np.any(~small):
        out[~small] = _ml_contour(alpha, -z[~small])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Kernel evaluation and resolvents
# ---------------------------------------------------------------------------

def eval_kernel(spec: KernelSpec, t) -> float | np.ndarray:
    """Evaluate K(t) for t > 0 (a singular kernel rejects t <= 0)."""
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if spec.singular and np.any(t <= 0.0):
        raise DomainError("fractional kernel is singular at t <= 0")
    out = t ** (spec.alpha - 1.0) / gamma_fn(spec.alpha)
    return float(out[0]) if scalar else out


def resolvent(spec: ResolventSpec, t) -> float | np.ndarray:
    """R_lam(t) = E_alpha(-lam t^alpha) for t >= 0 (exp(-lam t) at alpha = 1)."""
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < 0.0):
        raise DomainError("resolvent requires t >= 0")
    alpha, lam = spec.kernel.alpha, spec.lam
    out = np.asarray(mittag_leffler(alpha, -lam * t ** alpha))
    return float(out[0]) if scalar else out


def resolvent_density(spec: ResolventSpec, t) -> float | np.ndarray:
    """f_lam(t) = -R'_lam(t) = lam t^(alpha-1) E_{alpha,alpha}(-lam t^alpha), t > 0.

    Evaluated by series for lam t^alpha <= 5 and by the contour
    integral beyond; alpha = 1 gives lam e^(-lam t).
    """
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t <= 0.0):
        raise DomainError("resolvent_density requires t > 0")
    alpha, lam = spec.kernel.alpha, spec.lam
    if alpha == 1.0:
        out = lam * np.exp(-lam * t)
    else:
        x = lam * t ** alpha
        out = np.empty_like(t)
        small = x <= _ML_SERIES_RADIUS
        if np.any(small):
            out[small] = lam * t[small] ** (alpha - 1.0) * _ml_series(alpha, alpha, -x[small])
        if np.any(~small):
            # f_lam(t) = lam t^(alpha-1) E_{a,a}(-x) with the E_{a,a}
            # factor recovered from the q = 0 contour integral
            out[~small] = (
                lam * t[~small] ** (alpha - 1.0) * _ml_contour(alpha, x[~small], power_alpha=False)
            )
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Segment integrals
# ---------------------------------------------------------------------------

def kernel_mean_segment(spec: KernelSpec, t_k, a, b) -> float | np.ndarray:
    """int_a^b K(t_k - s) ds for a < b <= t_k (vectorized in t_k).

    Closed form ((t_k-a)^alpha - (t_k-b)^alpha)/Gamma(alpha+1).
    """
    scalar = np.isscalar(t_k)
    t_k = np.atleast_1d(np.asarray(t_k, dtype=float))
    if not a < b:
        raise DomainError(f"segment [{a}, {b}] is empty or reversed")
    if np.any(b > t_k * (1 + 1e-12) + 1e-300):
        raise DomainError("segment must satisfy b <= t_k")
    al = spec.alpha
    out = ((t_k - a) ** al - np.maximum(t_k - b, 0.0) ** al) / gamma_fn(al + 1.0)
    return float(out[0]) if scalar else out


@lru_cache(maxsize=64)
def _jacobi_rule(exponent: float):
    # weight (1 - x)^exponent on [-1, 1]
    x, w = roots_jacobi(_N_JACOBI, exponent, 0.0)
    return x, w


@lru_cache(maxsize=8)
def _legendre_rule(n: int = _N_LEGENDRE):
    return roots_legendre(n)


def kernel_cross_segment(spec: KernelSpec, t_k, t_k2, a: float, b: float) -> float | np.ndarray:
    """int_a^b K(t_k - s) K(t_k2 - s) ds for a < b <= min(t_k, t_k2).

    Vectorized in t_k and t_k2, which broadcast against each other.
    Needed for the covariance of kernel-weighted Brownian integrals.  The
    equal-time case has the closed form
    ((t_k-a)^(2a-1) - (t_k-b)^(2a-1)) / ((2a-1) Gamma(a)^2), evaluated
    per element with scalar ``pow`` (an array power may round the last
    bit differently), and K = 1 gives b - a; otherwise a Gauss-Jacobi
    rule absorbs the (t_min - s)^(alpha-1) endpoint singularity whenever
    b hits t_min, and plain Gauss-Legendre is used when both factors are
    regular on the segment.  Each element is the same float however the
    times are batched.
    """
    scalar = np.isscalar(t_k) and np.isscalar(t_k2)
    t_k, t_k2 = np.broadcast_arrays(np.atleast_1d(np.asarray(t_k, dtype=float)),
                                    np.atleast_1d(np.asarray(t_k2, dtype=float)))
    if not a < b:
        raise DomainError(f"segment [{a}, {b}] is empty or reversed")
    t_lo, t_hi = np.minimum(t_k, t_k2), np.maximum(t_k, t_k2)
    if np.any(b > t_lo * (1 + 1e-12) + 1e-300):
        raise DomainError("segment must satisfy b <= min(t_k, t_k2)")
    al = spec.alpha
    out = np.empty(t_k.shape)
    if al == 1.0:
        out[...] = b - a
        return float(out[0]) if scalar else out
    equal = t_k == t_k2
    if np.any(equal):
        p = 2.0 * al - 1.0
        out[equal] = [(t - a) ** p - (t - b) ** p for t in t_k[equal]]
        out[equal] /= p * gamma_fn(al) ** 2
    # the rules' dot products run one element at a time, as a scalar call
    # does, so their summation order does not depend on the batch
    h = 0.5 * (b - a)
    at_lo = ~equal & np.isclose(b, t_lo, rtol=1e-12, atol=0.0)
    if np.any(at_lo):
        expo = al - 1.0
        nodes, weights = _jacobi_rule(expo)
        s = a + h * (nodes + 1.0)
        # split off the singular power of (t_lo - s); the rest is smooth
        smooth = eval_kernel(spec, t_hi[at_lo][:, None] - s) * (1.0 / gamma_fn(al))
        out[at_lo] = [h ** (expo + 1.0) * (weights @ row) for row in smooth]
    regular = ~equal & ~at_lo
    if np.any(regular):
        nodes, weights = _legendre_rule()
        s = a + h * (nodes + 1.0)
        vals = (eval_kernel(spec, t_k[regular][:, None] - s)
                * eval_kernel(spec, t_k2[regular][:, None] - s))
        out[regular] = [h * (weights @ row) for row in vals]
    return float(out[0]) if scalar else out


def _power_moments(r: float, n: int, dt: float):
    """Cell moments of the power kernel u^(r-1)/Gamma(r), any r in (0, 1].

    For the cells [j dt, (j+1) dt], j = 0..n-1, returns
    m0[j] = int K(u) du and m1[j] = int K(u) ((j+1) dt - u) du, the
    weights of product integration that is exact for piecewise-linear
    integrands.
    """
    lags = np.arange(n, dtype=float)
    lo, hi = lags * dt, (lags + 1.0) * dt
    g = gamma_fn(r)
    m0 = (hi ** r - lo ** r) / (r * g)
    int_u = (hi ** (r + 1.0) - lo ** (r + 1.0)) / ((r + 1.0) * g)
    return m0, hi * m0 - int_u


def kernel_convolve(spec: KernelSpec, g: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """(K * g)(t_k) on a uniform grid, exact for piecewise-linear g."""
    g = np.asarray(g, dtype=float)
    grid = np.asarray(grid, dtype=float)
    n = len(grid) - 1
    if g.shape != grid.shape:
        raise DomainError("g must be sampled on the given grid")
    dt = grid[1] - grid[0]
    if not np.allclose(np.diff(grid), dt):
        raise DomainError("kernel_convolve requires a uniform grid")
    m0, m1 = _power_moments(spec.alpha, n, dt)
    w_right = m1 / dt          # weight on g(t_l) for cell ending at lag j
    w_left = m0 - w_right      # weight on g(t_{l-1})
    out = np.zeros(n + 1)
    # (K*g)(t_k) = sum_{l=1..k} w_left[k-l] g_{l-1} + w_right[k-l] g_l
    out[1:] = (
        np.convolve(w_left, g[:-1])[:n]
        + np.convolve(w_right, g[1:])[:n]
    )
    return out

def resolvent_equation_residual(spec: ResolventSpec, T: float, n: int) -> float:
    """max_k |R(t_k) + lam (K*R)(t_k) - 1| on the uniform grid over [0, T].

    R = E_alpha(-lam t^alpha) has a t^alpha cusp at 0 that a
    piecewise-linear interpolant misses.  The first _RESOLVENT_HEAD terms
    of its Mittag-Leffler series, (-lam t^alpha)^k / Gamma(alpha k + 1),
    are therefore convolved in closed form,
    K * t^(alpha k) / Gamma(alpha k + 1) = t^(alpha (k+1)) / Gamma(alpha (k+1) + 1),
    and only the smoother remainder by product integration against its
    piecewise-linear interpolant.  The residual so measures how well the
    evaluated resolvent satisfies its defining Volterra equation.
    """
    grid = np.linspace(0.0, T, n + 1)
    R = np.asarray(resolvent(spec, grid))
    al, lam = spec.kernel.alpha, spec.lam
    head = np.zeros_like(grid)
    head_conv = np.zeros_like(grid)
    for k in range(_RESOLVENT_HEAD):
        head += (-lam) ** k * grid ** (al * k) / gamma_fn(al * k + 1.0)
        head_conv += (-lam) ** k * grid ** (al * (k + 1)) / gamma_fn(al * (k + 1) + 1.0)
    conv = head_conv + kernel_convolve(spec.kernel, R - head, grid)
    return float(np.max(np.abs(R + lam * conv - 1.0)))


def fractional_integral(r: float, f: np.ndarray, T: float) -> float:
    """Riemann-Liouville fractional integral I^r f(T) of a grid function.

    f is sampled on the uniform grid over [0, T]; the product-integration
    rule integrates (T-s)^(r-1) against the piecewise-linear interpolant
    exactly, so I^1 reduces to the trapezoidal rule.
    """
    if not 0.0 < r <= 1.0:
        raise ParameterError(f"fractional order r must be in (0, 1], got {r}")
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or len(f) < 2:
        raise DomainError("f must be a 1-d grid function with at least 2 samples")
    n = len(f) - 1
    dt = T / n
    m0, m1 = _power_moments(r, n, dt)
    w_right = m1 / dt
    w_left = m0 - w_right
    # lag j = n - l pairs cell l with weights at distance from T
    fl = f[:-1][::-1]   # g_{l-1} ordered by lag
    fr = f[1:][::-1]    # g_l ordered by lag
    return float(w_left @ fl + w_right @ fr)
