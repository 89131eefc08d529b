"""Fake-stationarity stabilizer for the fractional Volterra square-root model.

The variance process has a time-dependent diffusion multiplier sigma(t)
("the stabilizer") chosen so that Var(V_t) stays constant through time.
For the fractional kernel of order alpha and mean reversion lam it is

    sigma^2_{alpha,lam,c}(t) = c lam^(2 - 1/alpha) s2_alpha(lam^(1/alpha) t),
    s2_alpha(u) = 2 u^(1-alpha) sum_k (-1)^k c_k u^(alpha k),

with coefficients c_k built from a Gamma/Beta recurrence.  The series
has infinite radius of convergence but loses floating-point accuracy for
large arguments, so beyond a computed switch point the evaluation jumps
to the exact limit value sqrt(c) lam / ||f_{alpha,lam}||_L2, with the
norm in closed form (``density_l2_norm``).  At the Markovian edge
alpha = 1 that limit, sqrt(2 c lam), holds for all t: the series has no
terms and switches at u = 0.

The construction is validated a posteriori: `functional_equation_residual`
measures how well the evaluated stabilizer satisfies the defining
equation  c lam^2 (1 - R_lam(t)^2) = (f_lam^2 * sigma^2)(t).  The
convolution is evaluated for every grid time in one array pass with a
fixed composite Gauss-Legendre rule graded toward both endpoints; its
own error is below 1e-15 of c lam^2 for the bundled parameters.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kernels import (
    DomainError,
    ParameterError,
    ResolventSpec,
    _gamma,
    _legendre_rule,
    fractional_kernel,
    resolvent,
    resolvent_density,
)

_MAX_TERMS = 120
_NEGATIVE_TOL = 1e-10
# error budget (relative to the squared limit) accepted from series
# truncation and cancellation at the series/asymptote switch point
_SWITCH_TOL = 1e-10
# residual convolution rule: _RULE_ORDER Gauss-Legendre points on each of
# _RULE_PANELS panels per half of [0, 1], halving in width toward both
# ends (innermost panels 2^-41 wide)
_RULE_ORDER = 16
_RULE_PANELS = 41
# integrand evaluations per block of grid times; bounds the temporaries
_BLOCK_NODES = 8192


class TruncationError(RuntimeError):
    """Truncated stabilizer series turned significantly negative."""


def _coeffs_with_floor(alpha: float, K: int):
    if not 0.5 < alpha < 1.0:
        raise ParameterError(f"stabilizer requires alpha in (1/2, 1), got {alpha}")
    if not 1 <= K <= _MAX_TERMS:
        raise ParameterError(f"truncation order K must be in [1, {_MAX_TERMS}], got {K}")
    ks = np.arange(K, dtype=float)
    a_seq = 1.0 / _gamma(alpha * ks + 1.0)
    b_seq = 1.0 / _gamma(alpha * (ks + 1.0))
    ab = np.array([np.dot(a_seq[: k + 1], b_seq[k::-1]) for k in range(K)])
    bb = np.array([np.dot(b_seq[: k + 1], b_seq[k::-1]) for k in range(K)])
    # plain Gamma ratios (log Gamma differences cancel): every argument
    # stays below 123 for K <= _MAX_TERMS = 120
    pref = (_gamma(alpha) ** 2 / _gamma(2.0 * alpha - 1.0)
            * _gamma(alpha * (ks + 1.0)) / _gamma(alpha * ks + 2.0 - alpha))
    # B(x_l, y_(k-l)), x_l = a(l+2)-1, y_j = a(j-1)+2, over the Gamma of the
    # rounded x + y (Gamma(a(k+1)+1) costs c_k a decade of accuracy)
    x, y = alpha * (ks + 2.0) - 1.0, alpha * (ks - 1.0) + 2.0
    g_x, g_y = _gamma(x), _gamma(y)
    c = np.empty(K)
    for k in range(K):
        bweights = g_x[1 : k + 1] * g_y[:k][::-1] / _gamma(x[1 : k + 1] + y[:k][::-1])
        conv = np.dot(bweights * bb[1 : k + 1], c[:k][::-1])
        c[k] = pref[k] * (ab[k] - alpha * (k + 1.0) * conv)
    # rounding noise of the bracket subtraction, the recurrence loses all
    # relative accuracy once c_k sinks to this level
    floor = 1e-16 * pref * ab
    return c, floor


def stabilizer_coeffs(alpha: float, K: int) -> np.ndarray:
    """First K coefficients c_0..c_{K-1} of the scaled stabilizer series.

    c_0 = Gamma(a)^2 / (Gamma(2a-1) Gamma(2-a)) and for k >= 1

        c_k = Gamma(a)^2 Gamma(a(k+1)) / (Gamma(2a-1) Gamma(ak+2-a))
              * [ (a*b)_k - a(k+1) sum_{l=1..k} B(a(l+2)-1, a(k-l-1)+2)
                                              (b*b)_l c_{k-l} ],

    with a_k = 1/Gamma(ak+1), b_k = 1/Gamma(a(k+1)), Cauchy products
    (a*b) and (b*b), and B the Beta function; k = 0 is the same formula
    with an empty sum.
    """
    c, _ = _coeffs_with_floor(alpha, K)
    return c


def density_l2_norm(alpha: float, lam: float = 1.0) -> float:
    """||f_{alpha,lam}||_{L2(0,inf)} of the resolvent density, in closed form.

    By Parseval with the Laplace transform f^(s) = lam / (s^alpha + lam),
    ||f||^2 = (1/pi) int_0^inf lam^2 / |(i w)^alpha + lam|^2 dw.  With
    y = w^alpha / lam this is lam^(1/alpha) / (pi alpha) times
    int_0^inf y^(mu-1) / (y^2 + 2 y cos(phi) + 1) dy
    = pi sin((1-mu) phi) / (sin(mu pi) sin(phi)) at mu = 1/alpha,
    phi = alpha pi / 2, so that

        ||f||^2 = lam^(1/alpha) sin((1-alpha) pi/2)
                  / (alpha sin(pi (1-alpha)/alpha) sin(alpha pi/2)),

    and lam/2 at alpha = 1.  sin(pi (1-alpha)/alpha) equals
    -sin(pi/alpha) but keeps full precision as alpha -> 1.
    """
    if not 0.5 < alpha <= 1.0:
        raise ParameterError(f"density_l2_norm requires alpha in (1/2, 1], got {alpha}")
    if alpha == 1.0:
        return float(np.sqrt(lam / 2.0))
    ratio = np.sin((1.0 - alpha) * np.pi / 2.0) / (
        alpha * np.sin(np.pi * (1.0 - alpha) / alpha) * np.sin(alpha * np.pi / 2.0))
    return float(np.sqrt(lam ** (1.0 / alpha) * ratio))


@dataclass(frozen=True, eq=False)
class StabilizerSeries:
    """Evaluator of the stabilizer sigma_{alpha,lam,c} for one asset.

    Immutable (``coeffs`` is a read-only copy) and compared by identity,
    so the Riccati memo can key on the object (see
    ``riccati.solve_riccati_adams``).

    Attributes
    ----------
    alpha, lam, c : float
        Kernel order, mean-reversion rate and normalized variance
        c = v0 / (nu^2 x_inf).
    coeffs : ndarray
        Truncated series coefficients c_k, one per retained term (none
        at alpha = 1).
    switch_u : float
        Scaled time beyond which the asymptotic constant replaces the
        series (largest u whose tail and rounding errors stay below
        _SWITCH_TOL of the squared limit; 0 at alpha = 1).
    limit : float
        sqrt(c) lam / ||f_{alpha,lam}||_L2, the t -> inf value.
    """

    alpha: float
    lam: float
    c: float
    coeffs: np.ndarray = field(repr=False)
    switch_u: float
    limit: float

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def switch_time(self) -> float:
        return self.switch_u / self.lam ** (1.0 / self.alpha)

    def eval(self, t) -> float | np.ndarray:
        """sigma(t) >= 0 for t >= 0 (vectorized; a 0-d t gives a float)."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0.0):
            raise DomainError("stabilizer requires t >= 0")
        u = self.lam ** (1.0 / self.alpha) * t
        out = np.full_like(u, self.limit)
        inside = u < self.switch_u
        if np.any(inside):
            s2 = self._scaled_sq(u[inside])
            bad = s2 < -_NEGATIVE_TOL * self.limit**2
            if np.any(bad):
                raise TruncationError(
                    f"stabilizer series negative ({s2.min():.3e}) before the switch "
                    f"point with {len(self.coeffs)} terms"
                )
            scale = self.c * self.lam ** (2.0 - 1.0 / self.alpha)
            out[inside] = np.sqrt(np.clip(scale * s2, 0.0, None))
        return float(out[0]) if scalar else out

    def _scaled_sq(self, u: np.ndarray) -> np.ndarray:
        # s2_alpha(u) = 2 u^(1-alpha) sum_k (-1)^k c_k u^(alpha k), Horner in u^alpha
        neg_ua, acc = -(u ** self.alpha), np.zeros_like(u)
        for ck in self.coeffs[::-1]:
            np.multiply(acc, neg_ua, out=acc)
            acc += ck
        return 2.0 * u ** (1.0 - self.alpha) * acc

    def sup(self, T: float) -> float:
        """sup of sigma over [0, T], evaluated on a grid of 2048 steps."""
        grid = np.linspace(0.0, T, 2049)
        return float(np.max(self.eval(grid)))


def build_stabilizer(alpha: float, lam: float, c: float):
    """Construct the stabilizer evaluator for one asset.

    At alpha = 1 (f_lam = lam e^(-lam t)) the constant limit
    sqrt(2 lam c) solves the functional equation exactly, so the series
    has no terms and switches to it at u = 0.  For alpha < 1
    coefficients are kept, up to _MAX_TERMS of them, only while they
    stand clear of the rounding noise of the recurrence.  The switch
    point is the largest scaled time u at which (a) the terms are
    decaying at the truncation order with margin, (b) the geometric tail
    bound and (c) the cancellation error both stay below 1e-10 of the
    squared limit; past it the exact asymptotic value takes over.
    """
    if not lam > 0.0 or not c > 0.0:
        raise ParameterError("stabilizer requires lam > 0 and c > 0")
    if alpha == 1.0:
        return StabilizerSeries(alpha=alpha, lam=lam, c=c, coeffs=(), switch_u=0.0,
                                limit=float(np.sqrt(2.0 * lam * c)))
    coeffs, floor = _coeffs_with_floor(alpha, _MAX_TERMS)
    clean = np.abs(coeffs) > 20.0 * floor
    k_eff = max(int(np.argmin(clean)) if not clean.all() else _MAX_TERMS, 8)
    coeffs = coeffs[:k_eff]
    limit_sq_unit = (1.0 / density_l2_norm(alpha, 1.0)) ** 2

    r_last = abs(coeffs[-1] / coeffs[-2]) if len(coeffs) >= 2 else 1.0
    ks = np.arange(len(coeffs))

    def usable(u: float) -> bool:
        ua = u ** alpha
        q = r_last * ua
        if q >= 0.8:
            return False
        terms = np.abs(coeffs) * ua ** ks * 2.0 * u ** (1.0 - alpha)
        tail = terms[-1] * q / (1.0 - q)
        cancel = 1e-16 * float(np.max(terms))
        return tail + cancel < _SWITCH_TOL * limit_sq_unit

    lo, hi = 1e-6, 1e6
    if not usable(lo):
        switch_u = lo
    else:
        while hi / lo > 1.0 + 1e-6:
            mid = np.sqrt(lo * hi)
            if usable(mid):
                lo = mid
            else:
                hi = mid
        switch_u = lo
    limit = float(np.sqrt(c) * lam / density_l2_norm(alpha, lam))
    return StabilizerSeries(
        alpha=alpha, lam=lam, c=c, coeffs=coeffs, switch_u=switch_u, limit=limit,
    )


@lru_cache(maxsize=1)
def _graded_rule():
    """Nodes and weights of the composite Gauss-Legendre rule on [0, 1]."""
    x, w = _legendre_rule(_RULE_ORDER)
    edges = np.concatenate(([0.0], 0.5 ** np.arange(_RULE_PANELS, 0, -1)))
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1, None] + half[:, None] * (x + 1.0)).ravel()
    weights = (half[:, None] * w).ravel()
    return (np.concatenate((nodes, 1.0 - nodes[::-1])),
            np.concatenate((weights, weights[::-1])))


def _sigma_sq_convolution(stab, spec: ResolventSpec, times: np.ndarray) -> np.ndarray:
    """(f_lam^2 * sigma^2)(t) for each t > 0 in `times`.

    The integral runs over w in [0, t^(1/p)] with s = w^p and
    p = 1/(2 alpha - 1), so the integrand p (f_lam(s) s^(1-alpha))^2
    sigma^2(t - s) is bounded at w = 0; at the upper end it keeps the
    (t - s)^(1-alpha) behaviour of sigma^2.  The graded rule resolves
    both ends.  At alpha = 1 this is the plain integral over [0, t].
    """
    alpha = spec.kernel.alpha
    p, e = 1.0 / (2.0 * alpha - 1.0), 1.0 - alpha
    x, w = _graded_rule()
    upper = times ** (1.0 / p)
    out = np.empty_like(times)
    rows = max(1, _BLOCK_NODES // x.size)
    for i in range(0, times.size, rows):
        t, W = times[i : i + rows, None], upper[i : i + rows, None]
        # (W x)^p underflows for alpha near 1/2; the integrand is bounded there
        s = np.maximum((W * x) ** p, np.finfo(float).tiny)
        f = resolvent_density(spec, s.ravel()).reshape(s.shape)
        sig = stab.eval(np.clip(t - s, 0.0, None).ravel()).reshape(s.shape)
        out[i : i + rows] = W[:, 0] * ((p * (f * s**e) ** 2 * sig**2) @ w)
    return out


def functional_equation_residual(stab, lam: float, c: float, T: float, n: int) -> np.ndarray:
    """Pointwise defining-equation residual, normalized by c lam^2.

    Evaluates |c lam^2 (1 - R_lam(t)^2) - (f_lam^2 * sigma^2)(t)| /
    (c lam^2) on the uniform grid over [0, T].  The convolution uses one
    fixed composite Gauss-Legendre rule (16 points on 82 panels, graded
    geometrically toward both ends) scaled to every grid time, after the
    substitution s = w^(1/(2 alpha - 1)) with alpha = stab.alpha.  For the
    bundled parameters the rule agrees with 20-digit tanh-sinh
    quadrature of the same integrand within 2e-16 of c lam^2, so the
    residual measures the stabilizer and not the quadrature.
    """
    spec = ResolventSpec(fractional_kernel(stab.alpha), lam)
    grid = np.linspace(0.0, T, n + 1)
    lhs = c * lam**2 * (1.0 - np.asarray(resolvent(spec, grid)) ** 2)
    rhs = np.zeros_like(grid)
    rhs[1:] = _sigma_sq_convolution(stab, spec, grid[1:])
    return np.abs(lhs - rhs) / (c * lam**2)
