"""Independent checks that only the tests use: the fractional kernel's
convolution with a grid function, the resolvent's defining equation, a
Picard fixed-point solve of the Riccati-Volterra system, the exact
second moments of the path scheme, the dense cell covariance and its
Gaussian factor by np.linalg.eigh, the wealth step factors by
np.einsum, the wealth statistics from whole wealth and strategy paths,
the resolvent density's L2 norm by adaptive quadrature and the standard
errors of per-column means and variances by a multinomial bootstrap
over paths."""

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.special import gamma as gamma_fn

from voltmark.kernels import (
    KernelSpec,
    ParameterError,
    ResolventSpec,
    _legendre_rule,
    _power_moments,
    eval_kernel,
    fractional_kernel,
    kernel_cross_segment,
    kernel_mean_segment,
    resolvent,
    resolvent_density,
)
from voltmark.markowitz import simulate_wealth, solve_markowitz
from voltmark.model import Grid
from voltmark.montecarlo import ColumnMoments
from voltmark.riccati import RiccatiSolution, _rhs_tables, solve_riccati_adams
from voltmark.simulate import (
    _FACTOR_RTOL,
    _asset_increments,
    simulate_variance_chunks,
)

# Mittag-Leffler terms of the resolvent convolved in closed form by
# resolvent_equation_residual
_RESOLVENT_HEAD = 3


def kernel_convolve(spec: KernelSpec, g: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """(K * g)(t_k) on a uniform grid, exact for piecewise-linear g."""
    g = np.asarray(g, dtype=float)
    grid = np.asarray(grid, dtype=float)
    n = len(grid) - 1
    dt = grid[1] - grid[0]
    assert g.shape == grid.shape and np.allclose(np.diff(grid), dt)
    m0, m1 = _power_moments(spec.alpha, n, dt)
    w_right = m1 / dt          # weight on g(t_l) for cell ending at lag j
    w_left = m0 - w_right      # weight on g(t_{l-1})
    out = np.zeros(n + 1)
    # (K*g)(t_k) = sum_{l=1..k} w_left[k-l] g_{l-1} + w_right[k-l] g_l
    out[1:] = np.convolve(w_left, g[:-1])[:n] + np.convolve(w_right, g[1:])[:n]
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


class ConvergenceError(RuntimeError):
    """Picard iteration failed to reach the requested tolerance."""


def oracle_volterra_picard(model, stabs, n_fine: int, sweeps: int = 80, *,
                           forcing=None, tol: float = 1e-10) -> RiccatiSolution:
    """Brute-force fixed-point oracle psi <- K * (f + F(psi)).

    Product-rectangle quadrature (left endpoints, exact kernel cell
    integrals) on a fine grid, iterated until successive sweeps differ
    by less than ``tol`` in sup norm.  Entirely independent of the Adams
    weights, which it serves to validate; it shares only the solver's
    rhs, ``_rhs_tables``.
    """
    if sweeps < 1:
        raise ParameterError("need at least one Picard sweep")
    grid = Grid(model.T, n_fine)
    d = model.d
    rhs = _rhs_tables(model, stabs, grid, forcing)
    c_seg = [_power_moments(model.alpha[i], n_fine, grid.dt)[0] for i in range(d)]
    psi = np.zeros((n_fine + 1, d))
    for _ in range(sweeps):
        g = np.array([rhs(j, psi[j].tolist()) for j in range(n_fine)])
        new = np.zeros_like(psi)
        for i in range(d):
            new[1:, i] = np.convolve(c_seg[i], g[:, i])[:n_fine]
        delta = float(np.max(np.abs(new - psi)))
        psi = new
        if delta < tol:
            return RiccatiSolution(grid=grid, psi=psi.T.copy(), model=model)
    raise ConvergenceError(f"Picard iteration stalled at delta = {delta:.3e} after {sweeps} sweeps")


def scheme_covariance(model, stabs, grid: Grid, i: int) -> np.ndarray:
    """Exact covariance of asset i's simulated V over the grid times, stationary start.

    With e = V - x_inf the scheme reads A e = e_0 1 + eta: A is the
    lower-triangular Toeplitz matrix of I + lam C[k-1-m] (C the kernel
    cell integrals), e_0 ~ N(0, v0) and eta_k = sum_{l<=k} nu sig(t_{l-1})
    sqrt(V_{l-1}^+) G_{k,l} a sum of martingale increments, so
    Cov(eta) = Q with Q[k, k'] = sum_{l<=min(k,k')} nu^2 sig(t_{l-1})^2 x_inf
    cov[k-l, k'-l] (cov the lag covariance of one cell's G).  Hence
    Cov(V) = A^-1 (v0 11^T + Q) A^-T, exact while E[V^+] = E[V] = x_inf.
    """
    n = grid.n
    cov, c_seg = _covariance_matrix(fractional_kernel(model.alpha[i]), grid)
    lag = cov[:n, :n]
    A = np.eye(n + 1)
    for k in range(1, n + 1):
        A[k, :k] = model.lam[i] * c_seg[k - 1 :: -1]
    sig = np.asarray(stabs[i].eval(grid.times[:-1]))
    scale = model.nu[i] ** 2 * sig**2 * model.x_inf[i]
    second = np.full((n + 1, n + 1), model.v0[i])          # v0 11^T + Q
    for ell in range(1, n + 1):
        second[ell:, ell:] += scale[ell - 1] * lag[: n + 1 - ell, : n + 1 - ell]
    half = solve_triangular(A, second, lower=True)
    return solve_triangular(A, half.T, lower=True)


def _covariance_matrix(spec: KernelSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The dense (n+1) x (n+1) lag covariance of (G_j)_{j<n} and DW over one
    cell, plus C[j], entry by entry: the interior by the fixed 32-point
    Legendre rule on the shared cell, the diagonal and the singular row
    and column 0 exact, the DW row and column the cell means."""
    n, dt = grid.n, grid.dt
    lags = np.arange(n)
    t_up = (lags + 1.0) * dt
    c_seg = np.asarray(kernel_mean_segment(spec, t_up, 0.0, dt))
    cov = np.empty((n + 1, n + 1))
    nodes, weights = _legendre_rule()
    s = 0.5 * dt * (nodes + 1.0)
    B = eval_kernel(spec, t_up[:, None] - s[None, :])       # (n, 32)
    cov[:n, :n] = (B * weights[None, :]) @ B.T * (0.5 * dt)
    cov[lags, lags] = kernel_cross_segment(spec, t_up, t_up, 0.0, dt)
    row0 = kernel_cross_segment(spec, t_up[1:], t_up[0], 0.0, dt)
    cov[0, 1:n] = row0
    cov[1:n, 0] = row0
    cov[:n, n] = c_seg
    cov[n, :n] = c_seg
    cov[n, n] = dt
    return cov, c_seg


def eigh_factor(spec, grid: Grid) -> np.ndarray:
    """The truncated spectral factor of the dense cell covariance
    (``_covariance_matrix``) by np.linalg.eigh: its fewest leading modes
    whose dropped eigenvalues have a norm of at most 1e-9 of all of them."""
    cov, _ = _covariance_matrix(spec, grid)
    w, U = np.linalg.eigh(cov)
    w = w[::-1]
    bound = _FACTOR_RTOL / 10 * np.linalg.norm(w)
    r = next(k for k in range(w.size + 1) if np.linalg.norm(w[k:]) <= bound)
    return U[:, ::-1][:, :r] * np.sqrt(w[:r])[None, :]


def einsum_step_factors(model, ensemble, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gains g = -coef sqrt(V^+) (M, d, n) and wealth step factors
    s_k = (g sqrt(V^+)) . theta dt + g . DB_k (n, M) over the whole grid,
    the d-sums taken by np.einsum."""
    V = ensemble.V[:, :, :-1]
    root = np.sqrt(np.maximum(V, 0.0))
    gain = -coef[None] * root
    dB = _asset_increments(model, ensemble.dW, ensemble.dWperp)
    s = np.einsum("mdk,mdk,d->km", gain, root, model.theta) * ensemble.grid.dt
    return gain, s + np.einsum("mdk,mdk->km", gain, dB)


def whole_path_wealth_stats(model, stabs, grid: Grid, M: int, seed: int, m: float) -> tuple:
    """Statistics (X, [alpha_i]) of the wealth stage from whole paths: each
    chunk's (chunk, n+1) X and (chunk, d, n) strategy from simulate_wealth,
    each folded into one ColumnMoments per chunk, rows whole."""
    sol = solve_riccati_adams(model, stabs, grid.n)
    xi = solve_markowitz(model, sol, stabs, m).xi_star
    wealth, strategies = ColumnMoments(), [ColumnMoments() for _ in range(model.d)]
    for chunk in simulate_variance_chunks(model, stabs, grid, M, seed, initial="fixed"):
        part = simulate_wealth(model, chunk, sol, stabs, xi)
        wealth.add(part.X)
        for i, acc in enumerate(strategies):
            acc.add(part.alpha_paths[:, i, :])
    return wealth.stats(), [acc.stats() for acc in strategies]


def quad_density_l2_norm(alpha: float, lam: float) -> float:
    """||f_{alpha,lam}||_{L2(0,inf)} for 1/2 < alpha < 1 by two adaptive
    quadratures of the Mittag-Leffler density at lam = 1, scaled by
    lam^(1/(2 alpha)).  The integral splits at t = 1: the t^(2 alpha - 2)
    endpoint singularity is flattened by the substitution
    t = v^(1/(2 alpha - 1)), and the tail is integrated as it stands."""
    spec = ResolventSpec(fractional_kernel(alpha), 1.0)
    p = 1.0 / (2.0 * alpha - 1.0)

    def head(v):
        t = v ** p
        return p * (resolvent_density(spec, t) * t ** (1.0 - alpha)) ** 2

    head_val, _ = quad(head, 0.0, 1.0, limit=200)
    tail_val, _ = quad(lambda t: resolvent_density(spec, t) ** 2, 1.0, np.inf, limit=200)
    return float(lam ** (0.5 / alpha) * np.sqrt(head_val + tail_val))


# resamples per block of path indices drawn by bootstrap_weights
_WEIGHT_ROWS = 64


def bootstrap_weights(M: int, n_boot: int, seed: int) -> np.ndarray:
    """(n_boot, M) resampling weights from ``default_rng(seed)``.

    Each row is the counts of M path indices drawn uniformly, over M:
    the multinomial(M, 1/M) law.  The indices come ``_WEIGHT_ROWS`` rows
    at a time, so their array stays small.
    """
    rng = np.random.default_rng(seed)
    w = np.empty((n_boot, M))
    for lo in range(0, n_boot, _WEIGHT_ROWS):
        rows = rng.integers(0, M, size=(min(_WEIGHT_ROWS, n_boot - lo), M))
        for out, row in zip(w[lo:], rows):
            np.divide(np.bincount(row, minlength=M), M, out=out)
    return w


def bootstrap_se(paths: np.ndarray, n_boot: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Bootstrap SEs (mean, unbiased variance) of the columns of paths (M, k).

    Each resample picks whole paths (a row of ``bootstrap_weights``);
    one product of the weights with the centred columns, and one with
    their squares, give every resample's means and variances.
    """
    M = len(paths)
    w = bootstrap_weights(M, n_boot, seed)
    centred = paths - paths.mean(axis=0)
    boot_mean = w @ centred
    boot_var = (w @ np.square(centred) - boot_mean**2) * (M / (M - 1.0))
    return boot_mean.std(axis=0, ddof=1), boot_var.std(axis=0, ddof=1)
