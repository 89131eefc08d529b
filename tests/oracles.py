"""Independent checks that only the tests use: the fractional kernel's
cell integrals and product-integration moments by direct differences,
the segment integrals of kernel products behind the cell covariance,
its convolution with a grid function, the resolvent's defining equation, a
Picard fixed-point solve of the Riccati-Volterra system and the Adams
loop in d-vector steps that pins the scalar solver's bits, the exact
second moments of the path scheme, the dense cell covariance and its
Gaussian factor by np.linalg.eigh, the path engine with a dense far
field pushed to every later time, the asset-driving increments from
DW and DWperp, the wealth recursion one step at a time with its step
factors by np.einsum, whole chunks of paths assembled from the
block stream and the wealth, stationarity, frontier and Laplace inputs
from them, a stabilizer of constant sigma,
the resolvent density's L2 norm by adaptive quadrature and the standard
errors of per-column means and variances by a multinomial bootstrap
over paths."""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.special import gamma as gamma_fn

from voltmark.kernels import (
    KernelSpec,
    ParameterError,
    ResolventSpec,
    _jacobi_rule,
    _legendre_rule,
    _product_weights,
    eval_kernel,
    fractional_kernel,
    resolvent,
    resolvent_density,
)
from voltmark.markowitz import (
    _WEALTH_TILE,
    control_coefficient,
    simulate_wealth,
    solve_markowitz,
)
from voltmark.model import Grid
from voltmark.montecarlo import ColumnMoments, joined_stats
from voltmark.riccati import RiccatiSolution, _rhs, _system, solve_riccati_adams
from voltmark.simulate import (
    _BIT_GENERATOR,
    _BLOCK,
    _CHUNK_PATHS,
    _FACTOR_RTOL,
    _SUB,
    PathEnsemble,
    _lag_blocks,
    build_gaussian_factor,
    fold_stream,
    require_finite,
    sample_initial_variance,
)
from voltmark.stabilizer import StabilizerSeries

# Mittag-Leffler terms of the resolvent convolved in closed form by
# resolvent_equation_residual
_RESOLVENT_HEAD = 3


def kernel_mean_segment(spec: KernelSpec, t_k, a, b) -> float | np.ndarray:
    """int_a^b K(t_k - s) ds for a < b <= t_k (vectorized in t_k), by the
    direct difference ((t_k-a)^alpha - (t_k-b)^alpha)/Gamma(alpha+1)."""
    scalar = np.isscalar(t_k)
    t_k = np.atleast_1d(np.asarray(t_k, dtype=float))
    al = spec.alpha
    out = ((t_k - a) ** al - np.maximum(t_k - b, 0.0) ** al) / gamma_fn(al + 1.0)
    return float(out[0]) if scalar else out


def kernel_cross_segment(spec: KernelSpec, t_k, t_k2, a: float, b: float) -> np.ndarray:
    """int_a^b K(t_k - s) K(t_k2 - s) ds, elementwise over t_k and t_k2
    (which broadcast), where each pair is equal, with b <= t_k, or has
    b = min(t_k, t_k2).

    Equal times have the closed form
    ((t-a)^p - (t-b)^p) / (p Gamma(alpha)^2), p = 2 alpha - 1, per element
    with the difference taken as (t-b)^p expm1(p log1p((b-a)/(t-b))),
    which does not cancel.  Otherwise a 32-point Gauss-Jacobi rule
    absorbs the (b - s)^(alpha-1) endpoint singularity, one dot per
    element.  K = 1 gives b - a.
    """
    t_k, t_k2 = np.broadcast_arrays(np.atleast_1d(np.asarray(t_k, dtype=float)),
                                    np.atleast_1d(np.asarray(t_k2, dtype=float)))
    al = spec.alpha
    if al == 1.0:
        return np.full(t_k.shape, b - a)
    out = np.empty(t_k.shape)
    equal = t_k == t_k2
    p = 2.0 * al - 1.0
    out[equal] = [(t - b) ** p * math.expm1(p * math.log1p((b - a) / (t - b))) if t > b
                  else (t - a) ** p for t in t_k[equal].tolist()]
    out[equal] /= p * math.gamma(al) ** 2
    t_lo, t_hi = np.minimum(t_k, t_k2)[~equal], np.maximum(t_k, t_k2)[~equal]
    assert np.all(t_lo == b), "unequal times need b = min(t_k, t_k2)"
    h, expo = 0.5 * (b - a), al - 1.0
    nodes, weights = _jacobi_rule(expo)
    s = a + h * (nodes + 1.0)
    # split off the singular power of (b - s); the rest is smooth
    smooth = eval_kernel(spec, t_hi[:, None] - s) * (1.0 / math.gamma(al))
    out[~equal] = [h ** (expo + 1.0) * (weights @ row) for row in smooth]
    return out


def _power_moments(r: float, n: int, dt: float):
    """Cell moments of the power kernel u^(r-1)/Gamma(r), any r in (0, 1],
    by direct differences.

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
    rhs, ``_rhs`` with the constants of ``_system``.
    """
    if sweeps < 1:
        raise ParameterError("need at least one Picard sweep")
    grid = Grid(model.T, n_fine)
    d = model.d
    force, lin, quad = _system(model, forcing)
    sig = np.stack([np.asarray(st.eval(grid.T - grid.times[:-1])) for st in stabs], axis=1)
    c_seg = [_power_moments(model.alpha[i], n_fine, grid.dt)[0] for i in range(d)]
    psi = np.zeros((n_fine + 1, d))
    for _ in range(sweeps):
        g = _rhs(psi[:-1], force, lin * sig, -model.lam, quad * sig**2)
        new = np.zeros_like(psi)
        for i in range(d):
            new[1:, i] = np.convolve(c_seg[i], g[:, i])[:n_fine]
        delta = float(np.max(np.abs(new - psi)))
        psi = new
        if delta < tol:
            return RiccatiSolution(grid=grid, psi=psi.T.copy(), model=model)
    raise ConvergenceError(f"Picard iteration stalled at delta = {delta:.3e} after {sweeps} sweeps")


def oracle_adams_reference(model, stabs, n: int, forcing=None) -> np.ndarray:
    """psi of the fractional Adams predictor-corrector in steps of d-vectors,
    the rhs at node j a list comprehension over the assets reading per-node
    coefficient rows.  Same weights, slices and float arithmetic as
    ``riccati._solve_adams``, which steps asset by asset, so the two agree
    bit for bit.  No blow-up guard."""
    grid = Grid(model.T, n)
    d = model.d
    sig_rev = np.stack([np.asarray(st.eval(grid.T - grid.times)) for st in stabs], axis=1)
    force, lin, quad = _system(model, forcing)
    lin_sig, quad_sig = lin * sig_rev, quad * sig_rev**2
    force, neg_lam = force.tolist(), (-model.lam).tolist()

    def rhs(j, y):
        return [f + lin * x + dl * x + q * x * x
                for f, lin, dl, q, x in zip(force, lin_sig[j].tolist(), neg_lam,
                                            quad_sig[j].tolist(), y)]

    b_rev = [_product_weights(a, n, grid.dt)[::-1].copy() for a in model.alpha]
    a_first, a_rev, a_diag = zip(*(_product_weights(a, n, grid.dt, steps=np.arange(n))
                                   for a in model.alpha))
    a_first, a_rev = [af.tolist() for af in a_first], [ar[::-1].copy() for ar in a_rev]
    psi = np.zeros((d, n + 1))
    fh = np.empty((d, n + 1))
    fh[:, 0] = f0 = rhs(0, [0.0] * d)
    for k in range(n):
        y_pred = [float(fi[: k + 1].dot(bi[n - k - 1 :])) for fi, bi in zip(fh, b_rev)]
        f_pred = rhs(k + 1, y_pred)
        y_new = [af[k] * f0_i + float(fi[1 : k + 1].dot(ai[n - 1 - k :])) + ad * fp
                 for af, f0_i, fi, ai, ad, fp in zip(a_first, f0, fh, a_rev, a_diag, f_pred)]
        psi[:, k + 1] = y_new
        fh[:, k + 1] = rhs(k + 1, y_new)
    return psi


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
    and column 0 exact (``kernel_cross_segment``), the DW row and column
    the cell means."""
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


def _dense_path_bounds(rows: int, M: int, far_cells: int) -> list[int]:
    """Path edges of a far-field product with ``rows`` rows: ranges of a
    multiple of 64 paths that hold about ``far_cells`` entries."""
    cols = max(64, far_cells // rows // 64 * 64)
    return [j * cols for j in range(max(1, M // cols))] + [M]


def asset_increments(rho, dW: np.ndarray, dWperp: np.ndarray) -> np.ndarray:
    """DB = rho DW - sqrt(1 - rho^2) DWperp, one rounding per product; rho
    broadcasts against dW and dWperp."""
    return rho * dW - np.sqrt(1.0 - np.square(rho)) * dWperp


def dense_variance_paths(model, stabs, grid: Grid, M: int, seed: int, *,
                         initial: str = "stationary", increments: bool = True,
                         far_cells: int = 1 << 19) -> tuple:
    """(V, dB) of ``simulate_variance_paths`` by the dense reference engine,
    as (M, d, n+1) and (M, d, n) arrays (dB None without increments): the
    same chunks and stream groups, each chunk's V0 and every asset's
    whole chunk advanced at once by ``dense_advance_asset``."""
    d, n = model.d, grid.n
    factors = [build_gaussian_factor(fractional_kernel(a), grid) for a in model.alpha]
    sig = np.stack([np.asarray(st.eval(grid.times[:-1])) for st in stabs])
    seq = np.random.SeedSequence(seed)
    V = np.empty((M, d, n + 1))
    dB = np.empty((M, d, n)) if increments else None
    for c0 in range(0, M, _CHUNK_PATHS):
        m = min(_CHUNK_PATHS, M - c0)
        children = seq.spawn(1 + d)
        if initial == "stationary":
            V0 = sample_initial_variance(model, m, np.random.Generator(_BIT_GENERATOR(children[0])))
        else:
            V0 = np.tile(model.x_inf, (m, 1))
        for i in range(d):
            Vi = np.zeros((n + 1, m))
            Vi[0] = V0[:, i]
            dBi = np.empty((n, m)) if increments else None
            dense_advance_asset(
                model, i, factors[i], sig[i], np.random.Generator(_BIT_GENERATOR(children[1 + i])),
                Vi, dBi, np.random.Generator(_BIT_GENERATOR(children[1 + i].spawn(1)[0]))
                if increments else None, far_cells=far_cells)
            V[c0 : c0 + m, i] = Vi.T
            if increments:
                dB[c0 : c0 + m, i] = dBi.T
    return V, dB


def dense_advance_asset(model, i, fac, sig, rng, V, dB, rng_perp, *,
                        far_cells: int = 1 << 19) -> None:
    """One asset's whole (n+1, m) chunk by the path engine with the dense
    far field: the same draws, near field and 8-cell
    sub-block flushes as ``simulate._AssetEngine``, but at the end of each 64-cell block one product of
    the whole lag-block matrix (``_lag_blocks`` at width 64) adds the
    block's cells to every later time, split into path ranges of about
    ``far_cells`` product entries (``_dense_path_bounds``).  Each cell
    draws its W-perp normals N on its own and writes its DB from DW and
    sqrt(dt) N by ``asset_increments``."""
    n, M = fac.grid.n, V.shape[1]
    r, F_aug = fac.rank, fac.F_aug
    z, vol = np.empty((r, M)), np.empty(M)
    y_blk, near = np.empty((_BLOCK, r + 1, M)), np.empty((_BLOCK - _SUB, M))
    f_sub = np.empty((max(0, min(_BLOCK, n) - _SUB), _SUB * (r + 1)))
    f_far = np.empty((max(0, n - _BLOCK), _BLOCK * (r + 1)))
    _lag_blocks(F_aug, _SUB, f_sub)
    _lag_blocks(F_aug, _BLOCK, f_far)
    f_dw = fac.factor[n]
    mu0, lam, nu = model.mu0[i], model.lam[i], model.nu[i]
    V0 = V[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            for s_lo in range(lo, hi, _SUB):
                s_hi = min(s_lo + _SUB, hi)
                for ell in range(s_lo + 1, s_hi + 1):
                    v_prev = V[ell - 1]
                    rng.standard_normal(out=z)
                    if dB is not None:
                        dWperp = np.sqrt(fac.grid.dt) * rng_perp.standard_normal(M)
                        dB[ell - 1] = asset_increments(model.rho[i], f_dw @ z, dWperp)
                    np.maximum(v_prev, 0.0, out=vol)
                    np.sqrt(vol, out=vol)
                    np.multiply(nu * sig[ell - 1], vol, out=vol)
                    y = y_blk[ell - lo - 1]
                    np.multiply(z, vol, out=y[:r])
                    np.multiply(lam, v_prev, out=y[r])
                    np.subtract(mu0, y[r], out=y[r])
                    m_loc = s_hi - ell + 1
                    np.matmul(F_aug[:m_loc], y, out=near[:m_loc])
                    V[ell : s_hi + 1] += near[:m_loc]
                    V[ell] += V0
                if s_hi < hi:
                    rows = hi - s_hi
                    Y = y_blk[s_lo - lo : s_hi - lo].reshape(_SUB * (r + 1), M)
                    np.matmul(f_sub[:rows], Y, out=near[:rows])
                    V[s_hi + 1 : hi + 1] += near[:rows]
            if hi < n:
                rows = n - hi
                Y = y_blk.reshape(_BLOCK * (r + 1), M)
                bounds = _dense_path_bounds(rows, M, far_cells)
                for c0, c1 in zip(bounds[:-1], bounds[1:]):
                    V[hi + 1 :, c0:c1] += f_far[:rows] @ Y[:, c0:c1]
    require_finite(f"variance paths of asset {i + 1}", V)


def stepwise_wealth(model, ensemble, solution, stabs, xi_star: float) -> tuple:
    """The wealth recursion one step at a time over the whole grid: (A_T, B_T,
    X (M, n+1), alpha (M, d, n)), forming 1 + r dt + s_k and e^(-r(T-t_k)) s_k,
    then alpha_k and X_{k+1} = A_{k+1} + xi* B_{k+1}, at each step from the
    gains g = -coef sqrt(V^+) (M, d, n) and the step factors
    s_k = (g sqrt(V^+)) . theta dt + g . DB_k (n, M) over the whole grid,
    their d-sums taken by np.einsum, with DB the ensemble's dB."""
    grid = ensemble.grid
    coef = control_coefficient(model, solution, stabs, grid.times[:-1])
    disc = np.exp(-model.r * (model.T - grid.times[:-1]))
    root = np.sqrt(np.maximum(ensemble.V[:, :, :-1], 0.0))
    gain = -coef[None] * root
    s = np.einsum("mdk,mdk,d->km", gain, root, model.theta) * grid.dt
    s = s + np.einsum("mdk,mdk->km", gain, ensemble.dB)
    A, B = np.full(ensemble.M, float(model.x0)), np.zeros(ensemble.M)
    X = np.empty((ensemble.M, grid.n + 1))
    X[:, 0] = model.x0
    alpha = np.empty((ensemble.M, model.d, grid.n))
    for k in range(grid.n):
        growth = 1.0 + model.r * grid.dt + s[k]
        A *= growth
        B *= growth
        B -= disc[k] * s[k]
        gap = X[:, k] - xi_star * disc[k]
        np.multiply(gain[:, :, k], gap[:, None], out=alpha[:, :, k])
        X[:, k + 1] = A + xi_star * B
    return A, B, X, alpha


def assembled_chunks(model, stabs, grid: Grid, M: int, seed: int, *,
                     initial: str = "stationary", increments: bool = True) -> list:
    """Each chunk of ``fold_stream`` as a PathEnsemble of its own: a copy
    fold writes every block into the chunk's whole (d, n+1, chunk) V and
    (d, n, chunk) dB, time-major as the engine writes them."""
    chunks = []

    def copy(first, lo, rows, inc):
        if lo == 0:
            m = rows.shape[-1]
            V = np.empty((model.d, grid.n + 1, m))
            dB = np.empty((model.d, grid.n, m)) if increments else None
            chunks.append(PathEnsemble(model=model, grid=grid, M=m, V=V.transpose(2, 0, 1),
                                       dB=dB.transpose(2, 0, 1) if increments else None))
        ens = chunks[-1]
        ens.V.transpose(1, 2, 0)[:, lo : lo + rows.shape[1]] = rows
        if increments:
            ens.dB.transpose(1, 2, 0)[:, lo : lo + inc.shape[1]] = inc

    copy.increments = increments
    fold_stream(model, stabs, grid, M, seed, [copy], initial=initial)
    return chunks


def whole_path_wealth(model, stabs, grid: Grid, M: int, seed: int, m: float) -> list:
    """Each fixed-start chunk's whole wealth and strategy paths
    (``simulate_wealth``) at the xi* of target m."""
    sol = solve_riccati_adams(model, stabs, grid.n)
    xi = solve_markowitz(model, sol, stabs, m).xi_star
    return [simulate_wealth(model, chunk, sol, stabs, xi)
            for chunk in assembled_chunks(model, stabs, grid, M, seed, initial="fixed")]


def whole_path_wealth_stats(grid: Grid, parts) -> tuple:
    """Statistics (X, [alpha_i]) of the wealth stage from the whole paths of
    each chunk's WealthEnsemble in parts (``whole_path_wealth``).

    Folded as the wealth fold folds its tiles: each block of ``_BLOCK``
    steps [lo, hi), X at lo .. hi-1 (lo .. n in the last block) and each
    strategy at lo .. hi-1, into one ColumnMoments per series and block,
    ``_WEALTH_TILE`` paths at a time in path order, each tile laid out
    paths contiguous as the fold's time-major rows are, and the blocks
    joined (``joined_stats``).
    """
    n, blocks = grid.n, {}
    for part in parts:
        d = part.alpha_paths.shape[1]
        series = [part.X] + [part.alpha_paths[:, i] for i in range(d)]
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            accs = blocks.setdefault(lo, [ColumnMoments() for _ in series])
            for t0 in range(0, len(part.X), _WEALTH_TILE):
                rows = slice(t0, t0 + _WEALTH_TILE)
                for acc, x, stop in zip(accs, series, [n + 1 if hi == n else hi] + [hi] * d):
                    acc.add(np.ascontiguousarray(x[rows, lo:stop].T).T)
    xstats, *astats = [joined_stats(accs) for accs in zip(*blocks.values())]
    return xstats, astats


def whole_chunk_variance_stats(model, stabs, grid: Grid, M: int, seed: int) -> list:
    """Each asset's stationarity statistics from whole chunks: every
    stationary V-only chunk's (chunk, n+1) V folded into one ColumnMoments
    per asset, rows whole."""
    moments = [ColumnMoments() for _ in range(model.d)]
    for chunk in assembled_chunks(model, stabs, grid, M, seed, increments=False):
        for i, acc in enumerate(moments):
            acc.add(chunk.V[:, i, :])
    return [acc.stats() for acc in moments]


def whole_chunk_terminal(model, stabs, grid: Grid, M: int, seed: int) -> tuple:
    """(A_T, B_T), each (M,): every fixed-start chunk's by ``stepwise_wealth``
    over its whole paths, at the chunk's offset."""
    sol = solve_riccati_adams(model, stabs, grid.n)
    parts = [stepwise_wealth(model, chunk, sol, stabs, 0.0)[:2]
             for chunk in assembled_chunks(model, stabs, grid, M, seed, initial="fixed")]
    return tuple(np.concatenate(column) for column in zip(*parts))


def whole_chunk_integrals(model, stabs, grid: Grid, M: int, seed: int) -> np.ndarray:
    """The (d, M) Laplace time integrals: every fixed-start V-only chunk's,
    np.trapezoid over its whole (chunk, d, n+1) V along time, at the
    chunk's offset."""
    return np.concatenate([np.trapezoid(chunk.V, dx=grid.dt, axis=2).T
                           for chunk in assembled_chunks(model, stabs, grid, M, seed,
                                                         initial="fixed", increments=False)],
                          axis=1)


def constant_sigma(value: float) -> StabilizerSeries:
    """A stabilizer with sigma(t) = value for every t >= 0: the alpha = 1
    evaluator of ``build_stabilizer`` (no terms, switch at u = 0) with
    that limit, at lam = 1 and c = value^2 / 2."""
    return StabilizerSeries(alpha=1.0, lam=1.0, c=value**2 / 2.0, coeffs=(), switch_u=0.0,
                            limit=value)


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
