"""Monte Carlo simulation of the stabilized Volterra square-root process.

The K-integrated Euler-Maruyama scheme advances, per asset,

    V(t_k) = V(0) + sum_{l<=k} [ (mu0 - lam V(t_{l-1})) C[k-l]
             + nu sig(t_{l-1}) sqrt(V(t_{l-1})^+) G_{k,l} ],

where C[j] = int_cell K(u) du are exact kernel cell integrals and
G_{k,l} = int_{t_{l-1}}^{t_l} K(t_k - s) dW_s are kernel-weighted
Brownian integrals.  Within one cell the vector of all lags plus the
plain increment DW is jointly Gaussian with lag-stationary covariance
built from exact kernel product integrals; one spectral factor per asset
therefore drives every cell.  Paths are vectorized: each cell draws a
low-rank standard-normal block and one thin matrix product produces the
exact joint sample for all paths at once.

Everything is reproducible: a single integer seed spawns one child
stream for the initial variance and the orthogonal increments plus one
stream per asset, and the draw order is fixed regardless of array sizes.
"""

from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    KernelSpec,
    ParameterError,
    _legendre_rule,
    eval_kernel,
    fractional_kernel,
    kernel_cross_segment,
    kernel_mean_segment,
)
from .model import Grid, MarketModel

_EIG_CUT = 1e-13          # relative eigenvalue cut of the spectral factor
_FACTOR_RTOL = 1e-8       # required relative Frobenius reproduction


class FactorizationError(RuntimeError):
    """Covariance factorization failed even after stabilization."""


@dataclass(frozen=True, eq=False)
class GaussianBlockFactor:
    """Joint sampler of one cell's kernel integrals and its DW increment.

    ``cov`` is the (n+1) x (n+1) covariance of the vector
    (G at lags 0..n-1, DW); by time-translation invariance the same
    matrix serves every cell.  ``factor`` F satisfies F F^T ~ cov to
    1e-8 relative Frobenius error; its column count is the numerical
    rank after eigenvalue clipping.  ``c_seg`` are the deterministic
    cell integrals C[j].
    """

    spec: KernelSpec
    grid: Grid
    cov: np.ndarray = field(repr=False)
    factor: np.ndarray = field(repr=False)
    c_seg: np.ndarray = field(repr=False)

    @property
    def rank(self) -> int:
        return self.factor.shape[1]

    def sample(self, rng: np.random.Generator, m_rows: int, n_paths: int):
        """Draw (m_rows lag values, DW) jointly for n_paths paths.

        Returns an array of shape (m_rows + 1, n_paths); the final row
        is the plain Brownian increment.
        """
        z = rng.standard_normal((self.rank, n_paths))
        rows = np.vstack([self.factor[:m_rows], self.factor[-1:]])
        return rows @ z


def _covariance_matrix(spec: KernelSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Lag covariance of (G_j)_{j<n} and DW over one cell, plus C[j]."""
    n, dt = grid.n, grid.dt
    lags = np.arange(n)
    t_up = (lags + 1.0) * dt
    c_seg = np.asarray(kernel_mean_segment(spec, t_up, 0.0, dt))
    cov = np.empty((n + 1, n + 1))
    if spec.alpha == 1.0:
        # K = 1: every lag integral equals DW itself
        cov[:, :] = dt
        return cov, c_seg
    # interior block by a fixed Legendre rule on the shared cell; rows
    # involving the singular lag 0 and the diagonal get exact treatment
    nodes, weights = _legendre_rule()
    s = 0.5 * dt * (nodes + 1.0)
    B = eval_kernel(spec, t_up[:, None] - s[None, :])       # (n, 32)
    core = (B * weights[None, :]) @ B.T * (0.5 * dt)
    cov[:n, :n] = core
    # exact diagonal and singular first row/column
    for j in range(n):
        cov[j, j] = kernel_cross_segment(spec, t_up[j], t_up[j], 0.0, dt)
    row0 = np.array([kernel_cross_segment(spec, t_up[j], t_up[0], 0.0, dt) for j in range(1, n)])
    cov[0, 1:n] = row0
    cov[1:n, 0] = row0
    cov[:n, n] = c_seg
    cov[n, :n] = c_seg
    cov[n, n] = dt
    return cov, c_seg


def build_gaussian_factor(spec: KernelSpec, grid: Grid) -> GaussianBlockFactor:
    """Assemble and factor the joint cell covariance for one asset.

    The constant kernel (alpha = 1) uses the exact rank-one factor
    sqrt(dt) 1.  For singular kernels the matrix is a Gramian of shifted
    kernel slices whose spectrum collapses after a handful of modes, so a plain
    Cholesky is numerically hopeless at realistic n; the stabilized
    route is the symmetric eigendecomposition with negative and
    below-cut eigenvalues clipped to zero, keeping a thin factor.  The
    factor must reproduce the covariance to 1e-8 relative Frobenius
    error or construction fails; small problems that happen to be well
    conditioned still end up with the full-rank (Cholesky-equivalent)
    factor since no eigenvalue gets clipped.
    """
    cov, c_seg = _covariance_matrix(spec, grid)
    norm = float(np.linalg.norm(cov))
    if spec.alpha == 1.0:
        factor = np.full((cov.shape[0], 1), np.sqrt(grid.dt))
        return GaussianBlockFactor(spec=spec, grid=grid, cov=cov, factor=factor, c_seg=c_seg)
    w, U = np.linalg.eigh(cov)
    w = w[::-1]
    U = U[:, ::-1]
    keep = w > _EIG_CUT * max(w[0], 0.0)
    factor = U[:, keep] * np.sqrt(w[keep])[None, :]
    err = np.linalg.norm(factor @ factor.T - cov)
    if err > _FACTOR_RTOL * norm:
        raise FactorizationError(
            f"spectral factor misses covariance by {err / norm:.2e} relative "
            f"(smallest eigenvalue {w[-1]:.3e})"
        )
    return GaussianBlockFactor(spec=spec, grid=grid, cov=cov, factor=factor, c_seg=c_seg)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Simulated variance paths with their driving increments.

    V has shape (M, d, n+1) and is stored raw (the scheme can leave
    slightly negative values, consumers clip); dW and dWperp are the
    per-cell increments of W and the independent W-perp, shape
    (M, d, n).
    """

    model: MarketModel
    grid: Grid
    M: int
    seed: int
    V: np.ndarray = field(repr=False)
    dW: np.ndarray = field(repr=False)
    dWperp: np.ndarray = field(repr=False)


def sample_initial_variance(model: MarketModel, M: int, seed,
                            rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw V0 ~ N(x_inf, v0) per asset, clipped at zero, shape (M, d).

    Clipping keeps the path count (the Gaussian mass below zero is
    negligible at realistic parameters).
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    draws = model.x_inf[None, :] + np.sqrt(model.v0)[None, :] * rng.standard_normal((M, model.d))
    return np.clip(draws, 0.0, None)


def simulate_variance_paths(model: MarketModel, stabs, grid: Grid, M: int, seed: int, *,
                            initial: str = "stationary",
                            factors: list | None = None,
                            store_noise: bool = False) -> PathEnsemble:
    """Simulate M joint variance paths with the K-integrated Euler scheme.

    initial = "stationary" draws V0 from N(x_inf, v0) (the fake
    stationary configuration); "fixed" starts every path at x_inf.
    Prebuilt per-asset factors may be passed to amortize construction.
    The kernel-weighted noise integrals are not kept; ``store_noise``
    only accepts False.
    """
    if store_noise:
        raise ParameterError("kernel-weighted noise integrals are not stored")
    if grid.T != model.T:
        raise ParameterError(f"grid horizon  {grid.T} != model horizon {model.T}")
    if initial not in ("stationary", "fixed"):
        raise ParameterError(f"unknown initial-variance mode {initial!r}")
    if factors is None:
        factors = [
            build_gaussian_factor(fractional_kernel(model.alpha[i]), grid)
            for i in range(model.d)
        ]
    for f in factors:
        if f.grid != grid:
            raise ParameterError("prebuilt factor grid does not match the simulation grid")
    d, n, dt = model.d, grid.n, grid.dt
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(1 + d)
    rng_common = np.random.default_rng(children[0])
    rngs_asset = [np.random.default_rng(children[1 + i]) for i in range(d)]

    if initial == "stationary":
        V0 = sample_initial_variance(model, M, None, rng=rng_common)
    else:
        V0 = np.tile(model.x_inf, (M, 1))
    dWperp = np.sqrt(dt) * rng_common.standard_normal((M, d, n))

    V = np.empty((M, d, n + 1))
    V[:, :, 0] = V0
    dW = np.empty((M, d, n))

    sig_grid = np.stack([np.asarray(st.eval(grid.times[:-1])) for st in stabs], axis=0)  # (d, n)
    for i in range(d):
        _advance_asset(model, i, factors[i], sig_grid[i], V0[:, i], rngs_asset[i], V, dW)
    return PathEnsemble(model=model, grid=grid, M=M, seed=seed, V=V, dW=dW, dWperp=dWperp)


# cells per far-field block of the Volterra accumulation; fixed so that
# summation order, and with it the bit-exact output, never depends on
# the environment
_BLOCK = 64


def _advance_asset(model: MarketModel, i: int, fac: GaussianBlockFactor,
                   sig: np.ndarray, V0: np.ndarray, rng: np.random.Generator,
                   V: np.ndarray, dW: np.ndarray) -> None:
    """Blocked Volterra accumulation of one asset over all paths.

    Each cell l contributes drift_l C[k-l] + vol_l G_{k,l} to every
    later time k.  Contributions to times inside the current block of
    cells are applied immediately (they feed the next vol coefficient);
    contributions beyond it are deferred and flushed as a single thin
    matrix product per block, which keeps the O(n^2 M) accumulation
    compute-bound instead of rewriting the whole future per cell.
    """
    n, M = fac.grid.n, V.shape[0]
    r = fac.rank
    # noise modes plus one drift "mode" per cell
    F_aug = np.concatenate([fac.factor[:n], fac.c_seg[:, None]], axis=1)  # (n, r+1)
    f_dw = fac.factor[n]
    mu0, lam = model.mu0[i], model.lam[i]
    nu = model.nu[i]
    acc = np.zeros((n + 1, M))
    y_blk = np.empty((_BLOCK, r + 1, M))
    for lo in range(0, n, _BLOCK):
        width = min(_BLOCK, n - lo)
        hi = lo + width                       # block holds cells lo+1 .. hi
        for b in range(width):
            ell = lo + 1 + b
            v_prev = V0 + acc[ell - 1]
            z = rng.standard_normal((r, M))
            dW[:, i, ell - 1] = f_dw @ z
            vol = nu * sig[ell - 1] * np.sqrt(np.maximum(v_prev, 0.0))
            y = y_blk[b]
            np.multiply(z, vol[None, :], out=y[:r])
            np.subtract(mu0, lam * v_prev, out=y[r])
            m_loc = hi - ell + 1
            acc[ell : hi + 1] += F_aug[:m_loc] @ y
            V[:, i, ell] = V0 + acc[ell]
        if hi < n:
            rows = n - hi                     # far-field times hi+1 .. n
            f_big = np.empty((rows, width * (r + 1)))
            for b in range(width):
                j0 = hi - lo - b              # lag of k = hi+1 seen from cell lo+1+b
                f_big[:, b * (r + 1) : (b + 1) * (r + 1)] = F_aug[j0 : j0 + rows]
            acc[hi + 1 :] += f_big @ y_blk[:width].reshape(width * (r + 1), M)


def correlate_asset_brownian(ensemble: PathEnsemble, model: MarketModel) -> np.ndarray:
    """Asset-driving increments DB_i = rho_i DW_i - sqrt(1-rho_i^2) DWperp_i.

    This is the reconstruction B = Sigma^T W - sqrt(I - Sigma^T Sigma)
    W-perp of the model's correlation structure; the joint law of (V, B)
    is the same as with the forward construction.
    """
    return _asset_increments(model, ensemble.dW, ensemble.dWperp)


def _asset_increments(model: MarketModel, dW: np.ndarray, dWperp: np.ndarray) -> np.ndarray:
    """DB from (M, d, k) slices of DW and DWperp, for any run of cells k."""
    rho = model.rho
    if np.any(np.abs(rho) > 1.0):
        raise ParameterError("correlations must lie in [-1, 1]")
    comp = np.sqrt(1.0 - rho**2)
    return rho[None, :, None] * dW - comp[None, :, None] * dWperp
