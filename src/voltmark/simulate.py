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

Paths are simulated in fixed chunks of ``_CHUNK_PATHS`` paths, each in
arrays of its own.  Within a chunk storage is time-major: V is a
(d, n+1, chunk) array and dW, when the increments are kept, a
(d, n, chunk) one, so each time step of an asset is one contiguous row
of paths, and the engine accumulates the Volterra sums straight into
the rows of V.  The ensemble exposes both as (paths, d, .) transposed
views.  ``simulate_variance_chunks`` yields one chunk at a time, so a
consumer that keeps only per-path values (the frontier's terminal
wealth, the Laplace samples) runs in memory that does not grow with M;
``simulate_variance_paths`` copies the chunks into the columns of whole
(d, n+1, M) arrays for the tests and the benchmark, which read whole
ensembles.  The
assets share nothing but the read-only model, so within a chunk they
advance at the same time on one thread each (numpy's random fills,
ufuncs and BLAS calls release the GIL), on the CPUs of the process that
the BLAS threads leave free (see ``_run_concurrently``), and the
chunk's dWperp draw is one more job.

Everything is reproducible: chunk c takes the c-th ``spawn(1 + d)``
group of SeedSequence(seed), one child stream for the initial variance
and the orthogonal increments plus one stream per asset, and the draw
order is fixed regardless of the number of threads.  The first group
is the whole stream of an ensemble of at most one chunk, and chunk c of
paths is the same for every M that gives it one size (``common_chunks``).
"""

import functools
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import _blas_threads as _BLAS_THREADS
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

# paths per chunk of the engine; fixed, because chunk c draws from the
# c-th stream group and so the paths depend on it
_CHUNK_PATHS = 4096
_EIG_CUT = 1e-13          # relative eigenvalue cut of the spectral factor
_FACTOR_RTOL = 1e-8       # required relative Frobenius reproduction


class FactorizationError(RuntimeError):
    """Covariance factorization failed even after stabilization."""


class NonFiniteError(ArithmeticError):
    """A simulated path or wealth left the finite floats."""


@dataclass(frozen=True, eq=False)
class GaussianBlockFactor:
    """Joint sampler of one cell's kernel integrals and its DW increment.

    ``factor`` F satisfies F F^T ~ cov to 1e-8 relative Frobenius error,
    where cov is the (n+1) x (n+1) covariance of the vector (G at lags
    0..n-1, DW) (``_covariance_matrix``); by time-translation invariance
    the same matrix serves every cell.  F's column count is the
    numerical rank after eigenvalue clipping.  ``c_seg`` are the
    deterministic cell integrals C[j].
    """

    spec: KernelSpec
    grid: Grid
    factor: np.ndarray = field(repr=False)
    c_seg: np.ndarray = field(repr=False)

    @property
    def rank(self) -> int:
        return self.factor.shape[1]


def _cell_means(spec: KernelSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Upper lag ends t_j = (j+1) dt and the cell integrals C[j], j < n."""
    t_up = (np.arange(grid.n) + 1.0) * grid.dt
    return t_up, np.asarray(kernel_mean_segment(spec, t_up, 0.0, grid.dt))


def _covariance_matrix(spec: KernelSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Lag covariance of (G_j)_{j<n} and DW over one cell, plus C[j].

    The matrix is column-major, in a memory map of its own (``_mapped``),
    so that LAPACK can factor it in place and it goes back to the system
    whole when freed.
    """
    n, dt = grid.n, grid.dt
    lags = np.arange(n)
    t_up, c_seg = _cell_means(spec, grid)
    cov = _mapped((n + 1, n + 1)).T
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
    cov[lags, lags] = kernel_cross_segment(spec, t_up, t_up, 0.0, dt)
    row0 = kernel_cross_segment(spec, t_up[1:], t_up[0], 0.0, dt)
    cov[0, 1:n] = row0
    cov[1:n, 0] = row0
    cov[:n, n] = c_seg
    cov[n, :n] = c_seg
    cov[n, n] = dt
    return cov, c_seg


# rows per block of the reproduction check's F F^T, which is never whole
_CHECK_ROWS = 256


def build_gaussian_factor(spec: KernelSpec, grid: Grid) -> GaussianBlockFactor:
    """Assemble and factor the joint cell covariance for one asset.

    The constant kernel (alpha = 1) uses the exact rank-one factor
    sqrt(dt) 1 and builds no covariance.  For singular kernels the
    matrix is a Gramian of shifted kernel slices whose spectrum collapses
    after a handful of modes, so a plain Cholesky is numerically hopeless
    at realistic n; the stabilized route is the symmetric
    eigendecomposition with negative and below-cut eigenvalues clipped
    to zero, keeping a thin factor.  The factor must reproduce the
    covariance to 1e-8 relative Frobenius error or construction fails
    with FactorizationError, as it does when LAPACK fails or the
    covariance is not finite; small problems that happen to be well
    conditioned still end up with the full-rank (Cholesky-equivalent)
    factor since no eigenvalue gets clipped.

    LAPACK's dsyevd, the routine behind np.linalg.eigh, runs in place:
    it overwrites the column-major covariance map with the eigenvectors,
    so the build holds one (n+1)^2 map plus dsyevd's 2 (n+1)^2
    workspace, where np.linalg.eigh adds a copy and separate
    eigenvectors.  The check then compares against the covariance built
    afresh, by row blocks of F F^T.
    """
    if spec.alpha == 1.0:
        factor = np.full((grid.n + 1, 1), np.sqrt(grid.dt))
        return GaussianBlockFactor(spec=spec, grid=grid, factor=factor,
                                   c_seg=_cell_means(spec, grid)[1])
    cov, c_seg = _covariance_matrix(spec, grid)
    norm = float(np.linalg.norm(cov))
    try:
        w, U = scipy.linalg.eigh(cov, overwrite_a=True, check_finite=False, driver="evd")
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"covariance eigendecomposition failed: {exc}") from None
    w = w[::-1]
    keep = w > _EIG_CUT * max(w[0], 0.0)
    factor = U[:, ::-1][:, keep] * np.sqrt(w[keep])[None, :]
    del cov, U
    cov, _ = _covariance_matrix(spec, grid)
    for lo in range(0, grid.n + 1, _CHECK_ROWS):
        rows = slice(lo, lo + _CHECK_ROWS)
        cov[rows] -= factor[rows] @ factor.T
    err = np.linalg.norm(cov)
    if not err <= _FACTOR_RTOL * norm:  # NaN fails too
        raise FactorizationError(
            f"spectral factor misses covariance by {err / norm:.2e} relative "
            f"(smallest eigenvalue {w[-1]:.3e})"
        )
    return GaussianBlockFactor(spec=spec, grid=grid, factor=factor, c_seg=c_seg)


# KernelSpec and Grid are frozen and hash by value, so the stages of a
# run that share a horizon share its factors; the builder is looked up
# at call time, so a caller that replaces it sees every miss
@functools.lru_cache(maxsize=16)
def _factor_memo(spec: KernelSpec, grid: Grid) -> GaussianBlockFactor:
    fac = build_gaussian_factor(spec, grid)
    fac.factor.flags.writeable = False
    fac.c_seg.flags.writeable = False
    return fac


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Simulated variance paths with their driving increments.

    V has shape (M, d, n+1) and is stored raw (the scheme can leave
    slightly negative values, consumers clip); dW and dWperp are the
    per-cell increments of W and the independent W-perp, shape
    (M, d, n).  V and dW are transposed views of time-major (d, n+1, M)
    and (d, n, M) arrays, so V[:, i, k] is contiguous within each chunk
    of paths; dWperp is stored path-major, in the order of its draws.
    A V-only ensemble (``increments=False``) has dW and dWperp None;
    its V equals the full ensemble's bit for bit.  A chunk of
    ``simulate_variance_chunks`` is a PathEnsemble of its own, whose M
    is the chunk's path count.
    """

    model: MarketModel
    grid: Grid
    M: int
    seed: int
    V: np.ndarray = field(repr=False)
    dW: np.ndarray | None = field(repr=False)
    dWperp: np.ndarray | None = field(repr=False)


def sample_initial_variance(model: MarketModel, M: int, rng: np.random.Generator) -> np.ndarray:
    """Draw V0 ~ N(x_inf, v0) per asset from ``rng``, clipped at zero, shape (M, d).

    Clipping keeps the path count (the Gaussian mass below zero is
    negligible at realistic parameters).
    """
    draws = model.x_inf[None, :] + np.sqrt(model.v0)[None, :] * rng.standard_normal((M, model.d))
    return np.clip(draws, 0.0, None)


def simulate_variance_paths(model: MarketModel, stabs, grid: Grid, M: int, seed: int, *,
                            initial: str = "stationary",
                            store_noise: bool = False,
                            increments: bool = True) -> PathEnsemble:
    """Simulate M joint variance paths with the K-integrated Euler scheme.

    initial = "stationary" draws V0 from N(x_inf, v0) (the fake
    stationary configuration); "fixed" starts every path at x_inf.
    The kernel-weighted noise integrals are not kept; ``store_noise``
    only accepts False.  ``increments=False`` keeps V alone: dW is never
    stored and dWperp never drawn (its draw follows V0's on the common
    stream, so V0 and V do not change), which saves two (M, d, n)
    arrays for callers that read only V.  The paths are the chunks of
    ``simulate_variance_chunks``, copied side by side into whole arrays
    (a lone chunk is the ensemble itself); callers that read each path
    only through a per-path functional (every command-line stage) take
    the chunks instead; the benchmark's refine_t5 passes ``store_noise``.
    Raises NonFiniteError when V0 or a path leaves the finite floats,
    ParameterError when M < 1 (before anything is allocated).
    """
    if store_noise:
        raise ParameterError("kernel-weighted noise integrals are not stored")
    chunks = simulate_variance_chunks(model, stabs, grid, M, seed, initial=initial,
                                      increments=increments)
    if M <= _CHUNK_PATHS:  # the one chunk is the ensemble: nothing to copy
        return next(chunks)
    d, n = model.d, grid.n
    # time-major storage: each asset's cells are contiguous rows of M paths
    V = _mapped((d, n + 1, M))
    dW = _mapped((d, n, M)) if increments else None
    dWperp = np.empty((M, d, n)) if increments else None
    c0 = 0
    for chunk in chunks:
        paths = slice(c0, c0 + chunk.M)
        V[:, :, paths] = chunk.V.transpose(1, 2, 0)
        if increments:
            dW[:, :, paths] = chunk.dW.transpose(1, 2, 0)
            dWperp[paths] = chunk.dWperp
        c0 += chunk.M
        del chunk  # before the next chunk is simulated
    return PathEnsemble(model=model, grid=grid, M=M, seed=seed, V=V.transpose(2, 0, 1),
                        dW=dW.transpose(2, 0, 1) if increments else None, dWperp=dWperp)


def simulate_variance_chunks(model: MarketModel, stabs, grid: Grid, M: int, seed: int, *,
                             initial: str = "stationary",
                             increments: bool = True, start: int = 0):
    """The paths of ``simulate_variance_paths``, one chunk at a time.

    Yields a PathEnsemble per block of ``_CHUNK_PATHS`` paths (the last
    one holds the rest), in path order from chunk ``start`` on, the tail
    of the whole generator; its M is the chunk's path count.
    Each chunk has arrays of its own, and the engine's scratch and each
    chunk's arrays scale with the chunk, not with M, so a consumer that
    keeps only per-path values and drops each chunk before taking the
    next runs in memory independent of M.
    The arguments are checked and the factors built before the first
    chunk is asked for.
    """
    factors = _checked_factors(model, grid, M, initial)
    return _advance_chunks(model, stabs, grid, M, seed, initial, factors, increments, start)


def common_chunks(M: int, other: int) -> int:
    """Leading chunks, those of one size, that ensembles of M and ``other``
    paths on one grid, seed and initial mode share bit for bit."""
    return min(M, other) // _CHUNK_PATHS + int(M == other and M % _CHUNK_PATHS > 0)


def _checked_factors(model: MarketModel, grid: Grid, M: int, initial: str) -> list:
    """Validate the engine's arguments and take each asset's factor from the
    per-process memo (read-only arrays)."""
    if M < 1:
        raise ParameterError(f"path count M must be >= 1, got {M}")
    if grid.T != model.T:
        raise ParameterError(f"grid horizon {grid.T} != model horizon {model.T}")
    if initial not in ("stationary", "fixed"):
        raise ParameterError(f"unknown initial-variance mode {initial!r}")
    return [_factor_memo(fractional_kernel(a), grid) for a in model.alpha]


def _advance_chunks(model: MarketModel, stabs, grid: Grid, M: int, seed: int, initial: str,
                    factors: list, increments: bool, start: int):
    """Simulate the paths chunk by chunk from chunk ``start``, yielding each chunk's ensemble.

    Chunk c covers paths c C .. min((c+1) C, M) - 1 with C = _CHUNK_PATHS
    and draws from the c-th ``spawn(1 + d)`` group of SeedSequence(seed):
    V0 (before the jobs start), then dWperp (a job beside the assets'),
    from child 0 and asset i's normals from child 1 + i.  Every chunk
    gets arrays of its own, and each asset's job maps and frees its own
    scratch, so that the consumer's arrays never stack on it.
    """
    d, n, dt = model.d, grid.n, grid.dt
    sig_grid = np.stack([np.asarray(st.eval(grid.times[:-1])) for st in stabs], axis=0)  # (d, n)
    seq = np.random.SeedSequence(seed)
    seq.spawn(start * (1 + d))  # the stream groups of the chunks before start
    for c0 in range(start * _CHUNK_PATHS, M, _CHUNK_PATHS):
        m = min(_CHUNK_PATHS, M - c0)
        rng_common, *rngs_asset = (np.random.default_rng(child) for child in seq.spawn(1 + d))
        if initial == "stationary":
            with np.errstate(over="ignore", invalid="ignore"):
                V0 = sample_initial_variance(model, m, rng_common)
        else:
            V0 = np.tile(model.x_inf, (m, 1))
        require_finite("initial variance", V0)
        V = _mapped((d, n + 1, m))
        dW = _mapped((d, n, m)) if increments else None
        dWperp = np.empty((m, d, n)) if increments else None
        V[:, 0, :] = V0.T
        jobs = [functools.partial(_advance_asset, model, i, factors[i], sig_grid[i], rngs_asset[i],
                                  V[i], dW[i] if increments else None)
                for i in range(d)]
        if increments:
            # last, so that it fills the worker that finishes its asset first
            jobs.append(lambda: np.multiply(rng_common.standard_normal(out=dWperp), np.sqrt(dt),
                                            out=dWperp))
        _run_concurrently(jobs)
        yield PathEnsemble(model=model, grid=grid, M=m, seed=seed, V=V.transpose(2, 0, 1),
                           dW=dW.transpose(2, 0, 1) if increments else None, dWperp=dWperp)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _pool_size() -> int:
    """Workers ``_run_concurrently`` may start: CPUs // BLAS threads, 1 without a cap."""
    return max(1, _cpu_count() // _BLAS_THREADS) if _BLAS_THREADS else 1


def _run_concurrently(jobs) -> None:
    """Run independent jobs on threads, re-raising the first error.

    Jobs: an engine chunk's assets and its dWperp draw, or the path ranges
    of a wealth recursion.  Each job's BLAS calls start their own threads,
    so the jobs get CPUs // BLAS threads workers (``_pool_size``).  The
    BLAS thread count is known when VOLTMARK_THREADS set it
    (``_BLAS_THREADS``); otherwise BLAS may take every CPU, its default,
    and the jobs run one after the other.  Oversubscribing costs: on two
    CPUs, two asset threads over two BLAS threads each took 3.0 s where
    one asset thread took 2.4 s (T = 5, n = 600, M = 10^4); the rule is
    measured on a 2-CPU machine only.  The jobs write disjoint arrays and
    each owns its generator, so the output does not depend on the thread count.
    """
    workers = min(len(jobs), _pool_size())
    if workers <= 1:
        for job in jobs:
            job()
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(job) for job in jobs]:
            future.result()


def require_finite(what: str, arr: np.ndarray) -> None:
    """Raise NonFiniteError unless every entry of arr is finite.

    max and min propagate NaN, so two reductions check the whole array
    without a boolean temporary.
    """
    if arr.size and not (np.isfinite(arr.max()) and np.isfinite(arr.min())):
        raise NonFiniteError(f"{what} is not finite")


# cells per far-field block of the Volterra accumulation; fixed so that
# summation order, and with it the bit-exact output, never depends on
# the environment
_BLOCK = 64
# entries per far-field product: a block's flush is split into column
# ranges of the chunk's paths so that its product buffer stays near
# 4 MB.  The range edges depend only on these constants, the chunk's
# path count and the row count, so the output stays deterministic.
# gemm promises no bits across different column splits; the OpenBLAS
# build this was measured with gave V bit for bit equal to one product
# over all paths (ranges start at multiples of 64 paths and the last
# one runs to the chunk's end)
_FAR_CELLS = 1 << 19


def _path_bounds(rows: int, M: int) -> list[int]:
    """Chunk edges over M paths for a far-field product with ``rows`` rows."""
    cols = max(64, _FAR_CELLS // rows // 64 * 64)
    return [j * cols for j in range(max(1, M // cols))] + [M]


def _mapped(shape) -> np.ndarray:
    """Zero-filled float64 array in an anonymous memory map of its own.

    No malloc arena owns the map, and it goes back to the system whole
    when the array is freed.  Engine arrays therefore leave no holes in
    the heap, and a worker thread can allocate them without stranding
    the memory in a per-thread arena that the main thread cannot reuse.
    """
    size = int(np.prod(shape))
    pages = mmap.mmap(-1, max(8 * size, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(pages, count=size).reshape(shape)


def _asset_scratch(n: int, r: int, m: int) -> tuple:
    """Scratch of ``_advance_asset`` for a rank-r factor and a chunk of m
    paths: the normals (r, m) and vol (m,) of one cell, the noise and
    drift (_BLOCK, r+1, m) and the in-block product (_BLOCK, m) of a
    block's cells, and the flat far-field factor block and product,
    whose leading entries each flush views in its own shape."""
    far_rows = range(n - _BLOCK, 0, -_BLOCK)
    far = max((rows * max(np.diff(_path_bounds(rows, m))) for rows in far_rows), default=0)
    return (_mapped((r, m)), _mapped((m,)), _mapped((_BLOCK, r + 1, m)), _mapped((_BLOCK, m)),
            _mapped((far_rows[0] * _BLOCK * (r + 1) if far_rows else 0,)), _mapped((far,)))


def _advance_asset(model: MarketModel, i: int, fac: GaussianBlockFactor,
                   sig: np.ndarray, rng: np.random.Generator,
                   V: np.ndarray, dW: np.ndarray | None) -> None:
    """Blocked Volterra accumulation of one asset over one chunk of paths, in place.

    V is the asset's contiguous time-major (n+1, m) slab of the chunk's
    m paths, holding V0 in row 0 and zeros below; dW is its (n, m) slab
    of increments, or None when the increments are not kept.  Each cell l
    contributes drift_l C[k-l] + vol_l G_{k,l} to every later time k.
    Rows of V beyond the current cell hold the running sum of these
    contributions; a row becomes V0 + sum once its last contribution is
    in.  Contributions to times inside the current block of cells are
    applied immediately (they feed the next vol coefficient);
    contributions beyond it are deferred and flushed as thin matrix
    products per block, which keeps the O(n^2 M) accumulation
    compute-bound instead of rewriting the whole future per cell.
    The routine maps its own ``_asset_scratch`` for the chunk, memory
    maps that go back to the system on return (``_mapped``), so it can
    run on a worker thread.
    """
    n, M = fac.grid.n, V.shape[1]
    r = fac.rank
    # noise modes plus one drift "mode" per cell; it inherits the
    # eigenvectors' column-major order, which decides numpy's matmul
    # route for F_aug[:m] (its own loop for one row) and so the rounding
    F_aug = np.concatenate([fac.factor[:n], fac.c_seg[:, None]], axis=1)  # (n, r+1)
    z, vol, y_blk, near, f_big, far = _asset_scratch(n, r, M)
    f_dw = fac.factor[n]
    mu0, lam = model.mu0[i], model.lam[i]
    nu = model.nu[i]
    V0 = V[0]
    with np.errstate(over="ignore", invalid="ignore"):  # errstate is per thread
        for lo in range(0, n, _BLOCK):
            width = min(_BLOCK, n - lo)
            hi = lo + width                   # block holds cells lo+1 .. hi
            for b in range(width):
                ell = lo + 1 + b
                v_prev = V[ell - 1]
                rng.standard_normal(out=z)
                if dW is not None:
                    np.matmul(f_dw, z, out=dW[ell - 1])
                np.maximum(v_prev, 0.0, out=vol)
                np.sqrt(vol, out=vol)
                np.multiply(nu * sig[ell - 1], vol, out=vol)
                y = y_blk[b]
                np.multiply(z, vol, out=y[:r])
                np.multiply(lam, v_prev, out=y[r])
                np.subtract(mu0, y[r], out=y[r])
                m_loc = hi - ell + 1
                np.matmul(F_aug[:m_loc], y, out=near[:m_loc])
                V[ell : hi + 1] += near[:m_loc]
                V[ell] += V0
            if hi < n:                        # then width == _BLOCK
                rows = n - hi                 # far-field times hi+1 .. n
                f_blk = f_big[: rows * width * (r + 1)].reshape(rows, width * (r + 1))
                for b in range(width):
                    j0 = hi - lo - b          # lag of k = hi+1 seen from cell lo+1+b
                    f_blk[:, b * (r + 1) : (b + 1) * (r + 1)] = F_aug[j0 : j0 + rows]
                Y = y_blk.reshape(width * (r + 1), M)
                bounds = _path_bounds(rows, M)
                for c0, c1 in zip(bounds[:-1], bounds[1:]):
                    prod = far[: rows * (c1 - c0)].reshape(rows, c1 - c0)
                    np.matmul(f_blk, Y[:, c0:c1], out=prod)
                    V[hi + 1 :, c0:c1] += prod
    require_finite(f"variance paths of asset {i + 1}", V)


def correlate_asset_brownian(ensemble: PathEnsemble, model: MarketModel) -> np.ndarray:
    """Asset-driving increments DB_i = rho_i DW_i - sqrt(1-rho_i^2) DWperp_i.

    This is the reconstruction B = Sigma^T W - sqrt(I - Sigma^T Sigma)
    W-perp of the model's correlation structure; the joint law of (V, B)
    is the same as with the forward construction.  Raises ParameterError
    on a V-only ensemble.
    """
    return _asset_increments(model, *_increments(ensemble))


def _increments(ensemble: PathEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """(dW, dWperp) of an ensemble; ParameterError when it holds V only."""
    if ensemble.dW is None or ensemble.dWperp is None:
        raise ParameterError("ensemble holds V only (simulated with increments=False), "
                             "not the Brownian increments")
    return ensemble.dW, ensemble.dWperp


def _asset_increments(model: MarketModel, dW: np.ndarray, dWperp: np.ndarray,
                      out=(None, None)) -> np.ndarray:
    """DB from (M, d, k) slices of DW and DWperp, for any run of cells k, into
    out[0] if given, with out[1] as scratch of the same shape."""
    rho = model.rho
    if np.any(np.abs(rho) > 1.0):
        raise ParameterError("correlations must lie in [-1, 1]")
    comp = np.sqrt(1.0 - rho**2)
    return np.subtract(np.multiply(rho[None, :, None], dW, out=out[1]),
                       np.multiply(comp[None, :, None], dWperp, out=out[0]), out=out[0])
