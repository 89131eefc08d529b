"""Monte Carlo simulation of the stabilized Volterra square-root process.

The K-integrated Euler-Maruyama scheme advances, per asset,

    V(t_k) = V(0) + sum_{l<=k} [ (mu0 - lam V(t_{l-1})) C[k-l]
             + nu sig(t_{l-1}) sqrt(V(t_{l-1})^+) G_{k,l} ],

where C[j] = int_cell K(u) du are the kernel's cell integrals (the
product-rectangle weights of ``kernels._product_weights``, which the
Adams solver reads as its predictor weights) and
G_{k,l} = int_{t_{l-1}}^{t_l} K(t_k - s) dW_s are kernel-weighted
Brownian integrals.  Within one cell the vector of all lags plus the
plain increment DW is jointly Gaussian with lag-stationary covariance,
whose exact diagonal and first row are ``kernels._kernel_products``,
so one spectral factor per asset drives every cell.  It comes from the covariance's rank-36 thin
form, truncated to the fewest modes that its reproduction check allows
(PCA sampling, Glasserman 2003, Section 2.3).  Each cell draws one
low-rank standard-normal block for all paths, one fill per 8-cell
sub-block in cell order; thin matrix products add
its contributions to the cells of its 8-cell sub-block at once, and to
the rest of its 64-cell block once per sub-block.  Later blocks read it
through a low-rank pair U W of the far-field lag rows, built and checked
with the factor: each finished block is compressed once to W Y, and
each new block pulls its far field from all of them in one product.

Paths are simulated in fixed chunks of ``_CHUNK_PATHS`` paths, each in
arrays of its own and time-major: V is a (d, n+1, chunk) array and dW,
when the increments are kept, a (d, n, chunk) one, so each time step of
an asset is one contiguous row of paths, which the engine accumulates
in place; the ensemble exposes both as (paths, d, .) transposed views.
``simulate_variance_chunks`` yields one chunk at a time, so a consumer
that keeps only per-path values runs in memory that does not grow with
M; ``simulate_variance_paths`` copies the chunks into whole (d, n+1, M)
arrays for the tests and the benchmark.  Within a chunk the assets,
which share only the read-only model, advance on one thread each
(numpy's random fills, ufuncs and BLAS calls release the GIL), beside
the chunk's dWperp draw, on the CPUs that the BLAS threads leave free
(``_workers``).

Everything is reproducible: chunk c takes the c-th ``spawn(1 + d)``
group of SeedSequence(seed), one child stream for the initial variance
and the orthogonal increments plus one stream per asset, each through
``_BIT_GENERATOR``, and the draw order is fixed regardless of the
number of threads.  The first group is the whole stream of an ensemble
of at most one chunk, and chunk c of paths is the same for every M that
gives it one size.  The engine keeps no state between calls: every
stream starts at chunk 0 and builds its own factors.
"""

import contextlib
import functools
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _blas_threads as _BLAS_THREADS
from .kernels import (
    KernelSpec,
    ParameterError,
    _kernel_products,
    _legendre_rule,
    _product_weights,
    eval_kernel,
    fractional_kernel,
)
from .model import Grid, MarketModel

# paths per chunk of the engine; fixed, because chunk c draws from the
# c-th stream group and so the paths depend on it
_CHUNK_PATHS = 4096
_FACTOR_RTOL = 1e-8  # required relative Frobenius reproduction; a tenth bounds the dropped tail
# bit generator of every engine stream, whose bits depend on it
_BIT_GENERATOR = np.random.SFC64


class FactorizationError(RuntimeError):
    """Covariance factorization failed even after stabilization."""


class NonFiniteError(ArithmeticError):
    """A simulated path or wealth left the finite floats."""


@dataclass(frozen=True, eq=False)
class GaussianBlockFactor:
    """Joint sampler of one cell's kernel integrals and its DW increment.

    ``factor`` F satisfies F F^T ~ cov to 1e-8 relative Frobenius error,
    where cov is the (n+1) x (n+1) covariance of the vector (G at lags
    0..n-1, DW) (``_thin_form``); by time-translation invariance
    the same matrix serves every cell.  F's rank is its column count, set
    by ``build_gaussian_factor``'s tail rule.  ``c_seg`` are the
    deterministic cell integrals C[j].  ``u_far`` and ``w_far`` are the
    far-field pair of ``_far_field``, of rank ``far_rank``.
    """

    grid: Grid
    factor: np.ndarray = field(repr=False)
    c_seg: np.ndarray = field(repr=False)
    u_far: np.ndarray = field(repr=False)
    w_far: np.ndarray = field(repr=False)

    @property
    def rank(self) -> int:
        return self.factor.shape[1]

    @property
    def far_rank(self) -> int:
        return self.w_far.shape[0]


def _thin_form(spec: KernelSpec, grid: Grid) -> tuple:
    """(G, H, exact lag diagonal, C[j]): cov = G H G^T is the covariance of
    (G_j)_{j<n} and DW over one cell but for the lag diagonal.

    The lags' interior is B W B^T by the 32-point Legendre rule on the
    cell, B[j, q] = K(t_j - s_q) and W = diag(w_q dt/2).  The exact lag
    diagonal and row 0 come from ``kernels._kernel_products``.  The row-0
    correction u (exact minus rule, half the lag-0 diagonal's in u[0])
    pairs with e_0 and (C[j], dt/2) with e_n, each through a block
    [[0, 1], [1, 0]] of H, so G is (n+1) x 36.  Elsewhere the rule's
    diagonal misses the exact one by about 1e-14 of ||cov||_F.
    """
    n, dt = grid.n, grid.dt
    t_up = (np.arange(n) + 1.0) * dt                         # upper lag ends
    c_seg = _product_weights(spec.alpha, n, dt)
    nodes, weights = _legendre_rule()
    B = eval_kernel(spec, t_up[:, None] - 0.5 * dt * (nodes[None, :] + 1.0))   # (n, 32)
    q = B.shape[1]
    w = weights * (0.5 * dt)
    G, H = np.zeros((n + 1, q + 4)), np.zeros((q + 4, q + 4))
    G[:n, :q], H[:q, :q] = B, np.diag(w)
    diag, row0 = _kernel_products(spec.alpha, n, dt)
    G[0, q] = G[n, q + 1] = 1.0
    G[:n, q + 2] = row0 - B @ (w * B[0])                      # exact minus the rule's row 0
    G[0, q + 2] *= 0.5
    G[:n, q + 3], G[n, q + 3] = c_seg, 0.5 * dt
    H[q, q + 2] = H[q + 2, q] = H[q + 1, q + 3] = H[q + 3, q + 1] = 1.0
    return G, H, diag, c_seg


# columns per block of the reproduction check, which is never whole
_CHECK_COLS = 256
# the far field's compression: required relative Frobenius reproduction
# (a tenth bounds the dropped tail), the first sketch width and its seed
_FAR_RTOL = 1e-13
_SKETCH = 48
_SKETCH_SEED = 20110


def build_gaussian_factor(spec: KernelSpec, grid: Grid) -> GaussianBlockFactor:
    """Factor the joint cell covariance for one asset, and compress its far field.

    The factor comes from ``_spectral_factor`` and the low-rank pair of
    its far-field matrix from ``_far_field``, once the factor's
    temporaries are freed.
    """
    factor, c_seg = _spectral_factor(spec, grid)
    F_aug = np.concatenate([factor[: grid.n], c_seg[:, None]], axis=1)
    u_far, w_far = _far_field(F_aug)
    return GaussianBlockFactor(grid=grid, factor=factor, c_seg=c_seg, u_far=u_far, w_far=w_far)


def _spectral_factor(spec: KernelSpec, grid: Grid) -> tuple:
    """(factor, C[j]): the factor of the joint cell covariance from its thin form.

    The covariance's spectrum collapses after a handful of modes (to one
    for the constant kernel, alpha = 1), and the build never forms the
    (n+1)^2 matrix: with cov = G H G^T (``_thin_form``) and the thin QR
    G = Q R, the eigendecomposition R H R^T = U diag(w) U^T gives the
    factor Q U sqrt(w) of the leading r modes, r the smallest with
    ||w[r:]|| <= ||w|| _FACTOR_RTOL / 10 (and no mode with w <= 0), so
    that the rank and the check below follow one tolerance.  Each
    column's sign makes its DW entry (row n) positive, and the factor is
    column-major, as the engine's products expect.

    The factor must reproduce the exact covariance, the thin form with
    the exact lag diagonal put back, to ``_FACTOR_RTOL`` relative
    Frobenius error, or construction fails with FactorizationError, as
    it does when the eigendecomposition fails.  The squared error is
    summed over blocks of ``_CHECK_COLS`` columns, not taken from Gram
    traces, which resolve only about the size of the bound.
    """
    G, H, diag, c_seg = _thin_form(spec, grid)
    Q, R = np.linalg.qr(G)
    try:
        w, U = np.linalg.eigh(R @ H @ R.T)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"covariance eigendecomposition failed: {exc}") from None
    w, U = w[::-1], U[:, ::-1]
    tail = np.sqrt(np.cumsum(w[::-1] ** 2)[::-1])                   # tail[k] = ||w[k:]||
    r = np.count_nonzero((tail > 0.1 * _FACTOR_RTOL * tail[0]) & (w > 0.0))
    factor = Q @ (U[:, :r] * np.sqrt(w[:r]))
    factor = np.asfortranarray(factor * np.where(factor[-1] < 0.0, -1.0, 1.0))
    err2 = norm2 = 0.0
    for lo in range(0, grid.n + 1, _CHECK_COLS):
        cols = slice(lo, lo + _CHECK_COLS)
        block = G @ (H @ G[cols].T)
        lags = np.arange(lo, min(lo + _CHECK_COLS, grid.n))
        block[lags, lags - lo] = diag[lags]
        norm2 += np.vdot(block, block)
        block -= factor @ factor[cols].T
        err2 += np.vdot(block, block)
    err, norm = np.sqrt(err2), np.sqrt(norm2)
    if not err <= _FACTOR_RTOL * norm:  # NaN fails too
        raise FactorizationError(
            f"spectral factor misses covariance by {err / norm:.2e} relative "
            f"(smallest eigenvalue {w[-1]:.3e})"
        )
    return factor, c_seg


def _far_field(F_aug: np.ndarray) -> tuple:
    """(U, W), U W ~ the far-field matrix f of the lag rows F_aug.

    f is the (n - _BLOCK) x _BLOCK (r+1) matrix that ``_lag_blocks`` fills
    at width _BLOCK; its singular values fall to 1e-14 of the largest
    within about 20.  A fixed-seed Gaussian sketch of ``_SKETCH`` columns
    spans it (Halko, Martinsson & Tropp, SIAM Rev. 53, 2011): with the
    thin QR f Omega = Q R and the SVD Q^T f = A diag(s) B^T, U = Q A[:, :k]
    and W = diag(s[:k]) B[:, :k]^T, k the smallest with
    ||s[k:]|| <= ||s|| _FAR_RTOL / 10.  The pair must reproduce f to
    ``_FAR_RTOL`` relative Frobenius error, summed over blocks of
    ``_CHECK_COLS`` rows; a sketch that misses is widened once to all of
    f's columns, and a miss there raises FactorizationError.  n <= _BLOCK
    has no far field: k = 0.
    """
    rows, cols = F_aug.shape[0] - _BLOCK, _BLOCK * F_aug.shape[1]
    if rows <= 0:
        return np.zeros((0, 0)), np.zeros((0, cols))
    # mapped, like the engine's scratch, so that the heap keeps none of it
    f, part = _mapped((rows, cols)), _mapped((_CHECK_COLS, cols))
    _lag_blocks(F_aug, _BLOCK, f)
    blocks = [slice(lo, lo + _CHECK_COLS) for lo in range(0, rows, _CHECK_COLS)]
    norm, rng = np.linalg.norm(f), np.random.default_rng(_SKETCH_SEED)
    for width in (min(_SKETCH, cols), cols):
        omega, sketch = rng.standard_normal((cols, width)), _mapped((rows, width))
        for rs in blocks:
            np.matmul(f[rs], omega, out=sketch[rs])
        Q, _ = np.linalg.qr(sketch)
        A, s, Bt = np.linalg.svd(sum(Q[rs].T @ f[rs] for rs in blocks), full_matrices=False)
        tail = np.sqrt(np.cumsum(s[::-1] ** 2)[::-1])               # tail[k] = ||s[k:]||
        k = np.count_nonzero(tail > 0.1 * _FAR_RTOL * tail[0])
        U, W = Q @ A[:, :k], s[:k, None] * Bt[:k]
        err2 = 0.0
        for rs in blocks:
            block = np.matmul(U[rs], W, out=part[: len(f[rs])])
            block -= f[rs]
            err2 += np.vdot(block, block)
        err = np.sqrt(err2)
        if err <= _FAR_RTOL * norm:  # NaN fails
            return U, W
    raise FactorizationError(f"far-field pair misses its matrix by {err / norm:.2e} relative")


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
    stream, so V0 and V do not change).  The paths are the chunks of
    ``simulate_variance_chunks``, copied side by side into whole arrays
    (a lone chunk is the ensemble itself).  Raises NonFiniteError when
    V0 or a path leaves the finite floats, ParameterError when M < 1
    (before anything is allocated).
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
    return PathEnsemble(model=model, grid=grid, M=M, V=V.transpose(2, 0, 1),
                        dW=dW.transpose(2, 0, 1) if increments else None, dWperp=dWperp)


def simulate_variance_chunks(model: MarketModel, stabs, grid: Grid, M: int, seed: int, *,
                             initial: str = "stationary", increments: bool = True):
    """The paths of ``simulate_variance_paths``, one chunk at a time.

    Yields a PathEnsemble per block of ``_CHUNK_PATHS`` paths (the last
    one holds the rest), in path order; its M is the chunk's path count.
    The engine's scratch and each chunk's arrays scale with the chunk,
    not with M.  The arguments are checked and the factors built before
    the first chunk is asked for.
    """
    factors = _checked_factors(model, grid, M, initial)
    return _advance_chunks(model, stabs, grid, M, seed, initial, factors, increments)


def _checked_factors(model: MarketModel, grid: Grid, M: int, initial: str) -> list:
    """Validate the engine's arguments, then build each asset's factor."""
    if M < 1:
        raise ParameterError(f"path count M must be >= 1, got {M}")
    if grid.T != model.T:
        raise ParameterError(f"grid horizon {grid.T} != model horizon {model.T}")
    if initial not in ("stationary", "fixed"):
        raise ParameterError(f"unknown initial-variance mode {initial!r}")
    return [build_gaussian_factor(fractional_kernel(a), grid) for a in model.alpha]


def _advance_chunks(model: MarketModel, stabs, grid: Grid, M: int, seed: int, initial: str,
                    factors: list, increments: bool):
    """Yield the chunks: chunk c covers paths c C .. min((c+1) C, M) - 1
    with C = _CHUNK_PATHS and draws from the c-th ``spawn(1 + d)`` group
    of SeedSequence(seed).  ``_simulate_chunk`` builds and returns each
    one, so that the generator, suspended at its yield, holds none of a
    chunk's arrays."""
    d = model.d
    sig_grid = np.stack([np.asarray(st.eval(grid.times[:-1])) for st in stabs], axis=0)  # (d, n)
    seq = np.random.SeedSequence(seed)
    for c0 in range(0, M, _CHUNK_PATHS):
        yield _simulate_chunk(model, grid, min(_CHUNK_PATHS, M - c0), initial, factors,
                              increments, sig_grid, seq.spawn(1 + d))


def _simulate_chunk(model: MarketModel, grid: Grid, m: int, initial: str, factors: list,
                    increments: bool, sig_grid: np.ndarray, children: list) -> PathEnsemble:
    """One chunk of m paths from its stream group ``children``: V0 (before
    the jobs start), then dWperp (a job beside the assets'), from child 0
    and asset i's normals from child 1 + i.  The chunk gets arrays of its
    own, and each asset's job maps and frees its own scratch, so that the
    consumer's arrays never stack on it."""
    d, n, dt = model.d, grid.n, grid.dt
    rng_common, *rngs_asset = (np.random.Generator(_BIT_GENERATOR(child)) for child in children)
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
    with _workers(len(jobs)) as run:
        run(jobs)
    return PathEnsemble(model=model, grid=grid, M=m, V=V.transpose(2, 0, 1),
                        dW=dW.transpose(2, 0, 1) if increments else None, dWperp=dWperp)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _pool_size() -> int:
    """Workers ``_workers`` may start: CPUs // BLAS threads, 1 without a cap."""
    return max(1, _cpu_count() // _BLAS_THREADS) if _BLAS_THREADS else 1


@contextlib.contextmanager
def _workers(count: int):
    """run(jobs): rounds of at most ``count`` independent jobs on threads
    that the rounds share, re-raising the first error.

    Jobs: an engine chunk's assets and its dWperp draw, or the path ranges
    of the wealth recursion, one round per block of steps when the ranges
    meet.  Each job's BLAS calls start their own threads, so the jobs get
    CPUs // BLAS threads workers (``_pool_size``).  The BLAS thread count
    is known when VOLTMARK_THREADS set it (``_BLAS_THREADS``); otherwise
    BLAS may take every CPU, its default, and the jobs run one after the
    other, since oversubscribed threads cost more than they give.  The
    jobs write disjoint arrays and each owns its generator, so the output
    does not depend on the thread count.
    """
    workers = min(count, _pool_size())
    if workers <= 1:
        yield lambda jobs: [job() for job in jobs]
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield lambda jobs: [future.result() for future in [pool.submit(job) for job in jobs]]


def require_finite(what: str, arr: np.ndarray) -> None:
    """Raise NonFiniteError unless every entry of arr is finite.

    max and min propagate NaN, so two reductions check the whole array
    without a boolean temporary.
    """
    if arr.size and not (np.isfinite(arr.max()) and np.isfinite(arr.min())):
        raise NonFiniteError(f"{what} is not finite")


# cells per far-field block and per sub-block of the Volterra
# accumulation; fixed so that summation order, and with it the bit-exact
# output, never depends on the environment
_BLOCK = 64
_SUB = 8


def _mapped(shape) -> np.ndarray:
    """Zero-filled float64 array in an anonymous memory map of its own.

    No malloc arena owns the map, and it goes back to the system whole
    when the array is freed.  Engine arrays therefore leave no holes in
    the heap, and a worker thread can allocate them without stranding
    the memory in a per-thread arena that the main thread cannot reuse.
    Like numpy's large arrays, it asks for transparent huge pages.
    """
    size = int(np.prod(shape))
    pages = mmap.mmap(-1, max(8 * size, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        with contextlib.suppress(OSError):  # a kernel built without them refuses
            pages.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(pages, count=size).reshape(shape)


def _asset_scratch(n: int, r: int, k: int, m: int) -> tuple:
    """Scratch of ``_advance_asset`` for a rank-r factor with a rank-k far
    field and a chunk of m paths: a sub-block's normals (_SUB, r, m), a
    cell's vol (m,), a block's noise and drift (_BLOCK, r+1, m), the
    product of a cell or a sub-block, in the leading rows of
    (_BLOCK - _SUB, m), the sub-block flush's lag factor (``_lag_blocks``), the far-field slabs and the
    history of compressed blocks, k rows for each block but the last."""
    blocks = (n - 1) // _BLOCK
    return (_mapped((_SUB, r, m)), _mapped((m,)), _mapped((_BLOCK, r + 1, m)),
            _mapped((_BLOCK - _SUB, m)),
            _mapped((max(0, min(_BLOCK, n) - _SUB), _SUB * (r + 1))),
            _mapped((_BLOCK, blocks * k)), _mapped((blocks * k, m)))


def _lag_blocks(F_aug: np.ndarray, width: int, out: np.ndarray) -> None:
    """Fill out's row q, column block b with F_aug[width + q - b]: cell lo+1+b's
    row at time lo+width+1+q for every lo, so one fill serves each flush."""
    r1 = F_aug.shape[1]
    for b in range(width):
        out[:, b * r1 : (b + 1) * r1] = F_aug[width - b : width - b + out.shape[0]]


def _advance_asset(model: MarketModel, i: int, fac: GaussianBlockFactor,
                   sig: np.ndarray, rng: np.random.Generator,
                   V: np.ndarray, dW: np.ndarray | None) -> None:
    """Blocked Volterra accumulation of one asset over one chunk of paths, in place.

    V is the asset's contiguous time-major (n+1, m) slab of the chunk's
    m paths, holding V0 in row 0 and zeros below; dW is its (n, m) slab
    of increments, or None when they are not kept.  Each cell l adds
    drift_l C[k-l] + vol_l G_{k,l} to every later time k; a row of V
    becomes V0 + sum once its last contribution is in.  Contributions to
    the times of the cell's own sub-block of ``_SUB`` cells are added at
    once (they feed the next vol coefficient), and at the end of a
    sub-block one product adds its cells' to the rest of the
    ``_BLOCK``-cell block.  Earlier blocks reach a block through the
    far-field pair U W (``_far_field``): at the end of each block one
    product compresses it to Z = W Y, k rows per path, kept newest first,
    and at the start of the next block one product of U's 64-row slabs,
    side by side, with that history writes the block's far-field rows,
    still zero, into V.  Each cell thus rewrites at most ``_SUB`` rows,
    and the rest is gemm work.  The scratch (``_asset_scratch``) is
    mapped per call and goes back to the system on return (``_mapped``),
    so the routine can run on a worker thread.
    """
    n, M = fac.grid.n, V.shape[1]
    r, k = fac.rank, fac.far_rank
    # noise modes plus one drift "mode" per cell; it inherits the
    # factor's column-major order, which decides numpy's matmul
    # route for F_aug[:m] (its own loop for one row) and so the rounding
    F_aug = np.concatenate([fac.factor[:n], fac.c_seg[:, None]], axis=1)  # (n, r+1)
    z, vol, y_blk, near, f_sub, u_slabs, history = _asset_scratch(n, r, k, M)
    _lag_blocks(F_aug, _SUB, f_sub)
    blocks = (n - 1) // _BLOCK          # blocks with a far field
    for s in range(blocks):  # slab s: U's rows for the s-th block back
        slab = fac.u_far[s * _BLOCK : (s + 1) * _BLOCK]
        u_slabs[: len(slab), s * k : (s + 1) * k] = slab
    f_dw = fac.factor[n]
    mu0, lam = model.mu0[i], model.lam[i]
    nu = model.nu[i]
    V0 = V[0]
    with np.errstate(over="ignore", invalid="ignore"):  # errstate is per thread
        for b, lo in enumerate(range(0, n, _BLOCK)):
            hi = min(lo + _BLOCK, n)          # block holds cells lo+1 .. hi
            if b:                             # the far field of blocks b-1 .. 0
                np.matmul(u_slabs[: hi - lo, : b * k], history[(blocks - b) * k :],
                          out=V[lo + 1 : hi + 1])
            for s_lo in range(lo, hi, _SUB):
                s_hi = min(s_lo + _SUB, hi)   # sub-block holds cells s_lo+1 .. s_hi
                # one fill in cell order draws the bits of one call per cell
                rng.standard_normal(out=z[: s_hi - s_lo])
                for ell in range(s_lo + 1, s_hi + 1):
                    v_prev = V[ell - 1]
                    z_ell = z[ell - s_lo - 1]
                    if dW is not None:
                        np.matmul(f_dw, z_ell, out=dW[ell - 1])
                    np.maximum(v_prev, 0.0, out=vol)
                    np.sqrt(vol, out=vol)
                    np.multiply(nu * sig[ell - 1], vol, out=vol)
                    y = y_blk[ell - lo - 1]
                    np.multiply(z_ell, vol, out=y[:r])
                    np.multiply(lam, v_prev, out=y[r])
                    np.subtract(mu0, y[r], out=y[r])
                    m_loc = s_hi - ell + 1
                    np.matmul(F_aug[:m_loc], y, out=near[:m_loc])
                    V[ell : s_hi + 1] += near[:m_loc]
                    V[ell] += V0
                if s_hi < hi:                 # then the sub-block has _SUB cells
                    rows = hi - s_hi          # block times s_hi+1 .. hi
                    Y = y_blk[s_lo - lo : s_hi - lo].reshape(_SUB * (r + 1), M)
                    np.matmul(f_sub[:rows], Y, out=near[:rows])
                    V[s_hi + 1 : hi + 1] += near[:rows]
            if b < blocks:                    # then the block has _BLOCK cells
                np.matmul(fac.w_far, y_blk.reshape(_BLOCK * (r + 1), M),
                          out=history[(blocks - 1 - b) * k : (blocks - b) * k])
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
    comp = np.sqrt(1.0 - rho**2)
    return np.subtract(np.multiply(rho[None, :, None], dW, out=out[1]),
                       np.multiply(comp[None, :, None], dWperp, out=out[0]), out=out[0])
