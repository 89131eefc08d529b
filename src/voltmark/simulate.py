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
so one low-rank spectral factor per asset drives every cell
(``_spectral_factor``; PCA sampling, Glasserman 2003, Section 2.3), and
a low-rank pair of its far-field lag rows carries each finished block
of cells to the later ones (``_far_field``, ``_AssetEngine``).

Paths are simulated in fixed chunks of ``_CHUNK_PATHS`` paths, and each
chunk one block of ``_BLOCK`` cells at a time into a small row store:
``fold_stream`` draws a stream and hands each block to every fold of
it as soon as the engines have stepped it.  The engine reads nothing of
earlier blocks but V0 and their compressed far field, so a fold of each
block runs in memory that does not grow with M, and grows with n only
by that far field (``_asset_scratch``).  ``Streams`` draws each stream
of a run once for all of its folds, and ``simulate_variance_paths``
copies each block into whole (d, ., M) arrays, for the tests and the
benchmark.  Within a block the assets, which share only the read-only
model, advance on one thread each, on one pool for the whole stream
(``_workers``); the folds run on the calling thread.

Everything is reproducible: chunk c takes the c-th ``spawn(1 + d)``
group of SeedSequence(seed), each child through ``_BIT_GENERATOR``.
Child 0 draws the stationary start V0; child 1 + i draws asset i's
factor normals, and the first child that it spawns asset i's W-perp
normals, which only a stream with increments draws.  The draw order is
fixed regardless of the number of threads and of the stream's folds.
The first group is the whole stream of an ensemble of at most one
chunk, and chunk c of paths is the same for every M that gives it one
size.  The engine keeps no state between calls: every stream
starts at chunk 0 and builds its own factors, scratch and row store.
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
    by ``build_gaussian_factor``'s tail rule.  ``F_aug`` are the lag
    rows (n, r+1): F's rows 0 .. n-1, the noise modes, and the
    deterministic cell integrals C[j] (``c_seg``) as one drift "mode"
    per cell.  ``u_far`` and ``w_far`` are the far-field pair of
    ``_far_field``, of rank ``far_rank``.
    """

    grid: Grid
    factor: np.ndarray = field(repr=False)
    F_aug: np.ndarray = field(repr=False)
    u_far: np.ndarray = field(repr=False)
    w_far: np.ndarray = field(repr=False)

    @property
    def rank(self) -> int:
        return self.factor.shape[1]

    @property
    def c_seg(self) -> np.ndarray:
        return self.F_aug[:, -1]

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
    # concatenate keeps the factor's column-major order (row-major at rank
    # 1), which decides numpy's matmul route for the engine's F_aug[:m]
    # (its own loop for one row) and so the rounding
    F_aug = np.concatenate([factor[: grid.n], c_seg[:, None]], axis=1)
    u_far, w_far = _far_field(F_aug)
    return GaussianBlockFactor(grid=grid, factor=factor, F_aug=F_aug, u_far=u_far, w_far=w_far)


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
    """Simulated variance paths with the increments that drive the assets.

    V has shape (M, d, n+1) and is stored raw (the scheme can leave
    slightly negative values, consumers clip); dB holds the per-cell
    asset-driving increments DB_i = rho_i DW_i - sqrt(1 - rho_i^2)
    DWperp_i at the model's rho, shape (M, d, n).  Both are transposed
    views of time-major (d, n+1, M) and (d, n, M) arrays, so V[:, i, k]
    and dB[:, i, k] are contiguous.  A V-only ensemble
    (``increments=False``) has dB None; its V equals the full ensemble's
    bit for bit.  It is the ``PathChunk`` of paths 0 .. M-1.
    """

    model: MarketModel
    grid: Grid
    M: int
    V: np.ndarray = field(repr=False)
    dB: np.ndarray | None = field(repr=False)
    first = 0

    def fold(self, folds) -> None:
        """Hand each block of the ensemble, views of V and dB, to every
        fold, as ``fold_stream`` hands a chunk's."""
        V, n = self.V.transpose(1, 2, 0), self.grid.n
        dB = None if self.dB is None else self.dB.transpose(1, 2, 0)
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            for fold in folds:
                fold(self, lo, V[:, lo : hi + 1], None if dB is None else dB[:, lo:hi])


@dataclass(frozen=True, eq=False)
class PathChunk:
    """Paths first .. first + M - 1 of a stream (``fold_stream``), on grid."""

    grid: Grid
    M: int
    first: int


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
    only accepts False.  ``increments=False`` keeps V alone: dB is never
    stored and W-perp never drawn (its normals have streams of their own,
    so V0 and V do not change).  A fold of ``fold_stream`` copies each
    block into whole time-major arrays.  Raises NonFiniteError when
    V0 or a path leaves the finite floats, ParameterError when M < 1
    (before anything is allocated).
    """
    if store_noise:
        raise ParameterError("kernel-weighted noise integrals are not stored")
    V = dB = None

    def copy(chunk, lo, rows, inc):
        nonlocal V, dB
        if V is None:            # mapped once fold_stream has checked the arguments
            V = _mapped((model.d, grid.n + 1, M))
            dB = _mapped((model.d, grid.n, M)) if increments else None
        paths = slice(chunk.first, chunk.first + chunk.M)
        V[:, lo : lo + rows.shape[1], paths] = rows
        if increments:
            dB[:, lo : lo + inc.shape[1], paths] = inc

    copy.increments = increments
    fold_stream(model, stabs, grid, M, seed, [copy], initial=initial)
    return PathEnsemble(model=model, grid=grid, M=M, V=V.transpose(2, 0, 1),
                        dB=dB.transpose(2, 0, 1) if increments else None)


def fold_stream(model: MarketModel, stabs, grid: Grid, M: int, seed: int, folds, *,
                initial: str = "stationary") -> None:
    """Draw the paths of ``simulate_variance_paths`` and hand each block to every fold.

    A fold is a callable fold(chunk, lo, V, dB) with an ``increments``
    flag.  Chunk c, a ``PathChunk``, holds paths c C .. min((c+1) C, M) - 1,
    C = _CHUNK_PATHS, drawn from the c-th spawn group (module docstring).
    Its blocks are stepped in time order, and the folds called in order
    on each one as soon as the engines have stepped it: (lo, V, dB) for
    the cells lo+1 .. hi, V the variance rows lo .. hi, (d, hi - lo + 1,
    m), whose row 0 is the last row of the block before (V0 in the
    first), and dB the increment rows lo .. hi-1, (d, hi - lo, m), or
    None, with W-perp never drawn, unless some fold's ``increments`` is
    set.  The last block has lo + V.shape[1] - 1 == grid.n.  Both are
    time-major views of a row store of (d, _BLOCK + 1, C) V rows and
    (d, _BLOCK, C) dB rows, which the next block overwrites.  The stream
    maps it and each asset's engine (``_AssetEngine``) once, sized by its
    first chunk, and a shorter last chunk takes contiguous views of the
    same maps (``_fit``).  The arguments are checked and the factors
    built before anything is drawn.
    """
    if M < 1:
        raise ParameterError(f"path count M must be >= 1, got {M}")
    if grid.T != model.T:
        raise ParameterError(f"grid horizon {grid.T} != model horizon {model.T}")
    if initial not in ("stationary", "fixed"):
        raise ParameterError(f"unknown initial-variance mode {initial!r}")
    factors = [build_gaussian_factor(fractional_kernel(a), grid) for a in model.alpha]
    increments = any(fold.increments for fold in folds)
    d, n = model.d, grid.n
    sig_grid = np.stack([np.asarray(st.eval(grid.times[:-1])) for st in stabs], axis=0)  # (d, n)
    seq = np.random.SeedSequence(seed)
    width = min(_CHUNK_PATHS, M)
    engines = [_AssetEngine(model, i, factors[i], sig_grid[i], width) for i in range(d)]
    store = (_mapped((d, _BLOCK + 1, width)), _mapped((d, _BLOCK, width)) if increments else None)
    with _workers() as run:
        for c0 in range(0, M, _CHUNK_PATHS):
            m = min(_CHUNK_PATHS, M - c0)
            children = seq.spawn(1 + d)
            if initial == "stationary":
                rng = np.random.Generator(_BIT_GENERATOR(children[0]))
                with np.errstate(over="ignore", invalid="ignore"):
                    V0 = sample_initial_variance(model, m, rng)
            else:
                V0 = np.tile(model.x_inf, (m, 1))
            require_finite("initial variance", V0)
            V0 = np.ascontiguousarray(V0.T)             # (d, m): each asset's row
            for i, engine in enumerate(engines):
                engine.start(m, V0[i], np.random.Generator(_BIT_GENERATOR(children[1 + i])),
                             np.random.Generator(_BIT_GENERATOR(children[1 + i].spawn(1)[0]))
                             if increments else None)
            V, dB = (None if buf is None else _fit(buf, m) for buf in store)
            chunk = PathChunk(grid, m, c0)
            V[:, 0] = V0
            for b, lo in enumerate(range(0, n, _BLOCK)):
                w = min(_BLOCK, n - lo)
                rows, inc = V[:, : w + 1], None if dB is None else dB[:, :w]
                run([functools.partial(engine.step, b, rows[i], None if inc is None else inc[i])
                     for i, engine in enumerate(engines)])
                for fold in folds:
                    fold(chunk, lo, rows, inc)
                V[:, 0] = V[:, w]                       # row 0 of the next block


class Streams:
    """The block streams of one model and seed, by key (grid, M, initial),
    each drawn with the model at grid's horizon and the stabilizers of the
    request that runs it.

    ``fold(model, stabs, grid, M, initial, kind, *args)`` makes the fold
    kind(model, stabs, grid, *args) on the stream, or returns the one
    made before: the first of its kind with the same args, or with any
    args when none are given.  ``result`` takes the same arguments and
    returns the fold once its stream has run: the stream's waiting folds
    are drawn together (``fold_stream``), and a fold made after its
    stream has run gets a fresh draw, whose V is the same bit for bit.
    The folds that have run are kept, and hold only their results.
    """

    def __init__(self, seed: int):
        self.seed, self.made, self.waiting = seed, {}, {}

    def fold(self, model: MarketModel, stabs, grid: Grid, M: int, initial: str, kind, *args):
        made = self.made.setdefault((grid, M, initial), [])
        for fold, given in made:
            if isinstance(fold, kind) and args in ((), given):
                return fold
        fold = kind(model, stabs, grid, *args)
        made.append((fold, args))
        self.waiting.setdefault((grid, M, initial), []).append(fold)
        return fold

    def result(self, model: MarketModel, stabs, grid: Grid, M: int, initial: str, kind, *args):
        fold = self.fold(model, stabs, grid, M, initial, kind, *args)
        if fold in self.waiting.get((grid, M, initial), ()):
            fold_stream(model, stabs, grid, M, self.seed, self.waiting.pop((grid, M, initial)),
                        initial=initial)
        return fold


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _pool_size() -> int:
    """Workers ``_workers`` starts: CPUs // BLAS threads, 1 without a cap."""
    return max(1, _cpu_count() // _BLAS_THREADS) if _BLAS_THREADS else 1


@contextlib.contextmanager
def _workers():
    """run(jobs): rounds of independent jobs on ``_pool_size()`` threads
    that the rounds share, re-raising the first error.

    Jobs: the assets of one block of the engine, one round per block; a
    stream keeps one pool for all of its rounds.  Each job's BLAS
    calls start their own threads, so the jobs get CPUs // BLAS threads
    workers.  The BLAS thread count is known when VOLTMARK_THREADS set it
    (``_BLAS_THREADS``); otherwise BLAS may take every CPU, its default,
    and the jobs run one after the other on the calling thread, since
    oversubscribed threads cost more than they give.  The jobs write
    disjoint arrays and each owns its generator, so the output does not
    depend on the thread count.
    """
    workers = _pool_size()
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


def _fit(buf: np.ndarray, m: int) -> np.ndarray:
    """The contiguous view of buf's map with its last axis (paths) cut to m."""
    shape = buf.shape[:-1] + (m,)
    return buf.reshape(-1)[: int(np.prod(shape))].reshape(shape)


def _asset_scratch(n: int, r: int, k: int, m: int) -> tuple:
    """Scratch of ``_AssetEngine`` for a rank-r factor with a rank-k far
    field and chunks of at most m paths, paths last: a sub-block's
    normals (_SUB, r, m), a cell's vol (m,), a block's noise and drift
    (_BLOCK, r+1, m), the product of a cell or a sub-block, in the
    leading rows of (_BLOCK - _SUB, m), the history of compressed blocks,
    k rows for each block but the last, and a sub-block's DW increments
    (_SUB, m), which a V-only stream never touches."""
    blocks = (n - 1) // _BLOCK
    return (_mapped((_SUB, r, m)), _mapped((m,)), _mapped((_BLOCK, r + 1, m)),
            _mapped((_BLOCK - _SUB, m)), _mapped((blocks * k, m)), _mapped((_SUB, m)))


def _lag_blocks(F_aug: np.ndarray, width: int, out: np.ndarray) -> None:
    """Fill out's row q, column block b with F_aug[width + q - b]: cell lo+1+b's
    row at time lo+width+1+q for every lo, so one fill serves each flush."""
    r1 = F_aug.shape[1]
    for b in range(width):
        out[:, b * r1 : (b + 1) * r1] = F_aug[width - b : width - b + out.shape[0]]


class _AssetEngine:
    """Blocked Volterra accumulation of one asset, one block of cells at a time.

    One engine serves every chunk of a stream: its scratch
    (``_asset_scratch``) is mapped for the stream's first chunk, the
    widest, and ``start`` takes a chunk of m paths, its V0 row and its
    generators: rng for the factor normals and, when the increments are
    kept, rng_perp for the W-perp normals.  ``step(b, V, dB)`` then
    advances block b of the chunk in place: V is the block's (hi-lo+1, m)
    variance rows lo .. hi, row 0 holding V[lo], and dB its (hi-lo, m)
    increment rows, or None.

    Each sub-block's factor normals come in one fill from rng, and with
    dB its W-perp normals N in one fill from rng_perp into its rows of
    dB, which at the end of the sub-block become
    DB = rho DW - sqrt(1 - rho^2) (sqrt(dt) N), one rounding per
    product, with the cells' DW = f_dw z in a scratch of ``_SUB`` rows.
    Each cell l adds drift_l C[k-l] + vol_l G_{k,l} to every later time
    k; a row of V becomes V0 + sum once its last contribution is in.
    Contributions to the times of the cell's own sub-block of ``_SUB``
    cells are added at once (they feed the next vol coefficient), and at
    the end of a sub-block one product adds its cells' to the rest of
    the ``_BLOCK``-cell block.  Earlier blocks reach a block through the
    far-field pair U W (``_far_field``): at the end of each block one
    product compresses it to Z = W Y, k rows per path, kept newest
    first, and at the start of the next block one product of U's 64-row
    slabs, side by side, with that history writes the block's rows
    (zeros in block 0).  Each cell thus rewrites at most ``_SUB`` rows,
    and the rest is gemm work.  A block touches no row outside its own,
    and the maps leave no memory in a worker thread's malloc arena
    (``_mapped``), so each step can run on any thread of the pool.
    """

    def __init__(self, model: MarketModel, i: int, fac: GaussianBlockFactor,
                 sig: np.ndarray, m: int):
        n, r, k = fac.grid.n, fac.rank, fac.far_rank
        self.i, self.fac, self.sig, self.n = i, fac, sig, n
        # the sub-block flush's lag factor (``_lag_blocks``), the far-field slabs
        self.f_sub = _mapped((max(0, min(_BLOCK, n) - _SUB), _SUB * (r + 1)))
        _lag_blocks(fac.F_aug, _SUB, self.f_sub)
        self.blocks = (n - 1) // _BLOCK          # blocks with a far field
        self.u_slabs = _mapped((_BLOCK, self.blocks * k))
        for s in range(self.blocks):  # slab s: U's rows for the s-th block back
            slab = fac.u_far[s * _BLOCK : (s + 1) * _BLOCK]
            self.u_slabs[: len(slab), s * k : (s + 1) * k] = slab
        self.scratch = _asset_scratch(n, r, k, m)
        self.mu0, self.lam, self.nu = model.mu0[i], model.lam[i], model.nu[i]
        self.rho, self.comp = model.rho[i], np.sqrt(1.0 - model.rho[i] ** 2)
        self.root_dt = np.sqrt(fac.grid.dt)

    def start(self, m: int, V0: np.ndarray, rng: np.random.Generator,
              rng_perp: np.random.Generator | None) -> None:
        self.V0, self.rng, self.rng_perp = V0, rng, rng_perp
        self.views = [_fit(buf, m) for buf in self.scratch]

    def step(self, b: int, V: np.ndarray, dB: np.ndarray | None) -> None:
        fac, r, k, blocks = self.fac, self.fac.rank, self.fac.far_rank, self.blocks
        F_aug, f_dw, sig, V0 = fac.F_aug, fac.factor[self.n], self.sig, self.V0
        z, vol, y_blk, near, history, dw = self.views
        M = V.shape[1]
        lo = b * _BLOCK
        w = min(_BLOCK, self.n - lo)          # the block holds cells lo+1 .. lo+w
        with np.errstate(over="ignore", invalid="ignore"):  # errstate is per thread
            if b:                             # the far field of blocks b-1 .. 0
                np.matmul(self.u_slabs[:w, : b * k], history[(blocks - b) * k :], out=V[1:])
            else:
                V[1:] = 0.0
            for s_lo in range(0, w, _SUB):
                s_hi = min(s_lo + _SUB, w)    # sub-block holds cells s_lo+1 .. s_hi
                # one fill in cell order draws the bits of one call per cell
                self.rng.standard_normal(out=z[: s_hi - s_lo])
                if dB is not None:
                    perp = self.rng_perp.standard_normal(out=dB[s_lo:s_hi])
                for ell in range(s_lo + 1, s_hi + 1):
                    v_prev = V[ell - 1]
                    z_ell = z[ell - s_lo - 1]
                    np.maximum(v_prev, 0.0, out=vol)
                    np.sqrt(vol, out=vol)
                    np.multiply(self.nu * sig[lo + ell - 1], vol, out=vol)
                    y = y_blk[ell - 1]
                    np.multiply(z_ell, vol, out=y[:r])
                    np.multiply(self.lam, v_prev, out=y[r])
                    np.subtract(self.mu0, y[r], out=y[r])
                    m_loc = s_hi - ell + 1
                    np.matmul(F_aug[:m_loc], y, out=near[:m_loc])
                    V[ell : s_hi + 1] += near[:m_loc]
                    V[ell] += V0
                if dB is not None:           # DB = rho DW - comp sqrt(dt) N, DW = f_dw z
                    dw_sub = np.matmul(f_dw, z[: s_hi - s_lo], out=dw[: s_hi - s_lo])
                    dw_sub *= self.rho
                    perp *= self.root_dt
                    perp *= self.comp
                    np.subtract(dw_sub, perp, out=perp)
                if s_hi < w:                  # then the sub-block has _SUB cells
                    rows = w - s_hi           # block times s_hi+1 .. w
                    Y = y_blk[s_lo:s_hi].reshape(_SUB * (r + 1), M)
                    np.matmul(self.f_sub[:rows], Y, out=near[:rows])
                    V[s_hi + 1 :] += near[:rows]
            if b < blocks:                    # then the block has _BLOCK cells
                np.matmul(fac.w_far, y_blk.reshape(_BLOCK * (r + 1), M),
                          out=history[(blocks - 1 - b) * k : (blocks - b) * k])
        require_finite(f"variance paths of asset {self.i + 1}", V[1:])


def correlate_asset_brownian(ensemble: PathEnsemble, model: MarketModel) -> np.ndarray:
    """Asset-driving increments DB_i = rho_i DW_i - sqrt(1-rho_i^2) DWperp_i.

    This is the reconstruction B = Sigma^T W - sqrt(I - Sigma^T Sigma)
    W-perp of the model's correlation structure; the joint law of (V, B)
    is the same as with the forward construction.  The engine forms them
    at the ensemble model's rho, so this returns the ensemble's dB.
    Raises ParameterError on a V-only ensemble and on a model whose rho
    differs from the ensemble model's.
    """
    if ensemble.dB is None:
        raise ParameterError("ensemble holds V only (simulated with increments=False), "
                             "not the Brownian increments")
    if not np.array_equal(model.rho, ensemble.model.rho):
        raise ParameterError(f"model rho {model.rho.tolist()} differs from the rho "
                             f"{ensemble.model.rho.tolist()} that the ensemble's increments hold")
    return ensemble.dB
