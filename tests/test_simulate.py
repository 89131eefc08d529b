"""Gaussian block factor and the K-integrated Euler scheme."""

import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from conftest import child_peak_kib, small_model
from oracles import (
    _covariance_matrix,
    asset_increments,
    dense_variance_paths,
    eigh_factor,
    kernel_cross_segment,
    kernel_mean_segment,
    scheme_covariance,
)
from voltmark import kernels, simulate
from voltmark.kernels import eval_kernel, fractional_kernel
from voltmark.model import Grid, MarketModel, bundled_model
from voltmark.simulate import (
    FactorizationError,
    NonFiniteError,
    build_gaussian_factor,
    correlate_asset_brownian,
    sample_initial_variance,
    simulate_variance_paths,
)


def test_factor_constant_kernel_rank_one():
    # alpha = 1 is K = 1: every lag integral is DW itself
    g = Grid(1.0, 8)
    fac = build_gaussian_factor(fractional_kernel(1.0), g)
    assert fac.rank == 1
    assert np.allclose(_covariance_matrix(fractional_kernel(1.0), g)[0], g.dt)
    assert np.allclose(fac.factor, np.sqrt(g.dt))
    assert np.allclose(fac.c_seg, g.dt)


@pytest.mark.parametrize("alpha", [0.6, 0.9])
def test_factor_reproduces_covariance(alpha):
    g = Grid(1.0, 600)
    fac = build_gaussian_factor(fractional_kernel(alpha), g)
    cov, _ = _covariance_matrix(fractional_kernel(alpha), g)
    err = np.linalg.norm(fac.factor @ fac.factor.T - cov) / np.linalg.norm(cov)
    assert err <= 1e-8
    assert fac.rank <= 12  # the shifted-kernel Gramian is numerically thin


@pytest.mark.parametrize("T, n", [(1.0, 600), (5.0, 2400)])
@pytest.mark.parametrize("alpha", [0.6, 0.9])
def test_cell_integrals_vs_mpmath(alpha, T, n):
    # C[j] = (((j+1) dt)^alpha - (j dt)^alpha) / Gamma(alpha+1) at 40 digits
    grid = Grid(T, n)
    c_seg = build_gaussian_factor(fractional_kernel(alpha), grid).c_seg
    with mpmath.workdps(40):
        a, dt = mpmath.mpf(alpha), mpmath.mpf(grid.dt)
        ref = [(((j + 1) * dt) ** a - (j * dt) ** a) / mpmath.gamma(a + 1) for j in range(n)]
        rel = max(abs((c - x) / x) for c, x in zip(c_seg.tolist(), ref))
    assert rel <= 2e-15


def test_cell_integrals_are_the_predictor_weights():
    # the engine's C[j] are the Adams predictor weights in lag order, bit for bit
    grid = Grid(5.0, 2400)
    c_seg = build_gaussian_factor(fractional_kernel(0.6), grid).c_seg
    assert np.array_equal(c_seg, kernels._product_weights(0.6, grid.n, grid.dt))


def test_covariance_entries_vs_quadrature():
    g = Grid(1.0, 600)
    spec = fractional_kernel(0.6)
    cov, _ = _covariance_matrix(spec, g)
    dt = g.dt
    for j, jp in [(0, 0), (3, 0), (5, 2), (400, 17)]:
        tj, tjp = (j + 1) * dt, (jp + 1) * dt
        if jp == 0:
            a = spec.alpha
            ref, _ = quad(
                lambda w: eval_kernel(spec, tj - (dt - w ** (1 / a)))
                * eval_kernel(spec, w ** (1 / a)) * w ** (1 / a - 1) / a,
                0.0, dt**a, limit=200)
        else:
            ref, _ = quad(lambda s: eval_kernel(spec, tj - s) * eval_kernel(spec, tjp - s),
                          0.0, dt, limit=200)
        assert cov[j, jp] == pytest.approx(ref, rel=1e-6)
    # DW row entries are the cell means
    assert np.allclose(cov[:-1, -1],
                       kernel_mean_segment(spec, (np.arange(600) + 1.0) * dt, 0.0, dt))


@pytest.mark.parametrize("n", [120, 600])
@pytest.mark.parametrize("alpha", [0.55, 0.6, 0.9])
def test_covariance_exact_entries_equal_per_entry_calls(alpha, n):
    # the engine's exact entries against the general segment integral, one
    # call per entry: row 0 (Gauss-Jacobi) is its very floats, lag 0 of
    # the diagonal too, and the rest of the diagonal (the cell integrals
    # at order 2 alpha - 1) its cancellation-free closed form to rounding;
    # the dense oracle holds that integral's entries
    spec, g = fractional_kernel(alpha), Grid(1.0, n)
    diag, row0 = kernels._kernel_products(alpha, n, g.dt)
    t_up = (np.arange(n) + 1.0) * g.dt
    ref_diag = [kernel_cross_segment(spec, t_up[j], t_up[j], 0.0, g.dt)[0] for j in range(n)]
    ref_row0 = [kernel_cross_segment(spec, t_up[j], t_up[0], 0.0, g.dt)[0] for j in range(n)]
    assert np.array_equal(row0, ref_row0)
    assert diag[0] == ref_diag[0]
    assert np.allclose(diag, ref_diag, rtol=2e-15, atol=0.0)
    cov, _ = _covariance_matrix(spec, g)
    assert np.array_equal(np.diag(cov)[:n], ref_diag)
    assert np.array_equal(cov[0, :n], ref_row0) and np.array_equal(cov[:n, 0], ref_row0)


def test_thin_factor_matches_dense_oracle():
    # the thin build against the dense covariance and its np.linalg.eigh
    # factor truncated by the same tail rule: the same rank, the dense
    # truncation's product to rounding, the covariance to the 1e-9 tail,
    # every column's DW entry positive, and column-major storage, which
    # decides numpy's matmul route in the engine (see ``_advance_asset``)
    for T, n in ((1.0, 40), (1.0, 150), (5.0, 600), (5.0, 2400)):
        for alpha in (0.6, 0.9):
            spec, g = fractional_kernel(alpha), Grid(T, n)
            fac = build_gaussian_factor(spec, g).factor
            cov, _ = _covariance_matrix(spec, g)
            dense = eigh_factor(spec, g)
            assert fac.shape[1] == dense.shape[1], (T, n, alpha)
            err = np.linalg.norm(fac @ fac.T - dense @ dense.T)
            assert err <= 1e-13 * np.linalg.norm(cov), (T, n, alpha, err)
            err = np.linalg.norm(fac @ fac.T - cov)
            assert err <= 1e-9 * np.linalg.norm(cov), (T, n, alpha, err)
            assert np.all(fac[n] > 0.0) and fac.flags.f_contiguous, (T, n, alpha)


def test_bundled_rank_is_the_smallest_the_tail_allows(model_t1):
    # at the bundled alphas and n = 600 the factor keeps 4 modes, passes
    # the 1e-8 check, and its last kept mode alone (the squared norm of
    # its column is its eigenvalue) exceeds the 1e-9 tail bound, so 3
    # modes would not do
    g = Grid(1.0, 600)
    ranks = []
    for alpha in model_t1.alpha:
        spec = fractional_kernel(alpha)
        fac = build_gaussian_factor(spec, g).factor
        cov, _ = _covariance_matrix(spec, g)
        norm = np.linalg.norm(cov)
        assert np.linalg.norm(fac @ fac.T - cov) <= simulate._FACTOR_RTOL * norm, alpha
        assert np.linalg.norm(fac[:, -1]) ** 2 > 1e-9 * norm, alpha
        ranks.append(fac.shape[1])
    assert ranks == [4, 4]


def test_non_finite_covariance_fails_the_check(nan_covariance):
    # a NaN in the exact diagonal leaves the thin form finite, so only the
    # check sees it
    with pytest.raises(FactorizationError, match="misses covariance by nan"):
        build_gaussian_factor(fractional_kernel(0.7), Grid(1.0, 40))


def test_zero_tolerance_fails_the_check(monkeypatch):
    monkeypatch.setattr(simulate, "_FACTOR_RTOL", 0.0)
    with pytest.raises(FactorizationError, match="misses covariance"):
        build_gaussian_factor(fractional_kernel(0.7), Grid(1.0, 40))


def test_lapack_failure_is_a_factorization_error(monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(FactorizationError, match="eigendecomposition failed"):
        build_gaussian_factor(fractional_kernel(0.7), Grid(1.0, 40))


def test_thin_form_without_row0_correction_fails_the_check(monkeypatch):
    # the check is real: a thin form that lacks the row-0 correction column
    # (G's column 34, paired with e_0) misses lag 0's exact diagonal
    real = simulate._thin_form

    def dropped(spec, grid):
        G, H, diag, c_seg = real(spec, grid)
        keep = np.arange(G.shape[1]) != 34
        return G[:, keep], H[np.ix_(keep, keep)], diag, c_seg

    monkeypatch.setattr(simulate, "_thin_form", dropped)
    with pytest.raises(FactorizationError, match="misses covariance"):
        build_gaussian_factor(fractional_kernel(0.7), Grid(1.0, 40))


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
def test_factor_build_memory():
    # a fresh interpreter, so that no earlier peak hides the build's; the
    # small build first loads the LAPACK code and its thread buffers.  The
    # build holds no (n+1)^2 array: any whole one would read >= 1
    n = 2400
    before, after = child_peak_kib(
        "from voltmark.kernels import fractional_kernel\n"
        "from voltmark.model import Grid\n"
        "from voltmark.simulate import build_gaussian_factor\n"
        "build_gaussian_factor(fractional_kernel(0.6), Grid(5.0, 100))\n",
        f"build_gaussian_factor(fractional_kernel(0.6), Grid(5.0, {n}))\n")
    growth = (after - before) * 1024 / (8 * (n + 1) ** 2)
    assert growth <= 0.5, f"the build grew the peak by {growth:.2f} covariance matrices"


def test_factor_sample_moments():
    # empirical covariance of the joint draw matches the exact entries
    g = Grid(0.5, 6)
    fac = build_gaussian_factor(fractional_kernel(0.6), g)
    cov, _ = _covariance_matrix(fractional_kernel(0.6), g)
    rng = np.random.default_rng(1234)
    sample = fac.factor @ rng.standard_normal((fac.rank, 200_000))    # all lags + DW
    emp = sample @ sample.T / 200_000
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / 200_000)
    assert np.all(np.abs(emp - cov) <= 3.5 * se)


def test_sample_initial_variance_moments_and_clip():
    m = bundled_model(T=1.0)
    draws = sample_initial_variance(m, 200_000, np.random.default_rng(5))
    assert draws.shape == (200_000, 2)
    assert np.all(draws >= 0.0)
    # bundled config: mean (10, 5), variance (0.016, 0.01536)
    assert np.allclose(m.x_inf, [10.0, 5.0])
    assert np.allclose(m.v0, [0.016, 0.01536])
    se_mean = np.sqrt(m.v0 / 200_000)
    assert np.all(np.abs(draws.mean(axis=0) - m.x_inf) <= 4 * se_mean)
    c0 = MarketModel(d=2, alpha=m.alpha, lam=m.lam, nu=m.nu, rho=m.rho, theta=m.theta,
                     mu0=m.mu0, c=[1e-12, 1e-12], r=m.r, x0=m.x0, T=1.0)
    tight = sample_initial_variance(c0, 100, np.random.default_rng(5))
    assert np.allclose(tight, c0.x_inf, atol=1e-4)


def test_deterministic_under_seed(model_t1, stabs_t1):
    g = Grid(1.0, 30)
    e1 = simulate_variance_paths(model_t1, stabs_t1, g, 25, seed=42)
    e2 = simulate_variance_paths(model_t1, stabs_t1, g, 25, seed=42)
    assert np.array_equal(e1.V, e2.V)
    assert np.array_equal(e1.dB, e2.dB)
    e3 = simulate_variance_paths(model_t1, stabs_t1, g, 25, seed=43)
    assert not np.array_equal(e1.V, e3.V)


def test_zero_vol_constant_solution(stabs_t1):
    m = bundled_model(T=1.0)
    nu0 = MarketModel(d=2, alpha=m.alpha, lam=m.lam, nu=[0.0, 0.0], rho=m.rho,
                      theta=m.theta, mu0=m.mu0, c=m.c, r=m.r, x0=m.x0, T=1.0)
    ens = simulate_variance_paths(nu0, stabs_t1, Grid(1.0, 50), 7, seed=1, initial="fixed")
    assert np.allclose(ens.V, m.x_inf[None, :, None], atol=1e-13)


def test_markovian_edge_matches_classical_cir():
    # rho = 1 makes the asset increments dB the variance's own dW
    m = small_model(alpha=[1.0], lam=[0.5], nu=[0.9], rho=[1.0], theta=[0.1], c=[0.04])
    stabs = m.build_stabilizers()
    sigma_const = np.sqrt(2.0 * m.lam[0] * m.c[0])  # the exact alpha = 1 stabilizer
    assert stabs[0].eval(0.3) == sigma_const
    ens = simulate_variance_paths(m, stabs, Grid(1.0, 64), 50, seed=3)
    V, dW = ens.V[:, 0, :], ens.dB[:, 0, :]
    ref = np.empty_like(V)
    ref[:, 0] = V[:, 0]
    dt = 1.0 / 64
    for k in range(64):
        v = ref[:, k]
        ref[:, k + 1] = (v + (m.mu0[0] - m.lam[0] * v) * dt
                         + m.nu[0] * sigma_const * np.sqrt(np.maximum(v, 0.0)) * dW[:, k])
    assert np.max(np.abs(V - ref)) <= 1e-12


def test_mean_profile_stationary(model_t1, stabs_t1):
    ens = simulate_variance_paths(model_t1, stabs_t1, Grid(1.0, 120), 4000, seed=99)
    mean = ens.V.mean(axis=0)
    se = ens.V.std(axis=0, ddof=1) / np.sqrt(4000)
    z = np.abs(mean - model_t1.x_inf[:, None]) / se
    assert np.mean(z <= 3.0) >= 0.97


def _with_rho(model, rho):
    return MarketModel(d=model.d, alpha=model.alpha, lam=model.lam, nu=model.nu, rho=rho,
                       theta=model.theta, mu0=model.mu0, c=model.c, r=model.r,
                       x0=model.x0, T=model.T)


def test_correlate_asset_brownian_limits(model_t1, stabs_t1):
    # rho = 1 gives dB = dW and rho = 0 gives dB = -sqrt(dt) N, the W-perp
    # normals of the asset's own spawned stream; V does not depend on rho
    g = Grid(1.0, 40)
    m_limits = _with_rho(model_t1, [1.0, 0.0])
    ens = simulate_variance_paths(model_t1, stabs_t1, g, 2000, seed=17)
    limits = simulate_variance_paths(m_limits, stabs_t1, g, 2000, seed=17)
    assert np.array_equal(limits.V, ens.V)
    dB = correlate_asset_brownian(limits, m_limits)
    assert dB is limits.dB
    children = np.random.SeedSequence(17).spawn(3)
    perp = np.random.Generator(simulate._BIT_GENERATOR(children[2].spawn(1)[0]))
    assert np.array_equal(dB[:, 1, :], -(np.sqrt(g.dt) * perp.standard_normal((g.n, 2000))).T)
    fac = build_gaussian_factor(fractional_kernel(model_t1.alpha[0]), g)
    z = np.random.Generator(simulate._BIT_GENERATOR(children[1])).standard_normal((g.n, fac.rank,
                                                                                    2000))
    assert np.array_equal(dB[:, 0, :], (fac.factor[g.n] @ z).T)
    # generic rho: empirical correlation with dW, the dB of rho = 1, within 3 SE
    dW = simulate_variance_paths(_with_rho(model_t1, 1.0), stabs_t1, g, 2000, seed=17).dB
    dB2 = correlate_asset_brownian(ens, model_t1)
    for i in range(2):
        x = dW[:, i, :].ravel()
        y = dB2[:, i, :].ravel()
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr - model_t1.rho[i]) <= 3.0 / np.sqrt(len(x))
    # unit variance scaling: Var(dB) = dt
    assert np.var(dB2[:, 0, :]) == pytest.approx(g.dt, rel=0.1)


def test_asset_increments_follow_the_formula(model_t1, stabs_t1):
    # dB at the bundled rho is rho dW - sqrt(1 - rho^2) dWperp bit for bit,
    # with dW from a rho = 1 ensemble and dWperp from a rho = 0 one
    g = Grid(1.0, 70)
    dB, dW, neg_perp = (simulate_variance_paths(m, stabs_t1, g, 300, seed=12).dB for m in
                        (model_t1, _with_rho(model_t1, 1.0), _with_rho(model_t1, 0.0)))
    assert np.array_equal(dB, asset_increments(model_t1.rho[:, None], dW, -neg_perp))


def test_asset_increments_hold_the_ensemble_rho(model_t1, stabs_t1):
    from voltmark.kernels import ParameterError

    ens = simulate_variance_paths(model_t1, stabs_t1, Grid(1.0, 10), 5, seed=1)
    with pytest.raises(ParameterError, match="rho"):
        correlate_asset_brownian(ens, _with_rho(model_t1, [-0.7, 0.5]))


@pytest.mark.parametrize("initial", ["stationary", "fixed"])
def test_v_only_ensemble_equals_full(model_t1, stabs_t1, monkeypatch, initial):
    # skipping dB and the W-perp draws leaves V0 and V bit for bit; M is
    # not a multiple of 64 and the two assets run on two threads
    pool_sizes = []
    real_pool = simulate.ThreadPoolExecutor

    def recording_pool(max_workers):
        pool_sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(simulate, "_BLAS_THREADS", 1)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
    g = Grid(1.0, 150)
    full = simulate_variance_paths(model_t1, stabs_t1, g, 203, seed=5, initial=initial)
    v_only = simulate_variance_paths(model_t1, stabs_t1, g, 203, seed=5, initial=initial,
                                     increments=False)
    assert pool_sizes == [2, 2]
    assert v_only.dB is None
    assert np.array_equal(v_only.V[:, :, 0], full.V[:, :, 0])
    assert np.array_equal(v_only.V, full.V)


def test_v_only_ensemble_has_no_asset_increments(model_t1, stabs_t1):
    from voltmark.kernels import ParameterError

    ens = simulate_variance_paths(model_t1, stabs_t1, Grid(1.0, 10), 5, seed=1,
                                  increments=False)
    with pytest.raises(ParameterError, match="V only"):
        correlate_asset_brownian(ens, model_t1)


def test_store_noise_rejected(model_t1, stabs_t1):
    from voltmark.kernels import ParameterError

    with pytest.raises(ParameterError):
        simulate_variance_paths(model_t1, stabs_t1, Grid(1.0, 10), 5, seed=1, store_noise=True)


def test_time_major_views(model_t1, stabs_t1):
    ens = simulate_variance_paths(model_t1, stabs_t1, Grid(1.0, 12), 9, seed=4)
    assert ens.V.shape == (9, 2, 13) and ens.dB.shape == (9, 2, 12)
    # each asset's time steps are contiguous rows of paths
    assert ens.V.base is not None and ens.V.transpose(1, 2, 0).flags.c_contiguous
    assert ens.dB.transpose(1, 2, 0).flags.c_contiguous


def test_concurrent_assets_equal_sequential(monkeypatch):
    # five assets on five threads, more than the
    # cores, with a short switch interval, give the same bits as running
    # them one after the other on the calling thread
    m = small_model(d=5, alpha=[0.6, 0.7, 0.8, 0.9, 1.0], nu=[0.3, 0.4, 0.5, 0.6, 0.7])
    stabs = m.build_stabilizers()
    g = Grid(1.0, 150)
    monkeypatch.setattr(simulate, "_BLAS_THREADS", 1)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)
    seq = simulate_variance_paths(m, stabs, g, 700, seed=8)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 8)
    pool_sizes = []
    real_pool = simulate.ThreadPoolExecutor

    def recording_pool(max_workers):
        pool_sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording_pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        par = simulate_variance_paths(m, stabs, g, 700, seed=8)
    finally:
        sys.setswitchinterval(interval)
    assert pool_sizes == [5]                 # d asset jobs
    assert np.array_equal(seq.V, par.V)
    assert np.array_equal(seq.dB, par.dB)


def test_asset_threads_leave_room_for_blas_threads(monkeypatch):
    # CPUs // BLAS threads workers, none while BLAS may take every CPU
    pool_sizes = []
    real_pool = simulate.ThreadPoolExecutor

    def recording_pool(max_workers):
        pool_sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording_pool)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 4)
    done = []
    jobs = [lambda i=i: done.append(i) for i in range(3)]
    for cap in (None, 1, 2, 4):
        monkeypatch.setattr(simulate, "_BLAS_THREADS", cap)
        with simulate._workers(len(jobs)) as run:
            run(jobs)
    assert pool_sizes == [3, 2]
    assert sorted(done) == sorted(list(range(3)) * 4)


def test_path_chunks_change_only_rounding(model_t1, stabs_t1):
    # the dense reference, its far-field products split into path ranges,
    # and the engine, whose far field is compressed and unsplit, agree up to
    # rounding
    g = Grid(1.0, 150)
    engine = simulate_variance_paths(model_t1, stabs_t1, g, 300, seed=6)
    split, _ = dense_variance_paths(model_t1, stabs_t1, g, 300, seed=6, far_cells=1 << 12)
    assert np.max(np.abs(split - engine.V)) <= 1e-12 * np.max(np.abs(engine.V))


@pytest.mark.parametrize("n, M", [(600, 4096), (2400, 500)])
def test_engine_matches_dense_reference(model_t1, stabs_t1, n, M):
    # the compressed far field against the dense one on the same draws
    g = Grid(1.0, n)
    V = simulate_variance_paths(model_t1, stabs_t1, g, M, seed=3, increments=False).V
    ref, _ = dense_variance_paths(model_t1, stabs_t1, g, M, seed=3, increments=False)
    assert np.max(np.abs(V - ref)) <= 1e-14 * np.max(np.abs(ref))


def _far_miss(fac) -> float:
    """Relative Frobenius miss of the pair U W against the dense far-field
    matrix that the reference engine pushes."""
    n = fac.grid.n
    F_aug = np.concatenate([fac.factor[:n], fac.c_seg[:, None]], axis=1)
    f_far = np.empty((n - 64, 64 * (fac.rank + 1)))
    simulate._lag_blocks(F_aug, 64, f_far)
    return np.linalg.norm(f_far - fac.u_far @ fac.w_far) / np.linalg.norm(f_far)


@pytest.mark.parametrize("T, n", [(0.5, 150), (1.0, 600), (5.0, 2400)])
@pytest.mark.parametrize("alpha", [0.51, 0.6, 0.9, 0.99, 1.0])
def test_far_field_pair_reproduces_the_lag_blocks(alpha, T, n):
    # the pair's rank stays far below the dense 64 (r + 1) columns
    fac = build_gaussian_factor(fractional_kernel(alpha), Grid(T, n))
    assert _far_miss(fac) <= simulate._FAR_RTOL
    assert fac.u_far.shape == (n - 64, fac.far_rank) and fac.far_rank <= 40
    if alpha == 1.0:
        assert fac.far_rank == 1


def test_a_narrow_sketch_is_widened(monkeypatch):
    # 4 sketch columns cannot hold the 18 modes of alpha = 0.6 at n = 600;
    # the build widens the sketch to every column and passes its check
    monkeypatch.setattr(simulate, "_SKETCH", 4)
    fac = build_gaussian_factor(fractional_kernel(0.6), Grid(1.0, 600))
    assert fac.far_rank > 4 and _far_miss(fac) <= simulate._FAR_RTOL


def test_far_field_check_refuses_a_missed_pair(monkeypatch):
    monkeypatch.setattr(simulate, "_FAR_RTOL", 0.0)
    with pytest.raises(FactorizationError, match="far-field pair misses"):
        build_gaussian_factor(fractional_kernel(0.7), Grid(1.0, 150))


def test_no_far_field_within_one_block():
    fac = build_gaussian_factor(fractional_kernel(0.7), Grid(1.0, 64))
    assert fac.far_rank == 0 and fac.u_far.shape[0] == 0


@pytest.mark.parametrize("n", [150, 67])
def test_engine_matches_naive_volterra_sum(model_t1, stabs_t1, n):
    # V(t_k) = V0 + sum_{l<=k} [(mu0 - lam V_{l-1}) C[k-l]
    #                           + nu sig(t_{l-1}) sqrt(V_{l-1}^+) G_{k,l}],
    # with G_{k,l} = factor[k-l] . z_l from the same per-asset draws.
    # n = 150 is blocks of 64 + 64 + 22 cells, the last one's last
    # sub-block 6 cells; n = 67 a last block of 3.  Both pull earlier
    # blocks through the far field.  Each cell's dB is rho dW - sqrt(1 - rho^2)
    # sqrt(dt) N, with dW = factor[n] . z_l and N from the asset's spawned stream
    g = Grid(1.0, n)
    M, seed = 200, 21
    ens = simulate_variance_paths(model_t1, stabs_t1, g, M, seed, initial="fixed")
    children = np.random.SeedSequence(seed).spawn(1 + model_t1.d)
    for i in range(model_t1.d):
        fac = build_gaussian_factor(fractional_kernel(model_t1.alpha[i]), g)
        rng = np.random.Generator(simulate._BIT_GENERATOR(children[1 + i]))
        perp = np.random.Generator(simulate._BIT_GENERATOR(children[1 + i].spawn(1)[0]))
        sig = np.asarray(stabs_t1[i].eval(g.times[:-1]))
        mu0, lam, nu = model_t1.mu0[i], model_t1.lam[i], model_t1.nu[i]
        V = np.empty((n + 1, M))
        V[0] = model_t1.x_inf[i]
        drift, vol_noise = [], []           # per cell l: drift and vol * z_l
        for k in range(1, n + 1):
            z = rng.standard_normal((fac.rank, M))
            dWperp = np.sqrt(g.dt) * perp.standard_normal(M)
            assert np.array_equal(ens.dB[:, i, k - 1],
                                  asset_increments(model_t1.rho[i], fac.factor[n] @ z, dWperp))
            v = V[k - 1]
            drift.append(mu0 - lam * v)
            vol_noise.append(nu * sig[k - 1] * np.sqrt(np.maximum(v, 0.0)) * z)
            total = np.zeros(M)
            for ell in range(1, k + 1):
                j = k - ell
                total += drift[ell - 1] * fac.c_seg[j] + fac.factor[j] @ vol_noise[ell - 1]
            V[k] = V[0] + total
        assert np.max(np.abs(ens.V[:, i, :] - V.T)) <= 1e-12 * np.max(np.abs(V))


def test_non_finite_paths_rejected(stabs_t1):
    m = bundled_model(T=1.0)
    huge = MarketModel(d=2, alpha=m.alpha, lam=m.lam, nu=[1e200, 0.32], rho=m.rho,
                       theta=m.theta, mu0=m.mu0, c=m.c, r=m.r, x0=m.x0, T=1.0)
    with pytest.raises(NonFiniteError, match="initial variance"):
        simulate_variance_paths(huge, stabs_t1, Grid(1.0, 20), 30, seed=1)
    # a fixed start is finite; the first cells overflow
    with pytest.raises(NonFiniteError, match="asset 1"):
        simulate_variance_paths(huge, stabs_t1, Grid(1.0, 20), 30, seed=1, initial="fixed")


def test_variance_matches_the_scheme_oracle(model_t1, stabs_t1):
    # the per-time variance of stationary-start paths against the scheme's
    # exact second moments (``scheme_covariance``), which include the
    # first cells' deficit below v0 (sigma(0) = 0 puts no noise in the
    # first cell); z uses the sample variance's own standard error
    g = Grid(1.0, 40)
    M = 100_000
    V = simulate_variance_paths(model_t1, stabs_t1, g, M, seed=2026, increments=False).V
    for i in range(model_t1.d):
        exact = np.diag(scheme_covariance(model_t1, stabs_t1, g, i))
        dev2 = (V[:, i, :] - V[:, i, :].mean(axis=0)) ** 2
        se = dev2.std(axis=0, ddof=1) / np.sqrt(M)
        z = (dev2.sum(axis=0) / (M - 1) - exact) / se
        assert np.max(np.abs(z)) <= 4.0, (i, z)
