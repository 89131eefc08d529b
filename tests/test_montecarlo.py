"""Plug-in moment statistics, stationarity diagnostics, frontier driver."""

from dataclasses import fields

import numpy as np
import pytest

from conftest import small_model, stationarity
from oracles import assembled_chunks, bootstrap_se, bootstrap_weights, constant_sigma
from voltmark.kernels import ParameterError
from voltmark.markowitz import z_score
from voltmark.model import Grid, bundled_model
from voltmark.montecarlo import (
    ColumnMoments,
    EnsembleStats,
    FrontierPoint,
    frontier_experiment,
    frontier_m_grid,
    joined_stats,
    terminal_bootstrap,
)
from voltmark.simulate import (
    _CHUNK_PATHS,
    NonFiniteError,
    simulate_variance_paths,
)


def _stats(x):
    """Statistics of the columns of x, folded as one chunk."""
    acc = ColumnMoments()
    acc.add(x)
    return acc.stats()


def test_two_path_moments():
    stats = _stats(np.array([[0.0], [2.0]]))
    assert stats.mean[0] == 1.0
    assert stats.variance[0] == 2.0  # unbiased
    assert stats.mean_se[0] == np.sqrt(0.5)  # sqrt(m2 / M), m2 = 1
    assert stats.var_se[0] == 0.0  # m4 = m2^2 for two points


def test_constant_paths_collapse():
    stats = _stats(np.full((12, 4), 3.5))
    assert np.all(stats.variance == 0.0)
    assert np.allclose(stats.ci_low, 3.5, rtol=1e-12)
    assert np.allclose(stats.ci_high, 3.5, rtol=1e-12)
    assert np.max(stats.ci_high - stats.ci_low) <= 1e-12


def test_rejects_single_path():
    with pytest.raises(ParameterError, match="M >= 2"):
        _stats(np.ones((1, 3)))


def test_merged_moments_equal_one_pass():
    # chunks of 1, _CHUNK_PATHS and the remaining rows merge to the
    # one-pass moments of the whole array, and so does the whole array as
    # one chunk; skewed columns exercise the M3 terms of the M4 merge
    rng = np.random.default_rng(17)
    x = 3.0 + rng.gamma(2.0, 0.5, size=(1 + _CHUNK_PATHS + 807, 5)) * np.arange(1, 6)
    centred = x - x.mean(axis=0)
    want = (x.mean(axis=0), x.var(axis=0, ddof=1), np.mean(centred**4, axis=0))
    for parts in ((x[:1], x[1:1 + _CHUNK_PATHS], x[1 + _CHUNK_PATHS:]), (x,)):
        acc = ColumnMoments()
        for part in parts:
            acc.add(part)
        st = acc.stats()
        assert acc.count == len(x)
        for got, ref in zip((st.mean, st.variance, acc.m4 / acc.count), want):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("edges", [
    # the wealth stage's blocks of X: 64 steps each, and X_n with the last
    [0, *range(64, 601, 64), 601],
    # a first block of two columns, and a last one of 23
    [0, 2, *range(66, 601, 64), 601],
], ids=["wealth", "shifted"])
def test_block_fold_gives_the_bits_of_whole_rows(edges):
    # moments folded by column blocks, one accumulator per block, are those
    # of whole rows bit for bit: every statistic is computed per column.
    # A block of one column is left out: numpy sums a lone column pairwise
    rng = np.random.default_rng(23)
    x = 1.0 + rng.gamma(2.0, 0.5, size=(_CHUNK_PATHS + 5, 601)).cumsum(axis=1) / 30.0
    whole, blocks = ColumnMoments(), [ColumnMoments() for _ in edges[1:]]
    for chunk in (x[:_CHUNK_PATHS], x[_CHUNK_PATHS:]):
        whole.add(chunk)
        for acc, lo, hi in zip(blocks, edges, edges[1:]):
            acc.add(chunk[:, lo:hi])
    for name in ("mean", "m2", "m3", "m4"):
        assert np.array_equal(np.concatenate([getattr(acc, name) for acc in blocks]),
                              getattr(whole, name)), name
    joined, st = joined_stats(blocks), whole.stats()
    for f in fields(EnsembleStats):
        assert np.array_equal(getattr(joined, f.name), getattr(st, f.name)), f.name


def test_plug_in_se_matches_bootstrap(model_t1, stabs_t1):
    # the plug-in SEs of the mean and the variance are what a multinomial
    # bootstrap over whole paths estimates: per asset and time their
    # ratio lies within 10% of 1, about 4.5 times the 2.2% relative error
    # of a 1000-resample SE
    ens = simulate_variance_paths(model_t1, stabs_t1, Grid(1.0, 120), 4000, seed=5,
                                  increments=False)
    for i, st in enumerate(stationarity([ens], model_t1).stats):
        boot_mean_se, boot_var_se = bootstrap_se(ens.V[:, i, :], 1000, seed=5)
        for ratio in (st.mean_se / boot_mean_se, st.var_se / boot_var_se):
            assert 0.9 <= ratio.min() and ratio.max() <= 1.1, (i, ratio.min(), ratio.max())


def test_bootstrap_coverage():
    # 95% CI of the mean should cover the truth about 95% of the time
    rng = np.random.default_rng(8)
    hits = 0
    reps = 200
    for k in range(reps):
        x = rng.standard_normal((400, 1))
        s = _stats(x)
        hits += s.ci_low[0] <= 0.0 <= s.ci_high[0]
    cover = hits / reps
    # binomial 3-SE band around 0.95 at 200 replications
    assert 0.90 <= cover <= 0.997


def test_ci_width_shrinks_like_sqrt_M():
    rng = np.random.default_rng(0)
    widths = []
    for M in (1000, 4000, 16000):
        x = rng.standard_normal((M, 1))
        s = _stats(x)
        widths.append(float(s.ci_high[0] - s.ci_low[0]))
    for w1, w2 in zip(widths, widths[1:]):
        assert 0.4 <= w2 / w1 <= 0.6


def test_stationarity_passes_quickly(model_t1, stabs_t1):
    ens = simulate_variance_paths(model_t1, stabs_t1, Grid(1.0, 120), 1500, seed=31)
    rep = stationarity([ens], model_t1)
    assert rep.passed


def test_stationarity_chunks_equal_the_whole_ensemble(model_t1, stabs_t1):
    # the chunks of an ensemble give its statistics, up to rounding
    grid, M = Grid(1.0, 30), _CHUNK_PATHS + 5
    chunked = stationarity(
        assembled_chunks(model_t1, stabs_t1, grid, M, 8, increments=False), model_t1)
    whole = stationarity(
        [simulate_variance_paths(model_t1, stabs_t1, grid, M, 8, increments=False)], model_t1)
    assert np.array_equal(chunked.mean_coverage, whole.mean_coverage)
    assert np.array_equal(chunked.var_coverage, whole.var_coverage)
    for got, want in zip(chunked.stats, whole.stats):
        for name in ("mean", "variance", "ci_low", "ci_high", "mean_se", "var_se"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12,
                                       err_msg=name)


def test_overflowing_statistics_rejected():
    with pytest.raises(NonFiniteError, match="ensemble variance"):
        _stats(np.full((5, 3), 1e200) * np.arange(1, 6)[:, None])
    with pytest.raises(NonFiniteError, match="ensemble variance is not finite"):
        terminal_bootstrap(np.linspace(1e200, 3e200, 40))
    # deviations near 1e100 keep a finite variance, but their fourth
    # powers, and with them the variance SE, overflow
    with pytest.raises(NonFiniteError, match="ensemble var se is not finite"):
        terminal_bootstrap(np.linspace(-1e100, 1e100, 40))


def test_stationarity_negative_control(model_t1):
    # removing the stabilizer kills the noise injection: Var(V_t) decays
    # and the variance band check must fail
    zero = [constant_sigma(0.0), constant_sigma(0.0)]
    ens = simulate_variance_paths(model_t1, zero, Grid(1.0, 120), 1500, seed=31)
    rep = stationarity([ens], model_t1)
    assert not rep.passed
    assert np.all(rep.var_coverage < 0.5)


def test_terminal_bootstrap_consistency():
    x = np.random.default_rng(3).standard_normal(4000) * 2.0 + 1.0
    mean, mean_se, var, var_se = terminal_bootstrap(x)
    assert mean == pytest.approx(1.0, abs=5 * mean_se)
    assert var == pytest.approx(4.0, abs=5 * var_se)
    assert mean_se == pytest.approx(2.0 / np.sqrt(4000), rel=0.2)


@pytest.mark.parametrize("n_boot", [2, 64, 150])
def test_bootstrap_weights_are_resampled_counts(n_boot):
    # the oracle's rows count M paths drawn with replacement, over M,
    # whether or not the rows fill whole blocks of index draws; a seed
    # fixes them
    M = 37
    w = bootstrap_weights(M, n_boot, 6)
    assert w.dtype == np.float64 and w.shape == (n_boot, M)
    counts = w * M
    assert np.array_equal(counts, np.round(counts)) and counts.min() >= 0.0
    assert np.all(counts.sum(axis=1) == M)
    assert np.array_equal(w, bootstrap_weights(M, n_boot, 6))
    assert not np.array_equal(w, bootstrap_weights(M, n_boot, 7))


def test_bootstrap_weights_have_the_multinomial_law():
    # multinomial(M, 1/M) counts: mean 1, variance (M-1)/M, and a path is
    # left out of a resample with probability (1-1/M)^M; 3e5 counts give
    # standard errors of 3e-3 (variance) and 1e-3 (zero fraction)
    M, n_boot = 1000, 300
    counts = bootstrap_weights(M, n_boot, 12) * M
    assert counts.mean() == pytest.approx(1.0, abs=1e-12)
    assert counts.var() == pytest.approx((M - 1) / M, abs=0.02)
    assert np.mean(counts == 0.0) == pytest.approx((1 - 1 / M) ** M, abs=0.006)


def test_affine_resamples_match_direct():
    # every target's column of the frontier's column-major x = A + xi B
    # block against the moments of that column alone
    rng = np.random.default_rng(21)
    M = 500
    A = 2.0 + 0.3 * rng.standard_normal(M)
    B = -0.4 + 0.1 * rng.standard_normal(M) + 0.2 * (A - 2.0)
    xis = (0.0, 2.5, 11.0)
    x = np.empty((M, len(xis)), order="F")
    for j, xi in enumerate(xis):
        x[:, j] = A + xi * B
    block = _stats(x)
    for j, xi in enumerate(xis):
        got = (block.mean[j], block.mean_se[j], block.variance[j], block.var_se[j])
        st = _stats((A + xi * B)[:, None])
        want = (st.mean[0], st.mean_se[0], st.variance[0], st.var_se[0])
        assert got[0] == want[0] and got[2] == want[2]
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("value, target, se, z", [
    (2.0, 2.0, 0.0, 0.0),                  # no spread, equal: passes
    (2.0, 2.1, 0.0, np.inf),               # no spread, unequal: fails
    (2.0, 2.0 + 1e-7, 1e-16, 0.0),         # rounding-size spread, equal: passes
    (2.0, 2.0 + 1e-7, 5e-8, 2.0),          # z <= 3 keeps gap / SE, equal or not
    (2.0, 2.5, 0.1, 5.0),                  # z > 3, unequal: fails
])
def test_z_score_gate(value, target, se, z):
    assert z_score(value, target, se) == pytest.approx(z, rel=1e-8)
    assert (z_score(value, target, se) <= 3.0) == (z <= 3.0)
    # elementwise over arrays, the target's too: each entry scores as alone
    both = z_score(np.array([value, 1.0]), np.array([target, 1.0]), np.array([se, 0.1]))
    assert both.tolist() == [z_score(value, target, se), 0.0]


def test_frontier_experiment_reproducible():
    m = small_model()
    grid = Grid(1.0, 40)
    targets = frontier_m_grid(m, 3)
    p1 = frontier_experiment(m, targets, 80, seed=6, grid=grid)
    p2 = frontier_experiment(m, targets, 80, seed=6, grid=grid)
    assert p1 == p2


def test_frontier_rejects_a_grid_of_another_horizon():
    # psi is solved on the model's horizon; paths on another grid would
    # step with one dt and the coefficients of the other
    m = small_model()
    with pytest.raises(ParameterError, match="horizon"):
        frontier_experiment(m, [m.m0], 10, seed=6, grid=Grid(0.5, 40))


def test_frontier_on_target_zero_variance():
    # d=1, theta=0 at m = m0: strategy is identically zero, variance exactly 0
    m = small_model(theta=[0.0])
    pts = frontier_experiment(m, [m.m0], 60, seed=4, grid=Grid(1.0, 40))
    assert pts[0].v_mc <= 1e-25
    assert pts[0].v_theory == 0.0
    assert pts[0].mean_terminal == pytest.approx(m.m0, rel=1e-3)


def test_frontier_near_target_small_variance(model_t1):
    pts = frontier_experiment(model_t1, [model_t1.m0], 200, seed=4, grid=Grid(1.0, 150))
    assert pts[0].v_mc <= 1e-6  # Euler drift mismatch only


@pytest.mark.parametrize("v_mc, v_mc_se, want", [
    (4.0, 0.8, 0.2),       # v_mc_se / (2 sigma_mc)
    (0.0, 0.0, 0.0),       # no spread
    (-1e-20, 1e-21, 0.0),  # a rounding-size negative variance reads sigma_mc = 0
])
def test_sigma_mc_se_is_the_delta_method(v_mc, v_mc_se, want):
    p = FrontierPoint(m=2.0, xi_star=2.0, v_theory=v_mc, v_mc=v_mc, v_mc_se=v_mc_se,
                      mean_terminal=2.0, mean_se=0.0)
    assert p.sigma_mc_se == want


def test_frontier_m_grid_range():
    m = bundled_model(T=1.0)
    grid = frontier_m_grid(m, 8)
    assert len(grid) == 8
    assert grid[0] == pytest.approx(2.0 * np.exp(0.03))
    assert grid[-1] == pytest.approx(2.0 * np.exp(0.52))


def test_frontier_mean_within_se(model_t1, stabs_t1, grid_600):
    pts = frontier_experiment(model_t1, [2.255], 5000, seed=20240, grid=grid_600,
                              stabs=stabs_t1)
    p = pts[0]
    assert abs(p.mean_terminal - 2.255) <= 3.0 * p.mean_se
