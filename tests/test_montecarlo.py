"""Bootstrap statistics, stationarity diagnostics, frontier driver."""

import numpy as np
import pytest

from conftest import small_model
from voltmark.kernels import ParameterError
from voltmark.model import Grid, bundled_model
from voltmark.montecarlo import (
    _bootstrap_weights,
    _resample_mean_var,
    _resample_moments,
    ensemble_stats,
    frontier_experiment,
    frontier_m_grid,
    stationarity_diagnostics,
    terminal_bootstrap,
)
from voltmark.simulate import NonFiniteError, simulate_variance_paths
from voltmark.stabilizer import ConstantStabilizer


def test_two_path_moments():
    stats = ensemble_stats(np.array([[0.0], [2.0]]), np.array([0.0]), n_boot=200, seed=1)
    assert stats.mean[0] == 1.0
    assert stats.variance[0] == 2.0  # unbiased


def test_constant_paths_collapse():
    stats = ensemble_stats(np.full((12, 4), 3.5), np.arange(4.0), seed=2)
    assert np.all(stats.variance == 0.0)
    assert np.allclose(stats.ci_low, 3.5, rtol=1e-12)
    assert np.allclose(stats.ci_high, 3.5, rtol=1e-12)
    assert np.max(stats.ci_high - stats.ci_low) <= 1e-12


def test_rejects_single_path():
    with pytest.raises(ParameterError):
        ensemble_stats(np.ones((1, 3)), np.arange(3.0))


def test_bootstrap_coverage():
    # 95% CI of the mean should cover the truth about 95% of the time
    rng = np.random.default_rng(8)
    hits = 0
    reps = 200
    for k in range(reps):
        x = rng.standard_normal((400, 1))
        s = ensemble_stats(x, np.array([0.0]), n_boot=400, seed=k)
        hits += s.ci_low[0] <= 0.0 <= s.ci_high[0]
    cover = hits / reps
    # binomial 3-SE band around 0.95 at 200 replications
    assert 0.90 <= cover <= 0.997


def test_ci_width_shrinks_like_sqrt_M():
    rng = np.random.default_rng(0)
    widths = []
    for M in (1000, 4000, 16000):
        x = rng.standard_normal((M, 1))
        s = ensemble_stats(x, np.array([0.0]), seed=3)
        widths.append(float(s.ci_high[0] - s.ci_low[0]))
    for w1, w2 in zip(widths, widths[1:]):
        assert 0.4 <= w2 / w1 <= 0.6


def test_deterministic_given_seed():
    x = np.random.default_rng(5).standard_normal((100, 3))
    s1 = ensemble_stats(x, np.arange(3.0), seed=11)
    s2 = ensemble_stats(x, np.arange(3.0), seed=11)
    assert np.array_equal(s1.ci_low, s2.ci_low)
    assert np.array_equal(s1.var_se, s2.var_se)


def test_stationarity_passes_quickly(model_t1, stabs_t1):
    ens = simulate_variance_paths(model_t1, stabs_t1, Grid(1.0, 120), 1500, seed=31)
    rep = stationarity_diagnostics(ens, model_t1, n_boot=400, seed=5)
    assert rep.passed


def test_one_resample_rejected():
    # one resample has no spread, so no standard error
    x = np.random.default_rng(5).standard_normal((50, 2))
    with pytest.raises(ParameterError, match="n_boot >= 2"):
        ensemble_stats(x, np.arange(2.0), n_boot=1)
    with pytest.raises(ParameterError, match="n_boot >= 2"):
        terminal_bootstrap(x[:, 0], n_boot=1)


def test_overflowing_statistics_rejected():
    with pytest.raises(NonFiniteError, match="ensemble variance"):
        ensemble_stats(np.full((5, 3), 1e200) * np.arange(1, 6)[:, None], np.arange(3.0))
    with pytest.raises(NonFiniteError, match="terminal wealth statistics"):
        terminal_bootstrap(np.linspace(1e200, 3e200, 40), n_boot=20)


def test_stationarity_negative_control(model_t1):
    # removing the stabilizer kills the noise injection: Var(V_t) decays
    # and the variance band check must fail
    zero = [ConstantStabilizer(0.0), ConstantStabilizer(0.0)]
    ens = simulate_variance_paths(model_t1, zero, Grid(1.0, 120), 1500, seed=31)
    rep = stationarity_diagnostics(ens, model_t1, n_boot=400, seed=5)
    assert not rep.passed
    assert np.all(rep.var_coverage < 0.5)


def test_terminal_bootstrap_consistency():
    x = np.random.default_rng(3).standard_normal(4000) * 2.0 + 1.0
    mean, mean_se, var, var_se = terminal_bootstrap(x, n_boot=600, seed=9)
    assert mean == pytest.approx(1.0, abs=5 * mean_se)
    assert var == pytest.approx(4.0, abs=5 * var_se)
    assert mean_se == pytest.approx(2.0 / np.sqrt(4000), rel=0.2)


@pytest.mark.parametrize("n_boot", [2, 64, 150])
def test_blocked_weights_equal_one_multinomial_draw(n_boot):
    # drawn a block of rows at a time into one float array, the weights
    # are those of a single multinomial draw of every row, bit for bit
    M = 37
    w = _bootstrap_weights(M, n_boot, np.random.default_rng(6))
    one_draw = np.random.default_rng(6).multinomial(M, np.full(M, 1.0 / M), size=n_boot) / M
    assert w.dtype == np.float64 and w.shape == (n_boot, M)
    assert np.array_equal(w, one_draw)


def test_affine_resamples_match_direct():
    # the closed form from the five moments of (A, B) against w @ x and
    # w @ x^2 for the same weights
    rng = np.random.default_rng(21)
    M = 500
    A = 2.0 + 0.3 * rng.standard_normal(M)
    B = -0.4 + 0.1 * rng.standard_normal(M) + 0.2 * (A - 2.0)
    w = _bootstrap_weights(M, 300, np.random.default_rng(4))
    moments = _resample_moments(A, B, w)
    for xi in (0.0, 2.5, 11.0):
        x = A + xi * B
        bm, bv = _resample_mean_var(moments, A, B, xi)
        direct_mean = w @ x
        direct_var = (w @ (x * x) - direct_mean**2) * M / (M - 1.0)
        assert np.max(np.abs(bm - direct_mean)) <= 1e-12 * np.max(np.abs(direct_mean))
        assert np.max(np.abs(bv - direct_var)) <= 1e-12 * np.max(np.abs(direct_var))


def test_frontier_experiment_reproducible():
    m = small_model()
    grid = Grid(1.0, 40)
    targets = frontier_m_grid(m, 3)
    p1 = frontier_experiment(m, targets, 80, seed=6, grid=grid, n_boot=200)
    p2 = frontier_experiment(m, targets, 80, seed=6, grid=grid, n_boot=200)
    assert p1 == p2


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


def test_frontier_m_grid_range():
    m = bundled_model(T=1.0)
    grid = frontier_m_grid(m, 8)
    assert len(grid) == 8
    assert grid[0] == pytest.approx(2.0 * np.exp(0.03))
    assert grid[-1] == pytest.approx(2.0 * np.exp(0.52))


def test_frontier_mean_within_se(model_t1, stabs_t1, ensemble_5000_fixed):
    pts = frontier_experiment(
        model_t1, [2.255], 5000, seed=20240, grid=ensemble_5000_fixed.grid,
        stabs=stabs_t1, ensemble=ensemble_5000_fixed)
    p = pts[0]
    assert abs(p.mean_terminal - 2.255) <= 3.0 * p.mean_se
