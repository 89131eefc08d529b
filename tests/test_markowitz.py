"""Closed-form Markowitz quantities, the wealth scheme, and the Laplace check."""

import re
import sys

import numpy as np
import pytest

from conftest import folded_integrals, small_model, spoil_integrals, stream, wealth_pairs
from oracles import stepwise_wealth
from voltmark import markowitz, simulate
from voltmark.kernels import ParameterError
from voltmark.markowitz import (
    ConsistencyError,
    control_coefficient,
    efficient_frontier,
    frontier_slope,
    gamma0,
    laplace_affine_check,
    laplace_closed_form,
    optimal_control,
    simulate_wealth,
    solve_markowitz,
    variance_of_terminal,
    xi_eta_star,
)
from voltmark.model import Grid, MarketModel, bundled_model
from voltmark.montecarlo import frontier_m_grid
from voltmark.riccati import solve_riccati_adams
from voltmark.simulate import NonFiniteError, correlate_asset_brownian, simulate_variance_paths


@pytest.fixture(scope="module")
def gamma0_bundled(model_t1, riccati_600, stabs_t1):
    return gamma0(model_t1, riccati_600, stabs_t1)


def zero_theta_model():
    m = bundled_model(T=1.0)
    return MarketModel(d=2, alpha=m.alpha, lam=m.lam, nu=m.nu, rho=m.rho,
                       theta=[0.0, 0.0], mu0=m.mu0, c=m.c, r=m.r, x0=m.x0, T=1.0)


def test_gamma0_theta_zero_exact(stabs_t1, monkeypatch):
    m = zero_theta_model()
    sol = solve_riccati_adams(m, stabs_t1, 64)
    monkeypatch.setattr(markowitz, "_GAMMA0_REFINE", 0)
    assert gamma0(m, sol, stabs_t1) == np.exp(2 * m.r * m.T)


def test_gamma0_bounds_bundled(gamma0_bundled, model_t1):
    assert 0.0 < gamma0_bundled < np.exp(2 * model_t1.r * model_t1.T)


def test_gamma0_two_forms_agree_at_600(model_t1, riccati_600, stabs_t1, monkeypatch):
    # no internal refinement: the raw n = 600 solution already puts the
    # fractional-integral and direct-quadrature forms within 1e-6
    monkeypatch.setattr(markowitz, "_GAMMA0_REFINE", 0)
    monkeypatch.setattr(markowitz, "_GAMMA0_TOL", 1e-6)
    val = gamma0(model_t1, riccati_600, stabs_t1)
    assert 0.0 < val < np.exp(0.04)


def test_gamma0_inconsistency_detectable(monkeypatch):
    # a 1e-5 relative error in the direct form's integrand is beyond both
    # forms' extrapolation estimates at T = 1 and at T = 5, where the
    # unperturbed forms agree
    real = markowitz._rhs_along
    for T in (1.0, 5.0):
        model = bundled_model(T=T)
        stabs = model.build_stabilizers()
        sol = solve_riccati_adams(model, stabs, 600)
        gamma0(model, sol, stabs)
        with monkeypatch.context() as patch:
            patch.setattr(markowitz, "_rhs_along", lambda *args: real(*args) * (1.0 + 1e-5))
            with pytest.raises(ConsistencyError) as err:
                gamma0(model, sol, stabs)
        # the one-line stderr shows both exponents as plain floats
        assert "np.float64" not in str(err.value)
        assert re.search(r"form -?\d\.\d+ vs direct quadrature -?\d\.\d+$", str(err.value))


def config_a(T: float) -> MarketModel:
    """A rough two-asset config whose two Gamma0 forms differed by 1.04e-6
    at 2400 steps, which a fixed 1e-6 tolerance refused."""
    return MarketModel(d=2, alpha=[0.55, 0.9], lam=[3.71, 0.5], nu=[0.70, 0.68], rho=[1.0, 1.0],
                       theta=[0.386, 0.186], mu0=[1.0, 1.5], c=[0.33, 0.21], r=0.02, x0=2.0, T=T)


@pytest.mark.parametrize("model", [bundled_model(T=1.0), bundled_model(T=5.0), config_a(1.0)],
                         ids=["bundled-T1", "bundled-T5", "config-A-T1"])
def test_gamma0_extrapolation_within_its_estimate(model):
    # the direct exponent extrapolated from 600, 1200 and 2400 steps meets
    # the direct form on 19 200 steps within its own estimate, and Gamma0
    # returns it
    stabs = model.build_stabilizers()
    sol = solve_riccati_adams(model, stabs, 600)
    _, (direct, estimate) = markowitz._log_gamma0(model, sol, stabs)
    fine = markowitz._gamma0_forms(model, solve_riccati_adams(model, stabs, 19200), stabs)[1]
    assert abs(direct - fine) <= estimate
    assert gamma0(model, sol, stabs) == np.exp(direct)


def test_gamma0_nu_zero_levels_agree_to_rounding():
    # nu = 0 keeps V at x_inf = mu0 / lam, so log Gamma0 = (2r - theta^2 . x_inf) T,
    # which the direct form gives at every level up to rounding: the
    # extrapolation keeps the finest level, and the fractional form, still
    # converging, lies within its estimate
    b = bundled_model(T=1.0)
    model = MarketModel(d=2, alpha=b.alpha, lam=b.lam, nu=[0.0, 0.0], rho=b.rho, theta=b.theta,
                        mu0=b.mu0, c=b.c, r=b.r, x0=b.x0, T=1.0)
    stabs = model.build_stabilizers()
    sol = solve_riccati_adams(model, stabs, 600)
    exact = (2.0 * model.r - model.theta**2 @ model.x_inf) * model.T
    (frac, est_frac), (direct, est_direct) = markowitz._log_gamma0(model, sol, stabs)
    assert est_direct <= 1e-13 and abs(direct - exact) <= 1e-13
    assert abs(frac - exact) <= est_frac
    assert gamma0(model, sol, stabs) == np.exp(direct)


def test_xi_eta_identities(gamma0_bundled, model_t1):
    xi, eta = xi_eta_star(gamma0_bundled, model_t1, 2.255)
    assert xi == pytest.approx(2.255 - eta, rel=1e-14)
    disc = np.exp(-model_t1.r * model_t1.T)
    expect_xi = (2.255 - gamma0_bundled * disc * model_t1.x0) / (1.0 - gamma0_bundled * disc**2)
    assert xi == pytest.approx(expect_xi, rel=1e-14)


def test_xi_eta_on_target(gamma0_bundled, model_t1):
    xi, eta = xi_eta_star(gamma0_bundled, model_t1, model_t1.m0)
    assert eta == 0.0
    assert xi == model_t1.m0


def test_infeasible_target_rejected(gamma0_bundled, model_t1):
    with pytest.raises(ParameterError):
        xi_eta_star(gamma0_bundled, model_t1, model_t1.m0 - 0.01)
    with pytest.raises(ParameterError):
        variance_of_terminal(gamma0_bundled, model_t1, model_t1.m0 - 0.01)
    # degenerate riskless market: Gamma0 at its upper bound
    with pytest.raises(ParameterError):
        xi_eta_star(np.exp(2 * model_t1.r * model_t1.T), model_t1, 2.255)
    with pytest.raises(ParameterError):
        variance_of_terminal(np.exp(2 * model_t1.r * model_t1.T), model_t1, 2.255)
    # the frontier slope follows the same degenerate-market rule
    for g0 in (0.0, -1.0, 2.0 * np.exp(2 * model_t1.r * model_t1.T), np.nan):
        with pytest.raises(ParameterError):
            variance_of_terminal(g0, model_t1, 2.255)
        with pytest.raises(ParameterError):
            frontier_slope(g0, model_t1)


def test_variance_of_terminal_cases(gamma0_bundled, model_t1):
    assert variance_of_terminal(gamma0_bundled, model_t1, model_t1.m0) == 0.0
    g_half = np.exp(2 * model_t1.r * model_t1.T) / 2.0
    m = 2.5
    disc = np.exp(-model_t1.r * model_t1.T)
    expect = np.exp(2 * model_t1.r * model_t1.T) * (model_t1.x0 - m * disc) ** 2
    assert variance_of_terminal(g_half, model_t1, m) == pytest.approx(expect, rel=1e-12)
    # strict convexity in m: positive second difference
    vs = [variance_of_terminal(gamma0_bundled, model_t1, m_) for m_ in (2.2, 2.4, 2.6)]
    assert vs[0] - 2 * vs[1] + vs[2] > 0.0


def test_frontier_collinear(gamma0_bundled, model_t1):
    pts = efficient_frontier(gamma0_bundled, model_t1, np.linspace(model_t1.m0, 3.3, 9))
    slope = frontier_slope(gamma0_bundled, model_t1)
    for sigma, m in pts:
        assert abs(m - (model_t1.m0 + slope * sigma)) <= 1e-10


def test_optimal_control_trivial_zeros(model_t1, riccati_600, stabs_t1, gamma0_bundled):
    xi, _ = xi_eta_star(gamma0_bundled, model_t1, 2.255)
    on_target = xi * np.exp(-model_t1.r * (model_t1.T - 0.4))
    a = optimal_control(model_t1, riccati_600, stabs_t1, xi, 0.4, on_target, [4.0, 9.0])
    assert np.allclose(a, 0.0, atol=1e-12)
    a0 = optimal_control(model_t1, riccati_600, stabs_t1, xi, 0.4, 1.9, [0.0, 0.0])
    assert np.all(a0 == 0.0)


def test_optimal_control_terminal_time(model_t1, riccati_600, stabs_t1, gamma0_bundled):
    # psi(0) = 0 so the control factor at t = T is just theta
    xi, _ = xi_eta_star(gamma0_bundled, model_t1, 2.255)
    V = np.array([9.0, 4.0])
    a = optimal_control(model_t1, riccati_600, stabs_t1, xi, model_t1.T, 1.8, V)
    expect = -model_t1.theta * np.sqrt(V) * (1.8 - xi)
    assert np.allclose(a, expect, rtol=1e-12)


def test_wealth_riskless_compounding(monkeypatch):
    # theta = 0, m = m0: the strategy is identically zero and wealth
    # compounds at the riskless rate
    m = small_model(theta=[0.0])
    stabs = m.build_stabilizers()
    sol = solve_riccati_adams(m, stabs, 50)
    grid = Grid(1.0, 50)
    ens = simulate_variance_paths(m, stabs, grid, 30, seed=1)
    monkeypatch.setattr(markowitz, "_GAMMA0_REFINE", 0)
    g0 = gamma0(m, sol, stabs)
    xi, eta = xi_eta_star(g0, m, m.m0)
    wealth = simulate_wealth(m, ens, sol, stabs, xi)
    assert np.max(np.abs(wealth.alpha_paths)) == 0.0
    expected = m.x0 * (1.0 + m.r * grid.dt) ** grid.n
    assert np.max(np.abs(wealth.terminal - expected)) <= 1e-12
    assert np.var(wealth.terminal, ddof=1) <= 1e-25


def test_affine_terminal_matches_wealth_scheme():
    # X_T = A_T + xi* B_T reproduces the full Euler scheme for any target,
    # and the scheme hands out the same (A_T, B_T) bit for bit; the error
    # is measured against the ensemble's scale because X_T itself can
    # pass through zero
    m = small_model()
    stabs = m.build_stabilizers()
    grid = Grid(1.0, 100)
    sol = solve_riccati_adams(m, stabs, grid.n)
    ens = simulate_variance_paths(m, stabs, grid, 200, seed=12, initial="fixed")
    g0 = gamma0(m, sol, stabs)
    [(A, B)] = wealth_pairs(m, sol, stabs, [ens])
    m_grid = frontier_m_grid(m, 8)
    for target in (m.m0, m_grid[len(m_grid) // 2], m_grid[-1]):
        xi, _ = xi_eta_star(g0, m, float(target))
        wealth = simulate_wealth(m, ens, sol, stabs, xi)
        assert np.array_equal(wealth.A_T, A) and np.array_equal(wealth.B_T, B)
        ref = wealth.terminal
        assert np.max(np.abs(A + xi * B - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("M", [2100, 40])
def test_wealth_bits_do_not_depend_on_the_cpu_count(model_t1, stabs_t1, monkeypatch, pool_sizes,
                                                    M):
    # the recursion steps a chunk's 512-path tiles in path order on the
    # calling thread, in one map per chunk, sized by its first block's 64
    # steps, while the engine's assets share the stream's pool: eight CPUs
    # give the wealth and strategy bits of one, with five tiles (M = 2100)
    # or one (M = 40), also under a short switch interval
    grid = Grid(1.0, 90)
    sol = solve_riccati_adams(model_t1, stabs_t1, grid.n)
    maps, real = [], markowitz._mapped
    monkeypatch.setattr(markowitz, "_mapped", lambda shape: maps.append(shape) or real(shape))
    monkeypatch.setattr(simulate, "_BLAS_THREADS", 1)
    X, alpha_paths = np.empty((M, grid.n + 1)), np.empty((M, 2, grid.n))

    def store(lo, tile, x, alpha, scratch):
        X[tile, lo : lo + len(x)] = x.T
        alpha_paths[tile, :, lo : lo + alpha.shape[1]] = alpha.transpose(2, 0, 1)

    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 8):
            monkeypatch.setattr(simulate, "_cpu_count", lambda cpus=cpus: cpus)
            [(A, B)] = wealth_pairs(model_t1, sol, stabs_t1, stream(
                model_t1, stabs_t1, grid, M, 17, initial="fixed"), 3.0, store)
            runs.append((A, B, X.copy(), alpha_paths.copy()))
    finally:
        sys.setswitchinterval(interval)
    assert pool_sizes == [8]
    assert maps == [((2 * 2 + 5) * 64 * markowitz._WEALTH_TILE,)] * 2   # one map per chunk
    for one, pooled in zip(*runs):
        assert np.array_equal(one, pooled)


def test_wealth_stream_runs_on_its_engine_pool(model_t1, stabs_t1, monkeypatch, pool_sizes):
    # a two-worker stream of two chunks starts one pool, the engine's, and
    # the wealth recursion, on the calling thread, keeps the bits of one CPU
    grid = Grid(1.0, 20)
    sol = solve_riccati_adams(model_t1, stabs_t1, grid.n)
    monkeypatch.setattr(simulate, "_BLAS_THREADS", 1)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
    M = simulate._CHUNK_PATHS + 5
    pairs = wealth_pairs(model_t1, sol, stabs_t1, stream(
        model_t1, stabs_t1, grid, M, 9, initial="fixed"))
    assert pool_sizes == [2]
    assert [len(A) for A, _ in pairs] == [simulate._CHUNK_PATHS, 5]
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 1)
    serial = wealth_pairs(model_t1, sol, stabs_t1, stream(
        model_t1, stabs_t1, grid, M, 9, initial="fixed"))
    for got, want in zip(pairs, serial, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_wealth_scheme_matches_a_direct_euler_loop(model_t1, stabs_t1):
    # an Euler loop written from the public optimal_control and
    # correlate_asset_brownian, sharing no code with the blocked step of
    # simulate_wealth.  Errors are measured against the ensemble's scale:
    # max |X| for the wealth, and max |X| times the largest gain
    # |coef| sqrt(V) for the strategy, whose own size vanishes at m0
    grid = Grid(1.0, 90)
    sol = solve_riccati_adams(model_t1, stabs_t1, grid.n)
    ens = simulate_variance_paths(model_t1, stabs_t1, grid, 150, seed=31, initial="fixed")
    dB = correlate_asset_brownian(ens, model_t1)
    coef = control_coefficient(model_t1, sol, stabs_t1, grid.times[:-1])
    gain_scale = np.max(np.abs(coef)) * np.sqrt(np.max(ens.V))
    g0 = gamma0(model_t1, sol, stabs_t1)
    m_grid = frontier_m_grid(model_t1, 8)
    for target in (model_t1.m0, m_grid[len(m_grid) // 2], m_grid[-1]):
        xi, _ = xi_eta_star(g0, model_t1, float(target))
        wealth = simulate_wealth(model_t1, ens, sol, stabs_t1, xi)
        X = np.full(ens.M, model_t1.x0)
        for k, t in enumerate(grid.times[:-1]):
            V = ens.V[:, :, k]
            alpha = optimal_control(model_t1, sol, stabs_t1, xi, t, X, V)     # (M, d)
            scale = np.max(np.abs(X))
            assert np.max(np.abs(wealth.alpha_paths[:, :, k] - alpha)) <= 1e-12 * gain_scale * scale
            drift = model_t1.r * X + (alpha * np.sqrt(np.maximum(V, 0.0))) @ model_t1.theta
            X = X + drift * grid.dt + np.sum(alpha * dB[:, :, k], axis=1)
            assert np.max(np.abs(wealth.X[:, k + 1] - X)) <= 1e-12 * np.max(np.abs(X))


def test_affine_terminal_riskless_compounding():
    # theta = 0: no risky position, so B_T = 0 and A_T is the bank account
    m = small_model(theta=[0.0])
    stabs = m.build_stabilizers()
    grid = Grid(1.0, 50)
    sol = solve_riccati_adams(m, stabs, grid.n)
    ens = simulate_variance_paths(m, stabs, grid, 30, seed=1)
    [(A, B)] = wealth_pairs(m, sol, stabs, [ens])
    assert np.all(B == 0.0)
    assert np.max(np.abs(A - m.x0 * (1.0 + m.r * grid.dt) ** grid.n)) <= 1e-12


def test_non_finite_wealth_rejected():
    # finite but huge variance paths make the wealth overflow in a few steps
    import dataclasses

    m = small_model()
    stabs = m.build_stabilizers()
    grid = Grid(1.0, 50)
    sol = solve_riccati_adams(m, stabs, grid.n)
    ens = simulate_variance_paths(m, stabs, grid, 30, seed=1, initial="fixed")
    huge = dataclasses.replace(ens, V=ens.V * 1e300)
    with pytest.raises(NonFiniteError, match="terminal wealth"):
        wealth_pairs(m, sol, stabs, [huge])
    with pytest.raises(NonFiniteError, match="wealth paths"):
        simulate_wealth(m, huge, sol, stabs, 3.0)


def test_wealth_schemes_reject_v_only_ensemble(model_t1, stabs_t1):
    grid = Grid(1.0, 30)
    sol = solve_riccati_adams(model_t1, stabs_t1, grid.n)
    ens = simulate_variance_paths(model_t1, stabs_t1, grid, 5, seed=1, increments=False)
    with pytest.raises(ParameterError, match="V only"):
        simulate_wealth(model_t1, ens, sol, stabs_t1, 3.0)


def test_affine_terminal_grid_mismatch_rejected(model_t1, stabs_t1, riccati_600):
    ens = simulate_variance_paths(model_t1, stabs_t1, Grid(1.0, 30), 5, seed=1)
    with pytest.raises(ParameterError, match="psi grid"):
        simulate_wealth(model_t1, ens, riccati_600, stabs_t1, 3.0)
    # the recursion checks each chunk of a block stream itself
    paths = stream(model_t1, stabs_t1, Grid(1.0, 30), 5, seed=1)
    with pytest.raises(ParameterError, match="psi grid"):
        wealth_pairs(model_t1, riccati_600, stabs_t1, paths)


def test_laplace_ensemble_grid_mismatch_rejected(model_t1, stabs_t1):
    # the Monte Carlo side integrates the given paths with grid.dt
    ens = simulate_variance_paths(model_t1, stabs_t1, Grid(1.0, 30), 5, seed=1,
                                  increments=False)
    with pytest.raises(ParameterError, match="grid"):
        laplace_affine_check(model_t1, stabs_t1, [-0.05, -0.05], Grid(1.0, 60), 5, seed=1,
                             ensemble=ens)


def test_wealth_mean_tracks_target(model_t1, stabs_t1, riccati_600, ensemble_5000_fixed):
    ms = solve_markowitz(model_t1, riccati_600, stabs_t1, 2.255)
    wealth = simulate_wealth(model_t1, ensemble_5000_fixed, riccati_600, stabs_t1, ms.xi_star)
    se = wealth.X[:, -1].std(ddof=1) / np.sqrt(wealth.X.shape[0])
    assert abs(np.mean(wealth.terminal) - 2.255) <= 3.0 * se


def test_laplace_u_zero_exact(model_t1, stabs_t1):
    rep = laplace_affine_check(model_t1, stabs_t1, [0.0, 0.0], Grid(1.0, 30), 50, seed=3)
    assert rep.mc_value == 1.0 and rep.beta == 0.0 and rep.mc_se == 0.0
    assert rep.closed_form == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


@pytest.fixture(scope="module")
def laplace_exponents(model_t1, stabs_t1):
    """Per-path exponents u^T int V of 1000 fixed-start paths on a T = 1 grid."""
    grid, u = Grid(1.0, 50), np.array([-0.05, -0.05])
    ens = simulate_variance_paths(model_t1, stabs_t1, grid, 1000, seed=5, initial="fixed",
                                  increments=False)
    [total] = folded_integrals([ens])
    return grid, u, total.T @ u


def test_laplace_control_has_its_exact_mean(model_t1, laplace_exponents):
    # from V0 = x_inf the scheme's drift is linear and its noise has mean
    # 0, so the exponent has mean u^T x_inf T in the discrete scheme too
    grid, u, X = laplace_exponents
    C = X - u @ model_t1.x_inf * grid.T
    assert abs(np.mean(C)) <= 3.0 * np.std(C, ddof=1) / np.sqrt(len(C))


def test_laplace_control_shrinks_the_se(model_t1, stabs_t1, laplace_exponents):
    # the check's estimate is the mean of Y - beta C with beta the
    # regression slope of Y = exp(X) on the control C, and its SE is at
    # least 50 times the plain one's smaller (about 550 times here)
    grid, u, X = laplace_exponents
    rep = laplace_affine_check(model_t1, stabs_t1, u, grid, len(X), seed=5)
    Y, C = np.exp(X), X - u @ model_t1.x_inf * grid.T
    assert rep.beta == pytest.approx(np.cov(Y, C)[0, 1] / np.var(C, ddof=1), rel=1e-9)
    R = Y - rep.beta * C
    assert rep.mc_value == pytest.approx(np.mean(R), rel=1e-14)
    assert rep.mc_se == pytest.approx(np.std(R, ddof=1) / np.sqrt(len(R)), rel=1e-9)
    assert 50.0 * rep.mc_se <= np.std(Y, ddof=1) / np.sqrt(len(Y))
    assert rep.passed


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_laplace_non_finite_sample_rejected(model_t1, stabs_t1, monkeypatch, bad):
    spoil_integrals(monkeypatch, bad)
    with pytest.raises(NonFiniteError, match="Laplace samples is not finite"):
        laplace_affine_check(model_t1, stabs_t1, [-0.05, -0.05], Grid(1.0, 30), 50, seed=3)


def test_laplace_deterministic_variance(stabs_t1):
    m = bundled_model(T=1.0)
    nu0 = MarketModel(d=2, alpha=m.alpha, lam=m.lam, nu=[0.0, 0.0], rho=m.rho,
                      theta=m.theta, mu0=m.mu0, c=m.c, r=m.r, x0=m.x0, T=1.0)
    rep = laplace_affine_check(nu0, stabs_t1, [-0.05, -0.05], Grid(1.0, 400), 40, seed=3)
    # V == x_inf: both sides are exp(u . x_inf T) up to discretization
    expect = np.exp(-0.05 * 15.0)
    assert rep.mc_se == 0.0
    assert rep.mc_value == pytest.approx(expect, rel=1e-12)
    assert rep.closed_form == pytest.approx(expect, rel=1e-7)
    assert rep.passed


def test_laplace_row_integral_is_numpy_trapezoid(model_t1, stabs_t1):
    # the row-by-row integral over the time-major V, block by block,
    # repeats the rounding of np.trapezoid along the time axis of the
    # (M, d, n+1) view
    ens = simulate_variance_paths(model_t1, stabs_t1, Grid(1.0, 130), 333, seed=2,
                                  initial="fixed")
    [rows] = folded_integrals([ens])
    ref = np.trapezoid(ens.V, dx=ens.grid.dt, axis=2)
    assert np.array_equal(rows.T, ref)
    u = np.array([-0.05, -0.05])
    assert np.array_equal(np.exp(rows.T @ u), np.exp(ref @ u))


def test_laplace_own_ensemble_equals_given_one(model_t1, stabs_t1):
    # the V-only ensemble the check builds itself gives the same estimate
    # as a full ensemble of the same seed
    grid = Grid(1.0, 40)
    ens = simulate_variance_paths(model_t1, stabs_t1, grid, 150, seed=6, initial="fixed")
    own = laplace_affine_check(model_t1, stabs_t1, [-0.05, -0.05], grid, 150, seed=6)
    given = laplace_affine_check(model_t1, stabs_t1, [-0.05, -0.05], grid, 150, seed=6,
                                 ensemble=ens)
    assert (own.mc_value, own.mc_se) == (given.mc_value, given.mc_se)


def test_laplace_closed_form_positive_u_rejected(model_t1, stabs_t1):
    with pytest.raises(ParameterError):
        laplace_affine_check(model_t1, stabs_t1, [0.01, -0.05], Grid(1.0, 30), 10, seed=1)


def test_solve_markowitz_bundle(model_t1, riccati_600, stabs_t1):
    ms = solve_markowitz(model_t1, riccati_600, stabs_t1, 2.255)
    assert ms.xi_star == pytest.approx(ms.m - ms.eta_star, rel=1e-14)
    assert ms.v_of_m == pytest.approx(
        variance_of_terminal(ms.gamma0, model_t1, ms.m), rel=1e-14)


@pytest.mark.parametrize("M", [500, 2100])
def test_wealth_recursion_keeps_the_bits_of_the_step_loop(model_t1, stabs_t1, monkeypatch, M):
    # the blocked growth factors and A/B rows against the per-step loop,
    # with a reader (simulate_wealth) and without (the fold alone), in
    # one 512-path tile (M = 500) and in five (M = 2100), the engine on
    # eight CPUs
    monkeypatch.setattr(simulate, "_BLAS_THREADS", 1)
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 8)
    grid = Grid(1.0, 150)
    sol = solve_riccati_adams(model_t1, stabs_t1, grid.n)
    ens = simulate_variance_paths(model_t1, stabs_t1, grid, M, seed=23, initial="fixed")
    A, B, X, alpha = stepwise_wealth(model_t1, ens, sol, stabs_t1, 2.5)
    wealth = simulate_wealth(model_t1, ens, sol, stabs_t1, 2.5)
    [terminal] = wealth_pairs(model_t1, sol, stabs_t1, [ens])
    for got, ref in zip((wealth.A_T, wealth.B_T, wealth.X, wealth.alpha_paths, *terminal),
                        (A, B, X, alpha, A, B)):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_step_factors_equal_the_einsum_sums(d, monkeypatch):
    # the wealth fold's per-asset d-sums against np.einsum's, bit for bit
    # (signed zeros too) through A_T, B_T, X and alpha, on the time-major
    # tiles of each block: 512 paths and the rest, in blocks of 64 steps
    # and of 128, whose width the fold's map takes from the first block;
    # einsum sums a one-step block (n = 1 mod 64) of d >= 3 assets in its
    # own unrolled order, so n leaves none here
    assets = dict(alpha=[0.6, 0.7, 0.9], lam=[0.2, 0.3, 0.4], nu=[0.4, 0.3, 0.5],
                  rho=[-0.5, 0.2, -0.7], theta=[0.3, 0.1, 0.25], mu0=[1.0, 1.5, 2.0],
                  c=[0.02, 0.03, 0.04])
    model = MarketModel(d=d, **{k: v[:d] for k, v in assets.items()}, r=0.02, x0=1.0, T=1.0)
    stabs = model.build_stabilizers()
    grid, M = Grid(1.0, 130), 715
    sol = solve_riccati_adams(model, stabs, grid.n)
    rng = np.random.default_rng(17)
    V = rng.standard_normal((d, grid.n + 1, M)).transpose(2, 0, 1)   # negative: zero roots
    dB = (rng.standard_normal((d, grid.n, M)) * np.sqrt(grid.dt)).transpose(2, 0, 1)
    ens = simulate.PathEnsemble(model=model, grid=grid, M=M, V=V, dB=dB)
    refs = stepwise_wealth(model, ens, sol, stabs, 2.5)
    for width in (64, 128):
        monkeypatch.setattr(simulate, "_BLOCK", width)
        wealth = simulate_wealth(model, ens, sol, stabs, 2.5)
        for got, ref in zip((wealth.A_T, wealth.B_T, wealth.X, wealth.alpha_paths), refs,
                            strict=True):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), width


def test_wealth_rejects_a_model_of_another_rho(model_t1, stabs_t1):
    # the ensemble's dB holds its model's rho, so a wealth run at another
    # rho would mix two correlations
    grid = Grid(1.0, 20)
    sol = solve_riccati_adams(model_t1, stabs_t1, grid.n)
    ens = simulate_variance_paths(model_t1, stabs_t1, grid, 30, seed=1, initial="fixed")
    other = MarketModel(d=2, alpha=model_t1.alpha, lam=model_t1.lam, nu=model_t1.nu,
                        rho=[-0.7, -0.5], theta=model_t1.theta, mu0=model_t1.mu0,
                        c=model_t1.c, r=model_t1.r, x0=model_t1.x0, T=model_t1.T)
    with pytest.raises(ParameterError, match="rho"):
        simulate_wealth(other, ens, sol, stabs_t1, 2.5)
