"""Closed-form Markowitz quantities, the wealth scheme, and the Laplace check."""

import numpy as np
import pytest

from conftest import small_model
from voltmark.kernels import ParameterError
from voltmark.markowitz import (
    ConsistencyError,
    _trapezoid_rows,
    affine_wealth_terminal,
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


def test_gamma0_theta_zero_exact(stabs_t1):
    m = zero_theta_model()
    sol = solve_riccati_adams(m, stabs_t1, 64)
    assert gamma0(m, sol, stabs_t1, refine_to=0) == np.exp(2 * m.r * m.T)


def test_gamma0_bounds_bundled(gamma0_bundled, model_t1):
    assert 0.0 < gamma0_bundled < np.exp(2 * model_t1.r * model_t1.T)


def test_gamma0_two_forms_agree_at_600(model_t1, riccati_600, stabs_t1):
    # no internal refinement: the raw n = 600 solution already puts the
    # fractional-integral and direct-quadrature forms within 1e-6
    val = gamma0(model_t1, riccati_600, stabs_t1, refine_to=0, check_tol=1e-6)
    assert 0.0 < val < np.exp(0.04)


def test_gamma0_inconsistency_detectable(model_t1, riccati_600, stabs_t1):
    with pytest.raises(ConsistencyError):
        gamma0(model_t1, riccati_600, stabs_t1, refine_to=0, check_tol=1e-12)


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


def test_wealth_riskless_compounding():
    # theta = 0, m = m0: the strategy is identically zero and wealth
    # compounds at the riskless rate
    m = small_model(theta=[0.0])
    stabs = m.build_stabilizers()
    sol = solve_riccati_adams(m, stabs, 50)
    grid = Grid(1.0, 50)
    ens = simulate_variance_paths(m, stabs, grid, 30, seed=1)
    g0 = gamma0(m, sol, stabs, refine_to=0)
    xi, eta = xi_eta_star(g0, m, m.m0)
    wealth = simulate_wealth(m, ens, sol, stabs, xi)
    assert np.max(np.abs(wealth.alpha_paths)) == 0.0
    expected = m.x0 * (1.0 + m.r * grid.dt) ** grid.n
    assert np.max(np.abs(wealth.terminal - expected)) <= 1e-12
    assert wealth.terminal_var <= 1e-25


def test_affine_terminal_matches_wealth_scheme():
    # X_T = A_T + xi* B_T reproduces the full Euler scheme for any target;
    # the error is measured against the ensemble's scale because X_T
    # itself can pass through zero
    m = small_model()
    stabs = m.build_stabilizers()
    grid = Grid(1.0, 100)
    sol = solve_riccati_adams(m, stabs, grid.n)
    ens = simulate_variance_paths(m, stabs, grid, 200, seed=12, initial="fixed")
    g0 = gamma0(m, sol, stabs)
    A, B = affine_wealth_terminal(m, ens, sol, stabs)
    m_grid = frontier_m_grid(m, 8)
    for target in (m.m0, m_grid[len(m_grid) // 2], m_grid[-1]):
        xi, _ = xi_eta_star(g0, m, float(target))
        ref = simulate_wealth(m, ens, sol, stabs, xi).terminal
        assert np.max(np.abs(A + xi * B - ref)) <= 1e-12 * np.max(np.abs(ref))


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
    A, B = affine_wealth_terminal(m, ens, sol, stabs)
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
        affine_wealth_terminal(m, huge, sol, stabs)
    with pytest.raises(NonFiniteError, match="wealth paths"):
        simulate_wealth(m, huge, sol, stabs, 3.0)


def test_wealth_schemes_reject_v_only_ensemble(model_t1, stabs_t1):
    grid = Grid(1.0, 30)
    sol = solve_riccati_adams(model_t1, stabs_t1, grid.n)
    ens = simulate_variance_paths(model_t1, stabs_t1, grid, 5, seed=1, increments=False)
    with pytest.raises(ParameterError, match="V only"):
        simulate_wealth(model_t1, ens, sol, stabs_t1, 3.0)
    with pytest.raises(ParameterError, match="V only"):
        affine_wealth_terminal(model_t1, ens, sol, stabs_t1)


def test_affine_terminal_grid_mismatch_rejected(model_t1, stabs_t1, riccati_600):
    ens = simulate_variance_paths(model_t1, stabs_t1, Grid(1.0, 30), 5, seed=1)
    with pytest.raises(ParameterError):
        affine_wealth_terminal(model_t1, ens, riccati_600, stabs_t1)


def test_wealth_mean_tracks_target(model_t1, stabs_t1, riccati_600, ensemble_5000_fixed):
    ms = solve_markowitz(model_t1, riccati_600, stabs_t1, 2.255)
    wealth = simulate_wealth(model_t1, ensemble_5000_fixed, riccati_600, stabs_t1, ms.xi_star)
    se = wealth.X[:, -1].std(ddof=1) / np.sqrt(wealth.X.shape[0])
    assert abs(wealth.terminal_mean - 2.255) <= 3.0 * se


def test_laplace_u_zero_exact(model_t1, stabs_t1):
    rep = laplace_affine_check(model_t1, stabs_t1, [0.0, 0.0], Grid(1.0, 30), 50, seed=3)
    assert rep.mc_value == 1.0
    assert rep.closed_form == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


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
    # the row-by-row integral over the time-major V repeats the rounding
    # of np.trapezoid along the time axis of the (M, d, n+1) view
    ens = simulate_variance_paths(model_t1, stabs_t1, Grid(1.0, 130), 333, seed=2,
                                  initial="fixed")
    rows = _trapezoid_rows(ens.V, ens.grid.dt)
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
