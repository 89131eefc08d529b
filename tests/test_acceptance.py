"""Acceptance suite: the quantitative exit criteria of the build.

Each test prints one line, e.g.

    ACCEPTANCE 3 (fake stationarity): PASS -- mean cov (1.000, 1.000) ...

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight
ensembles are shared session fixtures; total runtime is a few minutes
on two cores.
"""

import numpy as np
import pytest

from conftest import stationarity, stream, wealth_pairs
from oracles import resolvent_equation_residual
from voltmark import markowitz
from voltmark.kernels import (
    ResolventSpec,
    fractional_kernel,
    mittag_leffler,
)
from voltmark.markowitz import (
    efficient_frontier,
    frontier_slope,
    gamma0,
    laplace_affine_check,
    optimal_control,
    simulate_wealth,
    variance_of_terminal,
    xi_eta_star,
)
from voltmark.model import Grid, MarketModel, bundled_model
from voltmark.montecarlo import (
    frontier_experiment,
    frontier_m_grid,
    terminal_bootstrap,
)
from voltmark.riccati import riccati_bound, solve_riccati_adams
from voltmark.stabilizer import build_stabilizer, functional_equation_residual

TARGET_M = 2.255


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if passed else 'FAIL'} -- {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_terminal_wealth_mean(model_t1, stabs_t1, riccati_600,
                                          ensemble_5000_fixed):
    """MC mean of X_T within 3 SE of m = 2.255 (M=5000, n=600, T=1)."""
    g0 = gamma0(model_t1, riccati_600, stabs_t1)
    xi, _ = xi_eta_star(g0, model_t1, TARGET_M)
    wealth = simulate_wealth(model_t1, ensemble_5000_fixed, riccati_600, stabs_t1, xi)
    mean, mean_se, _, _ = terminal_bootstrap(wealth.terminal)
    z = abs(mean - TARGET_M) / mean_se
    _report(1, "terminal-wealth mean", z <= 3.0,
            f"E[X_T] = {mean:.5f} vs m = {TARGET_M} (SE {mean_se:.5f}, z = {z:.2f})")


def test_criterion_2_frontier_consistency(stabs_t1, grid_600):
    """MC Var(X_T) vs V(m) within max(3 SE, 5% rel) at M = 5000 per
    point for T in {0.5, 1.0}.

    The reported long horizon T = 5 is held to 10% relative.  There the
    terminal wealth is so heavy-tailed (lognormal-type, excess kurtosis
    ~70) that a single M = 5000 variance estimate carries ~14% noise, so
    the T = 5 row pools M = 50000 paths and allows the batch-means SE
    (10 batches of 5000) next to the 10% floor; per-path plug-in SEs
    are badly undersized at this kurtosis.
    """
    lines = []
    ok = True
    for T, rel_tol in ((0.5, 0.05), (1.0, 0.05)):
        model = bundled_model(T=T)
        if T == 1.0:
            # the paths of the session's fixed-start ensemble, bit for bit
            points = frontier_experiment(
                model, frontier_m_grid(model, 8), 5000, seed=20240,
                grid=grid_600, stabs=stabs_t1)
        else:
            points = frontier_experiment(
                model, frontier_m_grid(model, 8), 5000, seed=52 + int(10 * T),
                grid=Grid(T, 600))
        worst = 0.0
        for p in points:
            gap = abs(p.v_mc - p.v_theory)
            tol = max(3.0 * p.v_mc_se, rel_tol * p.v_theory)
            ok &= gap <= tol
            if p.v_theory > 0:
                worst = max(worst, gap / p.v_theory)
        lines.append(f"T={T:g} worst rel gap {worst:.1%}")

    model5 = bundled_model(T=5.0)
    stabs5 = model5.build_stabilizers()
    grid5 = Grid(5.0, 600)
    sol5 = solve_riccati_adams(model5, stabs5, 600)
    g0_5 = gamma0(model5, sol5, stabs5)
    # X_T = A + xi* B, chunk by chunk of the block stream
    parts = wealth_pairs(model5, sol5, stabs5, stream(
        model5, stabs5, grid5, 50000, seed=502, initial="fixed"))
    A5 = np.concatenate([a for a, _ in parts])
    B5 = np.concatenate([b for _, b in parts])
    worst5 = 0.0
    for m in frontier_m_grid(model5, 8):
        xi, _ = xi_eta_star(g0_5, model5, float(m))
        chunks = (A5 + xi * B5).reshape(10, 5000)
        per_batch = chunks.var(axis=1, ddof=1)
        v_mc = float(np.mean(per_batch))
        batch_se = float(np.std(per_batch, ddof=1) / np.sqrt(10))
        v_th = variance_of_terminal(g0_5, model5, float(m))
        gap = abs(v_mc - v_th)
        ok &= gap <= max(3.0 * batch_se, 0.10 * v_th)
        worst5 = max(worst5, gap / v_th)
    lines.append(f"T=5 worst rel gap {worst5:.1%} (pooled M=50000)")
    _report(2, "frontier consistency", ok, "; ".join(lines))


def test_criterion_3_fake_stationarity(model_t1, ensemble_10000_stationary):
    """Sample mean of V within 3 SE of x_inf at >= 99% of times and sample
    variance within 3 SE of v0 at >= 95% (M = 10000)."""
    rep = stationarity([ensemble_10000_stationary], model_t1)
    detail = (f"mean coverage {tuple(float(x) for x in rep.mean_coverage)} (need >= 0.99), "
              f"variance coverage {tuple(float(x) for x in rep.var_coverage)} (need >= 0.95); "
              f"targets x_inf = (10, 5), v0 = (0.016, 0.01536)")
    _report(3, "fake stationarity", rep.passed, detail)


def test_criterion_4_riccati_solver(model_t1, stabs_t1, riccati_600, picard_4800):
    """theta = 0 gives psi == 0; psi <= 1e-12 in both figure regimes;
    Adams(600) vs Picard(4800) < 1e-3; resolvent bound dominates."""
    zero = MarketModel(d=2, alpha=model_t1.alpha, lam=model_t1.lam, nu=model_t1.nu,
                       rho=model_t1.rho, theta=[0.0, 0.0], mu0=model_t1.mu0,
                       c=model_t1.c, r=model_t1.r, x0=model_t1.x0, T=1.0)
    a_ok = bool(np.all(solve_riccati_adams(zero, stabs_t1, 600).psi == 0.0))

    regime_a = MarketModel(d=2, alpha=[0.6, 0.9], lam=[0.2, 0.2], nu=[0.40, 0.32],
                           rho=[-0.45, -0.30], theta=[3.6, 3.0], mu0=[2.0, 1.0],
                           c=[0.01, 0.03], r=0.02, x0=2.0, T=1.0)
    stabs_a = regime_a.build_stabilizers()
    sol_a = solve_riccati_adams(regime_a, stabs_a, 600)
    b_ok = bool(np.all(sol_a.psi <= 1e-12) and np.all(riccati_600.psi <= 1e-12))

    sup_diff = float(np.max(np.abs(riccati_600.psi - picard_4800.psi[:, ::8])))
    c_ok = sup_diff < 1e-3

    d_ok = True
    for mdl, st, sol in ((model_t1, stabs_t1, riccati_600), (regime_a, stabs_a, sol_a)):
        bounds = riccati_bound(mdl, st, 1.0)
        finite = np.isfinite(bounds)
        d_ok &= bool(np.all(np.max(np.abs(sol.psi), axis=1)[finite] <= bounds[finite]))

    _report(4, "Riccati solver", a_ok and b_ok and c_ok and d_ok,
            f"(a) theta=0 exact: {a_ok}; (b) non-positive both regimes: {b_ok}; "
            f"(c) Adams vs Picard sup diff {sup_diff:.2e} < 1e-3; (d) bound dominates: {d_ok}")


def test_criterion_5_special_functions(model_t1):
    """E_1 vs exp to 1e-12 on [0,10]; E_1/2(-1) vs erfc identity to 1e-8;
    resolvent defining-equation residual <= 1e-6."""
    x = np.linspace(0.0, 10.0, 401)
    e1_err = float(np.max(np.abs(mittag_leffler(1.0, -x) - np.exp(-x))))
    half_err = abs(mittag_leffler(0.5, -1.0) - 0.42758357615580700441)
    res = max(
        resolvent_equation_residual(
            ResolventSpec(fractional_kernel(model_t1.alpha[i]), model_t1.lam[i]), 1.0, 8000)
        for i in range(2)
    )
    passed = e1_err <= 1e-12 and half_err <= 1e-8 and res <= 1e-6
    _report(5, "special functions", passed,
            f"E_1 err {e1_err:.1e} <= 1e-12; E_1/2(-1) err {half_err:.1e} <= 1e-8; "
            f"resolvent residual {res:.1e} <= 1e-6")


def test_criterion_6_stabilizer(model_t1, stabs_t1):
    """Functional-equation residual <= 1e-3 on [0,1] for both assets;
    scaling-law identity to 1e-10; sigma(0) = 0."""
    residuals = [float(functional_equation_residual(
        stabs_t1[i], model_t1.lam[i], model_t1.c[i], 1.0, 50).max()) for i in range(2)]
    zero_ok = all(st.eval(0.0) == 0.0 for st in stabs_t1)
    scale_err = 0.0
    t = np.linspace(0.0, 1.0, 21)
    for i, st in enumerate(stabs_t1):
        unit = build_stabilizer(st.alpha, 1.0, 1.0)
        ref = (np.sqrt(st.c) * st.lam ** (1.0 - 1.0 / (2.0 * st.alpha))
               * unit.eval(st.lam ** (1.0 / st.alpha) * t))
        scale_err = max(scale_err, float(np.max(np.abs(st.eval(t) - ref))))
    passed = max(residuals) <= 1e-3 and scale_err <= 1e-10 and zero_ok
    _report(6, "stabilizer", passed,
            f"residuals {residuals[0]:.2e}, {residuals[1]:.2e} <= 1e-3; "
            f"scaling-law err {scale_err:.1e} <= 1e-10; sigma(0) = 0: {zero_ok}")


def test_criterion_7_gamma0_sanity(model_t1, stabs_t1, riccati_600, monkeypatch):
    """0 < Gamma0 < e^(2rT); the two integral forms agree to 1e-6 relative;
    theta = 0 gives exactly e^(2rT)."""
    monkeypatch.setattr(markowitz, "_GAMMA0_TOL", 1e-6)
    val = gamma0(model_t1, riccati_600, stabs_t1)
    in_range = 0.0 < val < np.exp(2 * model_t1.r * model_t1.T)
    monkeypatch.setattr(markowitz, "_GAMMA0_REFINE", 0)
    raw = gamma0(model_t1, riccati_600, stabs_t1)
    zero = MarketModel(d=2, alpha=model_t1.alpha, lam=model_t1.lam, nu=model_t1.nu,
                       rho=model_t1.rho, theta=[0.0, 0.0], mu0=model_t1.mu0,
                       c=model_t1.c, r=model_t1.r, x0=model_t1.x0, T=1.0)
    sol0 = solve_riccati_adams(zero, stabs_t1, 64)
    exact = gamma0(zero, sol0, stabs_t1) == np.exp(0.04)
    _report(7, "Gamma0 sanity", in_range and exact,
            f"Gamma0 = {val:.8f} in (0, {np.exp(0.04):.6f}); forms agree at n=600 "
            f"({raw:.8f}) and refined; theta=0 exact: {exact}")


def test_criterion_8_laplace_oracle(model_t1, stabs_t1, grid_600):
    """MC estimate of E[exp(int V^T u ds)] vs the exponential-affine closed
    form within 3 MC SE at u = (-0.05, -0.05), M = 20000; u = 0 exact."""
    rep0 = laplace_affine_check(model_t1, stabs_t1, [0.0, 0.0], Grid(1.0, 20), 10, seed=3)
    exact0 = rep0.mc_value == 1.0 and abs(rep0.closed_form - 1.0) <= 1e-12
    rep = laplace_affine_check(model_t1, stabs_t1, [-0.05, -0.05], grid_600,
                               20000, seed=8128)
    _report(8, "Laplace oracle", rep.passed and exact0,
            f"MC {rep.mc_value:.6f} +- {rep.mc_se:.6f} vs closed {rep.closed_form:.6f} "
            f"(z = {rep.z_score:.2f} <= 3); u = 0 exact: {exact0}")


def test_criterion_9_closed_form_identities(model_t1, stabs_t1, riccati_600):
    """xi* = m - eta*; V(m0) = 0; frontier collinear to 1e-10; alpha* = 0
    on-target or at V = 0."""
    g0 = gamma0(model_t1, riccati_600, stabs_t1)
    xi, eta = xi_eta_star(g0, model_t1, TARGET_M)
    id_ok = abs(xi - (TARGET_M - eta)) <= 1e-12
    v0_ok = variance_of_terminal(g0, model_t1, model_t1.m0) == 0.0
    pts = efficient_frontier(g0, model_t1, np.linspace(model_t1.m0, 3.4, 9))
    slope = frontier_slope(g0, model_t1)
    col_err = max(abs(m - (model_t1.m0 + slope * s)) for s, m in pts)
    on_target = xi * np.exp(-model_t1.r * (model_t1.T - 0.4))
    a1 = optimal_control(model_t1, riccati_600, stabs_t1, xi, 0.4, on_target, [4.0, 9.0])
    a2 = optimal_control(model_t1, riccati_600, stabs_t1, xi, 0.4, 1.7, [0.0, 0.0])
    zero_ok = bool(np.allclose(a1, 0.0, atol=1e-12) and np.all(a2 == 0.0))
    passed = id_ok and v0_ok and col_err <= 1e-10 and zero_ok
    _report(9, "closed-form identities", passed,
            f"xi* = m - eta* ({id_ok}); V(m0) = 0 ({v0_ok}); "
            f"collinearity err {col_err:.1e} <= 1e-10; alpha* zeros ({zero_ok})")
