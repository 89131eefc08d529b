"""Riccati-Volterra solver against the Picard oracle and the resolvent bound."""

import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import small_model
from voltmark import riccati
from voltmark.markowitz import gamma0
from voltmark.model import Grid, MarketModel, bundled_model
from voltmark.riccati import (
    BlowupError,
    _rhs_tables,
    admissibility_constant,
    check_admissibility,
    oracle_volterra_picard,
    riccati_bound,
    solve_laplace_riccati,
    solve_riccati_adams,
)
from voltmark.stabilizer import ConstantStabilizer


def regime_a_model():
    """Large risk premia with moderate correlations (|rho| <= 1/2)."""
    return MarketModel(
        d=2, alpha=[0.6, 0.9], lam=[0.2, 0.2], nu=[0.40, 0.32],
        rho=[-0.45, -0.30], theta=[3.6, 3.0], mu0=[2.0, 1.0],
        c=[0.01, 0.03], r=0.02, x0=2.0, T=1.0,
    )


def test_rhs_at_zero_psi(model_t1, stabs_t1):
    # node j = 7 of n = 10 sits at the reversed time T - t_j = 0.3
    grid = Grid(1.0, 10)
    rhs = _rhs_tables(model_t1, stabs_t1, grid, None, True)
    assert np.allclose(rhs(7, np.zeros(2)), -model_t1.theta**2)
    m0 = bundled_model(T=1.0)
    zero = MarketModel(d=2, alpha=m0.alpha, lam=m0.lam, nu=m0.nu, rho=m0.rho,
                       theta=[0.0, 0.0], mu0=m0.mu0, c=m0.c, r=m0.r, x0=m0.x0, T=1.0)
    rhs_zero = _rhs_tables(zero, stabs_t1, grid, None, True)
    assert np.allclose(rhs_zero(7, np.zeros(2)), 0.0)


def test_rhs_scalar_reduction():
    # d=1, rho=0, constant sigma=1: rhs = -theta^2 - lam psi + nu^2/2 psi^2
    m = small_model(rho=[0.0])
    st = [ConstantStabilizer(1.0)]
    psi = np.array([-0.7])
    val = _rhs_tables(m, st, Grid(1.0, 4), None, True)(2, psi)
    expect = -m.theta[0] ** 2 - m.lam[0] * psi[0] + 0.5 * m.nu[0] ** 2 * psi[0] ** 2
    assert val[0] == pytest.approx(expect, rel=1e-14)


def test_theta_zero_gives_identically_zero(stabs_t1):
    m = bundled_model(T=1.0)
    zero = MarketModel(d=2, alpha=m.alpha, lam=m.lam, nu=m.nu, rho=m.rho,
                       theta=[0.0, 0.0], mu0=m.mu0, c=m.c, r=m.r, x0=m.x0, T=1.0)
    sol = solve_riccati_adams(zero, stabs_t1, 64)
    assert np.all(sol.psi == 0.0)
    orc = oracle_volterra_picard(zero, stabs_t1, 256)
    assert np.all(orc.psi == 0.0)


def test_initial_value_zero(riccati_600):
    assert np.all(riccati_600.psi[:, 0] == 0.0)


def test_nonpositivity_both_figure_regimes(stabs_t1, riccati_600):
    assert np.all(riccati_600.psi <= 1e-12)
    m_a = regime_a_model()
    stabs_a = m_a.build_stabilizers()
    sol_a = solve_riccati_adams(m_a, stabs_a, 600)
    assert np.all(sol_a.psi <= 1e-12)


def test_nonpositivity_super_heston_regime():
    # 1 - 2 rho^2 < 0 but small theta: global, non-positive
    m = MarketModel(d=2, alpha=[0.6, 0.9], lam=[0.2, 0.2], nu=[0.40, 0.32],
                    rho=[-0.75, -0.80], theta=[0.1, 0.12], mu0=[2.0, 1.0],
                    c=[0.01, 0.03], r=0.02, x0=2.0, T=1.0)
    stabs = m.build_stabilizers()
    sol = solve_riccati_adams(m, stabs, 300)
    assert np.all(sol.psi <= 1e-12)
    assert np.all(np.isfinite(sol.psi))


def test_adams_vs_picard_bundled_params(riccati_600, picard_4800):
    diff = np.max(np.abs(riccati_600.psi - picard_4800.psi[:, ::8]))
    assert diff < 1e-3


def test_picard_matches_euler_ode_markovian_edge():
    m = small_model(alpha=[1.0], theta=[0.8], rho=[-0.4], nu=[0.5], lam=[0.3])
    st = [ConstantStabilizer(1.0)]
    orc = oracle_volterra_picard(m, st, 4800)
    n, dt = 4800, 1.0 / 4800
    y, ys = 0.0, [0.0]
    th, rho, nu, lam = 0.8, -0.4, 0.5, 0.3
    for _ in range(n):
        f = -th**2 - 2 * th * rho * nu * y - lam * y + 0.5 * nu**2 * (1 - 2 * rho**2) * y**2
        y += dt * f
        ys.append(y)
    assert np.max(np.abs(orc.psi[0] - np.array(ys))) < 1e-4


def test_grid_refinement_monotone(model_t1, stabs_t1):
    diffs = []
    for n in (150, 300, 600, 1200):
        s1 = solve_riccati_adams(model_t1, stabs_t1, n)
        s2 = solve_riccati_adams(model_t1, stabs_t1, 2 * n)
        diffs.append(np.max(np.abs(s1.psi - s2.psi[:, ::2])))
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_component_decoupling(model_t1, stabs_t1, riccati_600):
    for i in range(2):
        mi = MarketModel(
            d=1, alpha=[model_t1.alpha[i]], lam=[model_t1.lam[i]], nu=[model_t1.nu[i]],
            rho=[model_t1.rho[i]], theta=[model_t1.theta[i]], mu0=[model_t1.mu0[i]],
            c=[model_t1.c[i]], r=model_t1.r, x0=model_t1.x0, T=model_t1.T,
        )
        sol_i = solve_riccati_adams(mi, [stabs_t1[i]], 600)
        assert np.max(np.abs(sol_i.psi[0] - riccati_600.psi[i])) <= 1e-12


def test_bound_theta_zero_and_constant_kernel():
    m = small_model(theta=[0.0])
    st = [ConstantStabilizer(0.5)]
    assert riccati_bound(m, st, 1.0)[0] == 0.0
    # alpha = 1 reduces the resolvent to e^(-lam t)
    m1 = small_model(alpha=[1.0], theta=[0.4], rho=[0.2])
    lam_bar = m1.lam[0]  # rho > 0 leaves lam_bar = lam
    expect = m1.theta[0] ** 2 / lam_bar * (1.0 - np.exp(-lam_bar * 1.0))
    assert riccati_bound(m1, st, 1.0)[0] == pytest.approx(expect, rel=1e-12)


def test_bound_dominates_solution(model_t1, stabs_t1, riccati_600):
    bounds = riccati_bound(model_t1, stabs_t1, 1.0)
    assert np.all(np.max(np.abs(riccati_600.psi), axis=1) <= bounds)
    m_a = regime_a_model()
    stabs_a = m_a.build_stabilizers()
    sol_a = solve_riccati_adams(m_a, stabs_a, 600)
    bounds_a = riccati_bound(m_a, stabs_a, 1.0)
    ok = np.isfinite(bounds_a)
    assert np.all(np.max(np.abs(sol_a.psi), axis=1)[ok] <= bounds_a[ok])


def test_bound_inapplicable_warns():
    # an inapplicable bound (lam_bar <= 0) reads NaN, and warns no more:
    # the solver's guard, its one caller, falls back to a fixed cap there
    m = small_model(rho=[-0.9], theta=[4.0], nu=[2.0], lam=[0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = riccati_bound(m, [ConstantStabilizer(1.0)], 1.0)
    assert np.isnan(b[0])


def blowup_model():
    """Strong premium with 1 - 2 rho^2 < 0: psi blows up near t = 0.15."""
    return small_model(alpha=[0.8], lam=[0.1], nu=[2.0], rho=[-0.75], theta=[5.0], T=5.0)


def test_blowup_guard_raises():
    with pytest.raises(BlowupError):
        solve_riccati_adams(blowup_model(), [ConstantStabilizer(1.0)], 500)


def _constant_rhs(monkeypatch, value):
    """Make every Adams solve see a constant rhs, so psi is exactly that value."""
    monkeypatch.setattr(riccati, "_rhs_tables",
                        lambda model, *args: lambda j, y: np.full(model.d, value))


# the cap the guard derives for blowup_model: its resolvent bound does not
# apply (lam_bar < 0), so the fixed fallback
@pytest.mark.parametrize("cap", [1e6])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "beyond"])
def test_blowup_guard_catches_nan_inf_and_large(monkeypatch, value, cap):
    # "beyond" is the genuine blow-up
    model, stabs = blowup_model(), [ConstantStabilizer(1.0)]
    assert np.isnan(riccati_bound(model, stabs, model.T)).all()
    if value != "beyond":
        _constant_rhs(monkeypatch, value)
    with pytest.raises(BlowupError, match=re.escape(f"caps {np.array([cap])}")):
        solve_riccati_adams(model, stabs, 500)


def test_blowup_guard_when_ten_times_the_bound_overflows(monkeypatch):
    # the bound itself is finite, ten times it is not: the guard must fall
    # back to the fixed cap, or an infinite psi would pass |psi| <= inf
    model, stabs = small_model(theta=[5e153], rho=[0.3]), [ConstantStabilizer(1.0)]
    bound = riccati_bound(model, stabs, model.T)[0]
    assert np.finfo(float).max / 10.0 < bound < np.inf
    _constant_rhs(monkeypatch, np.inf)
    with pytest.raises(BlowupError):
        solve_riccati_adams(model, stabs, 50)


# --- the per-process memo of solve_riccati_adams ----------------------------

memo = riccati._solve_memo


@pytest.fixture
def adams_spy(monkeypatch):
    """Records the n of every Adams solve that misses the memo, emptied first."""
    calls = []
    solve = riccati._solve_adams

    def spy(model, stabs, n, *args):
        calls.append(n)
        return solve(model, stabs, n, *args)

    monkeypatch.setattr(riccati, "_solve_adams", spy)
    memo.cache_clear()
    yield calls
    memo.cache_clear()


def test_gamma0_refines_once_per_model_and_stabilizers(adams_spy):
    model = bundled_model(T=5.0)
    stabs = model.build_stabilizers()
    sol = solve_riccati_adams(model, stabs, 600)
    values = [gamma0(model, sol, stabs) for _ in range(3)]
    assert adams_spy == [600, 12000]
    assert (memo.cache_info().misses, memo.cache_info().hits) == (2, 2)
    assert values[0] == values[1] == values[2]


def test_memo_returns_the_fresh_solution_read_only(adams_spy):
    model = small_model()
    stabs = model.build_stabilizers()
    first = solve_riccati_adams(model, stabs, 80)
    again = solve_riccati_adams(model, list(stabs), 80)  # same objects, new list
    assert again is first and adams_spy == [80] and memo.cache_info().hits == 1
    fresh = riccati._solve_adams(model, stabs, 80, None, True)
    assert np.array_equal(again.psi, fresh.psi)
    with pytest.raises(ValueError):
        again.psi[0, 1] = 1.0


def test_memo_key_separates_every_argument(adams_spy):
    model = small_model()
    stabs = model.build_stabilizers()
    variants = [
        dict(),
        dict(n=81),
        dict(forcing=[-0.01]),
        dict(forcing=[-0.02]),
        dict(forcing=[-0.01], include_theta=False),
        dict(stabs=model.build_stabilizers()),
        dict(model=small_model()),
    ]
    for _ in range(2):
        for v in variants:
            v = dict(v)
            solve_riccati_adams(v.pop("model", model), v.pop("stabs", stabs), v.pop("n", 80),
                                **v)
    assert len(adams_spy) == len(variants) == memo.cache_info().hits


def test_blowup_is_never_memoized(adams_spy):
    model = blowup_model()
    stabs = [ConstantStabilizer(1.0)]
    for _ in range(2):
        with pytest.raises(BlowupError):
            solve_riccati_adams(model, stabs, 500)
    assert adams_spy == [500, 500] and memo.cache_info().currsize == 0


def test_memo_stays_bounded(adams_spy):
    model = small_model()
    stabs = model.build_stabilizers()
    sizes = range(20, 20 + 2 * riccati._MEMO_SIZE)
    for n in sizes:
        solve_riccati_adams(model, stabs, n)
    assert memo.cache_info().currsize == memo.cache_info().maxsize == riccati._MEMO_SIZE
    solve_riccati_adams(model, stabs, sizes[-1])   # recent: kept
    solve_riccati_adams(model, stabs, sizes[0])    # oldest: evicted, solved again
    assert adams_spy == list(sizes) + [sizes[0]]


def test_memo_under_concurrent_callers(adams_spy):
    # more threads than cores and a short switch interval: a lost update
    # in the memo would overgrow it, raise or return a wrong solution
    model = small_model()
    stabs = model.build_stabilizers()
    sizes = [10 + k for k in range(riccati._MEMO_SIZE + 4)]

    def work(offset):
        for k in range(60):
            n = sizes[(offset + k) % len(sizes)]
            assert solve_riccati_adams(model, stabs, n).n == n

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, i) for i in range(8)]
            for f in futures:
                f.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert memo.cache_info().currsize <= riccati._MEMO_SIZE


def test_memo_inputs_are_immutable():
    model = small_model()
    stabs = model.build_stabilizers() + [ConstantStabilizer(0.5)]
    with pytest.raises(ValueError):
        model.theta[0] = 1.0
    with pytest.raises(ValueError):
        stabs[0].coeffs[0] = 1.0
    for target, attr in [(model, "T"), (stabs[0], "lam"), (stabs[1], "value")]:
        with pytest.raises(AttributeError):
            setattr(target, attr, 2.0)


def test_admissibility_constant_examples():
    assert admissibility_constant(1.0, 0.0) == 12.0
    # p(2+S) arm dominates for large S at p = 1? max(2+S, 12(1+S^2)) stays quadratic
    assert admissibility_constant(2.0, 0.0) == pytest.approx(max(4.0, 2.0 * 28.0))


def test_admissibility_theta_zero_passes(stabs_t1):
    m = bundled_model(T=1.0)
    zero = MarketModel(d=2, alpha=m.alpha, lam=m.lam, nu=m.nu, rho=m.rho,
                       theta=[0.0, 0.0], mu0=m.mu0, c=m.c, r=m.r, x0=m.x0, T=1.0)
    sol = solve_riccati_adams(zero, stabs_t1, 64)
    rep = check_admissibility(zero, sol, stabs_t1, p=1.0, a=1.0)
    assert rep.passed and rep.lhs == 0.0


def test_admissibility_bundled_report(model_t1, stabs_t1, riccati_600):
    rep = check_admissibility(model_t1, riccati_600, stabs_t1, p=1.0, a=1.0)
    assert rep.lhs >= model_t1.theta.max() ** 2
    assert rep.a_of_p == pytest.approx(
        admissibility_constant(1.0, model_t1.sigma_norm))
    assert rep.passed  # theta = (0.1, 0.12) is small enough for a = 1


def test_laplace_riccati_nonpositive_and_validated(model_t1, stabs_t1):
    sol = solve_laplace_riccati(model_t1, stabs_t1, 300, [-0.05, -0.05])
    assert np.all(sol.psi <= 1e-12)
    with pytest.raises(Exception):
        solve_laplace_riccati(model_t1, stabs_t1, 300, [0.1, -0.05])
