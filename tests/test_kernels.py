"""Kernel, resolvent and special-function tests against independent oracles.

Frozen reference values were computed with mpmath at 40+ digits; grid
properties use adaptive scipy quadrature as the second opinion.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as G
from scipy.special import roots_legendre

from oracles import kernel_convolve, kernel_cross_segment, resolvent_equation_residual
from voltmark import kernels
from voltmark.kernels import (
    DomainError,
    KernelSpec,
    ParameterError,
    ResolventSpec,
    eval_kernel,
    fractional_integral,
    fractional_kernel,
    mittag_leffler,
    resolvent,
    resolvent_density,
)

# alpha = 1 is the constant kernel K = 1, the Markovian edge
ALL_SPECS = [
    fractional_kernel(0.6),
    fractional_kernel(0.9),
    fractional_kernel(0.7),
    fractional_kernel(0.55),
    fractional_kernel(1.0),
]


# --- kernel evaluation -----------------------------------------------------

def test_eval_kernel_closed_forms():
    assert eval_kernel(fractional_kernel(1.0), 0.37) == 1.0
    assert eval_kernel(fractional_kernel(1.0), 5.0) == 1.0
    # 1/Gamma(0.6), mpmath frozen
    assert eval_kernel(fractional_kernel(0.6), 1.0) == pytest.approx(
        0.67150497244207335818, abs=1e-15)


def test_eval_kernel_domain_and_validation():
    with pytest.raises(DomainError):
        eval_kernel(fractional_kernel(0.6), 0.0)
    with pytest.raises(ParameterError):
        KernelSpec(0.4)


# --- Gamma and the Gauss rules ---------------------------------------------

def test_gamma_is_math_gamma_per_element():
    x = np.linspace(0.05, 170.0, 4001)
    got = kernels._gamma(x.reshape(-1, 1))
    assert got.shape == (4001, 1)
    assert np.array_equal(got.ravel(), [math.gamma(v) for v in x.tolist()])
    assert np.max(np.abs(got.ravel() / G(x) - 1.0)) <= 2e-15
    for zero_d in (0.6, np.float64(0.6), np.array(0.6)):
        assert type(kernels._gamma(zero_d)) is float


@pytest.mark.parametrize("n", [8, 16, 32])
def test_legendre_rule_matches_scipy(n):
    x, w = kernels._legendre_rule(n)
    xs, ws = roots_legendre(n)
    np.testing.assert_allclose(x, xs, rtol=0.0, atol=5e-16)
    np.testing.assert_allclose(w, ws, rtol=0.0, atol=1e-14)
    assert not x.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("alpha", [0.55, 0.6, 0.9, 0.95])
def test_jacobi_rule_moments_vs_mpmath(alpha):
    # 32 nodes integrate (1 - x)^(alpha-1) x^k exactly for k <= 63
    e = alpha - 1.0
    x, w = kernels._jacobi_rule(e)
    with mpmath.workdps(30):
        for k in range(64):
            ref = mpmath.quad(lambda t: (1 - t) ** e * t**k, [-1, 0, 1])
            assert abs(float((w @ x**k - ref) / ref)) <= 1e-13, k


# --- Mittag-Leffler --------------------------------------------------------

def test_mittag_leffler_at_zero():
    for alpha in (0.55, 0.6, 0.75, 0.9, 1.0):
        assert mittag_leffler(alpha, 0.0) == 1.0


def test_mittag_leffler_alpha_one_is_exp():
    z = np.linspace(-10.0, 0.0, 201)
    assert np.max(np.abs(mittag_leffler(1.0, z) - np.exp(z))) <= 1e-12


def test_mittag_leffler_half_erfc_identity():
    # E_{1/2}(-1) = e * erfc(1), mpmath frozen
    assert mittag_leffler(0.5, -1.0) == pytest.approx(0.42758357615580700441, abs=1e-8)


@pytest.mark.parametrize("alpha,z,ref", [
    (0.6, -6.0, 0.0788386003138303662),
    (0.6, -20.0, 0.0229465642732583764),
    (0.6, -100.0, 0.0045252427131328118),
    (0.9, -6.0, 0.0257827697123660656),
    (0.9, -40.0, 0.00274344969779209949),
    (0.75, -300.0, 0.000922529373938703886),
])
def test_mittag_leffler_large_arguments(alpha, z, ref):
    assert mittag_leffler(alpha, z) == pytest.approx(ref, rel=1e-10)


def test_mittag_leffler_refuses_what_the_floats_cannot_hold():
    # E_0.9(30) by the series, against its mpmath sum at 40 digits; E_0.9(100)
    # = 3.09e72 overflows z^k before the terms decay, and is refused
    assert mittag_leffler(0.9, 30.0) == pytest.approx(1.142510275482452609186e19, rel=1e-14)
    with pytest.raises(DomainError):
        mittag_leffler(0.9, 100.0)
    # E_1 = exp: exp(709) is a float, exp(1000) is not
    assert mittag_leffler(1.0, 709.0) == math.exp(709.0)
    with pytest.raises(DomainError):
        mittag_leffler(1.0, 1000.0)
    with pytest.raises(DomainError):
        mittag_leffler(1.0, np.array([0.0, 1000.0]))


def test_mittag_leffler_series_contour_seam():
    # the series serves |z| <= 1 and the contour the next float beyond;
    # both sides of the seam are exact to about 1e-12
    for alpha in (0.501, 0.55, 0.75, 0.95):
        lo = mittag_leffler(alpha, -1.0)
        hi = mittag_leffler(alpha, -np.nextafter(1.0, 2.0))
        assert abs(lo - hi) <= 1e-12 * lo


def _ml_reference(alpha, beta, xs):
    """E_{alpha,beta}(-x) at each x of xs by the power series in mpmath,
    carrying enough digits for the cancellation: the terms peak near
    e^(x^(1/alpha))."""
    x_max = float(np.max(xs))
    peak = x_max ** (1.0 / alpha)
    with mpmath.workdps(40 + int(peak / 2.3)):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        tiny = mpmath.mpf(10) ** -45
        coeffs, k = [], 0   # 1 / Gamma(alpha k + beta), up to the last term that counts
        while True:
            coeffs.append(mpmath.rgamma(a * k + b))
            if k > peak / alpha and abs(coeffs[-1]) * mpmath.mpf(x_max) ** k < tiny:
                break
            k += 1
        out = []
        for x in xs:
            z, total = -mpmath.mpf(x), mpmath.mpf(0)
            for ck in reversed(coeffs):
                total = total * z + ck
            out.append(float(total))
    return np.array(out)


ML_ALPHAS = (0.501, 0.55, 0.6, 0.75, 0.9, 0.99)


@pytest.mark.parametrize("alpha,beta", [(a, b) for a in ML_ALPHAS for b in (1.0, a)])
def test_ml_matches_mpmath(alpha, beta):
    # E_{alpha,beta}(-x) over the series range, the seam and the contour
    # range, against 40-digit mpmath; a wider series range loses up to
    # 1.7e-2 (alpha = beta = 0.501) to cancellation
    xs = np.unique(np.concatenate([np.linspace(0.0, 5.0, 51), np.linspace(5.0, 20.0, 16)]))
    got = kernels._ml(alpha, beta, xs)
    ref = _ml_reference(alpha, beta, xs)
    assert np.max(np.abs(got - ref) / ref) <= 1e-11


# --- resolvents ------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS)
def test_resolvent_at_zero_is_one(spec):
    assert resolvent(ResolventSpec(spec, 0.7), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_resolvent_constant_kernel_exponential():
    rs = ResolventSpec(fractional_kernel(1.0), 0.8)
    t = np.linspace(0.0, 3.0, 7)
    assert np.allclose(resolvent(rs, t), np.exp(-0.8 * t), atol=1e-14)


def test_resolvent_fractional_is_mittag_leffler():
    rs = ResolventSpec(fractional_kernel(0.6), 0.2)
    assert resolvent(rs, 1.7) == pytest.approx(mittag_leffler(0.6, -0.2 * 1.7**0.6), abs=1e-14)


@pytest.mark.parametrize("spec,lam", [
    (fractional_kernel(0.6), 0.2),
    (fractional_kernel(0.9), 1.5),
    (fractional_kernel(0.7), 1.1),
    (fractional_kernel(0.75), 0.9),
    (fractional_kernel(1.0), 0.7),
    (fractional_kernel(0.55), 0.9),
])
def test_resolvent_defining_equation(spec, lam):
    res = resolvent_equation_residual(ResolventSpec(spec, lam), 2.0, 8000)
    assert res <= 1e-6 * (1.0 + lam)


def test_resolvent_density_constant_and_markovian_edge():
    t = np.linspace(0.1, 2.0, 8)
    rs1 = ResolventSpec(fractional_kernel(1.0), 0.4)
    assert np.allclose(resolvent_density(rs1, t), 0.4 * np.exp(-0.4 * t), atol=1e-14)


def test_resolvent_density_matches_derivative():
    rs = ResolventSpec(fractional_kernel(0.6), 0.2)
    h = 1e-5
    num = -(resolvent(rs, 1.0 + h) - resolvent(rs, 1.0 - h)) / (2.0 * h)
    assert resolvent_density(rs, 1.0) == pytest.approx(num, abs=1e-6)


@pytest.mark.parametrize("spec,lam", [
    (fractional_kernel(0.6), 0.2),
    (fractional_kernel(0.7), 1.1),
    (fractional_kernel(1.0), 0.9),
])
def test_resolvent_density_nonnegative_and_mass(spec, lam):
    rs = ResolventSpec(spec, lam)
    t = np.linspace(1e-6, 4.0, 300)
    f = resolvent_density(rs, t)
    assert np.all(f >= 0.0)
    T = 1.5
    if spec.singular:
        a = spec.alpha
        mass, _ = quad(
            lambda w: resolvent_density(rs, w ** (1 / a)) * w ** (1 / a - 1) / a,
            0.0, T**a, limit=200)
    else:
        mass, _ = quad(lambda s: resolvent_density(rs, s), 0.0, T, limit=200)
    assert mass == pytest.approx(1.0 - resolvent(rs, T), abs=1e-6)


# --- segment integrals -----------------------------------------------------

def test_kernel_mean_segment_closed_forms():
    # the cell integrals C[m] of the constant kernel are the cell width
    assert kernels._product_weights(1.0, 3, 0.8) == pytest.approx([0.8] * 3)
    # C[1] at dt = 0.5 is (1 - 0.5^0.6)/Gamma(1.6), mpmath frozen
    assert kernels._product_weights(0.6, 2, 0.5)[1] == pytest.approx(
        0.38079485135291380425, abs=1e-15)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_kernel_mean_segment_vs_quadrature(spec):
    # C[1] at dt = 0.7 is the integral over the cell [0.7, 1.4]
    val = kernels._product_weights(spec.alpha, 2, 0.7)[1]
    ref, _ = quad(lambda u: eval_kernel(spec, u), 0.7, 1.4, limit=200)
    assert val == pytest.approx(ref, rel=1e-10)


def test_kernel_cross_segment_closed_forms():
    # the engine's exact entries: K = 1 gives the cell width dt for both
    assert all(np.array_equal(x, [0.8] * 3) for x in kernels._kernel_products(1.0, 3, 0.8))
    d = 1.0 / 600
    al = 0.6
    diag, row0 = kernels._kernel_products(al, 2, d)
    exact = d ** (2 * al - 1) / ((2 * al - 1) * G(al) ** 2)
    assert diag[0] == pytest.approx(exact, rel=1e-14)
    assert row0[0] == diag[0]
    # off-diagonal singular case, mpmath frozen (t_k = 2D, t_k' = D, [0, D])
    assert row0[1] == pytest.approx(0.18647088884385605394, rel=1e-8)


@pytest.mark.parametrize("alpha", [0.55, 0.75, 1.0])
def test_kernel_cross_segment_arrays_equal_scalar_calls(alpha):
    # row 0 on the benchmark grid (T = 5, n = 2400) is the very floats of
    # one general segment integral per element
    n, dt = 2400, 5.0 / 2400
    row0 = kernels._kernel_products(alpha, n, dt)[1]
    t_up = (np.arange(n) + 1.0) * dt
    ref = [kernel_cross_segment(fractional_kernel(alpha), t, dt, 0.0, dt)[0] for t in t_up]
    assert np.array_equal(row0, ref)


@pytest.mark.parametrize("T, n", [(1.0, 600), (5.0, 2400)])
@pytest.mark.parametrize("alpha", [0.55, 0.6, 0.9])
def test_kernel_products_vs_mpmath(alpha, T, n):
    # at 40 digits, with c = j dt and G = Gamma(alpha)^2:
    # diag[j] = (((j+1) dt)^p - c^p) / (p G), p = 2 alpha - 1, and
    # row0[j] = int_0^dt (c + v)^(alpha-1) v^(alpha-1) dv / G
    #         = c^(alpha-1) dt^alpha 2F1(1-alpha, alpha; alpha+1; -1/j) / (alpha G);
    # the dense oracle's diagonal is as accurate as the engine's
    dt = T / n
    diag, row0 = kernels._kernel_products(alpha, n, dt)
    t_up = (np.arange(n) + 1.0) * dt
    oracle = kernel_cross_segment(fractional_kernel(alpha), t_up, t_up, 0.0, dt)
    with mpmath.workdps(40):
        a, h = mpmath.mpf(alpha), mpmath.mpf(dt)
        p, g2 = 2 * a - 1, mpmath.gamma(a) ** 2
        ref_diag = [(((j + 1) * h) ** p - (j * h) ** p) / (p * g2) for j in range(n)]
        ref_row0 = ref_diag[:1] + [
            (j * h) ** (a - 1) * h**a * mpmath.hyp2f1(1 - a, a, a + 1, -mpmath.mpf(1) / j) / (a * g2)
            for j in range(1, n)]

        def rel(got, ref):
            return max(abs((x - y) / y) for x, y in zip(got.tolist(), ref))

        assert rel(diag, ref_diag) <= 2e-15
        assert rel(oracle, ref_diag) <= 2e-15
        assert rel(row0, ref_row0) <= 3e-15


# --- fractional integrals --------------------------------------------------

def test_fractional_integral_constants():
    f = np.ones(11)
    assert fractional_integral(1.0, f, 2.0) == pytest.approx(2.0, abs=1e-14)
    r = 0.3
    assert fractional_integral(r, f, 1.0) == pytest.approx(1.0 / G(r + 1.0), rel=1e-13)


def test_fractional_integral_linear_function():
    # I^0.4 of f(s) = s at T = 1 equals 1/Gamma(2.4), mpmath frozen
    f = np.linspace(0.0, 1.0, 601)
    assert fractional_integral(0.4, f, 1.0) == pytest.approx(
        0.80504321284716261406, abs=1e-12)


def test_fractional_integral_linearity_and_monotonicity():
    rng = np.random.default_rng(3)
    f = rng.standard_normal(41)
    g = rng.standard_normal(41)
    lin = fractional_integral(0.6, 2.0 * f + 3.0 * g, 1.0)
    assert lin == pytest.approx(
        2.0 * fractional_integral(0.6, f, 1.0) + 3.0 * fractional_integral(0.6, g, 1.0),
        rel=1e-12, abs=1e-12)
    pos = np.abs(f)
    assert fractional_integral(0.6, pos, 1.0) >= 0.0


@pytest.mark.parametrize("r", [0.1, 0.4, 1.0])
def test_fractional_integral_weights_vs_mpmath(r):
    # I^r of the unit vector e_j is the product-trapezoid weight of node j:
    # c (k^(r+1) - (k-r)(k+1)^r) at j = 0, c d[n-1-j] with the second
    # difference d[m] = (m+2)^(r+1) + m^(r+1) - 2 (m+1)^(r+1) inside and
    # c at j = n, where c = dt^r/Gamma(r+2) and k = n - 1
    n, T = 2400, 5.0
    e = np.zeros(n + 1)
    got = []
    for j in range(n + 1):
        e[j] = 1.0
        got.append(fractional_integral(r, e, T))
        e[j] = 0.0
    with mpmath.workdps(40):
        a, k = mpmath.mpf(r), n - 1
        c = (mpmath.mpf(T) / n) ** a / mpmath.gamma(a + 2)
        b = a + 1
        ref = [c * (k**b - (k - a) * (k + 1) ** a)]
        ref += [c * ((m + 2) ** b + mpmath.mpf(m) ** b - 2 * (m + 1) ** b)
                for m in range(n - 2, -1, -1)]
        ref.append(c)
        rel = max(abs((g - x) / x) for g, x in zip(got, ref))
    assert rel <= 2e-12


def test_fractional_integral_rejects_bad_order():
    with pytest.raises(ParameterError):
        fractional_integral(1.4, np.ones(5), 1.0)


def test_kernel_convolve_exact_for_linear():
    # constant kernel: (K*g)(t) = int_0^t g, exact for piecewise-linear g
    grid = np.linspace(0.0, 2.0, 21)
    g = 1.0 + 3.0 * grid
    out = kernel_convolve(fractional_kernel(1.0), g, grid)
    assert np.allclose(out, grid + 1.5 * grid**2, atol=1e-13)
