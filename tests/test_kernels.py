"""Kernel, resolvent and special-function tests against independent oracles.

Frozen reference values were computed with mpmath at 40+ digits; grid
properties use adaptive scipy quadrature as the second opinion.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as G

from voltmark.kernels import (
    DomainError,
    KernelSpec,
    ParameterError,
    ResolventSpec,
    eval_kernel,
    fractional_integral,
    fractional_kernel,
    kernel_convolve,
    kernel_cross_segment,
    kernel_mean_segment,
    mittag_leffler,
    resolvent,
    resolvent_density,
    resolvent_equation_residual,
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
        KernelSpec("fractional", alpha=0.4)
    with pytest.raises(ParameterError):
        KernelSpec("fractional", alpha=0.6, beta=0.8)
    with pytest.raises(ParameterError):
        KernelSpec("exponential", beta=1.3)
    with pytest.raises(ParameterError):
        KernelSpec("nope")


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


def test_mittag_leffler_series_contour_seam():
    # the seam mismatch is dominated by series cancellation (~6 digits
    # lost at |z| = 5); the contour side is exact to 1e-12
    for alpha in (0.55, 0.75, 0.95):
        lo, hi = mittag_leffler(alpha, -4.999999), mittag_leffler(alpha, -5.000001)
        assert abs(lo - hi) <= 5e-6 * lo


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
    assert kernel_mean_segment(fractional_kernel(1.0), 2.0, 0.3, 1.1) == pytest.approx(0.8)
    # (1 - 0.5^0.6)/Gamma(1.6), mpmath frozen
    assert kernel_mean_segment(fractional_kernel(0.6), 1.0, 0.0, 0.5) == pytest.approx(
        0.38079485135291380425, abs=1e-15)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_kernel_mean_segment_vs_quadrature(spec):
    val = kernel_mean_segment(spec, 1.3, 0.2, 0.9)
    ref, _ = quad(lambda s: eval_kernel(spec, 1.3 - s), 0.2, 0.9, limit=200)
    assert val == pytest.approx(ref, rel=1e-10)


def test_kernel_mean_segment_ordering():
    with pytest.raises(DomainError):
        kernel_mean_segment(fractional_kernel(0.6), 1.0, 0.9, 0.2)
    with pytest.raises(DomainError):
        kernel_mean_segment(fractional_kernel(0.6), 0.5, 0.2, 0.9)


def test_kernel_cross_segment_closed_forms():
    assert kernel_cross_segment(fractional_kernel(1.0), 2.0, 1.5, 0.2, 1.0) == pytest.approx(0.8)
    d = 1.0 / 600
    al = 0.6
    exact = d ** (2 * al - 1) / ((2 * al - 1) * G(al) ** 2)
    assert kernel_cross_segment(fractional_kernel(al), d, d, 0.0, d) == pytest.approx(exact, rel=1e-14)
    # off-diagonal singular case, mpmath frozen (t_k = 2D, t_k' = D, [0, D])
    assert kernel_cross_segment(fractional_kernel(0.6), 2 * d, d, 0.0, d) == pytest.approx(
        0.18647088884385605394, rel=1e-8)


def test_kernel_cross_segment_symmetry_and_sign():
    spec = fractional_kernel(0.75)
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(0.0, 0.5)
        b = a + rng.uniform(0.01, 0.5)
        tk = b + rng.uniform(0.0, 1.0)
        tk2 = b + rng.uniform(0.0, 1.0)
        v1 = kernel_cross_segment(spec, tk, tk2, a, b)
        v2 = kernel_cross_segment(spec, tk2, tk, a, b)
        assert v1 >= 0.0
        assert v1 == pytest.approx(v2, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.55, 0.75, 1.0])
def test_kernel_cross_segment_arrays_equal_scalar_calls(alpha):
    # one array call covers every branch: equal times (closed form),
    # b = min time (Jacobi) and both factors regular (Legendre)
    spec = fractional_kernel(alpha)
    a, b = 0.1, 0.3
    t_k = np.array([0.3, 0.3, 0.45, 0.8, 0.5, 1.7])
    t_k2 = np.array([0.3, 0.9, 0.3, 0.8, 0.6, 0.35])
    out = kernel_cross_segment(spec, t_k, t_k2, a, b)
    ref = [kernel_cross_segment(spec, x, y, a, b) for x, y in zip(t_k, t_k2)]
    assert out.shape == t_k.shape
    assert np.array_equal(out, ref)
    # a scalar second time broadcasts, and scalars still give a float
    assert np.array_equal(kernel_cross_segment(spec, t_k[2:], 0.3, a, b),
                          [kernel_cross_segment(spec, x, 0.3, a, b) for x in t_k[2:]])
    assert isinstance(kernel_cross_segment(spec, 0.8, 0.5, a, b), float)


def test_kernel_cross_segment_diagonal_uses_scalar_pow():
    # an array power may round differently from libm pow; the diagonal
    # of the covariance must not depend on which one ran
    al, dt = 0.6, 1.0 / 2400
    t = (np.arange(2400) + 1.0) * dt
    p = 2.0 * al - 1.0
    ref = [(x ** p - (x - dt) ** p) / (p * G(al) ** 2) for x in t.tolist()]
    assert np.array_equal(kernel_cross_segment(fractional_kernel(al), t, t, 0.0, dt), ref)


def test_kernel_cross_segment_array_domain_checks():
    spec = fractional_kernel(0.6)
    with pytest.raises(DomainError):
        kernel_cross_segment(spec, np.array([1.0, 0.2]), 1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        kernel_cross_segment(spec, np.array([1.0, 2.0]), 1.0, 0.5, 0.5)


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


def test_fractional_integral_rejects_bad_order():
    with pytest.raises(ParameterError):
        fractional_integral(1.4, np.ones(5), 1.0)


def test_kernel_convolve_exact_for_linear():
    # constant kernel: (K*g)(t) = int_0^t g, exact for piecewise-linear g
    grid = np.linspace(0.0, 2.0, 21)
    g = 1.0 + 3.0 * grid
    out = kernel_convolve(fractional_kernel(1.0), g, grid)
    assert np.allclose(out, grid + 1.5 * grid**2, atol=1e-13)
