"""Stabilizer series, limit, scaling law, and functional-equation residual."""

import numpy as np
import pytest
from scipy.special import gamma as G

from voltmark.kernels import (
    ParameterError,
    ResolventSpec,
    fractional_kernel,
    resolvent,
    resolvent_density,
)
from voltmark.stabilizer import (
    ConstantStabilizer,
    _sigma_sq_convolution,
    build_stabilizer,
    density_l2_norm,
    functional_equation_residual,
    stabilizer_coeffs,
    stabilizer_residual,
)


def test_c0_formula():
    for alpha in (0.55, 0.6, 0.75, 0.9):
        c = stabilizer_coeffs(alpha, 1)
        assert c[0] == pytest.approx(
            G(alpha) ** 2 / (G(2 * alpha - 1) * G(2 - alpha)), rel=1e-14)


def test_c0_markovian_limit():
    assert stabilizer_coeffs(0.999, 1)[0] == pytest.approx(1.0, abs=1e-3)
    assert stabilizer_coeffs(0.9999, 1)[0] == pytest.approx(1.0, abs=1e-4)


def test_c1_frozen_value():
    # independent single-step evaluation of the recurrence with mpmath
    c = stabilizer_coeffs(0.75, 2)
    assert c[0] == pytest.approx(0.93469855416351067852, abs=1e-14)
    assert c[1] == pytest.approx(0.31573951672505354583, abs=1e-13)


def test_coeffs_validation():
    with pytest.raises(ParameterError):
        stabilizer_coeffs(0.5, 10)
    with pytest.raises(ParameterError):
        stabilizer_coeffs(1.0, 10)
    with pytest.raises(ParameterError):
        stabilizer_coeffs(0.7, 0)


def test_density_l2_norm_markovian_limit():
    # f_{1,lam} = lam e^(-lam t) has L2 norm sqrt(lam/2)
    assert density_l2_norm(1.0, 0.8) == pytest.approx(np.sqrt(0.4), rel=1e-12)
    # lam scaling: ||f_{a,lam}|| = lam^(1/(2a)) ||f_{a,1}||
    n1 = density_l2_norm(0.6, 1.0)
    assert density_l2_norm(0.6, 0.2) == pytest.approx(0.2 ** (1 / 1.2) * n1, rel=1e-10)


@pytest.mark.parametrize("alpha,lam,c", [(0.6, 0.2, 0.01), (0.9, 0.2, 0.03)])
def test_stabilizer_zero_at_origin_and_limit(alpha, lam, c):
    st = build_stabilizer(alpha, lam, c)
    assert st.eval(0.0) == 0.0
    assert st.eval(1e12) == pytest.approx(np.sqrt(c) * lam / density_l2_norm(alpha, lam), rel=1e-12)


def test_stabilizer_zero_dim_time_gives_a_float():
    # a 0-d array or numpy scalar is a scalar time, as control_coefficient
    # passes it, not a one-element grid
    st = build_stabilizer(0.6, 0.2, 0.01)
    for t in (np.asarray(0.3), np.float64(0.3)):
        assert isinstance(st.eval(t), float) and st.eval(t) == st.eval(0.3)


def test_stabilizer_nonnegative_and_bounded():
    for alpha, lam, c in [(0.6, 0.2, 0.01), (0.9, 0.2, 0.03), (0.55, 1.0, 1.0)]:
        st = build_stabilizer(alpha, lam, c)
        t = np.linspace(0.0, 20.0, 4001)
        vals = st.eval(t)
        assert np.all(vals >= 0.0)
        assert st.sup(20.0) <= 2.0 * st.limit


def test_scaling_law():
    for alpha, lam, c in [(0.6, 0.2, 0.01), (0.9, 0.2, 0.03)]:
        st = build_stabilizer(alpha, lam, c)
        st_unit = build_stabilizer(alpha, 1.0, 1.0)
        t = np.linspace(0.0, 2.0, 41)
        lhs = st.eval(t)
        rhs = np.sqrt(c) * lam ** (1.0 - 1.0 / (2.0 * alpha)) * st_unit.eval(lam ** (1.0 / alpha) * t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_residual_zero_at_origin():
    st = build_stabilizer(0.6, 0.2, 0.01)
    res = functional_equation_residual(st, 0.2, 0.01, 1.0, 4)
    assert res[0] == 0.0


def test_residual_constant_kernel_closed_form():
    # alpha = 1 (K = 1): R = e^(-lam t), f = lam e^(-lam t); sigma^2 = 2 lam c
    # solves the functional equation exactly and equals the limit
    # sqrt(c) lam / ||f|| with ||f|| = sqrt(lam / 2)
    lam, c = 0.7, 0.05
    st = build_stabilizer(1.0, lam, c)
    assert isinstance(st, ConstantStabilizer)
    assert st.eval(2.3) == pytest.approx(np.sqrt(c) * lam / density_l2_norm(1.0, lam), rel=1e-15)
    res = functional_equation_residual(st, lam, c, 2.0, 25)
    assert np.max(res) <= 1e-12


BUNDLED = [(0.6, 0.2, 0.01), (0.9, 0.2, 0.03)]


def test_residual_bundled_parameters():
    # on the CLI's grid (T = 1, n = 200) the residual is at rounding level
    for alpha, lam, c in BUNDLED:
        st = build_stabilizer(alpha, lam, c)
        assert stabilizer_residual(st, 1.0, 200) <= 1e-12


@pytest.mark.parametrize("alpha,lam,c", BUNDLED)
def test_convolution_matches_tanh_sinh(alpha, lam, c):
    # the graded rule against 20-digit tanh-sinh on the same integrand
    mpmath = pytest.importorskip("mpmath")
    st = build_stabilizer(alpha, lam, c)
    spec = ResolventSpec(fractional_kernel(alpha), lam)
    p = 1.0 / (2.0 * alpha - 1.0)
    times = np.array([0.005, 0.285, 1.0])
    rule = _sigma_sq_convolution(st, spec, times)
    for t, val in zip(times, rule):
        def integrand(w):
            s = float(w) ** p
            f = resolvent_density(spec, s)
            return p * (f * s ** (1.0 - alpha)) ** 2 * st.eval(max(t - s, 0.0)) ** 2

        with mpmath.workdps(20):
            ref = float(mpmath.quad(integrand, [0.0, t ** (1.0 / p)]))
        assert abs(val - ref) <= 1e-12 * c * lam**2


def test_residual_alpha_near_half():
    # p = 1/(2 alpha - 1) = 50: the innermost nodes underflow to s = 0
    st = build_stabilizer(0.51, 0.5, 1.0)
    assert stabilizer_residual(st, 2.0, 20) <= 1e-12


class _ScaledStabilizer:
    """A built stabilizer whose sigma is off by a constant factor."""

    def __init__(self, stab, factor):
        self.alpha = stab.alpha
        self._stab = stab
        self._factor = factor

    def eval(self, t):
        return self._factor * self._stab.eval(t)


@pytest.mark.parametrize("alpha,lam,c", BUNDLED)
def test_residual_detects_wrong_sigma(alpha, lam, c):
    # sigma scaled by 1.01 leaves the residual (1.01^2 - 1)(1 - R(t)^2)
    T, n = 5.0, 40
    st = _ScaledStabilizer(build_stabilizer(alpha, lam, c), 1.01)
    res = functional_equation_residual(st, lam, c, T, n)
    grid = np.linspace(0.0, T, n + 1)
    R = resolvent(ResolventSpec(fractional_kernel(alpha), lam), grid)
    assert np.max(np.abs(res - (1.01**2 - 1.0) * (1.0 - R**2))) <= 1e-12
    assert 1e-2 <= np.max(res) <= 3e-2


def test_residual_markovian_edge():
    # alpha = 1 builds the exact constant sqrt(2 lam c), which records the
    # (lam, c) its residual is checked against
    st = build_stabilizer(1.0, 0.7, 0.05)
    assert (st.lam, st.c) == (0.7, 0.05)
    assert stabilizer_residual(st, 1.0, 10) <= 1e-12
    with pytest.raises(ParameterError, match="lam, c"):
        stabilizer_residual(ConstantStabilizer(0.3), 1.0, 10)


def test_constant_stabilizer_interface():
    cs = ConstantStabilizer(0.3)
    assert cs.eval(1.7) == 0.3
    assert np.all(cs.eval(np.zeros(4)) == 0.3)
    assert cs.sup(10.0) == 0.3
