"""Independent checks that only the tests use: the fractional kernel's
convolution with a grid function and the resolvent's defining equation."""

import numpy as np
from scipy.special import gamma as gamma_fn

from voltmark.kernels import KernelSpec, ResolventSpec, _power_moments, resolvent

# Mittag-Leffler terms of the resolvent convolved in closed form by
# resolvent_equation_residual
_RESOLVENT_HEAD = 3


def kernel_convolve(spec: KernelSpec, g: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """(K * g)(t_k) on a uniform grid, exact for piecewise-linear g."""
    g = np.asarray(g, dtype=float)
    grid = np.asarray(grid, dtype=float)
    n = len(grid) - 1
    dt = grid[1] - grid[0]
    assert g.shape == grid.shape and np.allclose(np.diff(grid), dt)
    m0, m1 = _power_moments(spec.alpha, n, dt)
    w_right = m1 / dt          # weight on g(t_l) for cell ending at lag j
    w_left = m0 - w_right      # weight on g(t_{l-1})
    out = np.zeros(n + 1)
    # (K*g)(t_k) = sum_{l=1..k} w_left[k-l] g_{l-1} + w_right[k-l] g_l
    out[1:] = np.convolve(w_left, g[:-1])[:n] + np.convolve(w_right, g[1:])[:n]
    return out


def resolvent_equation_residual(spec: ResolventSpec, T: float, n: int) -> float:
    """max_k |R(t_k) + lam (K*R)(t_k) - 1| on the uniform grid over [0, T].

    R = E_alpha(-lam t^alpha) has a t^alpha cusp at 0 that a
    piecewise-linear interpolant misses.  The first _RESOLVENT_HEAD terms
    of its Mittag-Leffler series, (-lam t^alpha)^k / Gamma(alpha k + 1),
    are therefore convolved in closed form,
    K * t^(alpha k) / Gamma(alpha k + 1) = t^(alpha (k+1)) / Gamma(alpha (k+1) + 1),
    and only the smoother remainder by product integration against its
    piecewise-linear interpolant.  The residual so measures how well the
    evaluated resolvent satisfies its defining Volterra equation.
    """
    grid = np.linspace(0.0, T, n + 1)
    R = np.asarray(resolvent(spec, grid))
    al, lam = spec.kernel.alpha, spec.lam
    head = np.zeros_like(grid)
    head_conv = np.zeros_like(grid)
    for k in range(_RESOLVENT_HEAD):
        head += (-lam) ** k * grid ** (al * k) / gamma_fn(al * k + 1.0)
        head_conv += (-lam) ** k * grid ** (al * (k + 1)) / gamma_fn(al * (k + 1) + 1.0)
    conv = head_conv + kernel_convolve(spec.kernel, R - head, grid)
    return float(np.max(np.abs(R + lam * conv - 1.0)))
