"""Market model parameters and time grid shared across modules."""

from dataclasses import dataclass

import numpy as np

from .kernels import ParameterError
from .stabilizer import build_stabilizer


def _vec(x, d: int, name: str) -> np.ndarray:
    """Read-only float copy of x with d components (a scalar is repeated)."""
    out = np.atleast_1d(np.array(x, dtype=float))
    if out.shape == (1,) and d > 1:
        out = np.repeat(out, d)
    if out.shape != (d,):
        raise ParameterError(f"{name} must have {d} components, got shape {out.shape}")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform time grid t_k = k T / n on [0, T]."""

    T: float
    n: int

    def __post_init__(self):
        if not self.T > 0.0:
            raise ParameterError(f"horizon T must be > 0, got {self.T}")
        if self.n < 1:
            raise ParameterError(f"step count n must be >= 1, got {self.n}")

    @property
    def dt(self) -> float:
        return self.T / self.n

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n + 1)


@dataclass(frozen=True, eq=False)
class MarketModel:
    """Parameters of the d-asset market with stabilized Volterra variance.

    Per asset: kernel order alpha (Hurst H = alpha - 1/2), mean reversion
    lam, vol-of-vol nu, stock/variance correlation rho, risk premium
    theta, constant mean-reversion level mu0, and normalized stationary
    variance c = v0 / (nu^2 x_inf).  Scalars: constant short rate r,
    initial wealth x0, horizon T.

    Derived: x_inf = mu0 / lam is the constant mean of the variance
    process and v0 = c nu^2 x_inf its constant variance.

    Immutable: the per-asset arrays are read-only copies, and models
    compare by identity, which the Riccati memo keys on.
    """

    d: int
    alpha: np.ndarray
    lam: np.ndarray
    nu: np.ndarray
    rho: np.ndarray
    theta: np.ndarray
    mu0: np.ndarray
    c: np.ndarray
    r: float
    x0: float
    T: float

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"asset count d must be >= 1, got {self.d}")
        for name in ("alpha", "lam", "nu", "rho", "theta", "mu0", "c"):
            object.__setattr__(self, name, _vec(getattr(self, name), self.d, name))
            if not np.all(np.isfinite(getattr(self, name))):
                raise ParameterError(f"{name} components must be finite")
        for name in ("r", "x0", "T"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if np.any(self.alpha <= 0.5) or np.any(self.alpha > 1.0):
            raise ParameterError("alpha components must lie in (1/2, 1]")
        if np.any(self.lam <= 0.0):
            raise ParameterError("lam components must be > 0")
        if np.any(self.nu < 0.0):
            raise ParameterError("nu components must be >= 0")
        if np.any(np.abs(self.rho) > 1.0):
            raise ParameterError("rho components must lie in [-1, 1]")
        if np.any(self.theta < 0.0):
            raise ParameterError("theta components must be >= 0")
        if np.any(self.mu0 < 0.0):
            raise ParameterError("mu0 components must be >= 0")
        if np.any(self.c <= 0.0):
            raise ParameterError("c components must be > 0")
        if not self.T > 0.0:
            raise ParameterError(f"horizon T must be > 0, got {self.T}")

    @property
    def x_inf(self) -> np.ndarray:
        """Fake-stationary mean of the variance process, mu0 / lam."""
        return self.mu0 / self.lam

    @property
    def v0(self) -> np.ndarray:
        """Fake-stationary variance of the variance process, c nu^2 x_inf."""
        return self.c * self.nu**2 * self.x_inf

    @property
    def D(self) -> np.ndarray:
        """Drift matrix -diag(lam)."""
        return -np.diag(self.lam)

    @property
    def sigma_norm(self) -> float:
        """Correlation matrix norm tr(Sigma^T Sigma) = sum rho_i^2."""
        return float(np.sum(self.rho**2))

    @property
    def m0(self) -> float:
        """Riskless attainable terminal wealth x0 e^(r T)."""
        return self.x0 * np.exp(self.r * self.T)

    def discount(self, s: float) -> float:
        """e^(-r s) for the constant short rate."""
        return float(np.exp(-self.r * s))

    def build_stabilizers(self, truncation_K: int | None = None) -> list:
        """Per-asset stabilizer evaluators (constant where alpha = 1)."""
        kwargs = {} if truncation_K is None else {"truncation_K": truncation_K}
        return [
            build_stabilizer(self.alpha[i], self.lam[i], self.c[i], **kwargs)
            for i in range(self.d)
        ]


def bundled_model(T: float = 1.0) -> MarketModel:
    """The bundled two-asset rough configuration used by the experiments."""
    return MarketModel(
        d=2,
        alpha=[0.6, 0.9],
        lam=[0.2, 0.2],
        nu=[0.40, 0.32],
        rho=[-0.7, -0.55],
        theta=[0.1, 0.12],
        mu0=[2.0, 1.0],
        c=[0.01, 0.03],
        r=0.02,
        x0=2.0,
        T=T,
    )
