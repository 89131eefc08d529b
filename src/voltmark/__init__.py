"""Mean-variance portfolio selection under stabilized Volterra volatility.

Modules: kernels (special functions and segment integrals), stabilizer
(fake-stationarity diffusion multiplier), model (parameters), riccati
(fractional Adams solver and oracles), simulate (K-integrated Euler
Monte Carlo), markowitz (closed forms and the optimal strategy),
montecarlo (statistics and experiment drivers), cli (entry point).
"""

__version__ = "0.1.0"

from .kernels import (
    DomainError,
    KernelSpec,
    ParameterError,
    ResolventSpec,
    eval_kernel,
    fractional_integral,
    fractional_kernel,
    kernel_cross_segment,
    kernel_mean_segment,
    mittag_leffler,
    resolvent,
    resolvent_density,
)
from .markowitz import (
    LaplaceReport,
    MarkowitzSolution,
    WealthEnsemble,
    affine_wealth_terminal,
    efficient_frontier,
    gamma0,
    laplace_affine_check,
    optimal_control,
    simulate_wealth,
    solve_markowitz,
    variance_of_terminal,
    xi_eta_star,
)
from .model import Grid, MarketModel, bundled_model
from .montecarlo import (
    EnsembleStats,
    ensemble_stats,
    frontier_experiment,
    stationarity_diagnostics,
)
from .riccati import (
    BlowupError,
    RiccatiSolution,
    check_admissibility,
    oracle_volterra_picard,
    riccati_bound,
    solve_laplace_riccati,
    solve_riccati_adams,
)
from .simulate import (
    GaussianBlockFactor,
    PathEnsemble,
    build_gaussian_factor,
    correlate_asset_brownian,
    sample_initial_variance,
    simulate_variance_paths,
)
from .stabilizer import (
    ConstantStabilizer,
    StabilizerSeries,
    build_stabilizer,
    stabilizer_coeffs,
    stabilizer_residual,
)
