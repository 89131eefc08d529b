"""Mean-variance portfolio selection under stabilized Volterra volatility.

Modules: kernels (special functions and quadrature weights), stabilizer
(fake-stationarity diffusion multiplier), model (parameters), riccati
(fractional Adams solver and bounds), simulate (K-integrated Euler
Monte Carlo), markowitz (closed forms and the optimal strategy),
montecarlo (statistics and experiment drivers), cli (entry point).

VOLTMARK_THREADS=k caps the BLAS threads at k.  It takes effect here,
before the imports below load numpy, so it must be set before numpy is
first imported in the process; it overrides OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS.  ``_blas_threads`` records the
cap (None without one), and the path engine sizes its asset threads
from it.
"""

import os as _os

__version__ = "0.1.0"

_blas_threads = None
_cap = _os.environ.get("VOLTMARK_THREADS", "")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[_var] = _cap
    if _cap.isdigit() and int(_cap) > 0:
        _blas_threads = int(_cap)

from .kernels import (
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
from .markowitz import (
    LaplaceReport,
    MarkowitzSolution,
    WealthEnsemble,
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
    ColumnMoments,
    EnsembleStats,
    frontier_experiment,
)
from .riccati import (
    BlowupError,
    RiccatiSolution,
    check_admissibility,
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
    StabilizerSeries,
    build_stabilizer,
    stabilizer_coeffs,
)
