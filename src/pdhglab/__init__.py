"""Primal-dual hybrid gradient solvers with a Lyapunov diagnostics laboratory.

The package splits into a solver side (problems, proximal, schedules, engine)
and a diagnostics side (lyapunov, dynamics, rates) joined by a problem
catalog (zoo) and a config-driven CLI.
"""

from .config import (
    CHECKS,
    ConfigError,
    ExperimentConfig,
    materialize,
    parse_config,
)
from .dynamics import integrate
from .engine import (
    Trajectory,
    optimality_residual,
    pdhg_step,
    run,
    step_residuals,
)
from .lyapunov import (
    Claim,
    LyapunovTable,
    NoMatchingLemma,
    TableAccumulator,
    Theorem,
    alpha_rate,
    lemma_records,
    lyapunov_accelerated,
    lyapunov_fixed,
    numerical_error,
    rho_rate,
    slack_tolerance,
    theorem_bound,
)
from .problems import Dense, FirstDifference, Identity, PrimalDualPair, SaddleProblem
from .proximal import (
    QuadraticProxCache,
    linf_normal_cone_dist,
    project_linf_ball,
    prox_least_squares,
    prox_shifted_quadratic,
)
from .rates import RateFit, contraction_factors, default_window, fit_rate
from .schedules import (
    ACCELERATED,
    FIXED,
    OPTIMAL_SS,
    REGIMES,
    VARYING_SC,
    Schedule,
    k0_threshold,
    make_schedule,
    schedule_at,
)
from .zoo import (
    BuiltInstance,
    InstanceSpec,
    SaddleCertificate,
    build_instance,
    certify_saddle,
    make_generalized_lasso,
    make_quad_pair,
    primal_objective,
    reference_saddle,
)

__version__ = "0.1.0"
