"""Instrumental-variables quantile regression via smoothed estimating equations.

The indicator inside the quantile moment conditions is replaced by a
piecewise-linear ramp over a data-driven bandwidth, which turns the problem
into a smooth root-finding exercise: fast to solve, and with enough
regularity for plug-in bandwidths and for sandwich standard errors built
from the solver's own Jacobian.
"""

from ivqr.bandwidth import (
    BandwidthCandidates,
    BandwidthReport,
    plug_in_bandwidth,
)
from ivqr.estimate import DEFAULT_SEED, fit
from ivqr.exceptions import (
    ConvergenceError,
    EstimationError,
    RankDeficientError,
    SingularMatrixError,
)
from ivqr.inference import CovarianceEstimate, analytic_covariance, bayesian_bootstrap
from ivqr.model import EstimationProblem, FitResult, build_problem, convert_quantile
from ivqr.projection import project_instruments
from ivqr.simulation import (
    DgpSpec,
    MonteCarloRow,
    fit_levels,
    generate,
    monte_carlo,
    reference_dgp,
)
from ivqr.solver import SeeSolution, SolverDiagnostics, solve_see

__version__ = "0.1.0"

__all__ = [
    "BandwidthCandidates",
    "BandwidthReport",
    "ConvergenceError",
    "CovarianceEstimate",
    "DEFAULT_SEED",
    "DgpSpec",
    "EstimationError",
    "EstimationProblem",
    "FitResult",
    "MonteCarloRow",
    "RankDeficientError",
    "SeeSolution",
    "SingularMatrixError",
    "SolverDiagnostics",
    "analytic_covariance",
    "bayesian_bootstrap",
    "build_problem",
    "convert_quantile",
    "fit",
    "fit_levels",
    "generate",
    "monte_carlo",
    "plug_in_bandwidth",
    "project_instruments",
    "reference_dgp",
    "solve_see",
]
