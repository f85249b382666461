"""High-level estimation pipeline shared by the CLI and the simulation harness."""

from __future__ import annotations

from ivqr.bandwidth import BandwidthReport, fit_with_plugin, plug_in_bandwidth
from ivqr.inference import analytic_covariance, bayesian_bootstrap
from ivqr.model import (EstimationProblem, FitResult, check_bootstrap_args, nonnegative_number,
                        probability)
from ivqr.projection import _TauFree, project_instruments
from ivqr.solver import residuals, solve_see

DEFAULT_SEED = 112358


def fit(
    prob: EstimationProblem,
    bandwidth: float | None = None,
    level: float = 0.95,
    reps: int = 0,
    seed: int = DEFAULT_SEED,
    beta_init=None,
    progress=None,
    _shared=None,
) -> FitResult:
    """Project instruments, solve the smoothed equations, and attach a VCE.

    ``bandwidth=None`` selects the plug-in rule, read at the residuals of a
    pilot root (:func:`~ivqr.bandwidth.fit_with_plugin`); a number requests
    that bandwidth directly (0 means the smallest feasible) and bypasses
    selection for the solve.  ``reps=0`` uses the analytic
    sandwich of the solved equations (:func:`~ivqr.inference.analytic_covariance`),
    its Jacobian at max(h_used, plug-in request), so a manual bandwidth costs
    one plug-in pass; ``reps >= 2`` the Bayesian bootstrap.  ``bandwidth``,
    ``reps`` and ``seed`` are checked before any work.  ``reps_used`` of the
    result counts the bootstrap replications kept (0 on the analytic path).
    ``beta_init`` only starts the solver: it moves neither the bandwidth nor
    the estimate beyond solver tolerance.  ``progress(r)`` is called once
    per finished bootstrap replication r.

    The returned ``beta`` is the root of the smoothed equations at
    ``bandwidth.h_used``, not a bias-corrected estimate.  It therefore
    carries the smoothing bias of that root, -(h^2/6) J^{-1} E[zhat f'(0|z)]
    to leading order (J the Jacobian of the population equations, f(.|z) the
    conditional density of the structural error); the plug-in bandwidth
    accepts that O(h^2) bias in exchange for a lower mean squared error.

    ``_shared`` is private to :func:`~ivqr.simulation.fit_levels`: a
    :class:`~ivqr.projection._TauFree` record that the fits of one
    dataset's levels fill and read, so its tau-free work runs once.
    """
    level = probability("level", level)
    bandwidth = None if bandwidth is None else nonnegative_number("bandwidth", bandwidth)
    if reps != 0:
        reps, seed = check_bootstrap_args(reps, seed)
    shared = _TauFree() if _shared is None else _shared
    if shared.zhat is None:
        shared.zhat = project_instruments(prob)
    zhat = shared.zhat
    if bandwidth is None:
        sol, report = fit_with_plugin(prob, zhat, beta_init=beta_init, _shared=shared)
    else:
        sol = solve_see(prob, zhat, bandwidth, beta_init=beta_init)
        report = BandwidthReport(h_requested=bandwidth, h_used=sol.h_used)
    beta, h = sol.beta, sol.h_used
    if reps == 0:
        h_jac = h  # on the plug-in path, never below the request
        if bandwidth is not None:
            h_jac = max(h_jac, plug_in_bandwidth(prob, residuals(prob, beta),
                                                 _overwrite=True).h_requested)
        cov_est = analytic_covariance(prob, zhat, beta, h, h_jac)
    else:
        cov_est = bayesian_bootstrap(prob, zhat, h, beta, reps=reps, seed=seed, progress=progress)
    return FitResult(
        beta=beta,
        cov=cov_est.cov,
        bandwidth=report,
        solver=sol.diag,
        n_obs=prob.n,
        vcov_kind=cov_est.kind,
        level=level,
        reps_used=cov_est.reps_used,
    )
