"""Covariance estimation: the solver's own sandwich and the Bayesian bootstrap."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ivqr.exceptions import ConvergenceError, SingularMatrixError
from ivqr.model import EstimationProblem
from ivqr.projection import solve_nonsingular
from ivqr.solver import _Workspace, residuals, see_jacobian, solve_see


@dataclass(frozen=True)
class CovarianceEstimate:
    """Covariance matrix of the coefficient estimates.

    ``kind`` is "analytic" (the sandwich J^{-1} S J^{-T} / n of
    :func:`analytic_covariance`) or "bootstrap"; ``reps_used`` counts
    successful bootstrap replications (zero on the analytic path).
    """

    cov: np.ndarray
    kind: str
    reps_used: int


def analytic_covariance(
    prob: EstimationProblem, zhat: np.ndarray, beta_hat, h_used: float, h_jacobian: float
) -> CovarianceEstimate:
    """Sandwich covariance J^{-1} S J^{-T} / n of the smoothed equations
    Zhat'psi = 0 that ``beta_hat`` solves at ``h_used``.

    S = (1/n) sum w~_i ((1/2 - tau) - clip(v_i, -h, h)/(2h))^2 zhat_i zhat_i'
    at h = ``h_used``, with v = y - X beta_hat and w~ = w / mean(w), so
    rescaling all weights never moves the result.  J is the solver's own
    :func:`~ivqr.solver.see_jacobian` at ``h_jacobian``, over mean(w); ``fit``
    passes max(h_used, plug-in request), since a window as thin as a tiny
    manual bandwidth is no density estimate.  Raises
    :class:`SingularMatrixError` when J is singular, e.g. with no
    observation inside the window.
    """
    beta_hat = np.asarray(beta_hat, dtype=float).ravel()
    w_mean = prob.w.mean()
    v = residuals(prob, beta_hat)
    J = see_jacobian(prob, zhat, beta_hat, h_jacobian, v=v) / w_mean
    psi = np.clip(v, -h_used, h_used, out=v)
    psi *= -0.5 / h_used
    psi += 0.5 - prob.tau
    S = (zhat * (psi * psi * (prob.w / w_mean))[:, None]).T @ zhat / prob.n
    J_inv = solve_nonsingular(J, np.eye(prob.p), "Jacobian of the smoothed equations is "
                              "singular; too few observations sit inside the smoothing window")
    cov = J_inv @ S @ J_inv.T / prob.n
    cov = 0.5 * (cov + cov.T)
    return CovarianceEstimate(cov=cov, kind="analytic", reps_used=0)


def _check_bootstrap_args(reps, seed) -> tuple:
    """``(reps, seed)`` as ints; ValueError naming the argument unless
    ``reps`` is a whole number of at least 2 and ``seed`` a non-negative one."""
    for name, value in (("reps", reps), ("seed", seed)):
        try:
            whole = int(value) == value
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if reps < 2:
        raise ValueError(f"bootstrap needs at least 2 replications, got {reps}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return int(reps), int(seed)


def bayesian_bootstrap(
    prob: EstimationProblem,
    zhat: np.ndarray,
    h_used: float,
    beta_hat,
    reps: int,
    seed: int,
    progress=None,
) -> CovarianceEstimate:
    """Bayesian-bootstrap covariance via exponential reweighting.

    Each replication draws iid standard exponentials from its own
    counter-based substream keyed by (seed, replication index), multiplies
    the base weights by the normalized draws (the per-replication weights
    keep the same total), and re-solves the smoothed equations at the same
    bandwidth, warm-started from the point estimate.  A replication whose
    warm solve fails falls back to the full homotopy; it counts as failed
    if that raises or escalates away from ``h_used``, since its root then
    solves another equation.  More than 5 percent failures abort.  The
    covariance is the sample covariance of the kept estimates (denominator
    kept - 1).

    Only the weights change between replications, so the residuals
    y - X beta_hat and their window |v| < ``h_used`` (its rows and their
    ``zhat`` and X rows) are computed once per call, for every replication's
    first moment and Jacobian.  The draws refill one weight buffer and the
    warm solves share one workspace (:class:`~ivqr.solver._Workspace`), so a
    replication allocates no n-vector.

    Results are identical for any execution order because each substream
    depends only on (seed, r).  ``progress`` is called once per finished
    replication with the replication index.  The replications' Newton steps
    stay out of the ``ivqr.solver`` iteration log, which covers the point
    estimate.
    """
    reps, seed = _check_bootstrap_args(reps, seed)
    if not h_used > 0:
        raise ValueError(f"h_used must be the point estimate's positive bandwidth, got {h_used}")
    beta_hat = np.asarray(beta_hat, dtype=float).ravel()
    start = _Workspace(prob, zhat, beta_hat, h_used)
    w_r = np.empty(prob.n)
    betas = np.empty((reps, prob.p))
    ok = np.zeros(reps, dtype=bool)
    solver_log = logging.getLogger("ivqr.solver")
    log_level = solver_log.level
    solver_log.setLevel(logging.INFO)
    try:
        for r in range(reps):
            np.random.default_rng([seed, r]).standard_exponential(out=w_r)
            w_r /= w_r.mean()
            w_r *= prob.w
            try:
                sol = solve_see(prob.reweighted(w_r), zhat, h_used, beta_init=start)
                betas[r] = sol.beta
                ok[r] = sol.h_used == h_used
            except (ConvergenceError, SingularMatrixError):
                pass
            if progress is not None:
                progress(r)
    finally:
        solver_log.setLevel(log_level)
    n_fail = int(reps - ok.sum())
    if n_fail > 0.05 * reps:
        raise ConvergenceError(
            f"{n_fail} of {reps} bootstrap replications failed to converge"
        )
    good = betas[ok]
    cov = np.cov(good, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    cov = 0.5 * (cov + cov.T)
    return CovarianceEstimate(cov=cov, kind="bootstrap", reps_used=int(ok.sum()))
