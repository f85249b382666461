"""Covariance estimation: analytic sandwich and Bayesian bootstrap."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ivqr.bandwidth import normal_pdf, robust_sigma
from ivqr.exceptions import ConvergenceError, EstimationError, SingularMatrixError
from ivqr.model import EstimationProblem
from ivqr.projection import solve_nonsingular
from ivqr.solver import solve_see


@dataclass(frozen=True)
class CovarianceEstimate:
    """Covariance matrix of the coefficient estimates.

    ``kind`` is "analytic" or "bootstrap"; ``reps_used`` counts successful
    bootstrap replications (zero on the analytic path); ``kernel_bandwidth``
    is the Gaussian-kernel bandwidth of the analytic Jacobian estimate (None
    for the bootstrap).
    """

    cov: np.ndarray
    kind: str
    reps_used: int
    kernel_bandwidth: Optional[float]


def analytic_covariance(prob: EstimationProblem, beta_hat) -> CovarianceEstimate:
    """Kernel-based sandwich covariance of the smoothed-equation estimator.

    S = tau(1-tau) (1/n) sum w_i z_i z_i' and
    J = (1/(n h)) sum w_i phi(e_i/h) z_i x_i' with the full q-column
    instrument matrix and a Gaussian kernel; the covariance is
    (J' S^{-1} J)^{-1} / n, symmetrized.  The kernel bandwidth is the
    Silverman rule 1.06 n^{-1/5} min(SD, IQR/1.349) on the residuals.
    Weights are normalized to unit mean first so that rescaling all weights
    never changes reported uncertainty.
    """
    beta_hat = np.asarray(beta_hat, dtype=float).ravel()
    eps = prob.y - prob.X @ beta_hat
    h_se = 1.06 * prob.n ** (-0.2) * robust_sigma(eps)
    wn = prob.w / prob.w.mean()
    tau = prob.tau
    n = prob.n
    Z, X = prob.Z, prob.X

    S = tau * (1.0 - tau) * (Z * wn[:, None]).T @ Z / n
    kern = normal_pdf(eps / h_se)
    J = (Z * (wn * kern)[:, None]).T @ X / (n * h_se)
    if np.max(np.abs(J)) < 1e-300:
        raise EstimationError(
            "kernel Jacobian is numerically zero; the bandwidth collapsed or the "
            "estimate sits far from the data"
        )
    A = J.T @ solve_nonsingular(S, J, "instrument outer-product matrix is singular")
    cov = solve_nonsingular(A, np.eye(prob.p), "sandwich middle matrix J'S^{-1}J is singular") / n
    cov = 0.5 * (cov + cov.T)
    return CovarianceEstimate(cov=cov, kind="analytic", reps_used=0, kernel_bandwidth=h_se)


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

    Results are identical for any execution order because each substream
    depends only on (seed, r).  ``progress`` is called once per finished
    replication with the replication index.  The replications' Newton steps
    stay out of the ``ivqr.solver`` iteration log, which covers the point
    estimate.
    """
    reps = int(reps)
    if reps < 2:
        raise ValueError(f"bootstrap needs at least 2 replications, got {reps}")
    if not h_used > 0:
        raise ValueError(f"h_used must be the point estimate's positive bandwidth, got {h_used}")
    beta_hat = np.asarray(beta_hat, dtype=float).ravel()
    n = prob.n
    betas = np.empty((reps, prob.p))
    ok = np.zeros(reps, dtype=bool)
    solver_log = logging.getLogger("ivqr.solver")
    log_level = solver_log.level
    solver_log.setLevel(logging.INFO)
    try:
        for r in range(reps):
            rng = np.random.default_rng([int(seed), r])
            xi = rng.standard_exponential(n)
            w_r = prob.w * (xi / xi.mean())
            try:
                sol = solve_see(prob.reweighted(w_r), zhat, h_used, beta_init=beta_hat)
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
    return CovarianceEstimate(
        cov=cov, kind="bootstrap", reps_used=int(ok.sum()), kernel_bandwidth=None
    )
