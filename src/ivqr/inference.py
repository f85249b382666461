"""Covariance estimation: the solver's own sandwich and the Bayesian bootstrap."""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass

import numpy as np

from ivqr.exceptions import ConvergenceError, SingularMatrixError
from ivqr.model import EstimationProblem, seed_number, whole_number
from ivqr.projection import solve_nonsingular
from ivqr.solver import _Workspace, residuals, see_jacobian, solve_see

# Bootstraps on at least this many rows run their replications on several
# threads: numpy releases the interpreter lock inside the O(n) passes, which
# outweigh the per-step Python work from here on.  Measured as
# bayesian_bootstrap with 200 replications on the reference design, one BLAS
# thread, serial -> two threads: 0.107 -> 0.146 s at n = 1e4, 0.194 -> 0.194 s
# at 2e4, 0.201 -> 0.189 s at 3e4, 0.396 -> 0.279 s at 5e4, 0.659 -> 0.436 s
# at 1e5 (BENCH_boot_threads.json, which holds a second sweep).
BOOT_THREAD_MIN_ROWS = 30_000
# At most this many threads per bootstrap, the most measured: the sweeps
# above ran on a 2-CPU host.  Each thread beyond the first holds about 2.5
# n-vectors.
BOOT_MAX_THREADS = 2


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
    reps, seed = whole_number("reps", reps), seed_number(seed)
    if reps < 2:
        raise ValueError(f"bootstrap needs at least 2 replications, got {reps}")
    return reps, seed


def _boot_workers(n: int, reps: int) -> int:
    """How many threads run the replications of a bootstrap on ``n`` rows:
    1 below ``BOOT_THREAD_MIN_ROWS``, else the CPUs this process may use,
    at most ``reps`` and ``BOOT_MAX_THREADS``.  The CPUs are the affinity
    mask's; a CPU quota is not read."""
    if n < BOOT_THREAD_MIN_ROWS:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, reps, BOOT_MAX_THREADS))


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
    kept - 1), taken in replication order.

    Only the weights change between replications, so the residuals
    y - X beta_hat and their window |v| < ``h_used`` (its rows and their
    ``zhat`` and X rows) are computed once per call, for every replication's
    first moment and Jacobian.

    On ``BOOT_THREAD_MIN_ROWS`` rows or more the replications run on up to
    ``BOOT_MAX_THREADS`` threads, the calling one among them, and on no more
    threads than the CPUs the process may use; each takes the next
    replication index from one shared counter.  Each thread refills one
    weight buffer of its own and writes its warm solves into one workspace
    of its own (:class:`~ivqr.solver._Workspace`), so a replication
    allocates no float n-vector, and each thread beyond the first costs about
    2.5 n-vectors.  Each replication depends only on (seed, r) and the
    read-only data it shares, so the result is bit-identical for any thread
    count.  An exception in any thread stops the others at their next draw
    and is raised here once all have stopped.

    ``progress`` is called once per finished replication with the
    replication index, in index order, on whichever thread completes the
    prefix.  The replications' Newton steps stay out of the ``ivqr.solver``
    iteration log, which covers the point estimate.
    """
    reps, seed = _check_bootstrap_args(reps, seed)
    if not h_used > 0:
        raise ValueError(f"h_used must be the point estimate's positive bandwidth, got {h_used}")
    beta_hat = np.asarray(beta_hat, dtype=float).ravel()
    start = _Workspace(prob, zhat, beta_hat, h_used)
    betas = np.empty((reps, prob.p))
    ok = np.zeros(reps, dtype=bool)
    finished = np.zeros(reps, dtype=bool)
    lock = threading.Lock()  # guards the counter, ``finished`` and ``reported``
    counter = iter(range(reps))
    reported = 0
    errors = []
    stop = threading.Event()

    def replicate(ws):
        """Solve replications from the shared counter until none are left or
        another thread failed."""
        nonlocal reported
        w_r = np.empty(prob.n)
        try:
            while not stop.is_set():
                with lock:
                    r = next(counter, None)
                if r is None:
                    return
                np.random.default_rng([seed, r]).standard_exponential(out=w_r)
                w_r /= w_r.mean()
                w_r *= prob.w
                try:
                    sol = solve_see(prob.reweighted(w_r), zhat, h_used, beta_init=ws)
                    betas[r] = sol.beta
                    ok[r] = sol.h_used == h_used
                except (ConvergenceError, SingularMatrixError):
                    pass
                with lock:
                    finished[r] = True
                    while reported < reps and finished[reported]:
                        if progress is not None:
                            progress(reported)
                        reported += 1
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)
            stop.set()

    solver_log = logging.getLogger("ivqr.solver")
    log_level = solver_log.level
    solver_log.setLevel(logging.INFO)
    threads = [threading.Thread(target=replicate, args=(start.sibling(),))
               for _ in range(_boot_workers(prob.n, reps) - 1)]
    started = []
    try:
        try:
            for thread in threads:
                thread.start()
                started.append(thread)
            replicate(start)
        finally:
            stop.set()
            for thread in started:
                thread.join()
    finally:
        solver_log.setLevel(log_level)
    if errors:
        raise errors[0]
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
