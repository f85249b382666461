"""Covariance estimation: the solver's own sandwich and the Bayesian bootstrap."""

from __future__ import annotations

import logging
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ivqr.exceptions import ConvergenceError, SingularMatrixError
from ivqr.model import EstimationProblem, positive_number, seed_number, whole_number
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
    manual bandwidth is no density estimate.  Both bandwidths must be finite
    and positive (ValueError naming the argument).  Raises
    :class:`SingularMatrixError` when J is singular, e.g. with no
    observation inside the window.
    """
    h_used = positive_number("h_used", h_used)
    h_jacobian = positive_number("h_jacobian", h_jacobian)
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

    On ``BOOT_THREAD_MIN_ROWS`` rows or more the replications are mapped
    over a pool of up to ``BOOT_MAX_THREADS`` threads, no more than the
    CPUs the process may use, and the calling thread takes their results in
    index order; below that, or with one usable CPU, they run one after
    another on the calling thread and no thread is started.  Each
    replication borrows one of as many (workspace, weight buffer) pairs as
    threads (:class:`~ivqr.solver._Workspace`), refills the buffer and
    writes its warm solve into the workspace, so a replication allocates no
    float n-vector; each thread beyond the first costs about 2.5 n-vectors,
    and the pool holds about 2 KB per replication for its queued result.
    Each replication depends only on (seed, r) and the read-only data it
    shares, so the result is bit-identical for any thread count.  An
    exception in a replication stops the others at their next draw; the one
    raised here is the lowest-index one among the replications that raised.

    ``progress`` is called once per finished replication with the
    replication index, in index order, on the calling thread.  The
    replications' Newton steps stay out of the ``ivqr.solver`` iteration
    log, which covers the point estimate.
    """
    reps, seed = _check_bootstrap_args(reps, seed)
    h_used = positive_number("h_used", h_used)
    beta_hat = np.asarray(beta_hat, dtype=float).ravel()
    start = _Workspace(prob, zhat, beta_hat, h_used)
    workers = _boot_workers(prob.n, reps)
    spare = queue.SimpleQueue()  # one (workspace, weight buffer) pair per thread
    for ws in [start] + [start.sibling() for _ in range(workers - 1)]:
        spare.put((ws, np.empty(prob.n)))
    stop = threading.Event()

    def replicate(r):
        """The kept beta of replication ``r``, or None if it failed or
        another replication raised."""
        if stop.is_set():
            return None
        ws, w_r = spare.get()
        try:
            np.random.default_rng([seed, r]).standard_exponential(out=w_r)
            w_r /= w_r.mean()
            w_r *= prob.w
            sol = solve_see(prob.reweighted(w_r), zhat, h_used, beta_init=ws)
            return sol.beta if sol.h_used == h_used else None
        except (ConvergenceError, SingularMatrixError):
            return None
        except BaseException:
            stop.set()
            raise
        finally:
            spare.put((ws, w_r))

    betas = np.empty((reps, prob.p))
    ok = np.zeros(reps, dtype=bool)
    solver_log = logging.getLogger("ivqr.solver")
    log_level = solver_log.level
    solver_log.setLevel(logging.INFO)
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    try:
        for r, beta_r in enumerate((pool.map if pool else map)(replicate, range(reps))):
            if beta_r is not None:
                betas[r], ok[r] = beta_r, True
            if progress is not None:
                progress(r)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
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
