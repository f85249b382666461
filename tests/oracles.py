"""Slow-but-sure oracles the tests compare the estimator against.

Two share nothing with the Newton solver: a bisection for the
intercept-only fixed point and an enumeration of exact fits for the
check-function minimizer.  The bootstrap oracle shares the solver on
purpose: it is the replication loop with nothing computed once per call,
so the bootstrap must match it exactly.
"""

from itertools import combinations

import numpy as np

from ivqr.exceptions import ConvergenceError, SingularMatrixError
from ivqr.solver import solve_see


def winsorized_mean_oracle(y, h: float, tau: float = 0.5) -> float:
    """Winsorized mean of y at clipping half-width h and quantile level tau.

    Solves mean(clip(y - m, -h, h)) = (1 - 2 tau) h for m by bisection; this
    is the fixed point an intercept-only smoothed-equations problem reduces
    to, computed by a route that shares nothing with the Newton solver.  The
    estimating function is flat wherever no observation falls within h of m,
    so the zero set can be an interval; the midpoint of that interval is
    returned (for the generic unique-root case the interval is a point).
    """
    y = np.asarray(y, dtype=float).ravel()
    if not np.isfinite(h) or h <= 0:
        raise ValueError("h must be a positive finite number")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be strictly between 0 and 1")
    shift = (1.0 - 2.0 * tau) * h

    def g(m):
        return float(np.mean(np.clip(y - m, -h, h))) - shift

    lo = float(y.min()) - h
    hi = float(y.max()) + h

    def edge(keep_left):
        a, b = lo, hi
        for _ in range(120):
            mid = 0.5 * (a + b)
            if keep_left(g(mid)):
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    m_left = edge(lambda val: val > 0.0)
    m_right = edge(lambda val: val >= 0.0)
    return 0.5 * (m_left + m_right)


def brute_force_qr_oracle(y, X, tau: float) -> np.ndarray:
    """Exact quantile regression by enumerating all p-point exact fits.

    Evaluates the check-function objective at every coefficient vector that
    interpolates p observations and returns the minimizer.  Exponential in
    p, so inputs are capped at n <= 30, p <= 3.
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, p = X.shape
    if n > 30 or p > 3:
        raise ValueError(f"brute force capped at n <= 30, p <= 3 (got n={n}, p={p})")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    best_obj = np.inf
    best_beta = None
    for subset in combinations(range(n), p):
        A = X[list(subset)]
        svals = np.linalg.svd(A, compute_uv=False)
        if svals[0] <= 0 or svals[-1] < 1e-10 * svals[0]:
            continue
        beta = np.linalg.solve(A, y[list(subset)])
        v = y - X @ beta
        obj = float(np.sum(v * (tau - (v <= 0))))
        if obj < best_obj - 1e-15:
            best_obj = obj
            best_beta = beta
    if best_beta is None:
        raise ValueError("no nonsingular p-point subset; design has no exact fits")
    return best_beta


def bootstrap_oracle(prob, zhat, h_used, beta_hat, reps: int, seed: int):
    """The Bayesian bootstrap one self-contained replication at a time.

    Each replication draws fresh exponentials from the substream
    (seed, r), builds a fresh weight vector and a reweighted problem, and
    calls ``solve_see`` from ``beta_hat`` with nothing shared between
    replications.  Returns (cov, reps_used) under the bootstrap's rules:
    a draw that raises or escalates away from ``h_used`` is dropped, and
    more than 5 percent dropped raises ``ConvergenceError``.
    """
    betas = []
    for r in range(reps):
        xi = np.random.default_rng([seed, r]).standard_exponential(prob.n)
        w_r = prob.w * (xi / xi.mean())
        try:
            sol = solve_see(prob.reweighted(w_r), zhat, h_used, beta_init=beta_hat)
        except (ConvergenceError, SingularMatrixError):
            continue
        if sol.h_used == h_used:
            betas.append(sol.beta)
    if reps - len(betas) > 0.05 * reps:
        raise ConvergenceError(f"{reps - len(betas)} of {reps} bootstrap replications failed")
    cov = np.atleast_2d(np.cov(np.array(betas), rowvar=False, ddof=1))
    return 0.5 * (cov + cov.T), len(betas)
