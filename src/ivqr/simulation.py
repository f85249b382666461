"""Simulated data generators, slow-but-sure oracles, and a Monte Carlo runner."""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtri

from ivqr.estimate import fit
from ivqr.exceptions import EstimationError
from ivqr.model import EstimationProblem, build_problem

LOCATION_SHIFT = "location-shift"
RANDOM_COEFFICIENT = "random-coefficient"

_MONOTONE_GRID = np.linspace(0.01, 0.99, 99)


@dataclass(frozen=True)
class DgpSpec:
    """Configuration of a simulated design.

    ``location-shift``: y = beta0 + beta1 x + v with x = pi z + e, where
    (v, e) are jointly standard normal with correlation rho and z is a
    standard normal instrument vector (``n_instruments`` columns, combined
    with equal loadings scaled to unit variance).  The structural quantile
    coefficients are (beta1, beta0 + Phi^{-1}(tau)).

    ``random-coefficient``: y = beta0_fn(u) + beta1_fn(u) x with rank
    u ~ U(0, 1) independent of z and x positive and u-dependent, so x is
    endogenous while the conditional quantile restriction holds by
    construction.  The structural coefficients are
    (beta1_fn(tau), beta0_fn(tau)).
    """

    kind: str = LOCATION_SHIFT
    n: int = 2000
    seed: int = 0
    beta0: float = 1.0
    beta1: float = 1.0
    pi: float = 1.0
    rho: float = 0.5
    n_instruments: int = 1
    beta0_fn: Optional[Callable] = None
    beta1_fn: Optional[Callable] = None


def reference_dgp(n: int = 2000, seed: int = 0) -> DgpSpec:
    """The pinned location-shift design all calibration thresholds refer to."""
    return DgpSpec(kind=LOCATION_SHIFT, n=n, seed=seed, beta0=1.0, beta1=1.0, pi=1.0, rho=0.5)


def _default_beta0(u):
    return ndtri(u)


def _default_beta1(u):
    return 1.0 + np.asarray(u, dtype=float)


def generate(spec: DgpSpec, tau: float = 0.5):
    """Draw one dataset; returns (problem, true_beta_at).

    ``true_beta_at(t)`` gives the structural coefficient vector at quantile
    t in the problem's column order (endogenous regressor first, intercept
    last).  Random-coefficient draws are checked for monotonicity of
    x'beta(u) in u over a u-grid at every generated x; a violation raises.
    """
    rng = np.random.default_rng(spec.seed)
    n = int(spec.n)
    if n < 2:
        raise ValueError("need n >= 2")
    if spec.kind == LOCATION_SHIFT:
        if not -1.0 < spec.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {spec.rho}")
        k = int(spec.n_instruments)
        if k < 1:
            raise ValueError("need at least one instrument")
        z = rng.standard_normal((n, k))
        e = rng.standard_normal(n)
        eta = rng.standard_normal(n)
        v = spec.rho * e + np.sqrt(1.0 - spec.rho**2) * eta
        x = spec.pi * (z @ np.ones(k)) / np.sqrt(k) + e
        y = spec.beta0 + spec.beta1 * x + v
        prob = build_problem(y, raw_endog=x, raw_instr=z, quantile=tau)

        def true_beta_at(t):
            return np.array([spec.beta1, spec.beta0 + ndtri(t)])

        return prob, true_beta_at

    if spec.kind == RANDOM_COEFFICIENT:
        b0 = spec.beta0_fn if spec.beta0_fn is not None else _default_beta0
        b1 = spec.beta1_fn if spec.beta1_fn is not None else _default_beta1
        u = rng.uniform(size=n)
        z = rng.standard_normal(n)
        e = rng.standard_normal(n)
        x = np.exp(spec.pi * z + 0.5 * e) * (0.5 + u)
        y = np.asarray(b0(u), dtype=float) + np.asarray(b1(u), dtype=float) * x
        grid_vals = (
            np.asarray(b0(_MONOTONE_GRID), dtype=float)[None, :]
            + np.asarray(b1(_MONOTONE_GRID), dtype=float)[None, :] * x[:, None]
        )
        if np.any(np.diff(grid_vals, axis=1) < -1e-10):
            raise ValueError(
                "random-coefficient spec violates monotonicity: x'beta(u) is not "
                "nondecreasing in u for some generated x"
            )
        prob = build_problem(y, raw_endog=x, raw_instr=z, quantile=tau)

        def true_beta_at(t):
            return np.array([float(b1(t)), float(b0(t))])

        return prob, true_beta_at

    raise ValueError(f"unknown DGP kind {spec.kind!r}")


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


@dataclass(frozen=True)
class MonteCarloRow:
    """Aggregate results for one quantile level (arrays indexed by coefficient)."""

    tau: float
    n: int
    n_reps: int
    n_failed: int
    mean_bias: np.ndarray
    sd: np.ndarray
    rmse: np.ndarray
    analytic_se_mean: np.ndarray
    coverage: np.ndarray


def monte_carlo(
    spec: DgpSpec,
    taus: Sequence[float],
    n_reps: int,
    bandwidth: Optional[float] = None,
    level: float = 0.95,
) -> list[MonteCarloRow]:
    """Repeatedly generate and estimate; summarize bias, spread, and coverage.

    Replication r of the study redraws the dataset with a substream keyed by
    (spec.seed, r), runs the full estimation pipeline with analytic standard
    errors, and records the estimates and their confidence intervals.
    ``bandwidth`` and ``level`` are passed to :func:`fit` (``None`` selects
    the plug-in bandwidth).  Failed replications are counted and excluded
    from the summaries.
    """
    rows = []
    for tau in taus:
        estimates = []
        ses = []
        covers = []
        n_failed = 0
        truth = None
        for r in range(int(n_reps)):
            rep_spec = replace(spec, seed=np.random.default_rng([spec.seed, r]).integers(2**63))
            prob, true_beta_at = generate(rep_spec, tau=tau)
            truth = true_beta_at(tau)
            try:
                res = fit(prob, bandwidth=bandwidth, level=level, reps=0)
            except EstimationError:
                n_failed += 1
                continue
            estimates.append(res.beta)
            lo, hi = res.ci.T
            ses.append(res.se)
            covers.append((lo <= truth) & (truth <= hi))
        if not estimates:
            raise EstimationError(f"all {n_reps} replications failed at tau={tau}")
        est = np.asarray(estimates)
        bias = est - truth[None, :]
        rows.append(
            MonteCarloRow(
                tau=float(tau),
                n=int(spec.n),
                n_reps=int(n_reps),
                n_failed=n_failed,
                mean_bias=bias.mean(axis=0),
                sd=est.std(axis=0, ddof=1),
                rmse=np.sqrt((bias**2).mean(axis=0)),
                analytic_se_mean=np.asarray(ses).mean(axis=0),
                coverage=np.asarray(covers, dtype=float).mean(axis=0),
            )
        )
    return rows


def monte_carlo_to_csv(rows: Sequence[MonteCarloRow], path) -> None:
    """Write Monte Carlo summaries as one CSV line per (tau, coefficient)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["tau", "n", "n_reps", "n_failed", "coef", "mean_bias", "sd", "rmse",
             "analytic_se_mean", "coverage"]
        )
        for row in rows:
            for j in range(row.mean_bias.shape[0]):
                writer.writerow(
                    [row.tau, row.n, row.n_reps, row.n_failed, j,
                     repr(float(row.mean_bias[j])), repr(float(row.sd[j])),
                     repr(float(row.rmse[j])), repr(float(row.analytic_se_mean[j])),
                     repr(float(row.coverage[j]))]
                )
