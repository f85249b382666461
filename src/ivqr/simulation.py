"""Simulated data generators and a Monte Carlo runner."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ivqr.estimate import fit
from ivqr.exceptions import EstimationError
from ivqr.model import (EstimationProblem, FitResult, build_problem, ndtri, nonnegative_number,
                        probability, real_number, seed_number, whole_number)
from ivqr.projection import _TauFree

LOCATION_SHIFT = "location-shift"
RANDOM_COEFFICIENT = "random-coefficient"


@dataclass(frozen=True)
class DgpSpec:
    """Configuration of a simulated design.

    ``location-shift``: y = 1 + x + v with x = pi z + e, where (v, e) are
    jointly standard normal with correlation rho and z is a standard normal
    instrument vector (``n_instruments`` columns, combined with equal
    loadings scaled to unit variance).  The structural quantile
    coefficients are (1, 1 + Phi^{-1}(tau)).

    ``random-coefficient``: y = Phi^{-1}(u) + (1 + u) x with rank
    u ~ U(0, 1) independent of the one instrument z, and
    x = exp(pi z + e / 2) (1/2 + u) with e standard normal, so x is positive
    and endogenous while y is increasing in u and the conditional quantile
    restriction holds by construction.  The structural coefficients are
    (1 + tau, Phi^{-1}(tau)); ``rho`` is not used and ``n_instruments``
    must be 1.

    ``seed`` must be a non-negative whole number.
    """

    kind: str = LOCATION_SHIFT
    n: int = 2000
    seed: int = 0
    pi: float = 1.0
    rho: float = 0.5
    n_instruments: int = 1


def reference_dgp(n: int = 2000, seed: int = 0) -> DgpSpec:
    """The pinned location-shift design all calibration thresholds refer to."""
    return DgpSpec(kind=LOCATION_SHIFT, n=n, seed=seed, pi=1.0, rho=0.5)


def generate(spec: DgpSpec, tau: float = 0.5):
    """Draw one dataset; returns (problem, true_beta_at).

    ``true_beta_at(t)`` gives the structural coefficient vector at quantile
    t in the problem's column order (endogenous regressor first, intercept
    last).
    """
    rng = np.random.default_rng(seed_number(spec.seed))
    n = whole_number("n", spec.n)
    if n < 2:
        raise ValueError("need n >= 2")
    pi = real_number("pi", spec.pi)
    if not np.isfinite(pi):
        raise ValueError(f"pi must be a finite number, got {pi}")
    if spec.kind == LOCATION_SHIFT:
        rho = real_number("rho", spec.rho)
        if not -1.0 < rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {rho}")
        k = whole_number("n_instruments", spec.n_instruments)
        if k < 1:
            raise ValueError("need at least one instrument")
        z = rng.standard_normal((n, k))
        e = rng.standard_normal(n)
        v = rng.standard_normal(n)  # eta, scaled in place
        v *= np.sqrt(1.0 - rho**2)
        v += rho * e
        x = z @ np.ones(k)
        x *= pi
        x /= np.sqrt(k)
        x += e
        y = np.add(x, 1.0, out=e)  # e is spent: y takes its buffer
        y += v
        del e, v

        def true_beta_at(t):
            return np.array([1.0, 1.0 + ndtri(t)])
    elif spec.kind == RANDOM_COEFFICIENT:
        k = whole_number("n_instruments", spec.n_instruments)
        if k != 1:
            raise ValueError(f"the {RANDOM_COEFFICIENT} design has one instrument; "
                             f"n_instruments must be 1, got {k}")
        u = rng.uniform(size=n)
        z = rng.standard_normal(n)
        e = rng.standard_normal(n)
        x = pi * z
        e *= 0.5
        x += e
        np.exp(x, out=x)
        x *= np.add(u, 0.5, out=e)
        slope = np.add(u, 1.0, out=e)
        slope *= x
        y = np.fromiter(map(ndtri, u), float, n)
        y += slope
        del u, e, slope

        def true_beta_at(t):
            return np.array([1.0 + t, ndtri(t)])
    else:
        raise ValueError(f"unknown DGP kind {spec.kind!r}")
    return build_problem(y, raw_endog=x, raw_instr=z, quantile=tau), true_beta_at


def fit_levels(
    base: EstimationProblem,
    taus: Sequence[float],
    bandwidth: Optional[float] = None,
    level: float = 0.95,
) -> list[Optional[FitResult]]:
    """Fit ``base`` at every level in ``taus`` with analytic standard errors:
    one result per level, in the order of ``taus``, None where the fit
    raised :class:`EstimationError`.

    The level nearest 0.5 is solved cold (ties in the order of ``taus``);
    every other level, in order of distance from 0.5, starts from the
    estimate at the nearest level already attempted, or cold when that fit
    failed.  ``bandwidth`` and ``level`` go to :func:`fit`.  Each level is
    fitted on ``base.at_quantile(tau)``, and the levels share the work that
    does not depend on tau: the first fit projects the instruments and, on
    the plug-in path with its pilot on all rows, computes the IV start and
    the robust scale of its residuals.  The results equal, bit for bit,
    those of ``fit`` on validated copies of ``base`` from the same starts.
    """
    order = sorted(range(len(taus)), key=lambda i: abs(taus[i] - 0.5))
    shared = _TauFree()
    solved = {}  # level -> its estimate, None if the fit failed
    out = [None] * len(taus)
    for i in order:
        tau = taus[i]
        near = min(solved, key=lambda t: abs(t - tau), default=None)
        try:
            out[i] = fit(base.at_quantile(tau), bandwidth=bandwidth, level=level, reps=0,
                         beta_init=solved.get(near), _shared=shared)
        except EstimationError:
            solved[tau] = None
            continue
        solved[tau] = out[i].beta
    return out


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

    Replication r of the study draws one dataset with a substream keyed by
    (spec.seed, r) and estimates it at every quantile level in ``taus`` with
    :func:`fit_levels` (the full pipeline, analytic standard errors, warm
    starts from the nearest level and the tau-free work done once per
    dataset), recording the estimates and their confidence intervals.
    ``bandwidth`` and ``level`` are passed to it (``None`` selects the
    plug-in bandwidth).  Failed fits are counted per level and excluded
    from the summaries.  Rows come back in the order of ``taus``.  The seed,
    the sizes, every level in ``taus`` and ``level`` are checked before the
    first draw, and so is ``bandwidth``, as ``fit`` checks it.
    """
    taus = [probability("tau", t) for t in taus]
    seed = seed_number(spec.seed)
    n_reps = whole_number("n_reps", n_reps)
    if n_reps < 2 or not taus:
        raise ValueError(f"need n_reps >= 2 and at least one tau, got {n_reps} and {taus}")
    probability("level", level)
    bandwidth = None if bandwidth is None else nonnegative_number("bandwidth", bandwidth)
    fits = [[] for _ in taus]  # per level: (beta, se, covered) of each successful fit
    for r in range(n_reps):
        rep_spec = replace(spec, seed=np.random.default_rng([seed, r]).integers(2**63))
        base, true_beta_at = generate(rep_spec)
        for tau, res, done in zip(taus, fit_levels(base, taus, bandwidth, level), fits):
            if res is not None:
                truth = true_beta_at(tau)
                lo, hi = res.ci.T
                done.append((res.beta, res.se, (lo <= truth) & (truth <= hi)))
    rows = []
    for tau, done in zip(taus, fits):
        if not done:
            raise EstimationError(f"all {n_reps} replications failed at tau={tau}")
        est, ses, covers = (np.asarray(a) for a in zip(*done))
        bias = est - true_beta_at(tau)[None, :]
        rows.append(
            MonteCarloRow(
                tau=tau,
                n=int(spec.n),
                n_reps=n_reps,
                n_failed=n_reps - len(done),
                mean_bias=bias.mean(axis=0),
                sd=est.std(axis=0, ddof=1),
                rmse=np.sqrt((bias**2).mean(axis=0)),
                analytic_se_mean=ses.mean(axis=0),
                coverage=covers.astype(float).mean(axis=0),
            )
        )
    return rows
