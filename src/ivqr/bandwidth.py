"""Plug-in bandwidth selection for the smoothed estimating equations.

Three candidate bandwidths are computed from the current residuals and the
smallest is requested from solver: a nonparametric plug-in driven by kernel
estimates of the residual density and its derivative at zero, a Gaussian
reference version of the same formula, and the Silverman rule of thumb.
Candidates that are undefined at the requested quantile (for example the
Gaussian reference at the median) are set to +inf so the minimum ignores
them; the Silverman candidate is always finite, so a request always exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from ivqr.exceptions import ConvergenceError
from ivqr.model import EstimationProblem, ndtri
from ivqr.projection import _TauFree, iv_estimate
from ivqr.solver import SeeSolution, residuals, solve_see

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Gaussian-reference plug-in constants for the kernel sub-bandwidths, in the
# rounded form they are conventionally quoted in
_C_SUB_S = 0.776
_C_SUB_B = 0.423
_DEGENERATE_TOL = 1e-12
# variance over squared-bias constant of the ramp smoother in the plug-in rule:
# (1 - int G^2) / (int G'(v) v^2)^2 = (1/3) / (1/9) over [-1, 1], for the
# complementary ramp G(v) = clip((1 + v)/2, 0, 1)
_VAR_BIAS_RATIO = 3.0


class BandwidthCandidates(NamedTuple):
    h_nonparametric: float
    h_gaussian_ref: float
    h_silverman: float


@dataclass(frozen=True)
class BandwidthReport:
    """Requested and realized bandwidths plus the selection inputs.

    On the plug-in path ``candidates`` holds the three candidate values and
    ``h_max`` the largest finite candidate.  On the manual-bandwidth path
    the selection machinery is bypassed entirely: ``candidates`` and the
    estimate fields are None.
    """

    h_requested: float
    h_used: float
    h_max: Optional[float] = None
    candidates: Optional[BandwidthCandidates] = None
    sigma_hat: Optional[float] = None
    f0_hat: Optional[float] = None
    fprime0_hat: Optional[float] = None

    @property
    def escalated_past_max(self) -> bool:
        """True when the solver had to go beyond the largest plug-in candidate.

        That is the weak-identification warning condition: even the most
        generous data-driven bandwidth was infeasible.
        """
        return self.h_max is not None and self.h_used > self.h_max * (1.0 + 1e-12)


def _phi(k):
    """The standard normal density of the float array ``k``, written over it."""
    np.square(k, out=k)
    k *= -0.5
    np.exp(k, out=k)
    k /= _SQRT_2PI
    return k


def normal_pdf(x):
    """Standard normal density, exp(-x^2/2) / sqrt(2 pi); ``x`` is never written."""
    return _phi(np.array(x, dtype=float))[()]


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's quantile interpolation between order statistics ``a <= b``,
    in the same arithmetic: a + (b - a) t, or b - (b - a) (1 - t) when t >= 1/2."""
    d = b - a
    return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def quartiles(x) -> np.ndarray:
    """``numpy.quantile(x, [0.25, 0.75])``, equal to it under ``==``.

    Each quartile at position p (n - 1) interpolates the order statistics
    of ranks k = floor(p (n - 1)) and k + 1 by :func:`_lerp`, numpy's own
    arithmetic.  One sort of a copy of ``x`` finds all four.  A NaN sorts
    last, so a NaN anywhere gives [nan, nan], as numpy does.  ``x`` is
    never written.
    """
    s = np.sort(np.asarray(x, dtype=float), axis=None)
    n = s.shape[0]
    if math.isnan(s.item(-1)):
        return np.full(2, np.nan)
    out = np.empty(2)
    for j, p in enumerate((0.25, 0.75)):
        pos = p * (n - 1)
        k = int(pos)
        # for n = 1 both neighbours are row 0
        out[j] = _lerp(s.item(k), s.item(min(k + 1, n - 1)), pos - k)
    return out


def robust_sigma(resid) -> float:
    """Robust residual scale: min of the sample SD and IQR/1.349.

    The quartiles are exact linear-interpolation quartiles, equal to
    ``numpy.quantile``'s, which :func:`quartiles` finds from one sort
    without calling it (its first call imports ``numpy.ma``).  A zero
    interquartile range falls back to the standard deviation; fully
    degenerate residuals raise.
    """
    resid = np.asarray(resid, dtype=float).ravel()
    if resid.shape[0] < 2:
        raise ValueError("need at least two residuals to estimate a scale")
    sd = float(np.std(resid, ddof=1))
    if sd == 0.0:
        raise ValueError("residuals are all identical; scale is degenerate")
    q25, q75 = quartiles(resid)
    iqr = float(q75 - q25)
    if iqr > 0.0:
        return min(sd, iqr / 1.349)
    return sd


def s_star(n: int, sigma: float, q: float) -> float:
    """Sub-bandwidth for the kernel density estimate at zero.

    Gaussian-reference plug-in for estimating f(0) from residuals whose
    tau-quantile is zero, q = Phi^{-1}(tau).  Returns +inf when the
    reference curvature term (q^2 - 1)^2 vanishes (q near +-1), signalling
    that the nonparametric candidate should be skipped.
    """
    shape = (q * q - 1.0) ** 2
    if shape < _DEGENERATE_TOL:
        return float("inf")
    return _C_SUB_S * n ** (-0.2) * sigma * (normal_pdf(q) * shape) ** (-0.2)


def b_star(n: int, sigma: float, q: float) -> float:
    """Sub-bandwidth for the kernel estimate of f'(0), q = Phi^{-1}(tau).

    Returns +inf when the Gaussian-reference denominator
    phi(q) q^2 (3 - q^2)^2 vanishes (the median, q = +-sqrt(3), or
    extreme tails).
    """
    den = normal_pdf(q) * q * q * (3.0 - q * q) ** 2
    if den < _DEGENERATE_TOL:
        return float("inf")
    return n ** (-1.0 / 7.0) * sigma * (_C_SUB_B / den) ** (1.0 / 7.0)


def kde_f0(resid, s: float) -> float:
    """Gaussian kernel density estimate of the residual density at zero.

    The sum of normal_pdf(-resid / s), computed in one fresh array.
    """
    resid = np.asarray(resid, dtype=float).ravel()
    n = resid.shape[0]
    k = _phi(np.divide(resid, -s))
    return float(np.sum(k) / (n * s))


def kde_fprime0(resid, b: float) -> float:
    """Gaussian kernel estimate of the residual density derivative at zero.

    Uses K'(u) = -u phi(u) evaluated at u = -resid/b, computed in two fresh
    arrays: -u beside phi(u).
    """
    resid = np.asarray(resid, dtype=float).ravel()
    n = resid.shape[0]
    neg_u = np.divide(resid, b)
    k = _phi(neg_u.copy())
    k *= neg_u
    return float(np.sum(k) / (n * b * b))


def plug_in_bandwidth(prob: EstimationProblem, resid, *, _sigma=None) -> BandwidthReport:
    """Compute the three candidate bandwidths from the given residuals.

    Returns a report with ``h_requested`` set to the smallest finite
    candidate and ``h_max`` to the largest; ``h_used`` is NaN until a solve
    fills it in.  Taking the minimum biases mistakes toward undersmoothing,
    which is the safe direction for the estimating equations.  ``_sigma``,
    when given, is ``robust_sigma(resid)``, computed earlier by the caller.
    """
    n = prob.n
    d = prob.p
    sigma = robust_sigma(resid) if _sigma is None else _sigma
    q = ndtri(prob.tau)

    s = s_star(n, sigma, q)
    b = b_star(n, sigma, q)
    f0 = fp0 = None
    h_np = float("inf")
    if np.isfinite(s) and np.isfinite(b):
        f0 = kde_f0(resid, s)
        fp0 = kde_fprime0(resid, b)
        if abs(fp0) * sigma * sigma >= _DEGENERATE_TOL:  # scale-free: f'(0) goes as 1/sigma^2
            # numpy's ** gives +inf (h_np 0) where float's raises OverflowError, in the same bits
            ratio = float(_VAR_BIAS_RATIO * d * f0 / np.float64(fp0) ** 2)
            h_np = n ** (-1.0 / 3.0) * ratio ** (1.0 / 3.0)

    if q * q < _DEGENERATE_TOL:
        h_gauss = float("inf")
    else:
        ratio = _VAR_BIAS_RATIO * d / (q * q * normal_pdf(q))
        h_gauss = n ** (-1.0 / 3.0) * sigma * ratio ** (1.0 / 3.0)

    h_silver = 1.06 * sigma * n ** (-0.2)

    cands = BandwidthCandidates(h_np, h_gauss, h_silver)
    finite = [c for c in cands if np.isfinite(c)]
    return BandwidthReport(
        h_requested=min(finite),
        h_used=float("nan"),
        h_max=max(finite),
        candidates=cands,
        sigma_hat=sigma,
        f0_hat=f0,
        fprime0_hat=fp0,
    )


def fit_with_plugin(
    prob: EstimationProblem,
    zhat: np.ndarray,
    beta_init=None,
    _shared=None,
) -> tuple[SeeSolution, BandwidthReport]:
    """Estimate with the plug-in bandwidth and one refinement pass.

    First pass: bandwidth from the linear IV residuals, then solve.  Second
    pass: recompute the plug-in from the first-pass residuals and re-solve,
    warm-started.  ``beta_init`` only starts the first solve, so it moves
    neither bandwidth nor the estimate beyond solver tolerance.  The
    refinement runs exactly once; manually chosen bandwidths never enter this
    function.  Returns the second solve and the second pass's report.  The
    solve's diagnostics cover both solves: the first solve's iterations,
    homotopy stages and escalations are added to its own, and to those of a
    ``ConvergenceError`` the second solve raises.

    ``_shared`` is the fit's :class:`~ivqr.projection._TauFree` record: the
    IV start and the scale of its residuals are taken from it when a fit
    on the same data has filled it, and stored there otherwise.  The
    residuals themselves are formed again on each call.
    """
    shared = _TauFree() if _shared is None else _shared
    if shared.iv_start is None:
        shared.iv_start = iv_estimate(prob, zhat)
    rep1 = plug_in_bandwidth(prob, residuals(prob, shared.iv_start), _sigma=shared.iv_sigma)
    shared.iv_sigma = rep1.sigma_hat
    sol1 = solve_see(prob, zhat, rep1.h_requested, beta_init=beta_init)
    rep2 = plug_in_bandwidth(prob, residuals(prob, sol1.beta))
    try:
        sol2 = solve_see(prob, zhat, rep2.h_requested, beta_init=sol1.beta)
    except ConvergenceError as exc:
        exc.diagnostics.absorb(sol1.diag)
        raise
    sol2.diag.absorb(sol1.diag)
    return sol2, replace(rep2, h_used=sol2.h_used)
