"""Problem container, input assembly, and the fitted-result record."""

from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass
from typing import Any

import numpy as np
from scipy.special import ndtri


def _as_2d(a, name, n_rows=None):
    """Coerce ``a`` to a float (n, k) array; ``None`` becomes (n, 0)."""
    if a is None:
        if n_rows is None:
            raise ValueError(f"{name} cannot be None when no other columns fix the row count")
        return np.empty((n_rows, 0), dtype=float)
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"{name} must be one- or two-dimensional, got ndim={a.ndim}")
    return a


def _readonly(a, owned=False):
    """A read-only float copy of ``a``; ``a`` itself when ``owned`` says
    that nothing else holds it."""
    a = np.asarray(a, dtype=float) if owned else np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EstimationProblem:
    """Validated inputs for one quantile-level estimation.

    X holds all regressors (endogenous columns first, intercept last when
    present); Z holds all instruments (exogenous regressors instrument
    themselves).  Weights multiply each observation's contribution to every
    sample average.

    The problem keeps read-only copies of the arrays it is given, so a
    later write to an input array cannot reach a validated problem.
    ``_owned=True`` is for :func:`build_problem` alone: it hands over arrays
    it has just allocated, which are kept without a copy.
    """

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    w: np.ndarray
    tau: float
    endog_idx: tuple = ()
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        y = np.asarray(self.y, dtype=float).ravel()
        X = _as_2d(self.X, "X")
        Z = _as_2d(self.Z, "Z")
        w = np.asarray(self.w, dtype=float).ravel()
        n = y.shape[0]
        if X.shape[0] != n or Z.shape[0] != n or w.shape[0] != n:
            raise ValueError(
                f"row mismatch: y has {n} rows, X {X.shape[0]}, Z {Z.shape[0]}, w {w.shape[0]}"
            )
        p, q = X.shape[1], Z.shape[1]
        if p < 1:
            raise ValueError("X must have at least one column")
        if n < p:
            raise ValueError(f"need at least as many observations as parameters (n={n}, p={p})")
        if q < p:
            raise ValueError(
                f"underidentified: {q} instrument columns for {p} regressors (need q >= p)"
            )
        for name, arr in (("y", y), ("X", X), ("Z", Z), ("w", w)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if w.sum() <= 0:
            raise ValueError("weights sum to zero")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie strictly between 0 and 1, got {self.tau}")
        endog = tuple(int(j) for j in self.endog_idx)
        if any(j < 0 or j >= p for j in endog):
            raise ValueError(f"endog_idx {endog} out of range for p={p}")
        # every exogenous regressor must appear verbatim among the instruments
        for j in range(p):
            if j in endog:
                continue
            if not any(np.array_equal(X[:, j], Z[:, k]) for k in range(q)):
                raise ValueError(
                    f"exogenous regressor column {j} of X does not appear among the instrument columns"
                )
        for name, arr in (("y", y), ("X", X), ("Z", Z), ("w", w)):
            object.__setattr__(self, name, _readonly(arr, _owned))
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "endog_idx", endog)

    def reweighted(self, w) -> "EstimationProblem":
        """This problem with observation weights ``w``, built without validation.

        The copy shares the validated ``y``, ``X`` and ``Z`` of this problem
        and holds a read-only view of ``w``.  Nothing is checked, so ``w``
        must already be a finite, nonnegative float array of length n with a
        positive sum, as ``prob.w * xi / mean(xi)`` is for positive draws
        ``xi``.  The copy reads ``w`` without copying it, so the caller must
        not write to ``w`` while the copy is in use; once a solve on it has
        returned, the caller may refill the same buffer for the next draw,
        as :func:`~ivqr.inference.bayesian_bootstrap` does.
        """
        w = np.asarray(w, dtype=float).view()
        w.flags.writeable = False
        new = copy.copy(self)
        object.__setattr__(new, "w", w)
        return new

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.Z.shape[1]


def _check_columns(mat, label):
    """Reject all-zero and exactly duplicated columns."""
    k = mat.shape[1]
    for j in range(k):
        if not np.any(mat[:, j]):
            raise ValueError(f"column {j} of {label} is identically zero")
    for j in range(k):
        for m in range(j + 1, k):
            if np.array_equal(mat[:, j], mat[:, m]):
                raise ValueError(f"columns {j} and {m} of {label} are identical")


def whole_number(name: str, value) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is whole."""
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def seed_number(value) -> int:
    """``value`` as a numpy seed; ValueError naming ``seed`` unless it is a
    non-negative whole number."""
    seed = whole_number("seed", value)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def nonnegative_number(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is finite and at least 0."""
    h = float(value)
    if not (np.isfinite(h) and h >= 0):
        raise ValueError(f"{name} must be a finite nonnegative number, got {value}")
    return h


def positive_number(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is finite and above 0."""
    h = float(value)
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value}")
    return h


def convert_quantile(quantile: float) -> float:
    """Map a quantile request to a probability.

    Values in (0, 1) are taken as probabilities; values in [1, 100) are read
    as percentiles, so 50 means the median and 1 means the first percentile.
    """
    quantile = float(quantile)
    if 0.0 < quantile < 1.0:
        return quantile
    if 1.0 <= quantile < 100.0:
        return quantile / 100.0
    raise ValueError(
        f"quantile must lie in (0, 1) or [1, 100) (percent scale), got {quantile}"
    )


def build_problem(
    raw_y,
    raw_exog=None,
    raw_endog=None,
    raw_instr=None,
    weights=None,
    *,
    quantile,
    add_constant=True,
) -> EstimationProblem:
    """Assemble an :class:`EstimationProblem` from raw columns.

    Rows with any missing value (NaN) in the referenced columns are dropped
    listwise.  Regressors are ordered endogenous first, then exogenous, with
    the intercept appended last; instruments are ordered exogenous
    regressors, then excluded instruments, then the intercept.

    Parameters
    ----------
    raw_y : array-like, shape (n,)
        Dependent variable.
    raw_exog, raw_endog, raw_instr : array-like or None
        Exogenous regressors, endogenous regressors, and excluded
        instruments.  Each may be omitted.
    weights : array-like or None
        Nonnegative observation weights; defaults to ones.
    quantile : float
        Quantile level, either a probability in (0, 1) or a percentile in
        [1, 100).
    add_constant : bool
        Append an intercept column to both X and Z (default True).
    """
    tau = convert_quantile(quantile)
    # y, w, X and Z are fresh arrays from here on: the problem keeps them uncopied
    y = np.array(raw_y, dtype=float).ravel()
    n_raw = y.shape[0]
    exog = _as_2d(raw_exog, "raw_exog", n_raw)
    endog = _as_2d(raw_endog, "raw_endog", n_raw)
    instr = _as_2d(raw_instr, "raw_instr", n_raw)
    if exog.shape[0] != n_raw or endog.shape[0] != n_raw or instr.shape[0] != n_raw:
        raise ValueError(
            "all input blocks must have the same number of rows as raw_y "
            f"(y has {n_raw}, exog {exog.shape[0]}, endog {endog.shape[0]}, instruments {instr.shape[0]})"
        )
    if weights is None:
        w = np.ones(n_raw, dtype=float)
    else:
        w = np.array(weights, dtype=float).ravel()
        if w.shape[0] != n_raw:
            raise ValueError(f"weights have {w.shape[0]} rows, expected {n_raw}")

    blocks = (y, exog, endog, instr, w)
    if any(np.isinf(b).any() for b in blocks):
        raise ValueError("inputs contain infinite values; only NaN marks a missing cell")
    keep = ~(np.isnan(y) | np.isnan(w))
    for b in (exog, endog, instr):
        keep &= ~np.isnan(b).any(axis=1)
    if not keep.all():
        y, exog, endog, instr, w = (b[keep] for b in blocks)
    if y.shape[0] == 0:
        raise ValueError("no observations remain after dropping rows with missing values")

    blocks_x = [endog, exog]
    blocks_z = [exog, instr]
    if add_constant:
        const = np.ones((y.shape[0], 1))
        blocks_x.append(const)
        blocks_z.append(const)
    X = np.hstack(blocks_x)
    Z = np.hstack(blocks_z)
    if X.shape[1] < 1:
        raise ValueError("no regressors: supply at least one column or keep the constant")
    _check_columns(X, "X")
    _check_columns(Z, "Z")
    endog_idx = tuple(range(endog.shape[1]))
    return EstimationProblem(y=y, X=X, Z=Z, w=w, tau=tau, endog_idx=endog_idx, _owned=True)


@dataclass(frozen=True)
class FitResult:
    """Point estimates with their covariance and run diagnostics.

    ``se`` and ``ci`` are not stored: they are derived from ``cov`` and
    ``level`` on each access.  ``reps_used`` counts the bootstrap
    replications behind a "bootstrap" ``cov`` (0 for "analytic").
    """

    beta: np.ndarray
    cov: np.ndarray
    bandwidth: Any
    n_obs: int
    solver: Any
    vcov_kind: str
    level: float
    reps_used: int = 0

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float).ravel()
        cov = np.asarray(self.cov, dtype=float)
        p = beta.shape[0]
        if cov.shape != (p, p):
            raise ValueError(f"cov must be {p}x{p}, got {cov.shape}")
        for name, value in (("beta", beta), ("cov", cov)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} contains non-finite values")
        scale = max(float(np.max(np.diag(cov))), 0.0)
        if np.max(np.abs(cov - cov.T)) > 1e-12 * (1.0 + scale):
            raise ValueError("covariance matrix is not symmetric")
        eigmin = float(np.linalg.eigvalsh(cov).min())
        if eigmin < -1e-8 * max(scale, 1e-300):
            raise ValueError(f"covariance matrix is not PSD (min eigenvalue {eigmin:g})")
        if self.vcov_kind not in ("analytic", "bootstrap"):
            raise ValueError(f"unknown vcov_kind {self.vcov_kind!r}")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        object.__setattr__(self, "beta", _readonly(beta))
        object.__setattr__(self, "cov", _readonly(cov))
        object.__setattr__(self, "level", float(self.level))

    @property
    def se(self) -> np.ndarray:
        """Standard errors, the square roots of the diagonal of ``cov``."""
        se = np.sqrt(np.diag(self.cov))
        se.flags.writeable = False
        return se

    @property
    def ci(self) -> np.ndarray:
        """Normal-theory intervals at ``level``, one (lower, upper) row per coefficient."""
        se = self.se
        zq = ndtri(0.5 * (1.0 + self.level))
        ci = np.column_stack([self.beta - zq * se, self.beta + zq * se])
        ci.flags.writeable = False
        return ci
