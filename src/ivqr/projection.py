"""Instrument projection, the linear IV estimate used for starting values,
and the one rank guard every linear solve in the package goes through."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ivqr.exceptions import RankDeficientError, SingularMatrixError
from ivqr.model import EstimationProblem

# singular values below this share of the largest count as zero
RANK_RTOL = 1e-10
# a Gram matrix G = A' diag(w) A whose eigenvalues all exceed this share of
# the largest passes the rank guard with no SVD.  Rounding moves G's
# eigenvalues by at most about n q eps lambda_max (n q eps = 8.9e-10 at
# n = 1e6, q = 4), and the cut never falls below ten times that, so an
# accepted matrix has a singular-value ratio of at least about
# sqrt(GRAM_RTOL) = 1e-4.  That is far above RANK_RTOL, so the SVD accepts it
# too: on the Gram's scale its cut is RANK_RTOL^2 = 1e-20.
GRAM_RTOL = 1e-8


@dataclass
class _TauFree:
    """The work a fit does that does not depend on the quantile level, for
    the levels of one dataset's grid to share (see
    :func:`~ivqr.simulation.fit_levels`): the projected instruments, the
    linear IV start and the robust scale of its residuals.  Each field is
    None until a fit computes it; later fits on the same y, X, Z and w read
    it.  One record serves one dataset's grid and lives no longer."""

    zhat: Optional[np.ndarray] = None
    iv_start: Optional[np.ndarray] = None
    iv_sigma: Optional[float] = None


def check_rank(A, label, w=None):
    """Raise :class:`RankDeficientError` unless ``diag(sqrt(w)) A`` (``A``
    when ``w`` is None) has full column rank.

    The rank counts singular values above ``RANK_RTOL`` times the largest; an
    unpivoted QR then names a column that the columns before it explain.  Both run
    only when the Gram matrix A' diag(w) A, built one column at a time, is
    not clearly nonsingular (see ``GRAM_RTOL``), so a full-rank tall matrix
    costs q passes over its rows and no copy of it.
    """
    k = A.shape[1]
    gram = np.empty((k, k))
    for j in range(k):
        gram[:, j] = A.T @ (A[:, j] if w is None else A[:, j] * w)
    lam = np.linalg.eigvalsh(gram)
    if k and lam[0] > max(GRAM_RTOL, 10 * A.size * np.finfo(float).eps) * lam[-1]:
        return
    if w is not None:
        A = scale_rows(A, np.sqrt(w))
    svals = np.linalg.svd(A, compute_uv=False)
    smax = svals[0] if svals.size else 0.0
    rank = int(np.sum(svals > RANK_RTOL * smax)) if smax > 0 else 0
    if rank < k:
        # |R_jj| is column j's distance from the span of columns 0..j-1, 0 past the last row;
        # name the first within the rank cut, else the smallest
        r = np.zeros(k)
        r[:min(A.shape)] = np.abs(np.diagonal(np.linalg.qr(A, mode="r")))
        small = np.flatnonzero(r <= RANK_RTOL * smax)
        raise RankDeficientError(
            f"{label} is rank deficient (rank {rank} of {k}); column "
            f"{small[0] if small.size else np.argmin(r)} is linearly dependent on the others"
        )


def scale_rows(A, w):
    """``A * w[:, None]``, the same bits in the same layout, filled one column
    at a time: numpy's broadcast over a few columns takes about twice as long."""
    out = np.empty_like(A)
    for j in range(A.shape[1]):
        np.multiply(A[:, j], w, out=out[:, j])
    return out


def solve_nonsingular(M, B, message):
    """Solve ``M X = B``; raise :class:`SingularMatrixError` with ``message``
    when the smallest singular value of ``M`` is below ``RANK_RTOL`` times
    the largest."""
    svals = np.linalg.svd(M, compute_uv=False)
    if svals[0] <= 0 or svals[-1] < RANK_RTOL * svals[0]:
        raise SingularMatrixError(message)
    return np.linalg.solve(M, B)


def project_instruments(prob: EstimationProblem) -> np.ndarray:
    """Reduce q instruments to the (n, p) projected-instrument array.

    Exactly identified problems pass Z through unchanged; overidentified ones
    use the weighted least-squares fit of X on Z, so the projected columns
    are the first-stage fitted values.  Raises :class:`RankDeficientError`
    when the weighted instruments lose column rank.
    """
    Z = prob.Z
    check_rank(Z, "instrument matrix", prob.w)
    if prob.q == prob.p:
        return Z
    # least squares on the sqrt(w)-scaled rows, through an orthogonal
    # decomposition rather than the normal equations
    sw = np.sqrt(prob.w)
    zs, xs = scale_rows(Z, sw), scale_rows(prob.X, sw)
    del sw  # LAPACK copies zs and xs: hold q + p n-vectors meanwhile, not 1 + q + p
    coef, _, _, _ = np.linalg.lstsq(zs, xs, rcond=None)
    return Z @ coef


def iv_estimate(prob: EstimationProblem, zhat: np.ndarray) -> np.ndarray:
    """Linear instrumental-variables estimate solving the projected moments.

    Solves (1/n) sum w_i zhat_i x_i' beta = (1/n) sum w_i zhat_i y_i, i.e.
    the weighted 2SLS estimate when the projection came from the first
    stage.
    """
    n = prob.n
    wz = scale_rows(zhat, prob.w)
    M = wz.T @ prob.X / n
    m_y = wz.T @ prob.y / n
    return solve_nonsingular(
        M,
        m_y,
        "instrument/regressor cross-moment matrix is singular; instruments may be "
        "weak or collinear - inspect the first-stage fit",
    )
