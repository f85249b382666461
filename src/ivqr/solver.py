"""Damped-Newton solver for the smoothed estimating equations.

The target system in beta is

    0 = (1/n) sum_i w_i zhat_i [ I((y_i - x_i'beta) / h) - tau ]

with I(u) = clip((1 - u)/2, 0, 1) the ramp that smooths the indicator
1{u <= 0}.  It is solved by Newton steps with a backtracking line search on
the Euclidean norm of the residual.  Small bandwidths are reached by a
bandwidth homotopy: start from the linear IV estimate at twice the SD of its
residuals (capped where every residual sits inside the window), where the
system is close to linear, halve toward the request, and warm-start each
stage from the last.  If that first stage fails the descent restarts where
the system is exactly linear.  If the descent stops above the request,
:func:`solve_see` escalates the target geometrically, one Newton stage per
new target from the root at the smallest converged bandwidth, until one
succeeds or the attempt budget runs out; a target at or below a failed
bandwidth is skipped but counted.

Each Newton iterate forms the residual vector y - X beta once; the moment
records its smoothing window for the Jacobian and is one matrix-vector
product of the clipped residuals, and the Jacobian sums over the rows inside
the window only.  Each Newton stage writes its n-vectors into one
:class:`_Workspace`, so its iterates allocate no float n-vector; the
bootstrap's workspaces share the point estimate's residuals and window
across its draws.

A cold solve on at least ``SUBSAMPLE_MIN_ROWS`` rows runs the homotopy on a
strided subsample first and starts one full-data Newton stage from its root,
as a warm start does; if either fails the full homotopy runs on all rows
(details in :func:`solve_see`).

Each accepted Newton step outside a bootstrap draw is logged at DEBUG on
the ``ivqr.solver`` logger.
"""

from __future__ import annotations

import contextvars
import copy
import logging
import math
from dataclasses import dataclass

import numpy as np

from ivqr.exceptions import ConvergenceError, SingularMatrixError
from ivqr.model import EstimationProblem, nonnegative_number
from ivqr.projection import iv_estimate, scale_rows

MAX_NEWTON_ITER = 200
MAX_BACKTRACK = 30
MAX_ESCALATIONS = 40
ESCALATION_FACTOR = 1.5
# cold solves on at least this many rows start the full-data Newton stage
# from the root on a strided subsample of at most this many rows.  Measured
# on plug-in fits of the reference design at tau = 0.25 (one BLAS thread,
# full homotopy -> subsample start): 23 -> 20 ms at n = 5e4, 44 -> 32 ms at
# 1e5, 0.72 -> 0.34 s at 1e6.
SUBSAMPLE_MIN_ROWS = 50_000

_LOG = logging.getLogger(__name__)
# set while a bootstrap draw solves: its Newton steps stay out of the log
_QUIET = contextvars.ContextVar("ivqr.solver.quiet", default=False)


@dataclass
class SolverDiagnostics:
    iterations: int = 0
    final_residual_inf_norm: float = float("nan")
    bandwidth_escalations: int = 0
    converged: bool = False
    homotopy_stages: int = 0

    def absorb(self, other: SolverDiagnostics) -> None:
        """Add ``other``'s iterations, homotopy stages and escalations to
        these; the final residual and ``converged`` stay this record's own."""
        self.iterations += other.iterations
        self.homotopy_stages += other.homotopy_stages
        self.bandwidth_escalations += other.bandwidth_escalations


@dataclass(frozen=True)
class SeeSolution:
    beta: np.ndarray
    h_used: float
    diag: SolverDiagnostics


def residuals(prob: EstimationProblem, beta, out=None) -> np.ndarray:
    """The residual vector y - X beta, in the n-vector ``out`` or a new array."""
    v = np.matmul(prob.X, np.asarray(beta, dtype=float).ravel(), out=out)
    return np.subtract(prob.y, v, out=v)


class _Workspace:
    """The n-vectors a Newton stage writes: a residual buffer and a bool
    window mask.  One residual buffer is enough: an iterate's moment clips
    its residuals in place after recording their window in the mask, and
    its Jacobian reads only the mask, before the line search writes
    candidates over both.

    So with a workspace the calls come in one order: :func:`see_residual`
    at ``v`` and ``h`` before :func:`see_jacobian` at the same point, with
    no other moment on the same workspace in between.  The Jacobian does
    not read ``v``: it takes the window the last moment recorded, or the
    start's window described below.

    Built with ``beta`` and ``h`` it also holds a start shared by solves at
    ``h`` on reweightings of ``prob`` (same y, X and ``zhat``, other
    weights): ``beta``, its read-only residuals ``v`` and the rows, ``zhat``
    rows and X rows of their window |v| < h, which each such solve's first
    moment and Jacobian read.  :meth:`sibling` gives a workspace with the
    same start and buffers of its own, for a solve that runs beside this
    one's.
    """

    def __init__(self, prob, zhat=None, beta=None, h=None):
        self.beta, self.h, self.v, self.window = beta, h, None, None
        if beta is not None:
            self.v = residuals(prob, beta)
            self.v.flags.writeable = False
            rows = np.flatnonzero(np.abs(self.v) < h)
            self.window = (rows, zhat.take(rows, axis=0), prob.X.take(rows, axis=0))
        self.resid = np.empty(prob.n)
        self.mask = np.empty(prob.n, dtype=bool)

    def sibling(self) -> _Workspace:
        """This workspace's start with new buffers."""
        ws = copy.copy(self)
        ws.resid, ws.mask = np.empty_like(self.resid), np.empty_like(self.mask)
        return ws

    def holds_window(self, v, h) -> bool:
        """Whether ``v`` is this workspace's start at its bandwidth ``h``."""
        return v is self.v and h == self.h


def instrument_means(prob: EstimationProblem, zhat: np.ndarray) -> np.ndarray:
    """Weighted instrument means Zhat'w / n, the constant part of the moment."""
    return zhat.T @ prob.w / prob.n


def see_residual(prob: EstimationProblem, zhat: np.ndarray, beta, h, v=None, zw=None, *,
                 _ws=None):
    """Smoothed sample moment vector at ``beta`` with bandwidth ``h``.

    Uses I(v/h) - tau = (1/2 - tau) - clip(v, -h, h)/(2h), for the ramp
    I(u) = clip((1 - u)/2, 0, 1) of the module docstring, so the moment
    is (1/2 - tau) Zhat'w/n minus one product of Zhat' with the clipped,
    weighted residuals.  Callers that already hold the residuals
    ``v = y - X beta`` or the instrument means ``zw`` (see
    :func:`instrument_means`) may pass them in; ``zw`` is not modified.

    ``_ws`` is the Newton loop's :class:`_Workspace`, whose docstring gives
    the call order.  With it the window |v| < h goes into its mask and the
    clipped, weighted residuals into its residual buffer, so a ``v`` that is
    that buffer is overwritten.  Without it ``v`` is not modified.
    """
    if v is None:
        v = residuals(prob, beta)
    if zw is None:
        zw = instrument_means(prob, zhat)
    if _ws is not None and not _ws.holds_window(v, h):
        np.greater(v, -h, out=_ws.mask)
        _ws.mask &= v < h
    t = np.clip(v, -h, h, out=None if _ws is None else _ws.resid)
    t *= prob.w
    return (0.5 - prob.tau) * zw - zhat.T @ t / (2.0 * h * prob.n)


def see_jacobian(prob: EstimationProblem, zhat: np.ndarray, beta, h, v=None, *, _ws=None):
    """Derivative of :func:`see_residual` with respect to ``beta``.

    Only observations strictly inside the smoothing window contribute; the
    ramp has slope -1/2 there, which combined with the inner derivative
    -x_i/h gives (1/(2nh)) sum over the window of w_i zhat_i x_i'.  Only the
    window rows are gathered and summed.  ``v`` is as in
    :func:`see_residual`; with the workspace ``_ws`` the window is the one
    its last moment recorded (see :class:`_Workspace`).
    """
    if _ws is not None and _ws.holds_window(v, h):
        rows, zhat_in, x_in = _ws.window
        zw_in = scale_rows(zhat_in, prob.w.take(rows))
    else:
        if _ws is not None:
            rows = np.flatnonzero(_ws.mask)
        else:
            rows = np.flatnonzero(np.abs(residuals(prob, beta) if v is None else v) < h)
        zw_in = zhat.take(rows, axis=0)
        w_in = prob.w.take(rows)
        # one column at a time, in place, as scale_rows does
        for j in range(zw_in.shape[1]):
            zw_in[:, j] *= w_in
        x_in = prob.X.take(rows, axis=0)
    return zw_in.T @ x_in / (2.0 * prob.n * h)


def tol_residual(prob: EstimationProblem, zhat: np.ndarray, zw=None) -> float:
    """Convergence tolerance, scaled by the weighted instrument means."""
    if zw is None:
        zw = instrument_means(prob, zhat)
    return 1e-8 * (1.0 + np.max(np.abs(zw)))


def _damped_newton(prob, zhat, beta0, h, tol, zw, ws=None):
    """Newton iteration at fixed bandwidth.

    Returns (beta, n_iterations, converged, final_inf_norm).  Fails (without
    raising) on a singular Jacobian, a non-finite step, or a line search that
    cannot reduce the residual norm after MAX_BACKTRACK halvings.  The
    residual vector y - X beta is formed once per iterate and per line-search
    candidate; the moment records its window for the Jacobian (see
    :class:`_Workspace`).  ``zw`` is the solve's :func:`instrument_means`.
    Every n-vector goes into ``ws``, a :class:`_Workspace` whose start, if it
    holds one, is at ``beta0``, or into one allocated here.
    """
    if ws is None:
        ws = _Workspace(prob)
    beta = np.asarray(beta0, dtype=float).copy()
    v = ws.v if ws.v is not None else residuals(prob, beta, ws.resid)
    g = see_residual(prob, zhat, beta, h, v=v, zw=zw, _ws=ws)
    for it in range(MAX_NEWTON_ITER + 1):
        # the p-vector checks call ndarray methods: at small n the np.max and
        # np.all wrappers cost more than a stage's workspace
        gn = float(abs(g).max())
        if gn <= tol or it == MAX_NEWTON_ITER:
            return beta, it, gn <= tol, gn
        J = see_jacobian(prob, zhat, beta, h, v=v, _ws=ws)
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError:
            return beta, it, False, gn
        if not np.isfinite(step).all():
            return beta, it, False, gn
        # the Euclidean norms are np.linalg.norm's own arithmetic on a 1-D
        # float vector, sqrt(g . g), without its wrapper
        g2 = math.sqrt(g.dot(g))
        lam = 1.0
        for _ in range(MAX_BACKTRACK + 1):
            cand = beta + lam * step
            vc = residuals(prob, cand, ws.resid)
            gc = see_residual(prob, zhat, cand, h, v=vc, zw=zw, _ws=ws)
            if np.isfinite(gc).all() and math.sqrt(gc.dot(gc)) < g2:
                break
            lam *= 0.5
        else:
            return beta, it + 1, False, gn
        beta, g, v = cand, gc, vc
        if _LOG.isEnabledFor(logging.DEBUG) and not _QUIET.get():
            _LOG.debug(
                "h=%.8g iter=%d resid_inf=%.3e step=%.3e",
                h, it + 1, float(np.max(np.abs(g))), float(np.linalg.norm(lam * step)),
            )


def _stage(prob, zhat, beta0, h, tol, zw, diag, *ws):
    """One Newton stage at ``h``, counted in ``diag``: (beta, final norm), or
    None if it fails.  ``ws`` is empty or a workspace whose start is at
    ``beta0``, passed on to :func:`_damped_newton`."""
    beta, nit, ok, gn = _damped_newton(prob, zhat, beta0, h, tol, zw, *ws)
    diag.iterations += nit
    diag.homotopy_stages += 1
    return (beta, gn) if ok else None


def solve_see(
    prob: EstimationProblem,
    zhat: np.ndarray,
    h_request: float,
    beta_init=None,
) -> SeeSolution:
    """Solve the smoothed estimating equations at (or as close as feasible to)
    the requested bandwidth.

    The homotopy starts from the linear IV estimate at a bandwidth set by the
    spread of its residuals r0, min(max|r0| + 1, 2 sd(r0)), where the system
    is close to linear, then halves the bandwidth toward the request,
    warm-starting each stage from the last.  If that first stage fails, the
    descent restarts from max|r0| + 1, where every observation sits inside
    the smoothing window and the system is exactly linear.  If a later stage
    fails, the target is escalated by a factor of 1.5, up to 40 escalations,
    each new target one Newton stage from the root at the smallest converged
    bandwidth (the IV start if none); a target at or below the last failed
    bandwidth is skipped but counted, as its stage would repeat that failure.
    When the budget runs out the solution at that smallest converged
    bandwidth is returned; ``h_used`` always reports the bandwidth the
    returned beta actually solves.

    ``h_request = 0`` asks for the smallest numerically feasible bandwidth:
    the descent targets the smallest positive normal float and stops wherever
    the stages stop converging.

    When ``beta_init`` is given the solver first tries a direct Newton solve
    at the requested bandwidth from that point (the warm-start path used for
    refinement and bootstrap replications); only if the direct solve fails
    does it compute the IV start and fall back to the full homotopy.
    ``beta_init`` may also be a :class:`_Workspace` built on a problem that
    ``prob`` reweights: the direct solve then starts from its beta and
    residuals (and its window, when built at the request) and writes into
    its buffers.

    A cold solve of a positive request on at least ``SUBSAMPLE_MIN_ROWS``
    rows first runs the descent above, without escalation, on every k-th
    row, k = n // SUBSAMPLE_MIN_ROWS + 1, and starts the same single
    full-data Newton stage at the request from that root.  A descent that
    stops above the request, or a full-data stage that fails, hands the
    solve to the full homotopy on all rows, unchanged.  ``diag`` counts the
    subsample's stages and iterations with the others.
    """
    h_request = nonnegative_number("h_request", h_request)
    zw = instrument_means(prob, zhat)
    tol = tol_residual(prob, zhat, zw)
    target0 = h_request if h_request > 0 else float(np.finfo(float).tiny)
    diag = SolverDiagnostics()

    shared = ()
    if isinstance(beta_init, _Workspace):
        shared, beta_init = (beta_init,), beta_init.beta
    start = None
    if beta_init is not None:
        start = np.asarray(beta_init, dtype=float).ravel()
        if start.shape[0] != prob.p:
            raise ValueError(f"beta_init has length {start.shape[0]}, expected {prob.p}")
    elif h_request > 0 and prob.n >= SUBSAMPLE_MIN_ROWS:
        start = _subsample_root(prob, zhat, target0, diag)
    if start is not None:
        stage = _stage(prob, zhat, start, target0, tol, zw, diag, *shared)
        if stage is not None:
            return _converged(target0, *stage, diag)

    best, failed = _homotopy(prob, zhat, target0, tol, zw, diag)
    while failed and diag.bandwidth_escalations < MAX_ESCALATIONS:
        diag.bandwidth_escalations += 1
        target = target0 * ESCALATION_FACTOR**diag.bandwidth_escalations
        if target <= failed:
            continue  # its stage would be one that already failed
        stage = _stage(prob, zhat, best[1], target, tol, zw, diag)
        if stage is None:
            failed = target
        else:
            best, failed = (target, *stage), 0.0
    if best[0] < np.inf:
        return _converged(*best, diag)
    diag.final_residual_inf_norm = np.inf
    raise ConvergenceError(
        f"smoothed estimating equations did not converge at any bandwidth within "
        f"{MAX_ESCALATIONS} escalations of the request h={h_request:g}",
        diagnostics=diag,
    )


def _homotopy(prob, zhat, target0, tol, zw, diag):
    """The descent from the IV start toward ``target0`` (see :func:`solve_see`),
    one stage per bandwidth, each counted in ``diag``.

    Returns ``(best, failed)``: ``best`` is the smallest converged
    (h, beta, final norm), or (inf, IV start, inf) when no stage converged;
    ``failed`` is the bandwidth of the stage that failed, or 0 when the stage
    at ``target0`` converged.
    """
    start0 = iv_estimate(prob, zhat)
    resid0 = residuals(prob, start0)
    h_big = float(np.max(np.abs(resid0))) + 1.0
    h = max(min(h_big, 2.0 * float(np.std(resid0))), target0)
    best = (np.inf, start0, np.inf)
    while True:
        stage = _stage(prob, zhat, best[1], h, tol, zw, diag)
        if stage is not None:
            best = (h, *stage)
            if h == target0:
                return best, 0.0
            h = max(h / 2.0, target0)
        elif best[0] == np.inf and h < h_big:
            h = max(h_big, target0)  # the data-driven first stage failed
        else:
            return best, h


def _subsample_root(prob, zhat, h, diag):
    """The homotopy's root at ``h`` on every k-th row (see :func:`solve_see`),
    or None when the descent stops above ``h``; its work is counted in ``diag``."""
    every = slice(None, None, prob.n // SUBSAMPLE_MIN_ROWS + 1)
    try:
        # zhat stands in for Z; every regressor is marked endogenous, since
        # zhat does not contain X
        sub = EstimationProblem(
            y=prob.y[every], X=prob.X[every], Z=zhat[every], w=prob.w[every],
            tau=prob.tau, endog_idx=range(prob.p),
        )
        sub_zw = instrument_means(sub, sub.Z)
        (_, beta, _), failed = _homotopy(sub, sub.Z, h, tol_residual(sub, sub.Z, sub_zw),
                                         sub_zw, diag)
    except (ValueError, SingularMatrixError):  # e.g. every sampled weight is zero
        return None
    return None if failed else beta


def _converged(h_used, beta, norm, diag: SolverDiagnostics) -> SeeSolution:
    """``beta`` at ``h_used``, with ``diag`` marked converged at final norm ``norm``."""
    diag.converged, diag.final_residual_inf_norm = True, norm
    return SeeSolution(beta=np.array(beta), h_used=float(h_used), diag=diag)
