"""Tests for the smoothed-equation residual, Jacobian, and homotopy solver.

Oracles used here:
  * math.fsum recomputation of the residual from an independently coded ramp,
  * central finite differences for the Jacobian (away from window edges),
  * the closed-form root at bandwidths wide enough that the system is linear,
  * the winsorized-mean characterization in the intercept-only case,
  * the indicator form of the moment and the dense masked Jacobian product,
    against which the fused residual and the window-only Jacobian are checked.
"""

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import itilde, winsorized_mean_oracle

import ivqr.solver as solver_mod
from ivqr.model import EstimationProblem, build_problem
from ivqr.exceptions import ConvergenceError
from ivqr.bandwidth import plug_in_bandwidth
from ivqr.projection import iv_estimate, project_instruments
from ivqr.simulation import generate, reference_dgp
from ivqr.solver import (
    MAX_ESCALATIONS,
    SeeSolution,
    SolverDiagnostics,
    see_jacobian,
    see_residual,
    solve_see,
    tol_residual,
)


def make_problem(n=120, seed=1, tau=0.5, weights="uniform"):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    d = z + 0.5 * rng.normal(size=n)
    y = 1.0 + d + rng.normal(size=n)
    w = rng.uniform(0.5, 2.0, size=n) if weights == "random" else None
    return build_problem(y, raw_endog=d, raw_instr=z, weights=w, quantile=tau)


def intercept_problem(y, tau=0.5):
    y = np.asarray(y, dtype=float)
    X = np.ones((y.shape[0], 1))
    return EstimationProblem(y=y, X=X, Z=X, w=np.ones(y.shape[0]), tau=tau)


# ---------------------------------------------------------------- residual


def ramp_longhand(u):
    if u <= -1.0:
        return 1.0
    if u >= 1.0:
        return 0.0
    return (1.0 - u) / 2.0


def test_residual_matches_fsum_oracle():
    prob = make_problem(seed=6, tau=0.3, weights="random")
    zhat = project_instruments(prob)
    beta = np.array([0.7, 1.4])
    h = 0.9
    got = see_residual(prob, zhat, beta, h)
    for k in range(prob.p):
        terms = []
        for i in range(prob.n):
            v = prob.y[i] - float(prob.X[i] @ beta)
            terms.append(
                prob.w[i] * zhat[i, k] * (ramp_longhand(v / h) - prob.tau)
            )
        assert got[k] == pytest.approx(math.fsum(terms) / prob.n, abs=1e-14)


def test_residual_at_root_is_zero_for_wide_window():
    prob = make_problem(seed=2)
    zhat = project_instruments(prob)
    beta_iv = iv_estimate(prob, zhat)
    h = float(np.max(np.abs(prob.y - prob.X @ beta_iv))) + 5.0
    g = see_residual(prob, zhat, beta_iv, h)
    assert np.max(np.abs(g)) < 1e-12


# ---------------------------------------------------------------- jacobian


def test_jacobian_matches_finite_differences():
    prob = make_problem(seed=10, tau=0.4, weights="random")
    zhat = project_instruments(prob)
    beta = np.array([0.8, 1.2])
    h = 1.3
    eps = 1e-6
    # keep clear of window edges: the FD step moves each v by at most
    # eps * max|x|, so require every |v| to sit away from h by more than that
    v = prob.y - prob.X @ beta
    margin = eps * float(np.max(np.abs(prob.X))) * 10
    assert np.min(np.abs(np.abs(v) - h)) > margin, "bad test instance"
    J = see_jacobian(prob, zhat, beta, h)
    for j in range(prob.p):
        e = np.zeros(prob.p)
        e[j] = eps
        fd = (
            see_residual(prob, zhat, beta + e, h)
            - see_residual(prob, zhat, beta - e, h)
        ) / (2 * eps)
        np.testing.assert_allclose(J[:, j], fd, rtol=1e-5, atol=1e-10)


def test_jacobian_zero_outside_window():
    prob = make_problem(seed=3)
    zhat = project_instruments(prob)
    beta = np.array([1.0, 1.0])
    # tiny bandwidth placed between residuals: no observation in the window
    v = np.abs(prob.y - prob.X @ beta)
    h = float(np.min(v)) / 2.0
    J = see_jacobian(prob, zhat, beta, h)
    assert np.all(J == 0.0)


# ------------------------------------------------------- linear-regime root


def test_wide_bandwidth_median_root_is_iv_estimate():
    # with every residual inside the window and tau = 1/2, the equations are
    # linear with the same solution as linear IV
    prob = make_problem(seed=4, weights="random")
    zhat = project_instruments(prob)
    beta_iv = iv_estimate(prob, zhat)
    h_big = float(np.max(np.abs(prob.y - prob.X @ beta_iv))) + 1.0
    sol = solve_see(prob, zhat, 3.0 * h_big)
    np.testing.assert_allclose(sol.beta, beta_iv, rtol=1e-9, atol=1e-12)
    assert sol.h_used == 3.0 * h_big
    assert sol.diag.converged
    assert sol.diag.bandwidth_escalations == 0


def test_wide_bandwidth_quantile_shift_hits_intercept_only():
    # in the linear regime the tau root differs from the median root by
    # 2 h (tau - 1/2) in the intercept coordinate and nowhere else
    base = make_problem(seed=12)
    zhat = project_instruments(base)
    beta_iv = iv_estimate(base, zhat)
    h = 2.0 * (float(np.max(np.abs(base.y - base.X @ beta_iv))) + 1.0)
    roots = {}
    for tau in (0.25, 0.5, 0.75):
        prob = EstimationProblem(
            y=base.y, X=base.X, Z=base.Z, w=base.w, tau=tau, endog_idx=base.endog_idx
        )
        roots[tau] = solve_see(prob, zhat, h).beta
    # slopes agree across quantiles to solver precision
    assert roots[0.25][0] == pytest.approx(roots[0.5][0], rel=1e-8)
    assert roots[0.75][0] == pytest.approx(roots[0.5][0], rel=1e-8)
    # intercept moves by exactly 2h(tau - 1/2)
    assert roots[0.75][1] - roots[0.5][1] == pytest.approx(0.5 * h, rel=1e-7)
    assert roots[0.25][1] - roots[0.5][1] == pytest.approx(-0.5 * h, rel=1e-7)


# -------------------------------------------------- winsorized-mean oracle


@pytest.mark.parametrize("tau", [0.3, 0.5, 0.62])
def test_intercept_only_solution_is_winsorized_mean(tau):
    rng = np.random.default_rng(77)
    y = rng.normal(size=51)  # odd count keeps the root unique at small h
    prob = intercept_problem(y, tau=tau)
    zhat = project_instruments(prob)
    sol = solve_see(prob, zhat, 0.25)
    oracle = winsorized_mean_oracle(y, sol.h_used, tau)
    assert sol.beta[0] == pytest.approx(oracle, abs=1e-6)


def test_intercept_only_various_bandwidths():
    rng = np.random.default_rng(123)
    y = rng.normal(size=33) * 2.0 + 0.4
    prob = intercept_problem(y)
    zhat = project_instruments(prob)
    for h in (0.1, 0.5, 2.0, 10.0):
        sol = solve_see(prob, zhat, h)
        oracle = winsorized_mean_oracle(y, sol.h_used, 0.5)
        assert sol.beta[0] == pytest.approx(oracle, abs=1e-6), f"h={h}"


# ------------------------------------------------------------ equivariance


def test_affine_equivariance():
    prob = make_problem(seed=30)
    zhat = project_instruments(prob)
    h = 0.8
    sol = solve_see(prob, zhat, h)
    assert sol.h_used == h
    a, c = 2.5, np.array([1.5, -3.0])
    y2 = a * prob.y + prob.X @ c
    prob2 = EstimationProblem(
        y=y2, X=prob.X, Z=prob.Z, w=prob.w, tau=prob.tau, endog_idx=prob.endog_idx
    )
    sol2 = solve_see(prob2, project_instruments(prob2), a * h)
    assert sol2.h_used == a * h
    np.testing.assert_allclose(sol2.beta, a * sol.beta + c, rtol=1e-6, atol=1e-7)


def test_weight_doubling_matches_row_duplication():
    rng = np.random.default_rng(55)
    n = 40
    z = rng.normal(size=n)
    d = z + 0.4 * rng.normal(size=n)
    y = 1.0 + d + rng.normal(size=n)
    w = np.ones(n)
    w[:7] = 2.0
    prob_w = build_problem(y, raw_endog=d, raw_instr=z, weights=w, quantile=0.5)
    idx = np.concatenate([np.arange(n), np.arange(7)])
    prob_dup = build_problem(y[idx], raw_endog=d[idx], raw_instr=z[idx], quantile=0.5)
    h = 1.0
    b_w = solve_see(prob_w, project_instruments(prob_w), h).beta
    b_dup = solve_see(prob_dup, project_instruments(prob_dup), h).beta
    np.testing.assert_allclose(b_w, b_dup, atol=1e-6)


# ------------------------------------------------------------- determinism


def test_solver_bitwise_deterministic():
    prob = make_problem(seed=61, weights="random")
    zhat = project_instruments(prob)
    s1 = solve_see(prob, zhat, 0.4)
    s2 = solve_see(prob, zhat, 0.4)
    assert np.array_equal(s1.beta, s2.beta)
    assert s1.h_used == s2.h_used
    assert s1.diag == s2.diag


def test_line_search_norm_is_np_linalg_norm_bit_for_bit():
    # _damped_newton compares sqrt(g . g), np.linalg.norm's own arithmetic
    # on a 1-D float vector; every line-search decision rests on the equality
    rng = np.random.default_rng(62)
    vectors = [rng.standard_normal(p) * scale
               for p in range(1, 9)
               for scale in (1e-300, 1e-160, 1e-8, 1.0, 1e8, 1e154, 1e300)
               for _ in range(50)]
    vectors += [np.zeros(3), np.array([np.inf, 1.0]), np.array([5e-324, -5e-324])]
    with np.errstate(over="ignore"):  # the squares overflow to inf at 1e154 and up
        for g in vectors:
            assert math.sqrt(g.dot(g)) == float(np.linalg.norm(g)), g


# -------------------------------------------------------------- escalation


def tiny_bandwidth_problem(seed):
    rng = np.random.default_rng(seed)
    n = 20
    z = rng.normal(size=n)
    d = z + 0.5 * rng.normal(size=n)
    y = 1.0 + d + rng.normal(size=n)
    return build_problem(y, raw_endog=d, raw_instr=z, quantile=0.5)


def test_tiny_request_escalates_but_still_solves():
    # this instance tracks an exact-fit vertex far below machine-noise scale
    # before escalation kicks in; whatever bandwidth is reported, the
    # returned beta must solve the equations there
    prob = tiny_bandwidth_problem(90)
    zhat = project_instruments(prob)
    sol = solve_see(prob, zhat, 1e-12)
    assert sol.diag.converged
    assert sol.h_used > 1e-12
    assert sol.diag.bandwidth_escalations >= 1
    gn = np.max(np.abs(see_residual(prob, zhat, sol.beta, sol.h_used)))
    assert gn <= tol_residual(prob, zhat)


def test_exhausted_escalation_returns_best_converged():
    # this instance cannot be solved below a macroscopic bandwidth: the
    # attempt budget runs out and the smallest converged stage comes back
    prob = tiny_bandwidth_problem(8)
    zhat = project_instruments(prob)
    sol = solve_see(prob, zhat, 1e-12)
    assert sol.diag.converged
    assert sol.diag.bandwidth_escalations == MAX_ESCALATIONS
    assert sol.h_used > 0.01
    gn = np.max(np.abs(see_residual(prob, zhat, sol.beta, sol.h_used)))
    assert gn <= tol_residual(prob, zhat)


@pytest.mark.parametrize("h", [0.0, 1e-9])
def test_no_newton_stage_reruns_a_failed_start(monkeypatch, h):
    # a stage is deterministic: the same start at the same bandwidth can
    # only fail again, so an escalation never repeats one
    prob, _ = generate(reference_dgp(n=2000, seed=1), 0.5)
    zhat = project_instruments(prob)
    calls, real = [], solver_mod._damped_newton

    def spy(prob_, zhat_, beta0, h_s, tol, zw=None):
        calls.append((np.asarray(beta0, dtype=float).tobytes(), h_s))
        return real(prob_, zhat_, beta0, h_s, tol, zw)

    monkeypatch.setattr(solver_mod, "_damped_newton", spy)
    sol = solve_see(prob, zhat, h)
    assert sol.diag.converged and sol.diag.bandwidth_escalations >= 1
    assert len(set(calls)) == len(calls)
    assert sol.diag.homotopy_stages == len(calls)


def test_zero_request_means_smallest_feasible():
    prob = make_problem(n=80, seed=91)
    zhat = project_instruments(prob)
    sol = solve_see(prob, zhat, 0.0)
    assert sol.diag.converged
    assert 0.0 < sol.h_used < np.inf


def test_reported_bandwidth_is_refittable_directly():
    # the fallback floor lies on the deterministic halving grid, so asking
    # for exactly that bandwidth replays the same stages and must succeed
    # without escalating
    rng = np.random.default_rng(92)
    n = 24
    z = rng.normal(size=n)
    d = z + 0.5 * rng.normal(size=n)
    y = 1.0 + d + rng.normal(size=n)
    prob = build_problem(y, raw_endog=d, raw_instr=z, quantile=0.5)
    zhat = project_instruments(prob)
    sol = solve_see(prob, zhat, 0.0)
    again = solve_see(prob, zhat, sol.h_used)
    assert again.diag.converged
    assert again.diag.bandwidth_escalations == 0
    assert again.h_used == sol.h_used
    assert np.array_equal(again.beta, sol.beta)


def test_warm_start_skips_homotopy():
    prob = make_problem(seed=93)
    zhat = project_instruments(prob)
    cold = solve_see(prob, zhat, 0.7)
    warm = solve_see(prob, zhat, 0.7, beta_init=cold.beta)
    assert warm.diag.converged
    assert warm.h_used == 0.7
    assert warm.diag.homotopy_stages == 1
    assert warm.diag.bandwidth_escalations == 0
    np.testing.assert_allclose(warm.beta, cold.beta, atol=1e-9)


def test_beta_init_length_checked():
    prob = make_problem()
    zhat = project_instruments(prob)
    with pytest.raises(ValueError, match="beta_init"):
        solve_see(prob, zhat, 1.0, beta_init=[1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_bad_bandwidth_request_rejected(bad):
    prob = make_problem()
    zhat = project_instruments(prob)
    with pytest.raises(ValueError, match="h_request"):
        solve_see(prob, zhat, bad)


def always_fail(prob_, zhat_, beta0, h, tol, zw=None):
    return np.asarray(beta0, dtype=float), 1, False, np.inf


def test_convergence_error_when_nothing_converges(monkeypatch):
    prob = make_problem(n=30, seed=94)
    zhat = project_instruments(prob)
    monkeypatch.setattr(solver_mod, "_damped_newton", always_fail)
    with pytest.raises(ConvergenceError) as exc:
        solve_see(prob, zhat, 0.5)
    diag = exc.value.diagnostics
    assert isinstance(diag, SolverDiagnostics)
    assert not diag.converged
    assert diag.bandwidth_escalations == MAX_ESCALATIONS


# ------------------------------------------------ fused and window kernels


def random_design(seed, weighted, overidentified, tau):
    rng = np.random.default_rng(seed)
    n = 150
    k = 2 if overidentified else 1
    z = rng.normal(size=(n, k))
    d = z.sum(axis=1) + 0.5 * rng.normal(size=n)
    x = rng.normal(size=n)
    y = 1.0 + d - 0.5 * x + rng.standard_t(3, size=n)
    w = rng.uniform(0.2, 3.0, size=n) if weighted else None
    return build_problem(y, raw_exog=x, raw_endog=d, raw_instr=z, weights=w, quantile=tau)


def kernel_case(seed, weighted, overidentified, tau, position):
    """A design, a beta near the IV fit, its residuals, and a bandwidth
    placed on a log scale from half the smallest |v| to twice the largest."""
    prob = random_design(seed, weighted, overidentified, tau)
    zhat = project_instruments(prob)
    rng = np.random.default_rng(seed + 1)
    beta = iv_estimate(prob, zhat) + 0.3 * rng.normal(size=prob.p)
    v = prob.y - prob.X @ beta
    lo, hi = np.log(np.min(np.abs(v)) / 2.0), np.log(2.0 * np.max(np.abs(v)))
    return prob, zhat, beta, v, float(np.exp(lo + position * (hi - lo)))


kernel_cases = given(
    seed=st.integers(0, 2**31),
    weighted=st.booleans(),
    overidentified=st.booleans(),
    tau=st.floats(0.05, 0.95),
    position=st.floats(0.0, 1.0),
)


@settings(max_examples=80, deadline=None)
@kernel_cases
def test_fused_residual_matches_indicator_form(seed, weighted, overidentified, tau, position):
    prob, zhat, beta, v, h = kernel_case(seed, weighted, overidentified, tau, position)
    want = zhat.T @ (prob.w * (itilde(v / h) - prob.tau)) / prob.n
    # relative to the moment's natural scale, the weighted mean of |zhat|
    scale = np.abs(zhat).T @ prob.w / prob.n
    for got in (
        see_residual(prob, zhat, beta, h),
        see_residual(prob, zhat, beta, h, v=v, zw=solver_mod.instrument_means(prob, zhat)),
    ):
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


@settings(max_examples=80, deadline=None)
@kernel_cases
def test_window_jacobian_matches_dense_masked_product(
    seed, weighted, overidentified, tau, position
):
    prob, zhat, beta, v, h = kernel_case(seed, weighted, overidentified, tau, position)
    wm = prob.w * (np.abs(v) < h)
    want = (zhat * wm[:, None]).T @ prob.X / (2.0 * prob.n * h)
    scale = np.abs(zhat * wm[:, None]).T @ np.abs(prob.X) / (2.0 * prob.n * h)
    for got in (see_jacobian(prob, zhat, beta, h), see_jacobian(prob, zhat, beta, h, v=v)):
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_shared_residual_vector_left_unmodified():
    prob = make_problem(seed=62, weights="random")
    zhat = project_instruments(prob)
    beta = np.array([0.9, 1.1])
    v = prob.y - prob.X @ beta
    kept = v.copy()
    see_residual(prob, zhat, beta, 0.3, v=v)
    see_jacobian(prob, zhat, beta, 0.3, v=v)
    assert np.array_equal(v, kept)


# ------------------------------------------------------ IV start and ladder


def count_iv_calls(monkeypatch):
    calls = []

    def counted(prob_, zhat_):
        calls.append(1)
        return iv_estimate(prob_, zhat_)

    monkeypatch.setattr(solver_mod, "iv_estimate", counted)
    return calls


def test_warm_solve_skips_iv_start(monkeypatch):
    prob = make_problem(seed=97)
    zhat = project_instruments(prob)
    cold = solve_see(prob, zhat, 0.6)
    calls = count_iv_calls(monkeypatch)
    warm = solve_see(prob, zhat, 0.6, beta_init=cold.beta)
    assert warm.diag.homotopy_stages == 1
    assert calls == []


def failing_first_rung(prob, zhat, seen):
    """A stand-in for ``_damped_newton`` that fails the data-driven first
    rung 2 sd(r0) and records every bandwidth it is asked to solve at."""
    h_top = 2.0 * float(np.std(prob.y - prob.X @ iv_estimate(prob, zhat)))
    real = solver_mod._damped_newton

    def fail_first_rung(prob_, zhat_, beta0, h, tol, zw=None):
        seen.append(h)
        if h == h_top:
            return always_fail(prob_, zhat_, beta0, h, tol, zw)
        return real(prob_, zhat_, beta0, h, tol, zw)

    return fail_first_rung


def test_failed_first_rung_falls_back_to_full_ladder(monkeypatch):
    prob = make_problem(n=200, seed=98, tau=0.3)
    zhat = project_instruments(prob)
    resid0 = prob.y - prob.X @ iv_estimate(prob, zhat)
    h_big = float(np.max(np.abs(resid0))) + 1.0
    h_top = 2.0 * float(np.std(resid0))
    assert h_top < h_big, "bad test instance"
    seen = []
    monkeypatch.setattr(solver_mod, "_damped_newton", failing_first_rung(prob, zhat, seen))
    sol = solve_see(prob, zhat, 0.4)
    assert sol.diag.converged
    assert sol.h_used == 0.4
    assert sol.diag.bandwidth_escalations == 0
    assert seen[:2] == [h_top, h_big]
    assert h_top not in seen[1:]
    direct = solve_see(prob, zhat, 0.4)
    np.testing.assert_allclose(sol.beta, direct.beta, atol=1e-7)


def test_iteration_cap_fails_the_stage(monkeypatch):
    # the first rung needs several iterations; capped at one it fails, and
    # the descent restarts at max|r0| + 1
    prob = make_problem(n=200, seed=98, tau=0.3)
    zhat = project_instruments(prob)
    start = iv_estimate(prob, zhat)
    resid0 = prob.y - prob.X @ start
    h_top, h_big = 2.0 * float(np.std(resid0)), float(np.max(np.abs(resid0))) + 1.0
    zw, tol = solver_mod.instrument_means(prob, zhat), tol_residual(prob, zhat)
    _, nit, ok, _ = solver_mod._damped_newton(prob, zhat, start, h_top, tol, zw)
    assert ok and nit > 1
    monkeypatch.setattr(solver_mod, "MAX_NEWTON_ITER", 1)
    beta, nit, ok, gn = solver_mod._damped_newton(prob, zhat, start, h_top, tol, zw)
    assert (nit, ok) == (1, False)
    assert gn == np.max(np.abs(see_residual(prob, zhat, beta, h_top))) > tol
    calls, real = [], solver_mod._damped_newton

    def spy(prob_, zhat_, beta0, h, tol_, zw_=None):
        out = real(prob_, zhat_, beta0, h, tol_, zw_)
        calls.append((h, out[1], out[2]))
        return out

    monkeypatch.setattr(solver_mod, "_damped_newton", spy)
    sol = solve_see(prob, zhat, 0.4)
    assert calls[0] == (h_top, 1, False) and calls[1][0] == h_big
    assert sol.diag.homotopy_stages == len(calls)
    assert sol.diag.iterations == sum(c[1] for c in calls)


def test_nonfinite_step_fails_the_stage(monkeypatch):
    # a Jacobian of subnormal entries is not singular to LAPACK, but its
    # step overflows: the stage fails at its first iterate, and the warm
    # solve hands over to the homotopy
    prob = make_problem(n=200, seed=98, tau=0.3)
    zhat = project_instruments(prob)
    cold = solve_see(prob, zhat, 0.4)
    start = cold.beta + 0.1
    jacobians, real_jac = [], solver_mod.see_jacobian

    def tiny_first(*args, **kwargs):
        jacobians.append(1)
        J = real_jac(*args, **kwargs)
        return J * 1e-320 if len(jacobians) == 1 else J

    steps, real_solve = [], np.linalg.solve

    def spy_solve(a, b):
        steps.append(real_solve(a, b))
        return steps[-1]

    monkeypatch.setattr(solver_mod, "see_jacobian", tiny_first)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    zw, tol = solver_mod.instrument_means(prob, zhat), tol_residual(prob, zhat)
    beta, nit, ok, gn = solver_mod._damped_newton(prob, zhat, start, 0.4, tol, zw)
    assert not np.isfinite(steps[0]).all()
    assert (nit, ok) == (0, False)
    assert np.array_equal(beta, start)
    assert gn == np.max(np.abs(see_residual(prob, zhat, start, 0.4)))
    jacobians.clear()
    sol = solve_see(prob, zhat, 0.4, beta_init=start)
    assert np.array_equal(sol.beta, cold.beta)
    assert sol.diag.homotopy_stages == cold.diag.homotopy_stages + 1
    assert sol.diag.iterations == cold.diag.iterations


@pytest.mark.parametrize(
    "path", ["warm", "cold", "first_rung_fallback", "escalated", "exhausted", "error"]
)
def test_diagnostics_account_for_every_stage(monkeypatch, path):
    # every exit reports the Newton iterations and stages it actually ran,
    # the final norm of the stage whose beta it returns, and its escalations
    h, beta_init, inner = 0.5, None, solver_mod._damped_newton
    if path in ("escalated", "exhausted"):
        prob, h = tiny_bandwidth_problem(90 if path == "escalated" else 8), 1e-12
    else:
        prob = make_problem(n=200, seed=98, tau=0.3)
    zhat = project_instruments(prob)
    if path == "warm":
        beta_init = solve_see(prob, zhat, h).beta
    elif path == "first_rung_fallback":
        inner = failing_first_rung(prob, zhat, [])
    elif path == "error":
        inner = always_fail
    calls = []

    def spy(prob_, zhat_, beta0, h_s, tol, zw=None):
        out = inner(prob_, zhat_, beta0, h_s, tol, zw)
        calls.append(out)
        return out

    monkeypatch.setattr(solver_mod, "_damped_newton", spy)
    if path == "error":
        with pytest.raises(ConvergenceError) as exc:
            solve_see(prob, zhat, h, beta_init)
        diag = exc.value.diagnostics
        assert not diag.converged
        assert diag.final_residual_inf_norm == np.inf
    else:
        sol = solve_see(prob, zhat, h, beta_init)
        diag = sol.diag
        assert diag.converged
        beta_s, _, _, gn_s = [c for c in calls if c[2]][-1]
        assert np.array_equal(sol.beta, beta_s)
        assert diag.final_residual_inf_norm == gn_s
        assert gn_s == np.max(np.abs(see_residual(prob, zhat, sol.beta, sol.h_used)))
    assert diag.iterations == sum(c[1] for c in calls)
    assert diag.homotopy_stages == len(calls)
    if path in ("exhausted", "error"):
        assert diag.bandwidth_escalations == MAX_ESCALATIONS
    elif path == "escalated":
        assert 1 <= diag.bandwidth_escalations < MAX_ESCALATIONS
        assert sol.h_used == h * solver_mod.ESCALATION_FACTOR**diag.bandwidth_escalations
    else:
        assert diag.bandwidth_escalations == 0
        assert sol.h_used == h


# ------------------------------------------------------------------- trace


def test_log_sink_receives_iteration_lines(caplog):
    prob = make_problem(seed=95)
    zhat = project_instruments(prob)
    caplog.set_level(logging.DEBUG, logger="ivqr.solver")
    solve_see(prob, zhat, 0.5)
    lines = [r.getMessage() for r in caplog.records if r.name == "ivqr.solver"]
    assert lines, "expected at least one trace line"
    pat = re.compile(r"^h=[0-9.e+-]+ iter=\d+ resid_inf=[0-9.e+-]+ step=[0-9.e+-]+$")
    assert all(pat.match(s) for s in lines)


def test_solution_container_is_frozen():
    prob = make_problem(seed=96)
    zhat = project_instruments(prob)
    sol = solve_see(prob, zhat, 1.0)
    assert isinstance(sol, SeeSolution)
    with pytest.raises(AttributeError):
        sol.h_used = 2.0


# -------------------------------------------------------- subsample start
# (the test names keep the word "band" from the window-band solve that the
# subsample start replaced)


def band_design(seed, kind, tau, n=3000):
    """A design for the subsample start: reference, weighted, overidentified,
    or with t(3) errors."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2 if kind == "overidentified" else 1))
    d = z.sum(axis=1) + 0.5 * rng.normal(size=n)
    x = rng.normal(size=n)
    e = rng.standard_t(3, size=n) if kind == "t3" else rng.normal(size=n)
    w = rng.uniform(0.2, 3.0, size=n) if kind == "weighted" else None
    prob = build_problem(1.0 + d - 0.5 * x + e, raw_exog=x, raw_endog=d, raw_instr=z,
                         weights=w, quantile=tau)
    zhat = project_instruments(prob)
    h = plug_in_bandwidth(prob, prob.y - prob.X @ iv_estimate(prob, zhat)).h_requested
    return prob, zhat, h


def full_homotopy(prob, zhat, h):
    """``solve_see`` with the subsample start out of reach."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "SUBSAMPLE_MIN_ROWS", prob.n + 1)
        return solve_see(prob, zhat, h)


def subsample_rows(prob, min_rows=500):
    """Rows in the every-k-th-row subsample."""
    return len(range(0, prob.n, prob.n // min_rows + 1))


def homotopy_rows(monkeypatch):
    """Record the row count of every problem ``_homotopy`` is run on."""
    rows, real = [], solver_mod._homotopy

    def counted(prob_, *args, **kwargs):
        rows.append(prob_.n)
        return real(prob_, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "_homotopy", counted)
    return rows


def assert_near_root(prob, zhat, h, beta, ref):
    """``beta`` solves the equations at ``h`` and lies within the distance two
    roots within tolerance can be apart from the root ``ref``."""
    tol = tol_residual(prob, zhat)
    assert np.max(np.abs(see_residual(prob, zhat, beta, h))) <= tol
    J_inv = np.linalg.inv(see_jacobian(prob, zhat, ref, h))
    assert np.max(np.abs(beta - ref)) <= 2.0 * tol * np.linalg.norm(J_inv, np.inf)


def spy_newton(monkeypatch, calls, fail=None):
    """Record (rows, iterations) of every Newton stage; fail the stages for
    which ``fail(rows, h)`` is true."""
    real = solver_mod._damped_newton

    def spy(prob_, zhat_, beta0, h, tol, zw=None):
        if fail is not None and fail(prob_.n, h):
            out = always_fail(prob_, zhat_, beta0, h, tol, zw)
        else:
            out = real(prob_, zhat_, beta0, h, tol, zw)
        calls.append((prob_.n, out[1]))
        return out

    monkeypatch.setattr(solver_mod, "_damped_newton", spy)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    kind=st.sampled_from(["reference", "weighted", "overidentified", "t3"]),
    tau=st.floats(0.05, 0.95),
    scale=st.floats(0.5, 2.0),
)
def test_band_root_is_the_full_homotopy_root(seed, kind, tau, scale):
    prob, zhat, h = band_design(seed, kind, tau)
    h *= scale
    full = full_homotopy(prob, zhat, h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "SUBSAMPLE_MIN_ROWS", 500)
        sub = solve_see(prob, zhat, h)
    assert sub.h_used == full.h_used == h
    assert sub.diag.converged
    assert_near_root(prob, zhat, h, sub.beta, full.beta)


def test_subsample_start_at_the_shipped_threshold(monkeypatch):
    prob, zhat, h = band_design(21, "reference", 0.25, n=solver_mod.SUBSAMPLE_MIN_ROWS)
    full = full_homotopy(prob, zhat, h)
    calls = []
    spy_newton(monkeypatch, calls)
    rows = homotopy_rows(monkeypatch)
    sol = solve_see(prob, zhat, h)
    # the homotopy runs once, on every other row; one Newton stage on all rows follows
    assert rows == [prob.n // 2]
    assert [n for n, _ in calls].count(prob.n) == 1 and calls[-1][0] == prob.n
    assert sol.h_used == full.h_used == h
    assert sol.diag.iterations == sum(c[1] for c in calls)
    assert sol.diag.homotopy_stages == len(calls)
    assert sol.diag.final_residual_inf_norm == np.max(
        np.abs(see_residual(prob, zhat, sol.beta, h)))
    assert_near_root(prob, zhat, h, sol.beta, full.beta)


@pytest.mark.parametrize("failure", ["subsample", "subsample_target", "full_stage"])
def test_failed_band_falls_back_to_the_full_homotopy(monkeypatch, failure):
    prob, zhat, h = band_design(5, "weighted", 0.3)
    today = full_homotopy(prob, zhat, h)
    monkeypatch.setattr(solver_mod, "SUBSAMPLE_MIN_ROWS", 500)
    calls, sub = [], subsample_rows(prob)
    if failure == "subsample":
        fail = lambda n, h_s: n == sub
    elif failure == "subsample_target":
        # the subsample converges only above the request
        fail = lambda n, h_s: n == sub and h_s == h
    else:
        # the full-data stage from the subsample root, the first on all rows
        fail = lambda n, h_s: n == prob.n and all(c[0] == sub for c in calls)
    spy_newton(monkeypatch, calls, fail)
    sol = solve_see(prob, zhat, h)
    assert np.array_equal(sol.beta, today.beta)
    assert sol.h_used == today.h_used
    assert sol.diag.final_residual_inf_norm == today.diag.final_residual_inf_norm
    assert sol.diag.bandwidth_escalations == today.diag.bandwidth_escalations
    # the subsample's work, and the failed full-data stage, are counted with the homotopy's
    assert sol.diag.iterations == sum(c[1] for c in calls)
    assert sol.diag.homotopy_stages == len(calls) > today.diag.homotopy_stages
    full_stages = [c for c in calls if c[0] == prob.n]
    assert len(full_stages) == today.diag.homotopy_stages + (failure == "full_stage")


def test_zero_weight_subsample_falls_back(monkeypatch):
    # every sampled row has weight zero, so the subsample is not a valid problem
    prob, _, h = band_design(6, "reference", 0.5)
    w = np.ones(prob.n)
    w[::prob.n // 500 + 1] = 0.0
    prob = prob.reweighted(w)
    zhat = project_instruments(prob)
    today = full_homotopy(prob, zhat, h)
    monkeypatch.setattr(solver_mod, "SUBSAMPLE_MIN_ROWS", 500)
    rows = homotopy_rows(monkeypatch)
    sol = solve_see(prob, zhat, h)
    assert rows == [prob.n]
    assert np.array_equal(sol.beta, today.beta)
    assert sol.diag == today.diag


def test_band_solve_is_bitwise_deterministic(monkeypatch):
    prob, zhat, h = band_design(8, "t3", 0.7)
    monkeypatch.setattr(solver_mod, "SUBSAMPLE_MIN_ROWS", 500)
    rows = homotopy_rows(monkeypatch)
    s1, s2 = solve_see(prob, zhat, h), solve_see(prob, zhat, h)
    assert rows == [subsample_rows(prob)] * 2
    assert np.array_equal(s1.beta, s2.beta)
    assert s1.h_used == s2.h_used
    assert s1.diag == s2.diag


@pytest.mark.parametrize("path", ["below_threshold", "warm", "failed_warm", "smallest_feasible"])
def test_band_is_not_built_off_the_large_cold_path(monkeypatch, path):
    prob, zhat, h = band_design(9, "reference", 0.5)
    beta_init = solve_see(prob, zhat, h).beta if "warm" in path else None
    h = 0.0 if path == "smallest_feasible" else h
    if path == "failed_warm":
        # the warm stage fails, and the full homotopy runs as it does today
        newton, stages = solver_mod._damped_newton, []

        def fail_warm_stage(*args):
            stages.append(1)
            return (always_fail if len(stages) == 1 else newton)(*args)

        monkeypatch.setattr(solver_mod, "_damped_newton", fail_warm_stage)
    rows = homotopy_rows(monkeypatch)
    monkeypatch.setattr(solver_mod, "SUBSAMPLE_MIN_ROWS",
                        prob.n + 1 if path == "below_threshold" else 500)
    sol = solve_see(prob, zhat, h, beta_init)
    assert sol.diag.converged
    assert rows == ([] if path == "warm" else [prob.n])
    if path == "below_threshold":
        monkeypatch.setattr(solver_mod, "SUBSAMPLE_MIN_ROWS", prob.n)
        rows.clear()
        solve_see(prob, zhat, h)
        assert rows == [subsample_rows(prob, prob.n)]
