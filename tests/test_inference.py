"""Tests for analytic and bootstrap covariance estimation.

The main oracle is the classical asymptotic variance of quantile estimates
under iid Gaussian errors: tau(1-tau) / phi(q)^2 * E[xx']^{-1} / n.  With
standard-normal regressors that is a fully closed form.
"""

import logging
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

import ivqr.estimate as estimate_mod
import ivqr.inference as inference_mod
import ivqr.solver as solver_mod
from ivqr.estimate import fit
from ivqr.exceptions import ConvergenceError, EstimationError
from ivqr.inference import CovarianceEstimate, analytic_covariance, bayesian_bootstrap
from ivqr.model import EstimationProblem, build_problem
from ivqr.projection import project_instruments
from ivqr.simulation import generate, reference_dgp
from ivqr.solver import SeeSolution, solve_see
from oracles import bootstrap_oracle


def exogenous_problem(n, seed=0, tau=0.5):
    # exogenous regressor instrumenting itself: classical quantile regression
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = 2.0 + 1.0 * x + rng.normal(size=n)
    return build_problem(y, raw_exog=x, quantile=tau)


def iv_problem(n, seed=0, tau=0.5):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    d = z + 0.5 * rng.normal(size=n)
    y = 1.0 + d + rng.normal(size=n)
    return build_problem(y, raw_endog=d, raw_instr=z, quantile=tau)


def binary_problem(n, tau, seed):
    """ROADMAP item 11's binary design: binary instrument z, binary treatment
    d = 1{0.8 z - 0.4 + e > 0}, y = 1 + d + v with v = 0.5 e + sqrt(0.75) eta,
    drawn from default_rng([77, seed]); the truth is (1, 1 + Phi^{-1}(tau))."""
    rng = np.random.default_rng([77, seed])
    z = (rng.uniform(size=n) < 0.5).astype(float)
    e = rng.standard_normal(n)
    v = 0.5 * e + np.sqrt(0.75) * rng.standard_normal(n)
    d = (0.8 * z - 0.4 + e > 0).astype(float)
    return build_problem(1.0 + d + v, raw_endog=d, raw_instr=z, quantile=tau)


def point_estimate(prob, h=None):
    zhat = project_instruments(prob)
    if h is None:
        h = 1.06 * prob.n ** (-0.2)
    sol = solve_see(prob, zhat, h)
    return sol.beta, zhat, sol.h_used


def sandwich(prob, h=None):
    """The analytic covariance at a point estimate, Jacobian at h_used."""
    beta, zhat, h_used = point_estimate(prob, h)
    return analytic_covariance(prob, zhat, beta, h_used, h_used)


# ---------------------------------------------------------------- analytic


def test_analytic_se_matches_gaussian_closed_form():
    # median regression with N(0,1) errors and E[xx'] = I: each coefficient
    # has asymptotic SE sqrt(pi / (2 n))
    n = 100_000
    prob = exogenous_problem(n, seed=42)
    est = sandwich(prob)
    se = np.sqrt(np.diag(est.cov))
    closed_form = np.sqrt(np.pi / (2 * n))
    np.testing.assert_allclose(se, closed_form, rtol=0.10)
    assert est.kind == "analytic"
    assert est.reps_used == 0


def test_analytic_se_quartile_closed_form():
    # same design at tau = 0.25: avar scales by tau(1-tau)/phi(q)^2
    n = 100_000
    prob = exogenous_problem(n, seed=43, tau=0.25)
    est = sandwich(prob)
    q = norm.ppf(0.25)
    closed_form = np.sqrt(0.25 * 0.75 / norm.pdf(q) ** 2 / n)
    np.testing.assert_allclose(np.sqrt(np.diag(est.cov)), closed_form, rtol=0.10)


def test_analytic_cov_symmetric_psd():
    prob = iv_problem(500, seed=1)
    cov = sandwich(prob).cov
    np.testing.assert_array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() >= -1e-18


def test_analytic_invariant_to_weight_rescaling():
    # multiplying every weight by 4 must not move the covariance at all
    # (powers of two keep the normalization float-exact)
    rng = np.random.default_rng(2)
    n = 300
    z = rng.normal(size=n)
    d = z + 0.5 * rng.normal(size=n)
    y = 1.0 + d + rng.normal(size=n)
    w = rng.uniform(0.5, 2.0, size=n)
    prob1 = build_problem(y, raw_endog=d, raw_instr=z, weights=w, quantile=0.5)
    prob4 = build_problem(y, raw_endog=d, raw_instr=z, weights=4 * w, quantile=0.5)
    beta, zhat, h = point_estimate(prob1)
    cov1 = analytic_covariance(prob1, zhat, beta, h, h).cov
    cov4 = analytic_covariance(prob4, project_instruments(prob4), beta, h, h).cov
    np.testing.assert_array_equal(cov1, cov4)


def test_analytic_invariant_to_row_order():
    prob = iv_problem(400, seed=3)
    beta, zhat, h = point_estimate(prob)
    cov = analytic_covariance(prob, zhat, beta, h, h).cov
    perm = np.random.default_rng(9).permutation(prob.n)
    prob_p = EstimationProblem(
        y=prob.y[perm], X=prob.X[perm], Z=prob.Z[perm], w=prob.w[perm],
        tau=prob.tau, endog_idx=prob.endog_idx,
    )
    cov_p = analytic_covariance(prob_p, zhat[perm], beta, h, h).cov
    np.testing.assert_allclose(cov_p, cov, rtol=1e-11)


def test_analytic_rejects_estimate_far_from_data():
    prob = exogenous_problem(1000, seed=4)
    zhat = project_instruments(prob)
    with pytest.raises(EstimationError, match="inside the smoothing window"):
        analytic_covariance(prob, zhat, [0.0, 1e6], 0.25, 0.25)


def het_problem(seed, n=2000):
    """Overidentified design whose error density at zero varies with z1:
    z in R^2, x = z1 + z2 + e, y = 1 + x + exp(z1) v, corr(v, e) = 0.5."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2))
    e = rng.normal(size=n)
    v = 0.5 * e + np.sqrt(0.75) * rng.normal(size=n)
    x = z[:, 0] + z[:, 1] + e
    y = 1.0 + x + np.exp(z[:, 0]) * v
    return build_problem(y, raw_endog=x, raw_instr=z, quantile=0.5)


def se_over_mc_sd(problems):
    """Mean analytic SE over the Monte Carlo SD of plug-in fits, per coefficient."""
    fits = [fit(prob) for prob in problems]
    betas = np.array([res.beta for res in fits])
    return np.mean([res.se for res in fits], axis=0) / betas.std(axis=0, ddof=1)


def mc_seeds(key, reps):
    master = np.random.default_rng([key, 2000])
    return [int(master.integers(2**63)) for _ in range(reps)]


def test_analytic_se_tracks_mc_sd_where_the_window_is_thin():
    # 100 reference datasets at n = 2000, each fitted at tau = 0.05 and 0.95;
    # the ratio must sit inside criterion 8's 20% for both coefficients
    bases = [generate(replace(reference_dgp(n=2000), seed=s))[0] for s in mc_seeds(780, 100)]
    for tau in (0.05, 0.95):
        ratio = se_over_mc_sd(
            EstimationProblem(y=b.y, X=b.X, Z=b.Z, w=b.w, tau=tau, endog_idx=b.endog_idx)
            for b in bases
        )
        assert np.all(np.maximum(ratio, 1 / ratio) <= 1.2), (tau, ratio)


def test_analytic_se_tracks_mc_sd_on_overidentified_heteroskedastic_design():
    # once f(0|z) varies with z, the efficient-GMM form (J'S^{-1}J)^{-1}/n
    # over all q instruments is not the variance of the projected-instrument
    # root; the gate is 3 times the larger bootstrap MCSE (0.043) of this
    # ratio under that form on these 400 datasets
    ratio = se_over_mc_sd(het_problem(s) for s in mc_seeds(781, 400))
    assert np.all(np.abs(ratio - 1.0) <= 0.13), ratio


# --------------------------------------------------------------- bootstrap


def test_bootstrap_close_to_analytic():
    prob = iv_problem(600, seed=5)
    zhat = project_instruments(prob)
    h = 1.06 * prob.n ** (-0.2)
    beta = solve_see(prob, zhat, h).beta
    se_a = np.sqrt(np.diag(analytic_covariance(prob, zhat, beta, h, h).cov))
    boot = bayesian_bootstrap(prob, zhat, h, beta, reps=300, seed=7)
    se_b = np.sqrt(np.diag(boot.cov))
    np.testing.assert_allclose(se_b, se_a, rtol=0.30)
    assert boot.kind == "bootstrap"
    assert boot.reps_used == 300


def test_bootstrap_deterministic_in_seed():
    prob = iv_problem(150, seed=6)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta
    b1 = bayesian_bootstrap(prob, zhat, 0.5, beta, reps=25, seed=99)
    b2 = bayesian_bootstrap(prob, zhat, 0.5, beta, reps=25, seed=99)
    np.testing.assert_array_equal(b1.cov, b2.cov)
    b3 = bayesian_bootstrap(prob, zhat, 0.5, beta, reps=25, seed=100)
    assert not np.array_equal(b3.cov, b1.cov)


def test_bootstrap_replication_prefix_stable():
    # replication r depends only on (seed, r), so growing reps extends the
    # stream without changing earlier draws; smaller-reps covariance equals
    # the covariance of the first rows of the larger run
    prob = iv_problem(120, seed=8)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta
    draws = {}

    def catch(reps):
        got = []
        orig = inference_mod.solve_see

        def spy(p, z, h, beta_init=None):
            sol = orig(p, z, h, beta_init=beta_init)
            got.append(sol.beta)
            return sol

        inference_mod.solve_see = spy
        try:
            bayesian_bootstrap(prob, zhat, 0.5, beta, reps=reps, seed=5)
        finally:
            inference_mod.solve_see = orig
        return np.array(got)

    draws[10] = catch(10)
    draws[20] = catch(20)
    np.testing.assert_array_equal(draws[20][:10], draws[10])


def test_reweighted_problem_shares_data_and_solves_like_a_rebuilt_one():
    prob = iv_problem(400, seed=9)
    beta_hat, zhat, _ = point_estimate(prob)
    xi = np.random.default_rng([7, 0]).standard_exponential(prob.n)
    w_r = prob.w * (xi / xi.mean())
    cheap = prob.reweighted(w_r)
    assert cheap.y is prob.y and cheap.X is prob.X and cheap.Z is prob.Z
    assert (cheap.tau, cheap.endog_idx) == (prob.tau, prob.endog_idx)
    with pytest.raises(ValueError):
        cheap.w[0] = 1.0
    rebuilt = EstimationProblem(
        y=prob.y, X=prob.X, Z=prob.Z, w=w_r, tau=prob.tau, endog_idx=prob.endog_idx
    )
    h = 1.06 * prob.n ** (-0.2)
    for beta_init in (beta_hat, None):
        got = solve_see(cheap, zhat, h, beta_init=beta_init).beta
        want = solve_see(rebuilt, zhat, h, beta_init=beta_init).beta
        np.testing.assert_array_equal(got, want)


def test_bootstrap_rejects_too_few_reps():
    prob = iv_problem(100, seed=10)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta
    for bad in (0, 1, -3):
        with pytest.raises(ValueError, match="at least 2"):
            bayesian_bootstrap(prob, zhat, 0.5, beta, reps=bad, seed=1)


@pytest.mark.parametrize("kwargs, message", [
    ({"reps": 2.5, "seed": 1}, "reps must be an integer, got 2.5"),
    ({"reps": float("nan"), "seed": 1}, "reps must be an integer"),
    ({"reps": "10", "seed": 1}, "reps must be an integer"),
    ({"reps": 10, "seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"reps": 10, "seed": 0.5}, "seed must be an integer, got 0.5"),
])
def test_bootstrap_rejects_non_integral_reps_and_negative_seed(monkeypatch, kwargs, message):
    prob = iv_problem(100, seed=10)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta
    with pytest.raises(ValueError, match=message):
        bayesian_bootstrap(prob, zhat, 0.5, beta, **kwargs)

    # fit rejects them before any work
    def no_work(prob):
        raise AssertionError("the instruments were projected")

    monkeypatch.setattr(estimate_mod, "project_instruments", no_work)
    with pytest.raises(ValueError, match=message):
        fit(prob, **kwargs)
    with pytest.raises(ValueError, match="at least 2"):
        fit(prob, reps=1)


@pytest.mark.parametrize("bandwidth", [-1, np.nan, np.inf])
def test_fit_rejects_a_bad_bandwidth_before_any_work(monkeypatch, bandwidth):
    def no_work(prob):
        raise AssertionError("the instruments were projected")

    monkeypatch.setattr(estimate_mod, "project_instruments", no_work)
    with pytest.raises(ValueError,
                       match=f"bandwidth must be a finite nonnegative number, got {bandwidth}"):
        fit(iv_problem(100, seed=10), bandwidth=bandwidth)


@pytest.mark.parametrize("level", [0.0, 1.0, 95.0])
def test_fit_rejects_a_level_outside_the_unit_interval_before_any_work(monkeypatch, level):
    def no_work(prob):
        raise AssertionError("the instruments were projected")

    monkeypatch.setattr(estimate_mod, "project_instruments", no_work)
    with pytest.raises(ValueError,
                       match=f"^level must lie strictly between 0 and 1, got {level}$"):
        fit(iv_problem(100, seed=10), level=level)


def test_bootstrap_accepts_integral_floats():
    prob = iv_problem(100, seed=10)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta
    est = bayesian_bootstrap(prob, zhat, 0.5, beta, reps=12.0, seed=np.int64(3))
    want = bayesian_bootstrap(prob, zhat, 0.5, beta, reps=12, seed=3)
    np.testing.assert_array_equal(est.cov, want.cov)
    assert est.reps_used == 12


def test_bootstrap_rejects_a_bandwidth_no_draw_can_match():
    # solve_see reads h = 0 as "smallest feasible", so no draw would come
    # back at h_used = 0 exactly and every one would count as failed
    prob = iv_problem(100, seed=10)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta
    for bad in (0.0, -0.5, np.nan):
        with pytest.raises(ValueError, match="h_used"):
            bayesian_bootstrap(prob, zhat, bad, beta, reps=10, seed=1)


@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
@pytest.mark.parametrize("call, arg", [
    ("analytic", "h_used"), ("analytic", "h_jacobian"), ("bootstrap", "h_used"),
])
def test_covariance_rejects_a_bad_bandwidth(monkeypatch, call, arg, bad):
    # a covariance is computed at finite positive bandwidths only, checked
    # before any draw or window is built
    prob = iv_problem(100, seed=10)
    beta, zhat, h = point_estimate(prob, 0.5)
    monkeypatch.setattr(inference_mod, "_Workspace", None)
    bandwidths = {"h_used": h, "h_jacobian": h, arg: bad}
    with pytest.raises(ValueError, match=f"^{arg} must be a finite positive number"):
        if call == "analytic":
            analytic_covariance(prob, zhat, beta, **bandwidths)
        else:
            bayesian_bootstrap(prob, zhat, bandwidths["h_used"], beta, reps=10, seed=1)


def force_workers(monkeypatch, workers):
    """Run every bootstrap on ``workers`` threads, whatever the rows and CPUs."""
    monkeypatch.setattr(inference_mod, "_boot_workers", lambda n, reps: workers)


def draw_weights(prob, seed, r):
    """The weights of bootstrap draw ``r``, bit for bit."""
    w = np.random.default_rng([seed, r]).standard_exponential(prob.n)
    w /= w.mean()
    w *= prob.w
    return w


def test_bootstrap_progress_callback(monkeypatch):
    # the replications finish in any order on two threads; progress still
    # sees every index once, in order, on the calling thread
    prob = iv_problem(100, seed=11)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        seen = []
        bayesian_bootstrap(prob, zhat, 0.5, beta, reps=12, seed=2,
                           progress=lambda r: seen.append((r, threading.current_thread())))
        assert seen == [(r, threading.current_thread()) for r in range(12)], workers


def test_bootstrap_starts_no_thread_below_the_row_threshold(monkeypatch):
    assert inference_mod._boot_workers(inference_mod.BOOT_THREAD_MIN_ROWS - 1, 200) == 1
    assert inference_mod._boot_workers(inference_mod.BOOT_THREAD_MIN_ROWS, 1) == 1
    prob = iv_problem(100, seed=11)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta

    def no_thread(*args, **kwargs):
        raise AssertionError("started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    bayesian_bootstrap(prob, zhat, 0.5, beta, reps=12, seed=2)


def test_boot_workers_without_an_affinity_call(monkeypatch):
    # where os has no sched_getaffinity the CPU count stands in, and an
    # unknown count means one thread
    monkeypatch.delattr(os, "sched_getaffinity")
    n = inference_mod.BOOT_THREAD_MIN_ROWS
    for reps in (1, 2, 200):
        assert inference_mod._boot_workers(n, reps) == min(os.cpu_count(), reps, 2)
    for cpus, want in [(None, 1), (1, 1), (8, 2)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert inference_mod._boot_workers(n, 200) == want


def test_bootstrap_on_more_threads_than_cpus_matches_serial(monkeypatch):
    # four threads on a two-CPU host, switching every microsecond, contend
    # for the shared (workspace, weight buffer) pairs: every index must
    # still be solved and reported once, and the covariance equal the serial
    # one bit for bit
    prob = iv_problem(2000, seed=17)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta
    force_workers(monkeypatch, 1)
    want = bayesian_bootstrap(prob, zhat, 0.5, beta, reps=60, seed=4)
    force_workers(monkeypatch, 4)
    seen, got = [], {}

    def run():
        got["est"] = bayesian_bootstrap(prob, zhat, 0.5, beta, reps=60, seed=4,
                                        progress=seen.append)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run)
        runner.start()
        runner.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert seen == list(range(60))
    assert got["est"].reps_used == want.reps_used == 60
    np.testing.assert_array_equal(got["est"].cov, want.cov)


class Boom(Exception):
    pass


def test_bootstrap_thread_failure_stops_the_others_and_is_raised(monkeypatch):
    # the thread that solves second fails on its first draw, and the one
    # that solves first finishes its draw only once the failure is out:
    # each must then stop at its next draw, and every thread must have ended
    prob = iv_problem(100, seed=16)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta
    force_workers(monkeypatch, 2)
    real = inference_mod.solve_see
    raised = threading.Event()
    solvers = []  # the solving thread of each call, in order of entry

    def solve(p, z, h, beta_init=None):
        me = threading.get_ident()
        solvers.append(me)
        if solvers.count(me) == 1:
            if solvers[0] != me:
                raised.set()
                raise Boom("replication failed")
            assert raised.wait(10)
            time.sleep(0.2)
        return real(p, z, h, beta_init=beta_init)

    monkeypatch.setattr(inference_mod, "solve_see", solve)
    before = threading.active_count()
    with pytest.raises(Boom, match="replication failed"):
        bayesian_bootstrap(prob, zhat, 0.5, beta, reps=40, seed=2)
    assert threading.active_count() == before
    assert len(solvers) == len(set(solvers)) == 2


def test_bootstrap_raises_the_lowest_index_failure(monkeypatch):
    # draw 1 raises first in time and draw 0 only after it: draw 0's error
    # is the one raised
    prob = iv_problem(100, seed=16)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta
    force_workers(monkeypatch, 2)
    first = draw_weights(prob, seed=2, r=0)
    later_raised = threading.Event()

    def solve(p, z, h, beta_init=None):
        if np.array_equal(p.w, first):
            assert later_raised.wait(10)
            raise Boom("draw 0 failed")
        later_raised.set()
        raise Boom("a later draw failed")

    monkeypatch.setattr(inference_mod, "solve_see", solve)
    with pytest.raises(Boom, match="draw 0 failed"):
        bayesian_bootstrap(prob, zhat, 0.5, beta, reps=40, seed=2)


def test_bootstrap_thread_that_cannot_start_is_raised(monkeypatch):
    # the second of three pool threads fails to start: the first is stopped
    # and joined, the start error comes out unmasked, and the solver log
    # keeps its level
    prob = iv_problem(100, seed=17)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta
    force_workers(monkeypatch, 3)
    real_start = threading.Thread.start
    starts = []

    def start(thread):
        starts.append(thread)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    solver_log = logging.getLogger("ivqr.solver")
    level = solver_log.level
    solver_log.setLevel(logging.DEBUG)
    before = threading.active_count()
    try:
        with pytest.raises(RuntimeError, match="can't start new thread"):
            bayesian_bootstrap(prob, zhat, 0.5, beta, reps=40, seed=2)
        assert solver_log.level == logging.DEBUG
    finally:
        solver_log.setLevel(level)
    assert threading.active_count() == before
    assert len(starts) == 2


def test_bootstrap_leaves_the_solver_log_level_alone(caplog):
    # the draws stay out of the log without lowering the logger's level,
    # which every thread shares
    caplog.set_level(logging.DEBUG, logger="ivqr.solver")
    solver_log = logging.getLogger("ivqr.solver")
    levels = []
    fit(iv_problem(200, seed=5), reps=5, progress=lambda r: levels.append(solver_log.level))
    assert levels == [logging.DEBUG] * 5


def test_point_estimate_logs_while_another_thread_bootstraps(caplog):
    # thread A waits inside its bootstrap's progress; meanwhile a fit on
    # this thread logs every Newton step it logs alone
    caplog.set_level(logging.DEBUG, logger="ivqr.solver")
    prob_a, prob_b = iv_problem(200, seed=5), iv_problem(200, seed=6)
    here = threading.get_ident()

    def steps():
        return sum(rec.thread == here for rec in caplog.records)

    fit(prob_b)
    alone = steps()
    assert alone > 0
    caplog.clear()
    waiting, release = threading.Event(), threading.Event()

    def wait(r):
        waiting.set()
        release.wait(10)

    a = threading.Thread(target=fit, args=(prob_a,), kwargs={"reps": 5, "progress": wait})
    a.start()
    try:
        assert waiting.wait(10)
        fit(prob_b)
    finally:
        release.set()
        a.join(30)
    assert not a.is_alive()
    assert steps() == alone


def test_bootstrap_aborts_when_replications_fail(monkeypatch):
    prob = iv_problem(100, seed=12)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta

    def always_raise(*args, **kwargs):
        raise ConvergenceError("no")

    monkeypatch.setattr(inference_mod, "solve_see", always_raise)
    with pytest.raises(ConvergenceError, match="^10 of 10 bootstrap replications raised$"):
        bayesian_bootstrap(prob, zhat, 0.5, beta, reps=10, seed=3)


def escalate_draws(monkeypatch, prob, reps, seed, escalated, raised=()):
    """Make the bootstrap's solves for the draws in ``escalated`` come back
    escalated, at 1.5 times the requested bandwidth with a shifted root, and
    those in ``raised`` raise; returns the dict every returned beta goes
    into, by draw index.  A draw is told by its weights, so the draws may
    run in any order."""
    index = {draw_weights(prob, seed, r).tobytes(): r for r in range(reps)}
    returned = {}

    def solve(p, z, h, beta_init=None):
        r = index[p.w.tobytes()]
        if r in raised:
            raise ConvergenceError("no")
        sol = solve_see(p, z, h, beta_init=beta_init)
        if r in escalated:
            diag = replace(sol.diag, bandwidth_escalations=1)
            sol = SeeSolution(beta=sol.beta + 1.0, h_used=1.5 * h, diag=diag)
        returned[r] = sol.beta
        return sol

    monkeypatch.setattr(inference_mod, "solve_see", solve)
    return returned


def test_bootstrap_keeps_draws_solved_at_another_bandwidth(monkeypatch):
    # an escalated draw is pooled like any other, as the point estimate's
    # escalated root is kept
    prob = iv_problem(120, seed=14)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        returned = escalate_draws(monkeypatch, prob, 40, 6, {17})
        est = bayesian_bootstrap(prob, zhat, 0.5, beta, reps=40, seed=6)
        assert est.reps_used == 40 and sorted(returned) == list(range(40))
        want = np.cov(np.array([returned[r] for r in range(40)]), rowvar=False, ddof=1)
        np.testing.assert_array_equal(est.cov, 0.5 * (want + want.T))
        without = np.cov(np.array([returned[r] for r in range(40) if r != 17]), rowvar=False)
        assert not np.allclose(est.cov, without)


def test_bootstrap_counts_only_raised_draws_against_failure_budget(monkeypatch):
    prob = iv_problem(100, seed=15)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.5).beta
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        # five escalated draws and one that raised: 1 of 20 is within the 5% budget
        escalate_draws(monkeypatch, prob, 20, 3, {2, 5, 9, 11, 19}, raised={7})
        est = bayesian_bootstrap(prob, zhat, 0.5, beta, reps=20, seed=3)
        assert est.reps_used == 19
        escalate_draws(monkeypatch, prob, 20, 3, {2, 5, 9, 11, 19}, raised={7, 8})
        with pytest.raises(ConvergenceError, match="^2 of 20 bootstrap replications raised$"):
            bayesian_bootstrap(prob, zhat, 0.5, beta, reps=20, seed=3)


def test_bootstrap_cov_shape_single_parameter():
    rng = np.random.default_rng(13)
    y = rng.normal(size=101)
    X = np.ones((101, 1))
    prob = EstimationProblem(y=y, X=X, Z=X, w=np.ones(101), tau=0.5)
    zhat = project_instruments(prob)
    beta = solve_see(prob, zhat, 0.3).beta
    est = bayesian_bootstrap(prob, zhat, 0.3, beta, reps=30, seed=4)
    assert est.cov.shape == (1, 1)
    assert est.cov[0, 0] > 0
    assert isinstance(est, CovarianceEstimate)


def test_fit_result_keeps_reps_used(monkeypatch):
    # escalated draws are kept and counted; the one that raised is not
    prob = iv_problem(120, seed=14)
    assert fit(prob).reps_used == 0
    returned = escalate_draws(monkeypatch, prob, 40, 6, {3, 17}, raised={25})
    res = fit(prob, reps=40, seed=6)
    assert res.vcov_kind == "bootstrap"
    assert res.reps_used == len(returned) == 39


# ----------------------------------------- bootstrap against its oracle


def assert_bootstrap_matches_oracle(prob, reps, seed):
    """``bayesian_bootstrap`` equals the per-replication oracle under ``==``,
    and calls ``ivqr.inference.solve_see`` once per draw with a warm start.
    Returns the estimate and how many draws escalated."""
    beta, zhat, h = point_estimate(prob)
    real = inference_mod.solve_see
    starts, escalated = [], []

    def spy(p, z, h_, beta_init=None):
        starts.append(beta_init is not None)
        sol = real(p, z, h_, beta_init=beta_init)
        escalated.append(sol.h_used != h_)
        return sol

    inference_mod.solve_see = spy
    try:
        est = bayesian_bootstrap(prob, zhat, h, beta, reps=reps, seed=seed)
    finally:
        inference_mod.solve_see = real
    assert starts == [True] * reps
    cov, reps_used = bootstrap_oracle(prob, zhat, h, beta, reps, seed)
    assert est.reps_used == reps_used
    assert np.array_equal(est.cov, cov)
    return est, sum(escalated)


def test_bootstrap_matches_oracle_unweighted_exactly_identified(monkeypatch):
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        est, _ = assert_bootstrap_matches_oracle(iv_problem(300, seed=31), reps=30, seed=7)
        assert est.reps_used == 30


def test_bootstrap_matches_oracle_weighted_overidentified(monkeypatch):
    rng = np.random.default_rng(32)
    n = 400
    z = rng.normal(size=(n, 2))
    d = z[:, 0] + 0.5 * z[:, 1] + 0.5 * rng.normal(size=n)
    y = 1.0 + d + rng.normal(size=n)
    prob = build_problem(y, raw_endog=d, raw_instr=z, weights=rng.uniform(0.2, 3.0, size=n),
                         quantile=0.3)
    assert prob.q > prob.p and not np.all(prob.w == 1.0)
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        assert_bootstrap_matches_oracle(prob, reps=30, seed=8)


def test_bootstrap_matches_oracle_when_a_warm_solve_falls_back(monkeypatch):
    # the warm Newton stage of draw 4 fails, so that draw is solved by the
    # homotopy, in the bootstrap and in the oracle alike
    prob = iv_problem(300, seed=33)
    beta_hat = point_estimate(prob)[0]
    xi = np.random.default_rng([9, 4]).standard_exponential(prob.n)
    w_bad = prob.w * (xi / xi.mean())
    real = solver_mod._damped_newton
    failed = []

    def newton(p, z, beta0, h, tol, zw, *ws):
        if np.array_equal(beta0, beta_hat) and np.array_equal(p.w, w_bad):
            failed.append(len(ws))
            return np.array(beta0, dtype=float), 0, False, float("inf")
        return real(p, z, beta0, h, tol, zw, *ws)

    monkeypatch.setattr(solver_mod, "_damped_newton", newton)
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        failed.clear()
        est, _ = assert_bootstrap_matches_oracle(prob, reps=20, seed=9)
        # the bootstrap's warm stage brought its shared start, the oracle's did not
        assert failed == [1, 0]
        assert est.reps_used == 20


def test_bootstrap_matches_oracle_where_draws_escalate(monkeypatch):
    # on the binary design at tau = 0.05, 4 of 20 draws escalate above
    # h_used; the bootstrap keeps them, as the oracle does
    prob = binary_problem(2000, 0.05, 0)
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        est, escalated = assert_bootstrap_matches_oracle(prob, reps=20, seed=0)
        assert escalated == 4 and est.reps_used == 20


@pytest.mark.parametrize("tau, seeds", [(0.05, (0, 3, 4)), (0.95, (1, 2, 3))])
def test_bootstrap_returns_on_binary_design_at_outer_quantiles(monkeypatch, tau, seeds):
    # a binary treatment with a binary instrument: some draws keep only a few
    # rows of a (d, z) cell inside the window and escalate.  Each fit returns
    # with every draw kept, where dropping the escalated ones used to exhaust
    # the 5% budget and raise
    real = inference_mod.solve_see
    escalated = []

    def spy(p, z, h, beta_init=None):
        sol = real(p, z, h, beta_init=beta_init)
        escalated.append(sol.h_used != h)
        return sol

    monkeypatch.setattr(inference_mod, "solve_see", spy)
    for s in seeds:
        escalated.clear()
        res = fit(binary_problem(2000, tau, s), reps=100, seed=s)
        assert sum(escalated) > 5 and res.reps_used == 100
        assert np.all(np.isfinite(res.se)) and np.all(res.se > 0)


def test_fit_holds_three_vectors_beyond_the_problem():
    # the rank guard reads the weighted Gram matrix, not a scaled copy of the
    # instruments, and the sandwich squares and weights psi in the residual
    # buffer: past the problem's own arrays, a plug-in fit with analytic
    # errors peaks at one n-vector beside the (n, p) scaled instruments
    fit(generate(reference_dgp(n=2000, seed=36), tau=0.25)[0])  # first-call allocations
    prob, _ = generate(reference_dgp(n=200_000, seed=36), tau=0.25)
    tracemalloc.start()
    try:
        fit(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * prob.n, peak / (8 * prob.n)


def test_bootstrap_memory_does_not_grow_with_reps(monkeypatch):
    # each thread's draws and warm solves reuse one weight buffer and one
    # workspace, so the traced peak is the same at 5 and 40 replications,
    # on one thread and on two
    prob = iv_problem(200_000, seed=34)
    beta, zhat, h = point_estimate(prob)
    vector = 8 * prob.n
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        peaks = {}
        for reps in (5, 40):
            tracemalloc.start()
            try:
                bayesian_bootstrap(prob, zhat, h, beta, reps=reps, seed=1)
                peaks[reps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[40] - peaks[5]) <= vector, (workers, peaks)
        assert max(peaks.values()) < 8 * vector, (workers, peaks)
