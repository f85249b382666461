"""Tests for the simulated designs, the slow oracles, and the study runner."""

import csv
import importlib.util
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import brute_force_qr_oracle, unsmoothed_moments, winsorized_mean_oracle
from scipy.optimize import brentq, linprog
from scipy.stats import norm

import ivqr.bandwidth as bandwidth_mod
import ivqr.estimate as estimate_mod
import ivqr.simulation as simulation_mod
from ivqr.estimate import fit
from ivqr.exceptions import ConvergenceError, EstimationError, RankDeficientError
from ivqr.model import EstimationProblem
from ivqr.simulation import (
    DgpSpec,
    LOCATION_SHIFT,
    RANDOM_COEFFICIENT,
    fit_levels,
    generate,
    monte_carlo,
    reference_dgp,
)
from ivqr.solver import SolverDiagnostics


def load_run_monte_carlo():
    """The Monte Carlo script as a module; it owns the CSV writer."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_monte_carlo.py"
    spec = importlib.util.spec_from_file_location("run_monte_carlo", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ------------------------------------------------------------------- DGPs


def test_location_shift_truth_vector():
    spec = reference_dgp(n=100, seed=7)
    _, true_beta_at = generate(spec, tau=0.5)
    np.testing.assert_allclose(true_beta_at(0.5), [1.0, 1.0])
    np.testing.assert_allclose(true_beta_at(0.25), [1.0, 1.0 + norm.ppf(0.25)])
    np.testing.assert_allclose(true_beta_at(0.9), [1.0, 1.0 + norm.ppf(0.9)])


@pytest.mark.parametrize("tau", [0.25, 0.5, 0.75])
def test_location_shift_quantile_restriction_holds(tau):
    # P(y <= x'beta(tau)) = tau, and the indicator is uncorrelated with z
    spec = reference_dgp(n=200_000, seed=11)
    prob, true_beta_at = generate(spec, tau=tau)
    ind = (prob.y <= prob.X @ true_beta_at(tau)).astype(float)
    assert ind.mean() == pytest.approx(tau, abs=0.005)
    z = prob.Z[:, 0]
    corr = np.corrcoef(z, ind)[0, 1]
    assert abs(corr) < 0.01


def test_location_shift_endogeneity_present():
    # the design is worth instrumenting: x correlates with the error
    spec = reference_dgp(n=100_000, seed=13)
    prob, true_beta_at = generate(spec, tau=0.5)
    v = prob.y - prob.X @ true_beta_at(0.5)
    x = prob.X[:, 0]
    assert np.corrcoef(x, v)[0, 1] > 0.2


def test_random_coefficient_truth_and_restriction():
    spec = DgpSpec(kind=RANDOM_COEFFICIENT, n=200_000, seed=17)
    prob, true_beta_at = generate(spec, tau=0.3)
    np.testing.assert_allclose(true_beta_at(0.3), [1.3, norm.ppf(0.3)])
    for tau in (0.25, 0.5, 0.75):
        ind = (prob.y <= prob.X @ true_beta_at(tau)).astype(float)
        assert ind.mean() == pytest.approx(tau, abs=0.005)


@pytest.mark.parametrize("kind", [LOCATION_SHIFT, RANDOM_COEFFICIENT])
def test_generate_memory_is_a_few_vectors(kind):
    # a draw holds a few n-vectors and the problem's copies of them, no
    # n-row array per point of a grid of ranks; the warm-up draw keeps
    # one-time first-call allocations out of the traced peak
    generate(DgpSpec(kind=kind, n=100, seed=1))
    n = 200_000
    tracemalloc.start()
    try:
        generate(DgpSpec(kind=kind, n=n, seed=17), tau=0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 8 * n, peak / (8 * n)


@pytest.mark.parametrize("kind", [LOCATION_SHIFT, RANDOM_COEFFICIENT])
def test_generate_holds_no_spent_draw(kind):
    # v, x and y overwrite or free the draws they are made from, so the draw peaks
    # in build_problem at z, x, y and the problem's arrays
    generate(DgpSpec(kind=kind, n=100, seed=1))  # first call, out of the traced peak
    n = 200_000
    tracemalloc.start()
    try:
        generate(DgpSpec(kind=kind, n=n, seed=17), tau=0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * n, peak / (8 * n)


def test_whole_float_and_numpy_sizes_draw_the_same_data():
    base, _ = generate(DgpSpec(n=300, seed=4, n_instruments=2), tau=0.5)
    for n, k in ((300.0, 2.0), (np.int64(300), np.int32(2))):
        prob, _ = generate(DgpSpec(n=n, seed=4, n_instruments=k), tau=0.5)
        np.testing.assert_array_equal(prob.y, base.y)
        np.testing.assert_array_equal(prob.Z, base.Z)


def test_multi_instrument_design():
    spec = DgpSpec(kind=LOCATION_SHIFT, n=50_000, seed=23, n_instruments=3)
    prob, _ = generate(spec, tau=0.5)
    assert prob.q == 4  # three instruments plus the constant
    assert prob.p == 2
    # equal loadings are scaled so var(x) stays pi^2 + 1 regardless of k
    assert np.var(prob.X[:, 0]) == pytest.approx(2.0, rel=0.05)


def test_moment_restriction_near_zero_at_truth():
    spec = reference_dgp(n=100_000, seed=29)
    prob, true_beta_at = generate(spec, tau=0.3)
    m = unsmoothed_moments(prob, true_beta_at(0.3))
    assert np.max(np.abs(m)) < 0.02


@pytest.mark.parametrize(
    "bad_spec, message",
    [
        (DgpSpec(n=1), "n >= 2"),
        (DgpSpec(rho=1.0), "rho"),
        (DgpSpec(n_instruments=0), "instrument"),
        (DgpSpec(kind="mystery"), "unknown DGP"),
        (DgpSpec(n=200.7), "n must be an integer, got 200.7"),
        (DgpSpec(kind=RANDOM_COEFFICIENT, n=200.7), "n must be an integer, got 200.7"),
        (DgpSpec(n_instruments=2.5), "n_instruments must be an integer, got 2.5"),
        (DgpSpec(kind=RANDOM_COEFFICIENT, n_instruments=0), "n_instruments must be 1, got 0"),
        (DgpSpec(kind=RANDOM_COEFFICIENT, n_instruments=3), "n_instruments must be 1, got 3"),
        (DgpSpec(pi=np.nan), "pi must be a finite number, got nan"),
        (DgpSpec(pi=np.inf), "pi must be a finite number, got inf"),
        (DgpSpec(pi=None), "pi must be a number, got None"),
        (DgpSpec(kind=RANDOM_COEFFICIENT, pi=None), "pi must be a number, got None"),
        (DgpSpec(rho=None), "rho must be a number, got None"),
        (DgpSpec(rho="half"), "rho must be a number, got 'half'"),
    ],
)
def test_generate_rejects_bad_specs(bad_spec, message):
    with pytest.raises(ValueError, match=message):
        generate(bad_spec, tau=0.5)


def test_generate_reads_numeric_strings_as_numbers():
    # pi and rho are read as float reads them, as every other number check does
    spec = reference_dgp(n=200, seed=4)
    want = generate(spec)[0]
    for field, text in (("rho", "0.5"), ("pi", "1")):
        got = generate(replace(spec, **{field: text}))[0]
        np.testing.assert_array_equal(got.y, want.y)
        np.testing.assert_array_equal(got.X, want.X)


@pytest.mark.parametrize("seed, same_as", [(2.0, 2), (np.int64(3), 3), (-1, None)],
                         ids=["whole-float", "numpy-int", "negative"])
def test_seed_is_a_non_negative_whole_number(monkeypatch, seed, same_as):
    # a whole seed draws what its int draws, in one dataset and in a study;
    # a negative one is refused by name, by the study before any draw
    spec = reference_dgp(n=200, seed=seed)
    if same_as is None:
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            generate(spec)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew a dataset")

        monkeypatch.setattr(simulation_mod, "generate", no_draw)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            monte_carlo(spec, taus=[0.5], n_reps=2)
        return
    want = replace(spec, seed=same_as)
    np.testing.assert_array_equal(generate(spec)[0].y, generate(want)[0].y)
    got_row, want_row = monte_carlo(spec, [0.5], 2)[0], monte_carlo(want, [0.5], 2)[0]
    np.testing.assert_array_equal(got_row.mean_bias, want_row.mean_bias)
    np.testing.assert_array_equal(got_row.sd, want_row.sd)


@pytest.mark.parametrize("flag", [["--rho", "0.2"], ["--instruments", "3"]])
def test_monte_carlo_script_refuses_location_shift_flags_on_random_coefficient(capsys, flag):
    script = load_run_monte_carlo()
    with pytest.raises(SystemExit) as exit_info:
        script.parse_args(["--kind", RANDOM_COEFFICIENT] + flag)
    assert exit_info.value.code == 2
    assert f"{flag[0]} applies to the {LOCATION_SHIFT} design only" in capsys.readouterr().err
    args = script.parse_args(["--kind", LOCATION_SHIFT] + flag)
    assert getattr(args, flag[0][2:]) == float(flag[1])


# -------------------------------------------------------- winsorized mean


def test_winsorized_oracle_tiny_h_is_median():
    rng = np.random.default_rng(31)
    y = np.sort(rng.normal(size=21))
    gap = np.min(np.diff(y))
    got = winsorized_mean_oracle(y, 0.4 * gap, 0.5)
    assert got == pytest.approx(np.median(y), abs=1e-9)


def test_winsorized_oracle_huge_h_is_shifted_mean():
    rng = np.random.default_rng(37)
    y = rng.normal(size=50)
    h = 10.0 * (y.max() - y.min())
    assert winsorized_mean_oracle(y, h, 0.5) == pytest.approx(y.mean(), abs=1e-8)
    # with nothing clipped the tau root sits at mean - (1 - 2 tau) h
    tau = 0.3
    expected = y.mean() - (1.0 - 2.0 * tau) * h
    assert winsorized_mean_oracle(y, h, tau) == pytest.approx(expected, abs=1e-8)


def test_winsorized_oracle_plateau_midpoint():
    # two points, gap wider than the window: every m in
    # [y1 + h, y2 - h] solves the equation; the midpoint comes back
    got = winsorized_mean_oracle([0.0, 1.0], 0.2, 0.5)
    assert got == pytest.approx(0.5, abs=1e-9)


def test_winsorized_oracle_shift_equivariant():
    rng = np.random.default_rng(41)
    y = rng.normal(size=17)
    base = winsorized_mean_oracle(y, 0.5, 0.4)
    shifted = winsorized_mean_oracle(y + 3.25, 0.5, 0.4)
    assert shifted == pytest.approx(base + 3.25, abs=1e-9)


def test_winsorized_oracle_agrees_with_brentq():
    rng = np.random.default_rng(43)
    y = rng.normal(size=23)
    h, tau = 0.6, 0.35
    shift = (1.0 - 2.0 * tau) * h

    def g(m):
        return float(np.mean(np.clip(y - m, -h, h))) - shift

    root = brentq(g, y.min() - h, y.max() + h, xtol=1e-12)
    assert winsorized_mean_oracle(y, h, tau) == pytest.approx(root, abs=1e-9)


def test_winsorized_oracle_input_checks():
    with pytest.raises(ValueError, match="positive"):
        winsorized_mean_oracle([1.0, 2.0], 0.0)
    with pytest.raises(ValueError, match="tau"):
        winsorized_mean_oracle([1.0, 2.0], 1.0, tau=1.0)


# ---------------------------------------------------------- brute force QR


def test_brute_force_intercept_only_is_order_statistic():
    rng = np.random.default_rng(47)
    y = rng.normal(size=21)
    X = np.ones((21, 1))
    beta = brute_force_qr_oracle(y, X, 0.5)
    assert beta[0] == pytest.approx(np.median(y), abs=1e-12)
    # at tau = 0.25 with n = 21 the count crosses 21/4 = 5.25 at the 6th
    # smallest observation
    beta_q = brute_force_qr_oracle(y, X, 0.25)
    assert beta_q[0] == pytest.approx(np.sort(y)[5], abs=1e-12)


def test_brute_force_matches_linear_program():
    # quantile regression is a linear program; HiGHS provides an
    # implementation that shares nothing with the subset enumeration
    rng = np.random.default_rng(53)
    n, tau = 25, 0.4
    x = rng.normal(size=n)
    y = 1.0 + 0.5 * x + rng.standard_cauchy(size=n) * 0.3
    X = np.column_stack([x, np.ones(n)])
    beta_bf = brute_force_qr_oracle(y, X, tau)

    # variables: beta+ (p), beta- (p), u+ (n), u- (n)
    p = X.shape[1]
    c = np.concatenate([np.zeros(2 * p), tau * np.ones(n), (1 - tau) * np.ones(n)])
    A_eq = np.hstack([X, -X, np.eye(n), -np.eye(n)])
    res = linprog(c, A_eq=A_eq, b_eq=y, bounds=[(0, None)] * (2 * p + 2 * n))
    assert res.success
    v = y - X @ beta_bf
    obj_bf = float(np.sum(v * (tau - (v <= 0))))
    assert obj_bf == pytest.approx(res.fun, abs=1e-9)


def test_brute_force_caps():
    with pytest.raises(ValueError, match="capped"):
        brute_force_qr_oracle(np.ones(31), np.ones((31, 1)), 0.5)
    with pytest.raises(ValueError, match="capped"):
        brute_force_qr_oracle(np.ones(10), np.ones((10, 4)), 0.5)


def test_brute_force_skips_singular_subsets():
    # duplicated design rows create singular 2-point systems; they are
    # skipped, not fatal
    y = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    x = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    X = np.column_stack([x, np.ones(6)])
    beta = brute_force_qr_oracle(y, X, 0.5)
    assert np.all(np.isfinite(beta))


# -------------------------------------------------------------- the runner


def test_monte_carlo_smoke_and_determinism(tmp_path):
    spec = reference_dgp(n=150, seed=5)
    rows = monte_carlo(spec, taus=[0.5], n_reps=8)
    assert len(rows) == 1
    row = rows[0]
    assert row.tau == 0.5
    assert row.n == 150
    assert row.n_reps == 8
    assert row.n_failed == 0
    assert row.mean_bias.shape == (2,)
    assert np.all(row.sd > 0)
    assert np.all((0.0 <= row.coverage) & (row.coverage <= 1.0))
    assert np.all(row.rmse >= np.abs(row.mean_bias) - 1e-12)

    rows2 = monte_carlo(spec, taus=[0.5], n_reps=8)
    np.testing.assert_array_equal(rows2[0].mean_bias, row.mean_bias)
    np.testing.assert_array_equal(rows2[0].sd, row.sd)

    out = tmp_path / "mc.csv"
    load_run_monte_carlo().monte_carlo_to_csv(rows, out)
    with open(out, newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == 2
    assert records[0]["coef"] == "0"
    # repr round-trips exactly
    assert float(records[0]["sd"]) == row.sd[0]
    assert float(records[1]["coverage"]) == row.coverage[1]


def test_monte_carlo_fixed_bandwidth_setting():
    spec = reference_dgp(n=120, seed=6)
    rows = monte_carlo(spec, taus=[0.25], n_reps=4, bandwidth=0.8)
    assert rows[0].n_reps == 4
    assert np.all(np.isfinite(rows[0].rmse))


SIZES = "n_reps >= 2 and at least one tau"


@pytest.mark.parametrize(
    "taus, n_reps, level, bandwidth, message",
    [
        ([0.5], 1, 0.95, None, SIZES),
        ([0.5], 0, 0.95, None, SIZES),
        ([], 5, 0.95, None, SIZES),
        ([0.5, 1.5], 2, 0.95, None, "tau must lie strictly between 0 and 1, got 1.5"),
        ([50.0], 2, 0.95, None, "tau must lie strictly between 0 and 1, got 50.0"),
        ([0.0], 2, 0.95, None, "tau must lie strictly between 0 and 1, got 0.0"),
        ([0.5], 2, 95.0, None, "level must lie strictly between 0 and 1, got 95.0"),
        ([0.5], 2, 0.0, None, "level must lie strictly between 0 and 1, got 0.0"),
        ([0.5], 2.5, 0.95, None, "n_reps must be an integer, got 2.5"),
        ([0.5], "3", 0.95, None, "n_reps must be an integer, got '3'"),
        ([0.5], 2, 0.95, -1, "bandwidth must be a finite nonnegative number, got -1"),
        ([0.5], 2, 0.95, np.nan, "bandwidth must be a finite nonnegative number, got nan"),
        ([0.5], 2, 0.95, np.inf, "bandwidth must be a finite nonnegative number, got inf"),
    ],
    ids=["one-rep", "no-reps", "no-taus", "tau-above-one", "percentile-tau", "zero-tau",
         "percent-level", "zero-level", "fractional-reps", "string-reps", "negative-bandwidth",
         "nan-bandwidth", "infinite-bandwidth"],
)
def test_monte_carlo_rejects_degenerate_sizes_before_drawing(monkeypatch, taus, n_reps,
                                                            level, bandwidth, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a dataset or fitted one")

    monkeypatch.setattr(simulation_mod, "generate", no_draw)
    monkeypatch.setattr(simulation_mod, "fit", no_draw)
    with pytest.raises(ValueError, match=re.escape(message)):
        monte_carlo(reference_dgp(n=100, seed=3), taus=taus, n_reps=n_reps, level=level,
                    bandwidth=bandwidth)


def _cold_rows(spec, taus, n_reps, level=0.95):
    """The study's rows from independent cold fits, one fresh draw per (r, tau)."""
    rows = []
    for tau in taus:
        est, ses, covers = [], [], []
        for r in range(n_reps):
            rep_spec = replace(spec, seed=np.random.default_rng([spec.seed, r]).integers(2**63))
            prob, true_beta_at = generate(rep_spec, tau=tau)
            res = fit(prob, level=level)
            truth = true_beta_at(tau)
            est.append(res.beta)
            ses.append(res.se)
            covers.append((res.ci[:, 0] <= truth) & (truth <= res.ci[:, 1]))
        bias = np.asarray(est) - truth
        rows.append((tau, bias.mean(axis=0), np.std(est, axis=0, ddof=1),
                     np.sqrt((bias**2).mean(axis=0)), np.mean(ses, axis=0),
                     np.mean(covers, axis=0)))
    return rows


def test_monte_carlo_grid_equals_independent_cold_fits():
    # warm starts only start the solver: the shared-draw grid reproduces
    # cold per-tau fits on the same datasets, the far outer levels included
    spec = reference_dgp(n=400, seed=8)
    taus = (0.1, 0.25, 0.5, 0.75, 0.9)
    rows = monte_carlo(spec, taus=taus, n_reps=6)
    for row, (tau, bias, sd, rmse, se, cover) in zip(rows, _cold_rows(spec, taus, 6)):
        assert row.tau == tau
        assert row.n_failed == 0
        for got, want in ((row.mean_bias, bias), (row.sd, sd), (row.rmse, rmse),
                          (row.analytic_se_mean, se), (row.coverage, cover)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


def test_monte_carlo_rows_follow_the_callers_tau_order():
    spec = reference_dgp(n=200, seed=9)
    rows = monte_carlo(spec, taus=(0.75, 0.25, 0.5), n_reps=3)
    assert [row.tau for row in rows] == [0.75, 0.25, 0.5]
    by_tau = {row.tau: row for row in monte_carlo(spec, taus=(0.25, 0.5, 0.75), n_reps=3)}
    for row in rows:
        np.testing.assert_allclose(row.mean_bias, by_tau[row.tau].mean_bias, rtol=0, atol=1e-8)


def test_monte_carlo_raises_when_every_replication_fails(monkeypatch):
    def failing_fit(prob, **kwargs):
        raise EstimationError("injected failure")

    monkeypatch.setattr(simulation_mod, "fit", failing_fit)
    with pytest.raises(EstimationError, match=r"^all 3 replications failed at tau=0\.5$"):
        monte_carlo(reference_dgp(n=200, seed=10), taus=(0.5,), n_reps=3)


def test_monte_carlo_failed_median_fit_leaves_its_neighbours_cold(monkeypatch):
    calls = []  # (replication, tau, started warm)

    def flaky_fit(prob, **kwargs):
        rep = sum(1 for _, t, _ in calls if t == 0.5) - (prob.tau != 0.5)
        calls.append((rep, prob.tau, kwargs["beta_init"] is not None))
        if rep == 1 and prob.tau == 0.5:
            raise EstimationError("injected failure")
        return fit(prob, **kwargs)

    monkeypatch.setattr(simulation_mod, "fit", flaky_fit)
    rows = monte_carlo(reference_dgp(n=200, seed=10), taus=(0.25, 0.5, 0.75), n_reps=3)
    assert {row.tau: row.n_failed for row in rows} == {0.25: 0, 0.5: 1, 0.75: 0}
    assert len(calls) == 9
    for rep, tau, warm in calls:
        # the median is solved cold first; its neighbours start from it
        # unless its fit failed
        assert warm == (tau != 0.5 and rep != 1), (rep, tau)


# ---------------------------------------------------------- the tau grid


def oracle_levels(base, taus, bandwidth=None, level=0.95):
    """One dataset's grid fitted level by level on validated copies
    (``dataclasses.replace``), each level starting from the nearest level
    already attempted, cold after a failure: the loop ``monte_carlo`` ran
    before ``fit_levels``, sharing nothing between levels."""
    order = sorted(range(len(taus)), key=lambda i: abs(taus[i] - 0.5))
    solved, out = {}, [None] * len(taus)
    for i in order:
        tau = taus[i]
        near = min(solved, key=lambda t: abs(t - tau), default=None)
        try:
            out[i] = fit(replace(base, tau=tau), bandwidth=bandwidth, level=level,
                         beta_init=solved.get(near))
        except EstimationError:
            solved[tau] = None
            continue
        solved[tau] = out[i].beta
    return out


def assert_same_fit(got, want):
    """Bit for bit: beta, cov, the whole bandwidth report and the solver record."""
    assert (got is None) == (want is None)
    if want is None:
        return
    np.testing.assert_array_equal(got.beta, want.beta)
    np.testing.assert_array_equal(got.cov, want.cov)
    assert got.bandwidth == want.bandwidth
    assert got.solver == want.solver
    assert (got.n_obs, got.vcov_kind, got.level, got.reps_used) == (
        want.n_obs, want.vcov_kind, want.level, want.reps_used)


def grid_design(name):
    if name == "reference":
        return generate(reference_dgp(n=300, seed=41))[0]
    if name == "weighted":
        base = generate(reference_dgp(n=300, seed=42))[0]
        w = np.random.default_rng(42).uniform(0.5, 2.0, size=base.n)
        return EstimationProblem(y=base.y, X=base.X, Z=base.Z, w=w, tau=0.5,
                                 endog_idx=base.endog_idx)
    if name == "overidentified":
        return generate(DgpSpec(n=300, seed=43, n_instruments=3))[0]
    return generate(DgpSpec(kind=RANDOM_COEFFICIENT, n=300, seed=44))[0]


@pytest.mark.parametrize("taus", [(0.75, 0.1, 0.5, 0.9, 0.25), (0.3, 0.5, 0.3), (0.6, 0.4)],
                         ids=["unsorted", "repeated", "equidistant"])
@pytest.mark.parametrize("bandwidth", [None, 0.3], ids=["plug-in", "manual"])
@pytest.mark.parametrize("design",
                         ["reference", "weighted", "overidentified", "random-coefficient"])
def test_fit_levels_equals_the_level_by_level_loop(design, bandwidth, taus):
    base = grid_design(design)
    got = fit_levels(base, taus, bandwidth=bandwidth, level=0.9)
    want = oracle_levels(base, taus, bandwidth=bandwidth, level=0.9)
    assert len(got) == len(taus)
    for g, w in zip(got, want):
        assert w is not None
        assert_same_fit(g, w)


def test_fit_levels_failed_level_is_none_and_its_neighbours_start_cold(monkeypatch):
    base = grid_design("reference")
    taus = (0.1, 0.25, 0.5, 0.75)
    real_solve = bandwidth_mod.solve_see

    def failing_median(prob, zhat, h, beta_init=None):
        if prob.tau == 0.5:
            raise ConvergenceError("injected failure", diagnostics=SolverDiagnostics())
        return real_solve(prob, zhat, h, beta_init=beta_init)

    starts = []  # (tau, started warm) of every fit_levels fit

    def spy_fit(prob, **kwargs):
        starts.append((prob.tau, kwargs["beta_init"] is not None))
        return fit(prob, **kwargs)

    monkeypatch.setattr(bandwidth_mod, "solve_see", failing_median)
    monkeypatch.setattr(simulation_mod, "fit", spy_fit)
    got = fit_levels(base, taus)
    assert [g is None for g in got] == [False, False, True, False]
    # the median's neighbours find it nearest and start cold; 0.1 starts from 0.25
    assert starts == [(0.5, False), (0.25, False), (0.75, False), (0.1, True)]
    for g, w in zip(got, oracle_levels(base, taus)):
        assert_same_fit(g, w)


def test_fit_levels_rank_deficient_instruments_fail_every_level(monkeypatch):
    base = grid_design("reference")
    z = base.Z[:, 0]
    Z = np.column_stack([z, 2.0 * z, base.Z[:, 1]])
    prob = EstimationProblem(y=base.y, X=base.X, Z=Z, w=base.w, tau=0.5,
                             endog_idx=base.endog_idx)
    errors = []

    def spy_fit(prob, **kwargs):
        try:
            return fit(prob, **kwargs)
        except EstimationError as exc:
            errors.append((type(exc), str(exc)))
            raise

    monkeypatch.setattr(simulation_mod, "fit", spy_fit)
    assert fit_levels(prob, (0.25, 0.5, 0.75)) == [None, None, None]
    assert len(errors) == 3
    assert errors[0][0] is RankDeficientError
    assert errors == [errors[0]] * 3


def count_calls(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("bandwidth, want", [
    (None, {"project_instruments": 1, "iv_estimate": 1, "robust_sigma": 1 + 3}),
    # a manual bandwidth shares only the projection; each level's Jacobian
    # bandwidth takes one plug-in pass at its own solution
    (0.3, {"project_instruments": 1, "robust_sigma": 3}),
], ids=["plug-in", "manual"])
def test_fit_levels_does_the_tau_free_work_once(monkeypatch, bandwidth, want):
    base = grid_design("overidentified")
    counts = {}
    count_calls(monkeypatch, estimate_mod, "project_instruments", counts)
    count_calls(monkeypatch, bandwidth_mod, "iv_estimate", counts)
    count_calls(monkeypatch, bandwidth_mod, "robust_sigma", counts)
    fit_levels(base, (0.25, 0.5, 0.75), bandwidth=bandwidth)
    assert counts == want


def test_successive_fits_share_no_tau_free_work(monkeypatch):
    base = grid_design("overidentified")
    counts = {}
    count_calls(monkeypatch, estimate_mod, "project_instruments", counts)
    count_calls(monkeypatch, bandwidth_mod, "iv_estimate", counts)
    first, second = fit(base), fit(base)
    assert counts == {"project_instruments": 2, "iv_estimate": 2}
    assert_same_fit(second, first)
    fit_levels(base, (0.5,))
    fit_levels(base, (0.5,))
    assert counts == {"project_instruments": 4, "iv_estimate": 4}


def test_at_quantile_is_a_read_only_view_of_the_base():
    base = grid_design("weighted")
    view = base.at_quantile(0.3)
    assert view.tau == 0.3 and type(view.tau) is float
    assert base.tau == 0.5
    assert view.endog_idx == base.endog_idx
    for name in ("y", "X", "Z", "w"):
        arr = getattr(view, name)
        assert np.shares_memory(arr, getattr(base, name)), name
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # reweighting a view keeps its tau and its y, X and Z
    w = np.random.default_rng(3).uniform(0.5, 2.0, size=base.n)
    got = fit(view.reweighted(w))
    want = fit(EstimationProblem(y=base.y, X=base.X, Z=base.Z, w=w, tau=0.3,
                                 endog_idx=base.endog_idx))
    assert_same_fit(got, want)


@pytest.mark.parametrize("tau", [0.0, 1.0, 1.5, -0.25, 50, float("nan")])
def test_at_quantile_rejects_levels_the_constructor_rejects(tau):
    base = grid_design("reference")
    with pytest.raises(ValueError) as built:
        replace(base, tau=tau)
    with pytest.raises(ValueError) as viewed:
        base.at_quantile(tau)
    assert str(viewed.value) == str(built.value)
    assert str(built.value).startswith("tau must lie strictly between 0 and 1")
