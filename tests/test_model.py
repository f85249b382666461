"""Tests for problem assembly, quantile conversion, and result containers."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import unsmoothed_moments
from scipy.special import ndtri

from ivqr.estimate import fit
from ivqr.model import EstimationProblem, FitResult, build_problem, convert_quantile


def small_problem(n=40, seed=3):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    d = z + 0.5 * rng.normal(size=n)
    x = rng.normal(size=n)
    y = 1.0 + d - 0.5 * x + rng.normal(size=n)
    return y, x, d, z


# ---------------------------------------------------------------- quantiles


def test_convert_quantile_probability_passthrough():
    assert convert_quantile(0.5) == 0.5
    assert convert_quantile(0.25) == 0.25
    assert convert_quantile(0.999) == 0.999


def test_convert_quantile_percentile_scale():
    assert convert_quantile(50) == 0.5
    assert convert_quantile(1) == 0.01
    assert convert_quantile(99) == 0.99
    assert convert_quantile(2.5) == 0.025


@pytest.mark.parametrize("bad", [0.0, -0.3, 100.0, 250, -5])
def test_convert_quantile_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        convert_quantile(bad)


@given(st.floats(min_value=1.0, max_value=99.999, allow_nan=False))
def test_convert_quantile_percentiles_land_in_unit_interval(pct):
    tau = convert_quantile(pct)
    assert 0.0 < tau < 1.0
    assert tau == pct / 100.0


# -------------------------------------------------------------- assembly


def test_build_problem_column_order():
    y, x, d, z = small_problem()
    prob = build_problem(y, raw_exog=x, raw_endog=d, raw_instr=z, quantile=0.5)
    # X is [endog | exog | const], Z is [exog | instr | const]
    np.testing.assert_array_equal(prob.X[:, 0], d)
    np.testing.assert_array_equal(prob.X[:, 1], x)
    np.testing.assert_array_equal(prob.X[:, 2], np.ones(len(y)))
    np.testing.assert_array_equal(prob.Z[:, 0], x)
    np.testing.assert_array_equal(prob.Z[:, 1], z)
    np.testing.assert_array_equal(prob.Z[:, 2], np.ones(len(y)))
    assert prob.endog_idx == (0,)
    assert prob.p == 3 and prob.q == 3


def test_build_problem_listwise_deletion():
    y, x, d, z = small_problem()
    y = y.copy()
    x = x.copy()
    y[4] = np.nan
    x[11] = np.nan
    prob = build_problem(y, raw_exog=x, raw_endog=d, raw_instr=z, quantile=0.5)
    assert prob.n == len(y) - 2
    keep = ~(np.isnan(y) | np.isnan(x))
    np.testing.assert_array_equal(prob.y, y[keep])
    np.testing.assert_array_equal(prob.X[:, 0], d[keep])


def test_build_problem_deletion_idempotent():
    y, x, d, z = small_problem()
    y = y.copy()
    y[0] = np.nan
    prob1 = build_problem(y, raw_exog=x, raw_endog=d, raw_instr=z, quantile=0.5)
    prob2 = build_problem(
        prob1.y,
        raw_exog=prob1.X[:, 1],
        raw_endog=prob1.X[:, 0],
        raw_instr=prob1.Z[:, 1],
        quantile=0.5,
    )
    assert prob2.n == prob1.n
    np.testing.assert_array_equal(prob2.y, prob1.y)


def test_build_problem_rejects_infinities():
    y, x, d, z = small_problem()
    x = x.copy()
    x[3] = np.inf
    with pytest.raises(ValueError, match="infinite"):
        build_problem(y, raw_exog=x, raw_endog=d, raw_instr=z, quantile=0.5)


def test_build_problem_rejects_all_missing():
    y = np.full(5, np.nan)
    with pytest.raises(ValueError, match="no observations"):
        build_problem(y, quantile=0.5)


def test_build_problem_default_weights_are_ones():
    y, x, d, z = small_problem()
    prob = build_problem(y, raw_exog=x, raw_endog=d, raw_instr=z, quantile=0.5)
    np.testing.assert_array_equal(prob.w, np.ones(prob.n))


def test_arrays_are_read_only():
    y, x, d, z = small_problem()
    prob = build_problem(y, raw_exog=x, raw_endog=d, raw_instr=z, quantile=0.5)
    with pytest.raises(ValueError):
        prob.y[0] = 0.0
    with pytest.raises(ValueError):
        prob.X[0, 0] = 0.0


def test_read_only_caller_arrays_are_copied():
    # numpy lets the owner of a read-only array make it writeable again
    y, x, d, z = small_problem()
    X = np.column_stack([d, x])
    Z = np.column_stack([x, z])
    for a in (y, X, Z):
        a.flags.writeable = False
    prob = EstimationProblem(y=y, X=X, Z=Z, w=np.ones(y.shape[0]), tau=0.5, endog_idx=(0,))
    for name, a in (("y", y), ("X", X), ("Z", Z)):
        a.flags.writeable = True
        a[0] = np.nan
        assert np.all(np.isfinite(getattr(prob, name)))


def test_build_problem_keeps_the_arrays_it_allocates():
    # the default weights, X and Z are made by build_problem and kept
    # uncopied: the peak holds the outcome copy, the four kept columns and
    # the intercept column both X and Z are stacked from, and nothing more
    n = 200_000
    y = np.random.default_rng(3).normal(size=n)
    column = 8 * n
    tracemalloc.start()
    try:
        prob = build_problem(y, quantile=0.5)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= 4 * column
    assert peak - kept < 1.5 * column
    assert all(not a.flags.writeable for a in (prob.y, prob.X, prob.Z, prob.w))
    assert not np.shares_memory(prob.y, y)


def test_writeable_arrays_are_copied():
    y, x, d, z = small_problem()
    X = np.column_stack([d, x])
    Z = np.column_stack([x, z])
    # a read-only view does not own its memory, so it is copied too
    view = np.column_stack([d, x, z])[:, :2]
    view.flags.writeable = False
    w = np.ones(y.shape[0])
    copied = EstimationProblem(y=y, X=view, Z=Z, w=w, tau=0.5, endog_idx=(0,))
    assert not np.shares_memory(copied.X, view)
    prob = EstimationProblem(y=y, X=X, Z=Z, w=w, tau=0.5, endog_idx=(0,))
    before = [a.copy() for a in (prob.y, prob.X, prob.Z)]
    for a in (y, X, Z):
        a[0] = 99.0
    for a, b in zip((prob.y, prob.X, prob.Z), before):
        np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------ validations


def test_problem_rejects_row_mismatch():
    with pytest.raises(ValueError, match="row mismatch"):
        EstimationProblem(
            y=np.ones(5),
            X=np.ones((4, 1)),
            Z=np.ones((5, 1)),
            w=np.ones(5),
            tau=0.5,
        )


def test_problem_rejects_underidentification():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 2))
    Z = rng.normal(size=(10, 1))
    with pytest.raises(ValueError, match="underidentified"):
        EstimationProblem(
            y=rng.normal(size=10), X=X, Z=Z, w=np.ones(10), tau=0.5, endog_idx=(0, 1)
        )


def test_problem_rejects_negative_weights():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 1))
    w = np.ones(10)
    w[2] = -0.5
    with pytest.raises(ValueError, match="nonnegative"):
        EstimationProblem(y=rng.normal(size=10), X=X, Z=X, w=w, tau=0.5)


def test_problem_requires_exog_column_among_instruments():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 2))
    Z = rng.normal(size=(10, 2))
    with pytest.raises(ValueError, match="does not appear among the instrument"):
        EstimationProblem(
            y=rng.normal(size=10), X=X, Z=Z, w=np.ones(10), tau=0.5, endog_idx=(0,)
        )


def test_problem_rejects_duplicate_columns():
    y, x, d, z = small_problem()
    with pytest.raises(ValueError, match="identical"):
        build_problem(y, raw_exog=np.column_stack([x, x]), raw_endog=d,
                      raw_instr=np.column_stack([z, x]), quantile=0.5)


@pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.5])
def test_problem_rejects_bad_tau(tau):
    X = np.arange(1.0, 6.0).reshape(-1, 1)
    with pytest.raises(ValueError, match="tau"):
        EstimationProblem(y=np.ones(5), X=X, Z=X, w=np.ones(5), tau=tau)


# ---------------------------------------------------------------- moments


def test_unsmoothed_moments_intercept_only_examples():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    X = np.ones((4, 1))
    prob = EstimationProblem(y=y, X=X, Z=X, w=np.ones(4), tau=0.5)
    # at beta=2.5 exactly half the residuals are <= 0
    assert unsmoothed_moments(prob, [2.5]) == pytest.approx([0.0])
    # at beta=5 every indicator fires
    assert unsmoothed_moments(prob, [5.0]) == pytest.approx([0.5])
    # at beta=0 none do
    assert unsmoothed_moments(prob, [0.0]) == pytest.approx([-0.5])


def test_unsmoothed_moments_against_fsum_oracle():
    y, x, d, z = small_problem(n=60, seed=9)
    rng = np.random.default_rng(17)
    w = rng.uniform(0.5, 2.0, size=60)
    prob = build_problem(
        y, raw_exog=x, raw_endog=d, raw_instr=z, weights=w, quantile=0.25
    )
    beta = np.array([0.9, -0.4, 1.1])
    got = unsmoothed_moments(prob, beta)
    for k in range(prob.q):
        terms = []
        for i in range(prob.n):
            v = prob.y[i] - float(prob.X[i] @ beta)
            ind = 1.0 if v <= 0 else 0.0
            terms.append(prob.w[i] * prob.Z[i, k] * (ind - prob.tau))
        assert got[k] == pytest.approx(math.fsum(terms) / prob.n, abs=1e-13)


def test_unsmoothed_moments_rejects_wrong_length():
    y = np.arange(1.0, 9.0)
    X = np.ones((8, 1))
    prob = EstimationProblem(y=y, X=X, Z=X, w=np.ones(8), tau=0.5)
    with pytest.raises(ValueError, match="length"):
        unsmoothed_moments(prob, [1.0, 2.0])


# ------------------------------------------------------------ fit results


def test_fit_result_derives_normal_cis():
    beta = np.array([1.0, -2.0])
    cov = np.array([[0.04, 0.01], [0.01, 0.09]])
    res = FitResult(
        beta=beta, cov=cov, bandwidth=None, n_obs=100, solver=None,
        vcov_kind="analytic", level=0.95,
    )
    np.testing.assert_allclose(res.se, [0.2, 0.3])
    # 95% normal critical value
    zq = 1.959963984540054
    np.testing.assert_allclose(res.ci[:, 0], beta - zq * res.se, rtol=1e-12)
    np.testing.assert_allclose(res.ci[:, 1], beta + zq * res.se, rtol=1e-12)


@pytest.mark.parametrize("reps", [0, 50])
def test_fit_se_and_ci_are_read_only_and_derived_from_cov(reps):
    y, x, d, z = small_problem(n=200, seed=5)
    prob = build_problem(y, raw_exog=x, raw_endog=d, raw_instr=z, quantile=0.5)
    res = fit(prob, level=0.9, reps=reps)
    assert res.vcov_kind == ("analytic" if reps == 0 else "bootstrap")
    se = np.sqrt(np.diag(res.cov))
    zq = ndtri(0.5 * (1.0 + 0.9))
    ci = np.column_stack([res.beta - zq * se, res.beta + zq * se])
    assert res.se.tobytes() == se.tobytes() and res.se.shape == se.shape
    assert res.ci.tobytes() == ci.tobytes() and res.ci.shape == ci.shape
    for name in ("se", "ci"):
        with pytest.raises(ValueError):
            getattr(res, name)[0] = 0.0
        with pytest.raises(AttributeError):
            setattr(res, name, None)


def test_fit_result_rejects_asymmetric_cov():
    beta = np.zeros(2)
    cov = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        FitResult(
            beta=beta, cov=cov,
            bandwidth=None, n_obs=10, solver=None, vcov_kind="analytic", level=0.9,
        )


@pytest.mark.parametrize("field, cells", [
    ("beta", [0]), ("cov", [(0, 0), (0, 1), (1, 0), (1, 1)]), ("cov", [(1, 1)]),
    ("cov", [(0, 1), (1, 0)]),
], ids=["beta", "cov_all", "cov_diagonal", "cov_off_diagonal"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_result_rejects_non_finite_entries(field, cells, bad):
    # NaN compares False, so the symmetry and PSD checks alone let it through
    arrays = {"beta": np.zeros(2), "cov": np.eye(2)}
    for cell in cells:
        arrays[field][cell] = bad
    with pytest.raises(ValueError, match=f"^{field} contains non-finite values"):
        FitResult(**arrays, bandwidth=None, n_obs=10, solver=None,
                  vcov_kind="analytic", level=0.9)


def test_fit_result_rejects_indefinite_cov():
    beta = np.zeros(2)
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(ValueError, match="PSD"):
        FitResult(
            beta=beta, cov=cov,
            bandwidth=None, n_obs=10, solver=None, vcov_kind="analytic", level=0.9,
        )
