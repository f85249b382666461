"""Tests for problem assembly, quantile conversion, and result containers."""

import math
import re
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from oracles import unsmoothed_moments
from scipy.special import ndtri as scipy_ndtri

from ivqr.estimate import fit
from ivqr.model import (EstimationProblem, FitResult, build_problem, convert_quantile, ndtri,
                        nonnegative_number, positive_number, probability)


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


# --------------------------------------------------------- normal quantile


def ndtri_grid():
    """Probabilities over (0, 1), its ends and both tails: uniform draws, an
    even grid with 0 and 1, log-uniform tails down to 1e-300 and their
    complements (many of which round to 1), the branch edges of scipy's
    Cephes ndtri and other landmarks with their neighbouring doubles, and
    the quantile and level values the tests use."""
    rng = np.random.default_rng(26)
    tails = 10.0 ** rng.uniform(-300.0, 0.0, size=15_000)
    edges = np.array([math.exp(-2), 1 - math.exp(-2), math.exp(-32), 1 - math.exp(-32),
                      5e-324, 2.0**-53, 1 - 2.0**-53, 0.5])
    taus = np.array([0.02, 0.05, 0.08, 0.1, 0.25, 0.3, 0.35, 0.4, 0.6, 0.75, 0.8, 0.9, 0.92,
                     0.95, 0.975, 0.98, 0.995])
    return np.concatenate([rng.uniform(size=30_000), np.linspace(0.0, 1.0, 20_001), tails,
                           1 - tails, edges, np.nextafter(edges, 0), np.nextafter(edges, 1), taus])


def test_ndtri_is_within_8_ulp_of_scipy():
    p = ndtri_grid()
    p = p[(p > 0.0) & (p < 1.0)]
    got = np.array([ndtri(v) for v in p.tolist()])
    want = scipy_ndtri(p)
    # same sign, so the gap between the bit patterns counts the doubles between
    # them; on these 65 877 probabilities it is at most 6 ulp, and 31% are equal
    assert (np.signbit(got) == np.signbit(want)).all()
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 8
    # equal bits at the quartiles and the median, the levels the benchmarks fit
    for tau in (0.25, 0.5, 0.75):
        q = ndtri(np.float64(tau))
        assert type(q) is float and q == scipy_ndtri(tau)


@pytest.mark.parametrize("p, scipy_gives", [
    (0.0, -math.inf), (1.0, math.inf), (-1e-300, math.nan), (1.0 + 2.0**-52, math.nan),
    (-math.inf, math.nan), (math.inf, math.nan), (math.nan, math.nan),
])
def test_ndtri_edges(p, scipy_gives):
    """Where scipy's ndtri gives +-inf (at 0 and 1) or NaN (off [0, 1]), ndtri
    raises ValueError; NaN alone passes through as NaN."""
    np.testing.assert_equal(scipy_ndtri(p), scipy_gives)
    if math.isnan(p):
        got = ndtri(p)
        assert type(got) is float and math.isnan(got)
    else:
        with pytest.raises(ValueError):
            ndtri(p)


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
    # uncopied, and the intercept is written straight into X and Z: the peak
    # holds the outcome copy, the four kept columns and the boolean masks of
    # the missing-value scan (an eighth of a column each), and nothing more
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
    assert peak - kept < 0.5 * column
    assert all(not a.flags.writeable for a in (prob.y, prob.X, prob.Z, prob.w))
    assert not np.shares_memory(prob.y, y)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.booleans(),
    st.sampled_from("CF"), st.lists(st.integers(0, 29), max_size=6), st.integers(0, 2**32 - 1),
)
def test_build_problem_assembles_what_hstack_gives(k_exog, k_endog, k_instr, add_constant,
                                                    order, nan_rows, seed):
    # X is endogenous, exogenous, intercept; Z is exogenous, instruments,
    # intercept, over the rows without a NaN.  np.hstack of F-ordered blocks
    # can be F-ordered; build_problem's X and Z are C-ordered whatever it is given
    assume(k_endog + k_exog + add_constant >= 1 and k_instr >= k_endog)
    n = 30
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    blocks = [np.array(rng.normal(size=(n, k)), order=order) for k in (k_exog, k_endog, k_instr)]
    columns = [y] + [b[:, j] for b in blocks for j in range(b.shape[1])]  # views
    for i in nan_rows:
        columns[rng.integers(len(columns))][i] = np.nan
    keep = ~np.isnan(np.column_stack([y] + blocks)).any(axis=1)
    assume(keep.sum() >= k_endog + k_exog + add_constant)
    prob = build_problem(y, *(b if b.shape[1] else None for b in blocks),
                         quantile=0.5, add_constant=add_constant)
    exog, endog, instr = (b[keep] for b in blocks)
    ones = [np.ones((keep.sum(), 1))] if add_constant else []
    X = np.hstack([endog, exog] + ones)
    Z = np.hstack([exog, instr] + ones)
    np.testing.assert_array_equal(prob.y, y[keep])
    for got, want in ((prob.X, X), (prob.Z, Z)):
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous
    assert prob.endog_idx == tuple(range(k_endog))


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


COLUMN = np.arange(1.0, 6.0).reshape(-1, 1)
ROW_2 = np.arange(5)[:, None] == 2


@pytest.mark.parametrize("fields, message", [
    ({"X": None}, "X cannot be None when no other columns fix the row count"),
    ({"X": np.ones((5, 1, 1))}, "X must be one- or two-dimensional, got ndim=3"),
    ({"X": np.ones((5, 0))}, "X must have at least one column"),
    ({"y": np.where(ROW_2[:, 0], np.nan, 1.0)}, "y contains non-finite entries"),
    ({"X": np.where(ROW_2, np.inf, COLUMN)}, "X contains non-finite entries"),
    ({"Z": np.where(ROW_2, -np.inf, COLUMN)}, "Z contains non-finite entries"),
    ({"w": np.where(ROW_2[:, 0], np.nan, 1.0)}, "w contains non-finite entries"),
    ({"endog_idx": (1,)}, "endog_idx (1,) out of range for p=1"),
], ids=["X-none", "X-3d", "X-no-columns", "y-nan", "X-inf", "Z-inf", "w-nan", "endog-idx"])
def test_problem_rejects_malformed_arrays(fields, message):
    arrays = {"y": np.ones(5), "X": COLUMN, "Z": COLUMN, "w": np.ones(5), **fields}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EstimationProblem(**arrays, tau=0.5)


@pytest.mark.parametrize("kwargs, message", [
    ({"raw_exog": np.ones(39)}, "all input blocks must have the same number of rows as raw_y "
     "(y has 40, exog 39, endog 40, instruments 40)"),
    ({"weights": np.ones(39)}, "weights have 39 rows, expected 40"),
    ({"add_constant": False, "raw_endog": None},
     "no regressors: supply at least one column or keep the constant"),
], ids=["exog-rows", "weight-rows", "no-regressors"])
def test_build_problem_rejects_malformed_blocks(kwargs, message):
    y, x, d, z = small_problem()
    args = {"raw_endog": d, "raw_instr": z, **kwargs}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_problem(y, quantile=0.5, **args)


def _level_none():
    y, x, d, z = small_problem()
    fit(build_problem(y, raw_endog=d, raw_instr=z, quantile=0.5), level=None)


def _tau_none():
    X = np.arange(1.0, 6.0).reshape(-1, 1)
    EstimationProblem(y=np.ones(5), X=X, Z=X, w=np.ones(5), tau=None)


def _quantile_none():
    y, x, d, z = small_problem()
    build_problem(y, raw_endog=d, raw_instr=z, quantile=None)


@pytest.mark.parametrize("call, message", [
    (_level_none, "level must be a number, got None"),
    (_tau_none, "tau must be a number, got None"),
    (_quantile_none, "quantile must be a number, got None"),
    (lambda: probability("level", "high"), "level must be a number, got 'high'"),
    (lambda: probability("level", [0.5, 0.9]), "level must be a number, got [0.5, 0.9]"),
    (lambda: positive_number("h_used", object), f"h_used must be a number, got {object!r}"),
    (lambda: nonnegative_number("bandwidth", 1j), "bandwidth must be a number, got 1j"),
    (lambda: convert_quantile("median"), "quantile must be a number, got 'median'"),
    (lambda: probability("level", 10**400), "level must be a number, got " + str(10**400)),
], ids=["fit-level", "problem-tau", "build-quantile", "probability-text", "probability-list",
        "positive-type", "nonnegative-complex", "quantile-text", "probability-huge-int"])
def test_validators_reject_non_numbers_with_value_error(call, message):
    # ValueError naming the argument, as exceptions.py promises for input
    # problems, never float's TypeError or OverflowError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_validators_read_numbers_as_float_does():
    # one float rule: a numeric string reads as its number everywhere, and
    # numbers keep their range messages
    assert probability("level", "0.95") == 0.95
    assert positive_number("h", "2.5") == nonnegative_number("h", " 2.5 ") == 2.5
    assert convert_quantile("50") == 0.5
    with pytest.raises(ValueError, match=r"^level must lie strictly between 0 and 1, got 1\.5$"):
        probability("level", 1.5)
    with pytest.raises(ValueError, match=r"^h must be a finite positive number, got 0$"):
        positive_number("h", 0)


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


def test_fit_result_ci_is_finite_at_the_largest_level_below_one():
    # 0.5 * (1 + level) rounds to 1 here; the lower tail (1 - level) / 2 is 2**-54
    beta = np.array([1.0, -2.0])
    res = FitResult(beta=beta, cov=np.diag([0.04, 0.09]), bandwidth=None, n_obs=100,
                    solver=None, vcov_kind="analytic", level=1.0 - 2.0**-53)
    zq = -ndtri(2.0**-54)
    ci = np.column_stack([beta - zq * res.se, beta + zq * res.se])
    assert np.isfinite(res.ci).all()
    assert res.ci.tobytes() == ci.tobytes()


@pytest.mark.parametrize("reps", [0, 50])
def test_fit_se_and_ci_are_read_only_and_derived_from_cov(reps):
    y, x, d, z = small_problem(n=200, seed=5)
    prob = build_problem(y, raw_exog=x, raw_endog=d, raw_instr=z, quantile=0.5)
    res = fit(prob, level=0.9, reps=reps)
    assert res.vcov_kind == ("analytic" if reps == 0 else "bootstrap")
    se = np.sqrt(np.diag(res.cov))
    zq = -statistics.NormalDist().inv_cdf(0.5 * (1.0 - 0.9))
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


@pytest.mark.parametrize("fields, message", [
    ({"cov": np.eye(3)}, "cov must be 2x2, got (3, 3)"),
    ({"vcov_kind": "sandwich"}, "unknown vcov_kind 'sandwich'"),
    ({"level": 95.0}, "level must lie strictly between 0 and 1, got 95.0"),
], ids=["cov-shape", "vcov-kind", "level"])
def test_fit_result_rejects_bad_fields(fields, message):
    args = {"beta": np.zeros(2), "cov": np.eye(2), "vcov_kind": "analytic", "level": 0.9,
            **fields}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FitResult(**args, bandwidth=None, n_obs=10, solver=None)


def test_fit_result_rejects_indefinite_cov():
    beta = np.zeros(2)
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(ValueError, match="PSD"):
        FitResult(
            beta=beta, cov=cov,
            bandwidth=None, n_obs=10, solver=None, vcov_kind="analytic", level=0.9,
        )
