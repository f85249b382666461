"""Tests for instrument projection and the linear IV starting value."""

import re
import tracemalloc

import numpy as np
import pytest

import ivqr.inference as inference_mod
import ivqr.projection as projection_mod
from ivqr.exceptions import RankDeficientError, SingularMatrixError
from ivqr.model import EstimationProblem, build_problem
from ivqr.projection import (
    GRAM_RTOL,
    RANK_RTOL,
    check_rank,
    iv_estimate,
    project_instruments,
    scale_rows,
    solve_nonsingular,
)


def make_problem(n=200, seed=5, extra_instruments=1, weights=None):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 1 + extra_instruments))
    d = z.sum(axis=1) + 0.4 * rng.normal(size=n)
    x = rng.normal(size=n)
    y = 2.0 + 1.5 * d - 0.7 * x + rng.normal(size=n)
    return build_problem(
        y, raw_exog=x, raw_endog=d, raw_instr=z, weights=weights, quantile=0.5
    )


# -------------------------------------------------------------- rank guard


def test_check_rank_names_dependent_column():
    rng = np.random.default_rng(7)
    a = rng.normal(size=40)
    A = np.column_stack([a, 2 * a, rng.normal(size=40)])
    with pytest.raises(RankDeficientError, match="design matrix .*column [01]"):
        check_rank(A, "design matrix")
    # both guards cut at a singular-value ratio of 1e-10: Q diag(s) and
    # R diag(s) R' (Q orthonormal columns, R orthogonal) have singular values s
    Q, _ = np.linalg.qr(rng.normal(size=(40, 3)))
    R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    b = rng.normal(size=3)
    for ratio in (1e-11, 1e-9):
        s = np.array([1.0, 0.5, ratio])
        M = (R * s) @ R.T
        if ratio < 1e-10:
            with pytest.raises(RankDeficientError, match="test matrix .*column 2"):
                check_rank(Q * s, "test matrix")
            with pytest.raises(SingularMatrixError, match="test message"):
                solve_nonsingular(M, b, "test message")
        else:
            check_rank(Q * s, "test matrix")
            np.testing.assert_allclose(M @ solve_nonsingular(M, b, "test message"), b, atol=1e-6)


def svd_rank(A):
    svals = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(svals > RANK_RTOL * svals[0])) if svals.size and svals[0] > 0 else 0


def test_check_rank_names_a_column_the_others_explain():
    # deleting the named column leaves the SVD rank of sqrt(w) A unchanged:
    # random deficient matrices with one column a combination of the others,
    # zeroed rows and zero weights, tall, square and wide.  The smallest
    # |R_jj| of an unpivoted QR alone names an independent column of some
    # wide matrices
    rng = np.random.default_rng(29)
    shapes = [(40, 3), (8, 5), (6, 6), (5, 6), (3, 4), (2, 5)]
    for trial in range(3000):
        m, k = shapes[trial % len(shapes)]
        A = rng.normal(size=(m, k))
        j = rng.integers(k)
        others = np.delete(np.arange(k), j)
        A[:, j] = A[:, others] @ (rng.normal(size=k - 1) * (rng.uniform(size=k - 1) < 0.7))
        A[rng.uniform(size=m) < 0.15] = 0.0
        w = None
        if trial % 2:
            w = rng.uniform(0.2, 3.0, size=m)
            w[rng.uniform(size=m) < 0.15] = 0.0
        sw = A if w is None else A * np.sqrt(w)[:, None]
        rank = svd_rank(sw)
        with pytest.raises(RankDeficientError) as err:
            check_rank(A, "test matrix", w)
        got = re.fullmatch(r"test matrix is rank deficient \(rank (\d+) of (\d+)\); column "
                           r"(\d+) is linearly dependent on the others", str(err.value))
        assert got is not None, str(err.value)
        assert (int(got[1]), int(got[2])) == (rank, k)
        col = int(got[3])
        assert svd_rank(np.delete(sw, col, axis=1)) == rank, (trial, m, k, col)


def test_gram_filter_decides_as_the_svd(monkeypatch):
    # sqrt(w) A = Q diag(s) R' with singular values from 1 down to `ratio`:
    # check_rank decides as the SVD of sqrt(w) A does at every ratio, zero
    # weights included, and runs that SVD only where the weighted Gram matrix
    # is not clearly nonsingular (ratio^2 near GRAM_RTOL or below)
    import ivqr.projection as projection

    svd = np.linalg.svd
    calls = []

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(projection.np.linalg, "svd", spy)
    rng = np.random.default_rng(13)
    n = 400
    edges = [RANK_RTOL, np.sqrt(GRAM_RTOL)]
    ratios = np.concatenate([np.logspace(-12, -2, 21), np.outer(edges, [0.5, 2.0]).ravel()])
    decisions = set()
    for p in (1, 2, 4):
        for ratio in ratios:
            w = rng.uniform(0.2, 3.0, size=n)
            w[rng.choice(n, 20, replace=False)] = 0.0
            live = w > 0
            Q, _ = np.linalg.qr(rng.normal(size=(int(live.sum()), p)))
            R, _ = np.linalg.qr(rng.normal(size=(p, p)))
            s = np.geomspace(1.0, ratio, p) if p > 1 else np.array([ratio])
            A = rng.normal(size=(n, p))  # rows of zero weight are free
            A[live] = (Q * s) @ R.T / np.sqrt(w[live])[:, None]
            svals = svd(A * np.sqrt(w)[:, None], compute_uv=False)
            full = bool(svals[-1] > RANK_RTOL * svals[0])
            calls.clear()
            try:
                check_rank(A, "test matrix", w)
                accepted = True
            except RankDeficientError:
                accepted = False
            assert accepted == full, (p, ratio)
            decisions.add(full)
            if p > 1 and ratio**2 < GRAM_RTOL / 3:
                assert calls == [(n, p)], (p, ratio)
            if p == 1 or ratio**2 > 3 * GRAM_RTOL:
                assert calls == [], (p, ratio)
    assert decisions == {True, False}


# -------------------------------------------------------------- projection


def test_projection_passthrough_when_exactly_identified():
    prob = make_problem(extra_instruments=0)
    zhat = project_instruments(prob)
    assert zhat is prob.Z


def test_weighted_projection_matches_normal_equations():
    w = np.random.default_rng(11).uniform(0.2, 3.0, size=80)
    prob = make_problem(n=80, seed=11, extra_instruments=2, weights=w)
    zhat = project_instruments(prob)
    # independent route: first-stage coefficients from the weighted normal equations
    Z = prob.Z
    Zw = Z * w[:, None]
    expected = Z @ np.linalg.solve(Z.T @ Zw, Zw.T @ prob.X)
    np.testing.assert_allclose(zhat, expected, rtol=1e-9)


def test_projection_onto_orthonormal_instruments():
    rng = np.random.default_rng(2)
    Q, _ = np.linalg.qr(rng.normal(size=(50, 3)))
    X = rng.normal(size=(50, 2))
    prob = EstimationProblem(
        y=rng.normal(size=50), X=X, Z=Q, w=np.ones(50), tau=0.5, endog_idx=(0, 1)
    )
    np.testing.assert_allclose(project_instruments(prob), Q @ (Q.T @ X), rtol=1e-11)


def test_projection_columns_are_first_stage_fits():
    prob = make_problem(extra_instruments=2)
    zhat = project_instruments(prob)
    assert zhat.shape == (prob.n, prob.p)
    # residuals of each regressor after projection are orthogonal to Z
    resid = prob.X - zhat
    gram = prob.Z.T @ (prob.w[:, None] * resid)
    assert np.max(np.abs(gram)) / prob.n < 1e-10


def test_projection_exog_columns_reproduced_exactly():
    # an exogenous regressor instruments itself, so its first-stage fit is itself
    prob = make_problem(extra_instruments=2)
    zhat = project_instruments(prob)
    np.testing.assert_allclose(zhat[:, 1], prob.X[:, 1], atol=1e-10)
    np.testing.assert_allclose(zhat[:, 2], prob.X[:, 2], atol=1e-10)


def test_overidentified_projection_checks_weighted_instruments_once(monkeypatch):
    import ivqr.projection as projection

    w = np.random.default_rng(21).uniform(0.5, 2.0, size=300)
    prob = make_problem(n=300, extra_instruments=2, weights=w)
    labels = []

    def counting_check_rank(A, label, w=None):
        labels.append(label)
        return check_rank(A, label, w)

    monkeypatch.setattr(projection, "check_rank", counting_check_rank)
    zhat = project_instruments(prob)
    assert labels == ["instrument matrix"]
    # bit-identical to a least-squares fit of X on Z with sqrt(w)-scaled rows
    sw = np.sqrt(prob.w)[:, None]
    coef = np.linalg.lstsq(prob.Z * sw, prob.X * sw, rcond=None)[0]
    np.testing.assert_array_equal(zhat, prob.Z @ coef)


def test_overidentified_projection_releases_sqrt_w_before_lstsq(monkeypatch):
    # LAPACK copies the scaled operands where tracemalloc cannot see them;
    # meanwhile the projection holds those operands and no sqrt(w) beside them
    n = 200_000
    rng = np.random.default_rng(41)
    z = rng.normal(size=(n, 2))
    d = z.sum(axis=1) + rng.normal(size=n)
    prob = build_problem(d + rng.normal(size=n), raw_endog=d, raw_instr=z,
                         weights=rng.uniform(0.5, 2.0, size=n), quantile=0.5)
    assert (prob.q, prob.p) == (3, 2)
    real, held = np.linalg.lstsq, []

    def lstsq(a, b, rcond=None):
        held.append(tracemalloc.get_traced_memory()[0])
        return real(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    tracemalloc.start()
    try:
        project_instruments(prob)
    finally:
        tracemalloc.stop()
    assert len(held) == 1
    assert held[0] < (prob.q + prob.p + 0.5) * 8 * n, held[0] / (8 * n)


def test_projection_detects_collinear_instruments():
    rng = np.random.default_rng(8)
    n = 60
    z1 = rng.normal(size=n)
    d = z1 + 0.3 * rng.normal(size=n)
    y = d + rng.normal(size=n)
    Z = np.column_stack([z1, 3.0 * z1, np.ones(n)])
    X = np.column_stack([d, np.ones(n)])
    with pytest.raises(RankDeficientError, match="instrument matrix .*column [01]"):
        project_instruments(
            EstimationProblem(y=y, X=X, Z=Z, w=np.ones(n), tau=0.5, endog_idx=(0,))
        )


# ------------------------------------------------------------- IV estimate


def test_iv_estimate_exact_on_noiseless_linear_model():
    rng = np.random.default_rng(13)
    n = 50
    z = rng.normal(size=n)
    d = 0.8 * z + 0.1 * rng.normal(size=n)
    y = 3.0 + 2.0 * d  # no error term: IV must recover the line exactly
    prob = build_problem(y, raw_endog=d, raw_instr=z, quantile=0.5)
    beta = iv_estimate(prob, project_instruments(prob))
    np.testing.assert_allclose(beta, [2.0, 3.0], rtol=1e-10)


def test_iv_estimate_hand_computed_tiny_case():
    # 3 observations, 1 regressor with intercept, just-identified
    y = np.array([1.0, 2.0, 4.0])
    d = np.array([0.0, 1.0, 2.0])
    z = np.array([0.5, 1.0, 3.0])
    prob = build_problem(y, raw_endog=d, raw_instr=z, quantile=0.5)
    beta = iv_estimate(prob, project_instruments(prob))
    # solve the 2x2 moment system by hand: (1/n) Z'X beta = (1/n) Z'y
    Z = np.column_stack([z, np.ones(3)])
    X = np.column_stack([d, np.ones(3)])
    expected = np.linalg.solve(Z.T @ X, Z.T @ y)
    np.testing.assert_allclose(beta, expected, rtol=1e-12)


def test_iv_estimate_consistent_under_endogeneity():
    # strong endogeneity: OLS is badly biased, IV is not
    rng = np.random.default_rng(21)
    n = 200_000
    z = rng.normal(size=n)
    u = rng.normal(size=n)
    d = z + 0.8 * u
    y = 1.0 + 2.0 * d - 3.0 * u  # corr(d, error) != 0
    prob = build_problem(y, raw_endog=d, raw_instr=z, quantile=0.5)
    beta = iv_estimate(prob, project_instruments(prob))
    assert beta[0] == pytest.approx(2.0, abs=0.05)
    ols = np.linalg.lstsq(
        np.column_stack([d, np.ones(n)]), y, rcond=None
    )[0]
    assert abs(ols[0] - 2.0) > 0.5


def test_iv_estimate_invariant_to_instrument_rescaling():
    prob = make_problem(extra_instruments=0)
    beta1 = iv_estimate(prob, project_instruments(prob))
    Z2 = prob.Z.copy()
    Z2[:, 1] *= 250.0  # rescale the excluded instrument only
    prob2 = EstimationProblem(
        y=prob.y, X=prob.X, Z=Z2, w=prob.w, tau=prob.tau, endog_idx=prob.endog_idx
    )
    beta2 = iv_estimate(prob2, project_instruments(prob2))
    np.testing.assert_allclose(beta2, beta1, rtol=1e-9)


def test_iv_estimate_flags_irrelevant_instrument():
    # build an instrument exactly orthogonal to the endogenous regressor and
    # the constant, so the cross-moment matrix Z'X/n is singular
    rng = np.random.default_rng(31)
    n = 100
    d = rng.normal(size=n)
    raw = rng.normal(size=n)
    basis = np.column_stack([d, np.ones(n)])
    z = raw - basis @ np.linalg.lstsq(basis, raw, rcond=None)[0]
    y = d + rng.normal(size=n)
    X = np.column_stack([d, np.ones(n)])
    Z = np.column_stack([z, np.ones(n)])
    prob = EstimationProblem(y=y, X=X, Z=Z, w=np.ones(n), tau=0.5, endog_idx=(0,))
    with pytest.raises(SingularMatrixError, match="weak or collinear"):
        iv_estimate(prob, project_instruments(prob))


def test_weight_doubling_matches_row_duplication():
    # estimating with weight 2 on a row equals duplicating that row
    rng = np.random.default_rng(40)
    n = 30
    z = rng.normal(size=n)
    d = z + 0.2 * rng.normal(size=n)
    y = 1.0 + d + rng.normal(size=n)
    w = np.ones(n)
    w[:5] = 2.0
    prob_w = build_problem(y, raw_endog=d, raw_instr=z, weights=w, quantile=0.5)
    y2 = np.concatenate([y, y[:5]])
    d2 = np.concatenate([d, d[:5]])
    z2 = np.concatenate([z, z[:5]])
    prob_dup = build_problem(y2, raw_endog=d2, raw_instr=z2, quantile=0.5)
    b_w = iv_estimate(prob_w, project_instruments(prob_w))
    b_dup = iv_estimate(prob_dup, project_instruments(prob_dup))
    np.testing.assert_allclose(b_w, b_dup, rtol=1e-10)


# ------------------------------------------------------ weighted products


def same_bits_and_layout(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    flags = ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED")
    assert [got.flags[f] for f in flags] == [want.flags[f] for f in flags]


@pytest.mark.parametrize("order", "CF")
def test_weighted_instrument_products_equal_the_broadcast(order, monkeypatch):
    # iv_estimate's w zhat and analytic_covariance's s zhat are filled one
    # column at a time; each must be A * w[:, None] to the bit and in the
    # same layout, so the matrix products after them see the same operands
    n = 400
    w = np.random.default_rng(43).uniform(0.2, 3.0, size=n)
    w[::9] = 0.0
    prob = make_problem(n=n, seed=43, extra_instruments=0, weights=w)
    zhat = np.array(-prob.Z, order=order)  # negated, so zero weights make -0.0
    assert zhat.flags.c_contiguous == (order == "C")
    calls = []

    def spy(A, v):
        out = scale_rows(A, v)
        calls.append((A, v.copy(), out))
        return out

    monkeypatch.setattr(projection_mod, "scale_rows", spy)
    monkeypatch.setattr(inference_mod, "scale_rows", spy)
    beta = iv_estimate(prob, zhat)
    inference_mod.analytic_covariance(prob, zhat, beta, 1.0, 1.0)
    assert len(calls) == 2
    for A, v, out in calls:
        assert A is zhat
        same_bits_and_layout(out, A * v[:, None])
