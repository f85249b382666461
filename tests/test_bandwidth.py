"""Tests for residual scale, kernel sub-bandwidths, and plug-in selection."""

import copy
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import gaussian_kde, norm

import ivqr.bandwidth as bandwidth_mod
import ivqr.solver as solver_mod
from ivqr.bandwidth import (
    b_star,
    fit_with_plugin,
    kde_f0,
    kde_fprime0,
    normal_pdf,
    plug_in_bandwidth,
    quartiles,
    robust_sigma,
    s_star,
)
from ivqr.estimate import fit
from ivqr.exceptions import ConvergenceError
from ivqr.model import build_problem
from ivqr.projection import iv_estimate, project_instruments
from ivqr.simulation import generate, reference_dgp
from ivqr.solver import solve_see, subsample


def make_problem(n=300, seed=14, tau=0.5):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    d = z + 0.5 * rng.normal(size=n)
    y = 1.0 + d + rng.normal(size=n)
    return build_problem(y, raw_endog=d, raw_instr=z, quantile=tau)


# ------------------------------------------------------------ robust scale


def test_robust_sigma_three_points():
    # SD of (-1, 0, 1) is 1; interpolated quartiles are -1/2 and 1/2
    got = robust_sigma([-1.0, 0.0, 1.0])
    assert got == pytest.approx(1.0 / 1.349, abs=1e-12)


def test_robust_sigma_near_one_for_standard_normal():
    rng = np.random.default_rng(100)
    x = rng.normal(size=100_000)
    assert robust_sigma(x) == pytest.approx(1.0, abs=0.03)


def test_robust_sigma_takes_the_smaller_route():
    # one huge outlier blows up the SD; the IQR route must win
    x = np.concatenate([np.linspace(-1, 1, 99), [500.0]])
    got = robust_sigma(x)
    q25, q75 = np.quantile(x, [0.25, 0.75])
    assert got == pytest.approx((q75 - q25) / 1.349, abs=1e-12)
    assert got < np.std(x, ddof=1) / 10


def test_robust_sigma_zero_iqr_falls_back_to_sd():
    x = np.array([0.0, 0.0, 0.0, 0.0, 5.0])
    assert robust_sigma(x) == pytest.approx(np.std(x, ddof=1), abs=1e-12)


def test_robust_sigma_degenerate_inputs():
    with pytest.raises(ValueError, match="identical"):
        robust_sigma(np.ones(10))
    with pytest.raises(ValueError, match="at least two"):
        robust_sigma([1.0])


# ------------------------------------------------------ exact quartiles

def assert_exact_quartiles(x):
    before = x.copy()
    assert (quartiles(x) == np.quantile(x, [0.25, 0.75])).all()
    assert x.tobytes() == before.tobytes()


def sample(kind, n, rng):
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "t3":
        return 1e3 * rng.standard_t(3, size=n)
    if kind == "ties":
        return rng.integers(0, 3, size=n).astype(float)
    if kind == "signed_zeros":
        return rng.choice([-0.0, 0.0, -1.0, 1.0], size=n)
    return rng.choice([-np.inf, -1.0, 0.5, np.inf], size=n)  # infinities


# p (n - 1) takes the fractional parts 0, 1/4, 1/2 and 3/4 as n runs over
# 1..80, so both branches of the interpolation run at every weight
@pytest.mark.parametrize("kind", ["normal", "t3", "ties", "signed_zeros", "infinities"])
def test_quartiles_equal_np_quantile_at_every_small_n(kind):
    rng = np.random.default_rng(31)
    for n in range(1, 81):
        for _ in range(5):
            x = sample(kind, n, rng)
            x.flags.writeable = False  # a write raises
            before = x.tobytes()
            with np.errstate(invalid="ignore"):  # numpy's inf - inf
                want = np.quantile(x, [0.25, 0.75])
            np.testing.assert_array_equal(quartiles(x), want)
            assert x.tobytes() == before


def test_quartiles_of_small_samples_with_a_nan_are_nan():
    rng = np.random.default_rng(32)
    for n in range(1, 81):
        x = rng.standard_normal(n)
        x[rng.integers(n)] = np.nan
        x.flags.writeable = False
        assert np.isnan(quartiles(x)).all()
        assert np.isnan(np.quantile(x, [0.25, 0.75])).all()


sizes = st.integers(2, 384)


@settings(max_examples=200, deadline=None)
@given(n=sizes, seed=st.integers(0, 2**32 - 1))
def test_quartiles_equal_np_quantile_on_heavy_ties(n, seed):
    x = np.random.default_rng(seed).integers(0, 3, size=n).astype(float)
    assert_exact_quartiles(x)


@settings(max_examples=200, deadline=None)
@given(n=sizes, data=st.data())
def test_quartiles_equal_np_quantile_when_all_values_but_one_are_equal(n, data):
    x = np.full(n, data.draw(st.floats(-1e6, 1e6)))
    x[data.draw(st.integers(0, n - 1))] = data.draw(st.floats(-1e6, 1e6))
    assert_exact_quartiles(x)


@settings(max_examples=200, deadline=None)
@given(n=sizes, seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6))
def test_quartiles_equal_np_quantile_on_t3_tails(n, seed, scale):
    x = scale * np.random.default_rng(seed).standard_t(3, size=n)
    assert_exact_quartiles(x)


@pytest.mark.parametrize("n", [50_000, 1_000_000])
@pytest.mark.parametrize("kind", ["normal", "t3", "ties"])
def test_quartiles_equal_np_quantile_on_large_samples(kind, n):
    x = sample(kind, n, np.random.default_rng(12))
    assert_exact_quartiles(x)


def test_quartiles_of_a_large_sample_with_a_nan_are_nan():
    x = np.random.default_rng(13).standard_t(3, size=1_000_000)
    x[x.size // 2 + 1] = np.nan
    before = x.tobytes()
    assert np.isnan(quartiles(x)).all()
    assert x.tobytes() == before


# --------------------------------------------------------- sub-bandwidths


def test_s_star_closed_form_at_median():
    # q = 0: phi(0) = 1/sqrt(2 pi) and the curvature factor is 1, so the
    # n = sigma = 1 value is 0.776 * (2 pi)^(1/10)
    expected = 0.776 * (2.0 * np.pi) ** 0.1
    assert s_star(1, 1.0, 0.0) == pytest.approx(expected, rel=1e-12)
    assert s_star(1, 1.0, 0.0) == pytest.approx(0.9326, abs=5e-4)


def test_s_star_recomputed_inline():
    n, sigma, tau = 250, 1.7, 0.3
    q = norm.ppf(tau)
    expected = 0.776 * n ** (-0.2) * sigma * (norm.pdf(q) * (q * q - 1) ** 2) ** (-0.2)
    assert s_star(n, sigma, q) == pytest.approx(expected, rel=1e-13)


def test_s_star_scaling():
    q = norm.ppf(0.3)
    base = s_star(100, 1.0, q)
    assert s_star(100, 2.0, q) == pytest.approx(2 * base, rel=1e-12)
    # n -> 32 n divides by exactly 2 under the -1/5 exponent
    assert s_star(3200, 1.0, q) == pytest.approx(base / 2, rel=1e-12)


def test_s_star_degenerate_at_unit_quantiles():
    # (q^2 - 1)^2 vanishes where the reference curvature changes sign
    assert s_star(100, 1.0, 1.0) == np.inf
    assert s_star(100, 1.0, -1.0) == np.inf


def test_b_star_recomputed_inline():
    n, sigma, tau = 100, 1.3, 0.25
    q = norm.ppf(tau)
    den = norm.pdf(q) * q * q * (3 - q * q) ** 2
    expected = n ** (-1 / 7) * sigma * (0.423 / den) ** (1 / 7)
    assert b_star(n, sigma, q) == pytest.approx(expected, rel=1e-13)


def test_b_star_degenerate_points():
    assert b_star(100, 1.0, 0.0) == np.inf  # the median
    assert b_star(100, 1.0, np.sqrt(3.0)) == np.inf  # 3 - q^2 = 0
    assert b_star(100, 1.0, norm.ppf(1e-60)) == np.inf  # phi(q) underflows the guard


def test_b_star_scaling():
    q = norm.ppf(0.25)
    base = b_star(100, 1.0, q)
    assert b_star(100, 3.0, q) == pytest.approx(3 * base, rel=1e-12)


# ------------------------------------------------------- kernel estimates


def test_kde_f0_single_point():
    # one residual at zero: density estimate is phi(0) / s
    s = 2.0
    assert kde_f0([0.0], s) == pytest.approx(norm.pdf(0.0) / s, rel=1e-13)


def test_kde_f0_matches_scipy_kde():
    rng = np.random.default_rng(8)
    resid = rng.normal(size=400)
    s = 0.35
    kde = gaussian_kde(resid, bw_method=s / np.sqrt(np.cov(resid)))
    assert kde_f0(resid, s) == pytest.approx(float(kde(0.0)[0]), rel=1e-10)


def test_kde_fprime0_is_zero_for_symmetric_residuals():
    assert kde_fprime0([-1.5, 1.5], 0.7) == pytest.approx(0.0, abs=1e-16)


def test_kde_fprime0_matches_finite_difference():
    rng = np.random.default_rng(9)
    resid = rng.normal(size=200) + 0.3
    b = 0.4

    def density(x):
        return float(np.sum(norm.pdf((x - resid) / b)) / (resid.size * b))

    eps = 1e-6
    fd = (density(eps) - density(-eps)) / (2 * eps)
    assert kde_fprime0(resid, b) == pytest.approx(fd, abs=1e-6)


def test_kde_fprime0_sign():
    # residuals piled just above zero: density rises to the right
    assert kde_fprime0([0.5, 0.6, 0.7], 0.5) > 0
    assert kde_fprime0([-0.5, -0.6, -0.7], 0.5) < 0


@settings(max_examples=300, deadline=None)
@given(
    resid=arrays(float, st.integers(1, 300), elements=st.floats(-1e6, 1e6)),
    scale=st.floats(1e-6, 1e6),
)
def test_kernel_sums_equal_the_textbook_forms_bit_for_bit(resid, scale):
    before = resid.copy()
    n = resid.size
    assert kde_f0(resid, scale) == np.sum(normal_pdf(-resid / scale)) / (n * scale)
    u = -resid / scale
    assert kde_fprime0(resid, scale) == np.sum(-u * normal_pdf(u)) / (n * scale * scale)
    assert resid.tobytes() == before.tobytes()


# ------------------------------------------------------- candidate report


def test_median_leaves_only_silverman():
    prob = make_problem(tau=0.5)
    resid = np.random.default_rng(3).normal(size=prob.n)
    rep = plug_in_bandwidth(prob, resid)
    sigma = robust_sigma(resid)
    silver = 1.06 * sigma * prob.n ** (-0.2)
    assert rep.candidates.h_nonparametric == np.inf
    assert rep.candidates.h_gaussian_ref == np.inf
    assert rep.candidates.h_silverman == pytest.approx(silver, rel=1e-13)
    assert rep.h_requested == rep.candidates.h_silverman
    assert rep.h_max == rep.candidates.h_silverman
    assert np.isnan(rep.h_used)


def test_quartile_has_all_three_candidates():
    prob = make_problem(tau=0.25)
    resid = np.random.default_rng(4).normal(size=prob.n)
    rep = plug_in_bandwidth(prob, resid)
    c = rep.candidates
    assert all(np.isfinite(v) for v in c)
    assert rep.h_requested == min(c)
    assert rep.h_max == max(c)
    assert rep.h_requested <= rep.h_max
    assert rep.f0_hat is not None and rep.f0_hat > 0
    assert rep.fprime0_hat is not None


def test_unit_quantile_skips_nonparametric_only():
    prob = make_problem(tau=norm.cdf(1.0))
    resid = np.random.default_rng(5).normal(size=prob.n)
    rep = plug_in_bandwidth(prob, resid)
    assert rep.candidates.h_nonparametric == np.inf
    assert np.isfinite(rep.candidates.h_gaussian_ref)
    assert np.isfinite(rep.candidates.h_silverman)
    assert rep.h_requested == min(
        rep.candidates.h_gaussian_ref, rep.candidates.h_silverman
    )


def test_candidates_scale_linearly_with_residuals():
    prob = make_problem(tau=0.25)
    resid = np.random.default_rng(6).normal(size=prob.n)
    rep1 = plug_in_bandwidth(prob, resid)
    rep3 = plug_in_bandwidth(prob, 3.0 * resid)
    np.testing.assert_allclose(
        np.asarray(rep3.candidates), 3.0 * np.asarray(rep1.candidates), rtol=1e-10
    )


def test_gaussian_reference_recomputed_inline():
    prob = make_problem(tau=0.25)
    resid = np.random.default_rng(7).normal(size=prob.n)
    rep = plug_in_bandwidth(prob, resid)
    sigma = robust_sigma(resid)
    q = norm.ppf(0.25)
    expected = prob.n ** (-1 / 3) * sigma * (3 * prob.p / (q * q * norm.pdf(q))) ** (1 / 3)
    assert rep.candidates.h_gaussian_ref == pytest.approx(expected, rel=1e-12)


_CANDIDATE_PROBLEM = make_problem(n=40)


@settings(max_examples=300, deadline=None)
@example(tau=0.75, log10_scale=-78.0, shift=0.0, shape="normal", seed=0)  # f'(0)^2 overflowed
@given(
    tau=st.floats(1e-300, 1.0 - 1e-16),
    log10_scale=st.floats(-150.0, 150.0),
    shift=st.floats(-40.0, 40.0),
    shape=st.sampled_from(["normal", "exponential", "atoms"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_candidates_are_never_nan_at_any_level_or_scale(tau, log10_scale, shift, shape, seed):
    # each candidate is a product of finite positive factors: finite or +inf,
    # never NaN, for every tau in (0, 1) and residuals of any scale.  The
    # nonparametric one is 0 where f(0) underflows: where no residual lies
    # within about 38 sub-bandwidths of zero.
    rng = np.random.default_rng(seed)
    n = _CANDIDATE_PROBLEM.n
    if shape == "normal":
        base = rng.standard_normal(n)
    elif shape == "exponential":
        base = rng.standard_exponential(n)
    else:
        base = rng.choice([-1.0, 0.0, 2.0], size=n)
        base[:2] = (-1.0, 2.0)  # never all equal
    resid = (base + shift) * 10.0**log10_scale
    rep = plug_in_bandwidth(_CANDIDATE_PROBLEM.at_quantile(tau), resid)
    c = rep.candidates
    assert all(v >= 0 for v in c), c  # false for NaN too
    assert np.isfinite(c.h_silverman), c
    finite = [v for v in c if np.isfinite(v)]
    assert rep.h_requested == min(finite)
    assert rep.h_max == max(finite)


def test_candidates_per_unit_of_scale_do_not_move_with_the_units_of_y():
    # the kernel estimates and their ratio run in units of the robust scale,
    # so y x 10^k gives the same candidates per unit of scale for every k,
    # and nothing overflows or underflows on the way
    prob, _ = generate(reference_dgp(2000, 19), 0.1)
    resid = prob.y - prob.X @ iv_estimate(prob, project_instruments(prob))
    base = np.asarray(plug_in_bandwidth(prob, resid).candidates)
    assert np.isfinite(base).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-150, 151):
            got = np.asarray(plug_in_bandwidth(prob, resid * 10.0**k).candidates) / 10.0**k
            # 4.4e-16 the worst seen
            np.testing.assert_allclose(got, base, rtol=4e-14, atol=0, err_msg=f"k = {k}")


# ------------------------------------------------------------ plug-in fit


def test_fit_with_plugin_reports_refinement():
    prob = make_problem(tau=0.25)
    zhat = project_instruments(prob)
    sol, report = fit_with_plugin(prob, zhat)
    assert report.candidates is not None
    assert np.isfinite(report.h_used) and report.h_used > 0
    assert report.h_used == sol.h_used
    assert report.h_requested > 0
    assert sol.diag.converged


def test_fit_with_plugin_beta_solves_at_reported_bandwidth():
    prob = make_problem(tau=0.5, seed=21)
    zhat = project_instruments(prob)
    sol, report = fit_with_plugin(prob, zhat)
    direct = solve_see(prob, zhat, report.h_used)
    np.testing.assert_allclose(sol.beta, direct.beta, atol=1e-6)


def test_fit_with_plugin_deterministic():
    prob = make_problem(tau=0.25, seed=22)
    zhat = project_instruments(prob)
    sol1, rep1 = fit_with_plugin(prob, zhat)
    sol2, rep2 = fit_with_plugin(prob, zhat)
    assert np.array_equal(sol1.beta, sol2.beta)
    assert rep1 == rep2


def atoms_problem():
    """Criterion 12's two-atom design, where both plug-in solves escalate."""
    rng = np.random.default_rng(1)
    z = rng.normal(size=60)
    d = (z + 0.3 * rng.normal(size=60) > 0).astype(float)
    y = 5.0 * rng.choice([-1.0, 1.0], size=60)
    return build_problem(y, raw_endog=d, raw_instr=z, quantile=0.5)


def test_fit_with_plugin_diagnostics_cover_both_solves():
    # replay both passes by hand: the fit's counts are the two solves' sums,
    # and its final residual is the second solve's
    for prob in (make_problem(n=2000, seed=23, tau=0.25), atoms_problem()):
        zhat = project_instruments(prob)
        sol, report = fit_with_plugin(prob, zhat)
        h1 = plug_in_bandwidth(prob, prob.y - prob.X @ iv_estimate(prob, zhat)).h_requested
        first = solve_see(prob, zhat, h1)
        h2 = plug_in_bandwidth(prob, prob.y - prob.X @ first.beta).h_requested
        second = solve_see(prob, zhat, h2, beta_init=first.beta)
        assert report.h_requested == h2
        assert np.array_equal(sol.beta, second.beta)
        d, d1, d2 = sol.diag, first.diag, second.diag
        assert d.converged
        assert d.iterations == d1.iterations + d2.iterations
        assert d.homotopy_stages == d1.homotopy_stages + d2.homotopy_stages
        assert d.bandwidth_escalations == d1.bandwidth_escalations + d2.bandwidth_escalations
        assert d.final_residual_inf_norm == d2.final_residual_inf_norm
    assert d1.bandwidth_escalations > 0 and d2.bandwidth_escalations > 0


def test_failed_refinement_error_counts_both_solves(monkeypatch):
    # only the second solve fails; its error's counts are both solves' sums
    prob = make_problem(n=500, seed=24)
    zhat = project_instruments(prob)
    solves = []

    def second_fails(*args, **kwargs):
        if not solves:
            sol = solve_see(*args, **kwargs)
            solves.append(copy.copy(sol.diag))
            return sol
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_damped_newton", lambda prob_, zhat_, beta0, *rest: (
                np.asarray(beta0, dtype=float), 1, False, np.inf))
            try:
                return solve_see(*args, **kwargs)
            except ConvergenceError as exc:
                solves.append(copy.copy(exc.diagnostics))
                raise

    monkeypatch.setattr(bandwidth_mod, "solve_see", second_fails)
    with pytest.raises(ConvergenceError) as exc:
        fit_with_plugin(prob, zhat)
    first, second = solves
    assert first.converged and first.homotopy_stages > 0
    d = exc.value.diagnostics
    assert not d.converged and d.final_residual_inf_norm == np.inf
    assert d.iterations == first.iterations + second.iterations
    assert d.homotopy_stages == first.homotopy_stages + second.homotopy_stages
    assert d.bandwidth_escalations == first.bandwidth_escalations + second.bandwidth_escalations


def spy_rows(monkeypatch, module, names, calls):
    """Record (name, rows) of every call to ``module``'s functions ``names``."""
    for name in names:
        real = getattr(module, name)

        def counted(prob_, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, prob_.n))
            return _real(prob_, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def test_large_plugin_fit_takes_its_pilot_on_the_subsample(monkeypatch):
    # at or above SUBSAMPLE_MIN_ROWS the pilot's plug-in and solve run on the
    # solver's subsample; all rows see one plug-in pass, at the pilot root's
    # residuals, and one solve, warm from that root.  Replayed by hand, the
    # fit's counts are the two solves' sums
    prob = make_problem(n=2000, seed=23, tau=0.25)
    zhat = project_instruments(prob)
    monkeypatch.setattr(solver_mod, "SUBSAMPLE_MIN_ROWS", 500)
    sub = subsample(prob, zhat)
    assert sub.n == len(range(0, prob.n, prob.n // 500 + 1))
    calls = []
    spy_rows(monkeypatch, bandwidth_mod, ("plug_in_bandwidth", "solve_see"), calls)
    sol, report = fit_with_plugin(prob, zhat)
    assert calls == [("plug_in_bandwidth", sub.n), ("solve_see", sub.n),
                     ("plug_in_bandwidth", prob.n), ("solve_see", prob.n)]
    monkeypatch.undo()
    monkeypatch.setattr(solver_mod, "SUBSAMPLE_MIN_ROWS", 500)
    h1 = plug_in_bandwidth(sub, sub.y - sub.X @ iv_estimate(sub, sub.Z)).h_requested
    first = solve_see(sub, sub.Z, h1)
    h2 = plug_in_bandwidth(prob, prob.y - prob.X @ first.beta).h_requested
    second = solve_see(prob, zhat, h2, beta_init=first.beta)
    assert report.h_requested == h2 and report.h_used == second.h_used
    assert np.array_equal(sol.beta, second.beta)
    d, d1, d2 = sol.diag, first.diag, second.diag
    assert d.converged
    assert d.iterations == d1.iterations + d2.iterations
    assert d.homotopy_stages == d1.homotopy_stages + d2.homotopy_stages
    assert d.bandwidth_escalations == d1.bandwidth_escalations + d2.bandwidth_escalations
    assert d.final_residual_inf_norm == d2.final_residual_inf_norm


@pytest.mark.parametrize("failure", ["solve", "no_subsample"])
def test_failed_subsample_pilot_falls_back_to_all_rows(monkeypatch, failure):
    # a subsample pilot that raises, or a subsample that is not a valid
    # problem, leaves the pilot to all rows: the fit is then the one taken
    # with no subsample pilot at all
    prob = make_problem(n=2000, seed=23, tau=0.25)
    zhat = project_instruments(prob)
    monkeypatch.setattr(solver_mod, "SUBSAMPLE_MIN_ROWS", 500)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bandwidth_mod, "_subsample_pilot", lambda *args: None)
        want, want_report = fit_with_plugin(prob, zhat)
    sub_n = subsample(prob, zhat).n
    if failure == "solve":
        real = bandwidth_mod.solve_see

        def sub_fails(prob_, *args, **kwargs):
            if prob_.n == sub_n:
                raise ConvergenceError("subsample pilot fails")
            return real(prob_, *args, **kwargs)

        monkeypatch.setattr(bandwidth_mod, "solve_see", sub_fails)
    else:
        monkeypatch.setattr(bandwidth_mod, "subsample", lambda *args: None)
    sol, report = fit_with_plugin(prob, zhat)
    assert np.array_equal(sol.beta, want.beta)
    assert report == want_report
    assert sol.diag == want.diag


def test_subsample_pilot_moves_the_fit_by_a_sliver_of_its_standard_error(monkeypatch):
    # at n = 60 000 the pilot on every other row against the pilot on all
    # rows: on these cases the bandwidths differ by at most 0.092% and the
    # estimates by at most 2.4e-4 SE
    for seed, tau in ((0, 0.1), (1, 0.25), (2, 0.5), (3, 0.9)):
        prob, _ = generate(reference_dgp(60_000, seed), tau)
        got = fit(prob)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bandwidth_mod, "_subsample_pilot", lambda *args: None)
            want = fit(prob)
        assert got.bandwidth.h_used == pytest.approx(want.bandwidth.h_used, rel=0.005, abs=0)
        assert np.max(np.abs(got.beta - want.beta) / want.se) < 0.002


def count_iv_calls(monkeypatch):
    """Record the row count of every IV start."""
    calls = []

    def counted(prob_, zhat_):
        calls.append(prob_.n)
        return iv_estimate(prob_, zhat_)

    monkeypatch.setattr(solver_mod, "iv_estimate", counted)
    monkeypatch.setattr(bandwidth_mod, "iv_estimate", counted)
    return calls


def test_plugin_fit_computes_iv_start_at_most_twice(monkeypatch):
    # the pilot's plug-in reads the IV residuals and its cold solve starts
    # the homotopy from a second IV start: on all rows below
    # SUBSAMPLE_MIN_ROWS, and at or above it on the subsample only
    prob = make_problem(n=2000, tau=0.25, seed=24)
    calls = count_iv_calls(monkeypatch)
    fit(prob)
    assert calls == [prob.n, prob.n]
    calls.clear()
    monkeypatch.setattr(solver_mod, "SUBSAMPLE_MIN_ROWS", 500)
    fit(prob)
    assert calls == [len(range(0, prob.n, prob.n // 500 + 1))] * 2


def test_starting_values_only_start_the_solver(monkeypatch):
    # the first plug-in pass reads the IV residuals whatever the start, so a
    # start moves neither bandwidth nor the estimate beyond solver tolerance
    prob = make_problem(tau=0.25, seed=25)
    cold = fit(prob)
    calls = count_iv_calls(monkeypatch)
    # a start the direct Newton solve reaches needs only the plug-in's IV
    # start; one it cannot reach adds the homotopy fallback's
    for start, iv_starts in (([3.0, -2.0], 1), ([0.0, 0.0], 1), ([10.0, 10.0], 2)):
        calls.clear()
        warm = fit(prob, beta_init=start)
        np.testing.assert_allclose(warm.beta, cold.beta, rtol=0, atol=1e-7)
        for name in ("h_requested", "h_used"):
            got, want = getattr(warm.bandwidth, name), getattr(cold.bandwidth, name)
            assert got == pytest.approx(want, rel=1e-6, abs=0), (start, name)
        assert len(calls) == iv_starts, start


def test_plugin_constant_comes_from_smoothing_constants(monkeypatch):
    # (1 - int G^2) / (int G'(v) v^2)^2 of the complementary ramp G
    assert bandwidth_mod._VAR_BIAS_RATIO == (1.0 / 3.0) / (1.0 / 9.0) == 3.0
    prob = make_problem(tau=0.25, seed=26)
    resid = np.random.default_rng(8).normal(size=prob.n)
    base = plug_in_bandwidth(prob, resid).candidates
    monkeypatch.setattr(bandwidth_mod, "_VAR_BIAS_RATIO", 24.0)
    scaled = plug_in_bandwidth(prob, resid).candidates
    # the constant enters both cube-root rules, so 8x the constant doubles them
    assert scaled.h_nonparametric == pytest.approx(2.0 * base.h_nonparametric, rel=1e-12)
    assert scaled.h_gaussian_ref == pytest.approx(2.0 * base.h_gaussian_ref, rel=1e-12)
    assert scaled.h_silverman == base.h_silverman


def test_escalated_past_max_flag():
    from ivqr.bandwidth import BandwidthReport

    rep = BandwidthReport(h_requested=1.0, h_used=2.0, h_max=1.5)
    assert rep.escalated_past_max
    rep2 = BandwidthReport(h_requested=1.0, h_used=1.5, h_max=1.5)
    assert not rep2.escalated_past_max
    rep3 = BandwidthReport(h_requested=1.0, h_used=5.0, h_max=None)
    assert not rep3.escalated_past_max