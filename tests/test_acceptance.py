"""Release criteria for the estimator, one test per numbered criterion.

Each test records a pass/fail line for the terminal summary and then asserts.
The Monte Carlo battery behind criteria 7-9 runs once per session and is
shared across those tests.  The estimator is the root of the smoothed
equations at the plug-in bandwidth, so it carries the leading smoothing bias
-(h^2/6) J^{-1} E[zhat f'(0|z)] that the plug-in trades for variance.  At the
outer quantiles that bias is O(h^2) = O(n^{-2/3}) in the intercept and
larger than a 3-MCSE gate that tightens as O(n^{-1/2} R^{-1/2}), so
criterion 7 centres each replication on the truth plus the bias predicted
at its own bandwidth, and the gate measures what is left.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from conftest import record_criterion
from oracles import brute_force_qr_oracle, winsorized_mean_oracle
from scipy.integrate import quad
from scipy.special import ndtri

from ivqr.bandwidth import fit_with_plugin, plug_in_bandwidth
from ivqr.cli import EXIT_OK, main
from ivqr.estimate import fit
from ivqr.model import EstimationProblem, build_problem
from ivqr.projection import iv_estimate, project_instruments
from ivqr.simulation import fit_levels, generate, reference_dgp
from ivqr.solver import see_jacobian, see_residual, solve_see, tol_residual

TAUS = (0.25, 0.5, 0.75)


def check(number, description, passed, detail=""):
    record_criterion(number, description, passed)
    assert passed, f"criterion {number:02d} failed: {description}. {detail}"


def iv_instance(seed, n=500, overidentified=False, with_exog=False):
    rng = np.random.default_rng(seed)
    k = 2 if overidentified else 1
    z = rng.normal(size=(n, k))
    d = z.sum(axis=1) / np.sqrt(k) + 0.5 * rng.normal(size=n)
    x = rng.normal(size=n) if with_exog else None
    y = 1.0 + 1.5 * d + rng.normal(size=n)
    if with_exog:
        y = y - 0.7 * x
    return build_problem(y, raw_exog=x, raw_endog=d, raw_instr=z, quantile=0.5)


# ---------------------------------------------------------------- battery


@pytest.fixture(scope="session")
def mc_battery():
    """500-rep study on the reference design at n = 2000 and n = 8000.

    Replication r of each size uses a dataset seed drawn from a master
    stream keyed by (777 or 778, n); the same datasets are reused across
    quantile levels (common random numbers).  Each dataset's levels are
    fitted by ``fit_levels``, as in ``monte_carlo``: the median cold, the
    other levels from its estimate.  Each fit records beta, the bandwidth it
    solved at, its SEs and whether its interval covers the truth.
    """

    def run(n_obs, master_key, n_reps=500):
        master = np.random.default_rng([master_key, n_obs])
        seeds = [int(master.integers(2**63)) for _ in range(n_reps)]
        out = {t: {"beta": [], "h": [], "se": [], "cover": []} for t in TAUS}
        truths = {}
        for seed in seeds:
            spec = replace(reference_dgp(n=n_obs), seed=seed)
            base, true_at = generate(spec, tau=0.5)
            for t, res in zip(TAUS, fit_levels(base, TAUS)):
                assert res is not None, f"the fit at tau={t} failed on dataset seed {seed}"
                truth = true_at(t)
                truths[t] = truth
                out[t]["beta"].append(res.beta)
                out[t]["h"].append(res.bandwidth.h_used)
                out[t]["se"].append(res.se)
                out[t]["cover"].append(
                    (res.ci[:, 0] <= truth) & (truth <= res.ci[:, 1])
                )
        for t in TAUS:
            for key in out[t]:
                out[t][key] = np.asarray(out[t][key])
        return out, truths, seeds

    small, truths, seeds_small = run(2000, 777)
    large, _, _ = run(8000, 778)
    return {"n2000": small, "n8000": large, "truths": truths, "seeds": seeds_small}


# -------------------------------------------------------------- criterion 1


def test_c01_smoothing_constants():
    def ramp(v):
        return min(1.0, max(0.0, (1.0 + v) / 2.0))

    int_g2, _ = quad(lambda v: ramp(v) ** 2, -1.0, 1.0)
    int_gpv2, _ = quad(lambda v: 0.5 * v**2, -1.0, 1.0)
    err1 = abs((1.0 - int_g2) - 1.0 / 3.0)
    err2 = abs(int_gpv2**2 - 1.0 / 9.0)
    check(
        1,
        "smoothing constants integrate to 1/3 and 1/9 within 1e-10",
        err1 < 1e-10 and err2 < 1e-10,
        f"errors {err1:.2e}, {err2:.2e}",
    )


# -------------------------------------------------------------- criterion 2


def test_c02_large_bandwidth_matches_linear_iv():
    worst = 0.0
    for k in range(20):
        prob5 = iv_instance(
            seed=10_000 + k, overidentified=(k % 2 == 1), with_exog=(k % 3 == 0)
        )
        zhat = project_instruments(prob5)
        beta_iv = iv_estimate(prob5, zhat)
        h_big = float(np.max(np.abs(prob5.y - prob5.X @ beta_iv))) + 1.0
        n_slope = prob5.p - 1  # everything but the intercept
        for tau in TAUS:
            # 2 h_big keeps every residual inside the smoothing window even
            # after the quantile-dependent intercept shift of up to h / 2
            sol = solve_see(prob5.at_quantile(tau), zhat, 2.0 * h_big)
            rel = np.abs(sol.beta[:n_slope] - beta_iv[:n_slope]) / np.abs(
                beta_iv[:n_slope]
            )
            worst = max(worst, float(rel.max()))
    check(
        2,
        "non-intercept coefficients equal linear IV at wide bandwidths (rel 1e-8)",
        worst <= 1e-8,
        f"worst relative deviation {worst:.2e} over 20 instances x 3 quantiles",
    )


# -------------------------------------------------------------- criterion 3


def test_c03_winsorized_mean_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 101)) * 2 + 1  # odd n in [11, 201]
        sigma = float(rng.uniform(0.5, 3.0))
        mu = float(rng.uniform(-2.0, 2.0))
        y = mu + sigma * rng.standard_normal(n)
        X = np.ones((n, 1))
        prob = EstimationProblem(y=y, X=X, Z=X, w=np.ones(n), tau=0.5)
        zhat = project_instruments(prob)
        for mult in (0.1, 1.0, 10.0):
            sol = solve_see(prob, zhat, mult * sigma)
            oracle = winsorized_mean_oracle(y, sol.h_used, 0.5)
            worst = max(worst, abs(sol.beta[0] - oracle))
    check(
        3,
        "intercept-only median fits equal the winsorized-mean oracle (1e-8)",
        worst <= 1e-8,
        f"worst |difference| {worst:.2e} over 50 samples x 3 bandwidths",
    )


# -------------------------------------------------------------- criterion 4


def test_c04_residual_bound_on_every_fit():
    fits = []

    def collect(prob, h_request, **kwargs):
        zhat = project_instruments(prob)
        sol = solve_see(prob, zhat, h_request, **kwargs)
        fits.append((prob, zhat, sol.beta, sol.h_used))

    # wide and moderate bandwidths, exact and overidentified, with weights
    for k in range(6):
        prob = iv_instance(seed=20_000 + k, overidentified=(k % 2 == 0))
        collect(prob, 0.8)
        collect(prob.at_quantile(0.25), 2.0)
    rng = np.random.default_rng(7)
    w = rng.uniform(0.5, 2.0, size=500)
    prob_w = iv_instance(seed=20_100)
    prob_w = EstimationProblem(
        y=prob_w.y, X=prob_w.X, Z=prob_w.Z, w=w, tau=0.5, endog_idx=prob_w.endog_idx
    )
    collect(prob_w, 1.0)
    # smallest-feasible and escalated fits
    for k in range(4):
        rr = np.random.default_rng(20_200 + k)
        n = 20
        z = rr.normal(size=n)
        d = z + 0.5 * rr.normal(size=n)
        y = 1.0 + d + rr.normal(size=n)
        collect(build_problem(y, raw_endog=d, raw_instr=z, quantile=0.5), 0.0)
    # intercept-only at several scales
    for k in range(4):
        rr = np.random.default_rng(20_300 + k)
        y = rr.normal(size=41)
        X = np.ones((41, 1))
        prob_i = EstimationProblem(y=y, X=X, Z=X, w=np.ones(41), tau=0.5)
        collect(prob_i, 0.2)
    # plug-in fits on the reference design
    for t in TAUS:
        spec = replace(reference_dgp(n=800), seed=99)
        base, _ = generate(spec, tau=0.5)
        prob_t = base.at_quantile(t)
        zhat = project_instruments(prob_t)
        sol, report = fit_with_plugin(prob_t, zhat)
        fits.append((prob_t, zhat, sol.beta, report.h_used))

    worst = 0.0
    for prob, zhat, beta, h_used in fits:
        gn = float(np.max(np.abs(see_residual(prob, zhat, beta, h_used))))
        worst = max(worst, gn / tol_residual(prob, zhat))
    check(
        4,
        "every converged fit meets the moment-residual tolerance",
        worst <= 1.0,
        f"worst residual / tolerance ratio {worst:.3f} across {len(fits)} fits",
    )


# -------------------------------------------------------------- criterion 5


def test_c05_jacobian_matches_finite_differences():
    prob = iv_instance(seed=30_000, with_exog=True)
    zhat = project_instruments(prob)
    rng = np.random.default_rng(31)
    center = iv_estimate(prob, zhat)
    eps = 1e-6
    worst = 0.0
    tested = 0
    while tested < 20:
        beta = center + 0.5 * rng.standard_normal(prob.p)
        h = float(rng.uniform(0.4, 2.5))
        v = prob.y - prob.X @ beta
        # redraw any point whose smoothing window edge sits on an observation
        if np.min(np.abs(np.abs(v) - h)) < 1e-5:
            continue
        tested += 1
        J = see_jacobian(prob, zhat, beta, h)
        for j in range(prob.p):
            e = np.zeros(prob.p)
            e[j] = eps
            fd = (
                see_residual(prob, zhat, beta + e, h)
                - see_residual(prob, zhat, beta - e, h)
            ) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(J[:, j] - fd))))
    check(
        5,
        "analytic Jacobian matches finite differences entrywise (1e-4)",
        worst <= 1e-4,
        f"worst entrywise deviation {worst:.2e} over 20 points",
    )


# -------------------------------------------------------------- criterion 6


def test_c06_smallest_feasible_matches_brute_force():
    rng = np.random.default_rng(4096)
    worst_ratio = 0.0
    for k in range(30):
        n = int(rng.integers(11, 26))
        x = rng.standard_normal(n)
        y = 1.0 + 0.5 * x + rng.standard_normal(n)
        tau = TAUS[k % 3]
        prob = build_problem(y, raw_exog=x, quantile=tau)
        zhat = project_instruments(prob)
        sol = solve_see(prob, zhat, 0.0)
        oracle = brute_force_qr_oracle(prob.y, prob.X, tau)
        tol = 2.0 * sol.h_used * (1.0 + float(np.max(np.abs(prob.X))))
        diff = float(np.max(np.abs(sol.beta - oracle)))
        worst_ratio = max(worst_ratio, diff / tol)
    check(
        6,
        "smallest-feasible fits agree with the brute-force check-function oracle",
        worst_ratio <= 1.0,
        f"worst difference/tolerance ratio {worst_ratio:.3f} over 30 instances",
    )


# -------------------------------------------------------------- criterion 7


def test_c07_consistency_and_rate(mc_battery):
    truths = mc_battery["truths"]
    # Leading smoothing bias of the root at bandwidth h:
    # -(h^2/2) (int G'(v) v^2 dv) J^{-1} E[zhat f'(0|z)], with the integral
    # taken over the ramp's window as in criterion 1.  In the reference
    # design v is independent of z and N(0, sigma_v^2), and the model has an
    # intercept, so the bias sits in the intercept alone, where
    # -f'(0)/f(0) = Phi^{-1}(tau)/sigma_v.
    int_gpv2, _ = quad(lambda v: 0.5 * v**2, -1.0, 1.0)
    spec = reference_dgp()
    sigma_v = np.sqrt(spec.rho**2 + (1.0 - spec.rho**2))
    names = ("slope", "const")
    intercept = np.array([0.0, 1.0])
    lines = []
    ok = True
    for t in TAUS:
        sds = {}
        for size in ("n2000", "n8000"):
            est = mc_battery[size][t]["beta"]
            h = mc_battery[size][t]["h"]
            raw = est - truths[t]
            predicted = np.outer(0.5 * int_gpv2 * h**2 * ndtri(t) / sigma_v, intercept)
            d = raw - predicted
            bias = d.mean(axis=0)
            gate = 3.0 * d.std(axis=0, ddof=1) / np.sqrt(d.shape[0])
            for j, name in enumerate(names):
                good = abs(bias[j]) < gate[j]
                ok = ok and good
                lines.append(
                    f"{size} tau={t} {name}: raw bias={raw[:, j].mean():+.5f} "
                    f"predicted={predicted[:, j].mean():+.5f} "
                    f"re-centred={bias[j]:+.5f} gate={gate[j]:.5f} "
                    f"{'ok' if good else 'EXCEEDED'}"
                )
            sds[size] = est.std(axis=0, ddof=1)
        ratio = sds["n8000"] / sds["n2000"]
        good = bool(np.all((ratio > 1 / 2.6) & (ratio < 1 / 1.6)))
        ok = ok and good
        lines.append(
            f"tau={t} SD ratio n8000/n2000: {ratio[0]:.4f}, {ratio[1]:.4f} "
            f"{'ok' if good else 'OUT OF RANGE'}"
        )
    check(
        7,
        "bias net of the O(h^2) smoothing bias within 3 MCSE and root-n SD "
        "scaling on the reference design",
        ok,
        "; ".join(lines),
    )


# -------------------------------------------------------------- criterion 8


def test_c08_three_way_se_agreement(mc_battery):
    b2 = mc_battery["n2000"][0.5]
    mc_sd = float(b2["beta"][:, 0].std(ddof=1))
    se_analytic = float(b2["se"][:, 0].mean())
    boot = []
    for seed in mc_battery["seeds"][:25]:
        spec = replace(reference_dgp(n=2000), seed=seed)
        prob, _ = generate(spec, tau=0.5)
        res = fit(prob, bandwidth=None, level=0.95, reps=200, seed=112358)
        boot.append(res.se[0])
    se_boot = float(np.mean(boot))
    pairs = {
        "analytic/mc": (se_analytic, mc_sd),
        "bootstrap/mc": (se_boot, mc_sd),
        "analytic/bootstrap": (se_analytic, se_boot),
    }
    ratios = {k: max(a, b) / min(a, b) for k, (a, b) in pairs.items()}
    check(
        8,
        "analytic, bootstrap, and Monte Carlo slope SEs pairwise within 20%",
        all(r <= 1.2 for r in ratios.values()),
        f"analytic={se_analytic:.5f} bootstrap={se_boot:.5f} mc_sd={mc_sd:.5f} "
        + " ".join(f"{k}={v:.4f}" for k, v in ratios.items()),
    )


# -------------------------------------------------------------- criterion 9


def test_c09_ci_coverage(mc_battery):
    cover = float(mc_battery["n2000"][0.5]["cover"][:, 0].mean())
    check(
        9,
        "95% intervals cover the true slope between 91% and 98% of the time",
        0.91 <= cover <= 0.98,
        f"coverage {cover:.4f} over 500 replications",
    )


# ------------------------------------------------------------- criterion 10


def test_c10_median_plug_in_is_silverman():
    ok = True
    details = []
    for k in range(20):
        rng = np.random.default_rng(50_000 + k)
        n = int(rng.integers(50, 400))
        prob = iv_instance(seed=50_500 + k, n=n)
        resid = rng.normal(scale=float(rng.uniform(0.3, 4.0)), size=n)
        rep = plug_in_bandwidth(prob, resid)
        c = rep.candidates
        good = (
            c.h_nonparametric == np.inf
            and c.h_gaussian_ref == np.inf
            and np.isfinite(c.h_silverman)
            and c.h_silverman > 0
            and rep.h_requested == c.h_silverman
        )
        ok = ok and good
        if not good:
            details.append(f"dataset {k}: candidates {c}")
    check(
        10,
        "median plug-in sentinels two candidates and keeps Silverman",
        ok,
        "; ".join(details),
    )


# ------------------------------------------------------------- criterion 11


def test_c11_cli_byte_identical_json(tmp_path):
    import csv as csv_mod

    rng = np.random.default_rng(33)
    n = 300
    z = rng.normal(size=n)
    d = z + 0.5 * rng.normal(size=n)
    y = 1.0 + d + rng.normal(size=n)
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(["y", "d", "z"])
        for i in range(n):
            writer.writerow([repr(float(y[i])), repr(float(d[i])), repr(float(z[i]))])
    outputs = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.json"
        code = main(
            ["--data", str(data), "--y", "y", "--endog", "d", "--iv", "z",
             "--quantile", "0.5", "--reps", "100", "--seed", "112358",
             "--nodots", "--json", str(path)]
        )
        assert code == EXIT_OK
        outputs.append(path.read_bytes())
    check(
        11,
        "repeated CLI runs with identical flags emit byte-identical JSON",
        outputs[0] == outputs[1],
        f"lengths {len(outputs[0])} vs {len(outputs[1])}",
    )


# ------------------------------------------------------------- criterion 12


def test_c12_escalation_diagnostics(tmp_path, capsys):
    # leg 1: an infeasible manual bandwidth is escalated, and the report
    # says so through h_used and the escalation count
    rng = np.random.default_rng(8)
    n = 20
    z = rng.normal(size=n)
    d = z + 0.5 * rng.normal(size=n)
    y = 1.0 + d + rng.normal(size=n)
    prob = build_problem(y, raw_endog=d, raw_instr=z, quantile=0.5)
    res = fit(prob, bandwidth=1e-12)
    leg1 = (
        res.bandwidth.h_used > res.bandwidth.h_requested
        and res.solver.bandwidth_escalations > 0
        and res.solver.converged
    )

    # leg 2: when even the largest plug-in candidate is infeasible the CLI
    # warns that the bandwidth escalated past it
    import csv as csv_mod

    rng = np.random.default_rng(1)
    n = 60
    z = rng.normal(size=n)
    d = (z + 0.3 * rng.normal(size=n) > 0).astype(float)
    y = 5.0 * rng.choice([-1.0, 1.0], size=n)
    data = tmp_path / "atoms.csv"
    with open(data, "w", newline="") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(["y", "d", "z"])
        for i in range(n):
            writer.writerow([repr(float(y[i])), repr(float(d[i])), repr(float(z[i]))])
    out_json = tmp_path / "atoms.json"
    code = main(
        ["--data", str(data), "--y", "y", "--endog", "d", "--iv", "z",
         "--quantile", "0.5", "--json", str(out_json)]
    )
    out = capsys.readouterr().out
    doc = json.loads(out_json.read_text())
    leg2 = (
        code == EXIT_OK
        and "warning: bandwidth escalated above the largest plug-in candidate" in out
        and doc["bwidth"] > doc["bwidth_max"]
    )
    check(
        12,
        "infeasible bandwidths escalate with diagnostics and a warning",
        leg1 and leg2,
        f"leg1 (manual 1e-12): h_used={res.bandwidth.h_used:.4g}, "
        f"escalations={res.solver.bandwidth_escalations}; leg2 (plug-in past max): "
        f"bwidth={doc['bwidth']:.4g} vs max={doc['bwidth_max']:.4g}",
    )


# ------------------------------------------------------------- criterion 13


def test_c13_smoothing_beats_the_unsmoothed_root():
    # the paper's claim (Kaplan & Sun 2017): smoothing makes IV quantile
    # regression more accurate and faster.  Each reference dataset is fitted
    # at every level twice, at the plug-in bandwidth and at bandwidth=0 (the
    # smallest feasible one, the near-unsmoothed root); the squared errors of
    # every coefficient pool over levels and datasets.  The MCSE of the RMSE
    # ratio is the SD of its paired bootstrap over datasets.  80 datasets put
    # the ratio about 4 MCSE below 1; the iteration counts are deterministic
    n_sets = 80
    sq_err = np.zeros((2, n_sets))  # plug-in, bandwidth=0
    iters = [0, 0]
    for s in range(n_sets):
        base, true_at = generate(reference_dgp(2000, 10_000 + s), tau=0.5)
        for k, bandwidth in enumerate((None, 0.0)):
            for t, res in zip(TAUS, fit_levels(base, TAUS, bandwidth=bandwidth)):
                assert res is not None, f"the fit at tau={t} failed on dataset {10_000 + s}"
                sq_err[k, s] += np.sum((res.beta - true_at(t)) ** 2)
                iters[k] += res.solver.iterations
    ratio = np.sqrt(sq_err[0].sum() / sq_err[1].sum())
    draws = np.random.default_rng(13).integers(0, n_sets, size=(2000, n_sets))
    boot = np.sqrt(sq_err[0][draws].sum(axis=1) / sq_err[1][draws].sum(axis=1))
    mcse = float(boot.std(ddof=1))
    check(
        13,
        "plug-in smoothing beats bandwidth=0 in RMSE by 3 MCSE, in fewer Newton iterations",
        ratio < 1.0 - 3.0 * mcse and iters[0] < iters[1],
        f"pooled RMSE ratio {ratio:.4f} (MCSE {mcse:.4f}, {(1.0 - ratio) / mcse:.1f} MCSE "
        f"below 1); Newton iterations {iters[0]} plug-in vs {iters[1]} at bandwidth=0",
    )
