"""Paired accuracy of two ivqr trees' plug-in fits on the same simulated data.

Draws datasets from six designs, fits every one at each quantile level with
the plug-in bandwidth and analytic standard errors, once with this tree and
once with another one, and compares the two sides dataset by dataset.  With
``--mode levels`` (the default) one ``fit_levels`` call fits a dataset's
levels, the median first and each other level warm-started from its
neighbour; with ``--mode cold`` each level is its own cold ``fit`` of
``build_problem(..., quantile=tau)``, the default single-level path.  The
comparison reports:

- the RMSE ratio, this tree over the other, per coefficient, with a
  paired-bootstrap Monte Carlo standard error (MCSE)
- the coverage of the 95% intervals against the truth on each side, with the
  paired-bootstrap MCSE of their difference
- on the weak design, where a few root switches dominate the RMSE, the
  coverage, the median absolute error and every fit that moved by more than
  one standard error instead

A cell passes when its RMSE ratio is within 3 MCSE of 1 or below it and its
coverage is within 3 MCSE of the other tree's; on the weak design only the
coverage is gated.  The script exits 1 if any cell fails.

The designs (truth in the fit's column order, endogenous slope first and
intercept last):

- ``reference``: y = 1 + x + v, x = z + e, (v, e) standard normal with
  correlation 0.5; truth (1, 1 + Phi^{-1}(tau))
- ``weak``: the same with x = 0.05 z + e and correlation 0.9
- ``random-coefficient``: y = Phi^{-1}(u) + (1 + u) x with x = exp(z + e / 2)
  (1/2 + u); truth (1 + tau, Phi^{-1}(tau))
- ``binary``: binary instrument z, d = 1{0.8 z - 0.4 + e > 0},
  y = 1 + d + v with v = 0.5 e + sqrt(0.75) eta; truth (1, 1 + Phi^{-1}(tau))
- ``chi2`` and ``t3``: z, e standard normal, x = z + e + v / 2, y = 1 + x + v,
  with v a standardised chi-squared(3) or a t(3) draw; truth (1, 1 + Q_v(tau))

Each side runs in its own process with ``OPENBLAS_NUM_THREADS=1`` and imports
``ivqr`` from its tree's ``src``; the data come from this script in both, so
the two sides fit the same bytes.  Example, against a copy of an earlier
commit made with ``git archive``:

    python3 scripts/plugin_pass_battery.py --other ../ivqr-parent --n 2000,8000 --datasets 200
    python3 scripts/plugin_pass_battery.py --other ../ivqr-parent --mode cold --n 60000
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np

DESIGNS = ("reference", "random-coefficient", "binary", "chi2", "t3", "weak")
HERE = Path(__file__).resolve().parent
PHI_INV = NormalDist().inv_cdf


def _invert(cdf, p, lo=-1e3, hi=1e3):
    """The p-quantile of a continuous increasing ``cdf``, by bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cdf(mid) < p else (lo, mid)
    return 0.5 * (lo + hi)


def _chi2_3_cdf(x):
    if x <= 0:
        return 0.0
    return math.erf(math.sqrt(x / 2)) - math.sqrt(2 * x / math.pi) * math.exp(-x / 2)


def _t3_cdf(t):
    return 0.5 + (t / (math.sqrt(3) * (1 + t * t / 3)) + math.atan(t / math.sqrt(3))) / math.pi


def truth(design, tau):
    """The structural coefficients at ``tau``: (slope, intercept)."""
    if design == "random-coefficient":
        return np.array([1.0 + tau, PHI_INV(tau)])
    if design == "chi2":
        return np.array([1.0, 1.0 + (_invert(_chi2_3_cdf, tau, 0.0) - 3.0) / math.sqrt(6.0)])
    if design == "t3":
        return np.array([1.0, 1.0 + _invert(_t3_cdf, tau)])
    return np.array([1.0, 1.0 + PHI_INV(tau)])


def draw(design, n, s):
    """Dataset ``s`` of ``design`` at ``n`` rows: (y, x, z)."""
    rng = np.random.default_rng([DESIGNS.index(design), n, s])
    if design in ("reference", "weak"):
        pi, rho = (1.0, 0.5) if design == "reference" else (0.05, 0.9)
        z, e, eta = rng.standard_normal((3, n))
        x = pi * z + e
        return 1.0 + x + rho * e + math.sqrt(1 - rho * rho) * eta, x, z
    if design == "random-coefficient":
        u = rng.uniform(size=n)
        z, e = rng.standard_normal((2, n))
        x = np.exp(z + e / 2) * (0.5 + u)
        return np.array([PHI_INV(ui) for ui in u]) + (1.0 + u) * x, x, z
    if design == "binary":
        z = (rng.uniform(size=n) < 0.5).astype(float)
        e, eta = rng.standard_normal((2, n))
        d = (0.8 * z - 0.4 + e > 0).astype(float)
        return 1.0 + d + 0.5 * e + math.sqrt(0.75) * eta, d, z
    z, e = rng.standard_normal((2, n))
    v = (rng.chisquare(3, n) - 3.0) / math.sqrt(6.0) if design == "chi2" else rng.standard_t(3, n)
    x = z + e + 0.5 * v
    return 1.0 + x + v, x, z


def worker(args):
    """Fit every dataset with the ``ivqr`` in ``args.src``; one JSON line per fit."""
    sys.path.insert(0, args.src)
    from ivqr import build_problem, fit, fit_levels
    from ivqr.exceptions import EstimationError

    def cold(y, x, z, tau):
        try:
            return fit(build_problem(y, raw_endog=x, raw_instr=z, quantile=tau))
        except EstimationError:
            return None

    for design in args.designs:
        for n in args.n:
            for s in range(args.datasets):
                y, x, z = draw(design, n, s)
                if args.mode == "levels":
                    base = build_problem(y, raw_endog=x, raw_instr=z, quantile=0.5)
                    fits = fit_levels(base, args.taus)
                else:
                    fits = [cold(y, x, z, tau) for tau in args.taus]
                for tau, res in zip(args.taus, fits):
                    row = {"design": design, "n": n, "s": s, "tau": tau}
                    if res is not None:
                        row.update(beta=res.beta.tolist(), se=res.se.tolist(),
                                   h=res.bandwidth.h_used)
                    print(json.dumps(row), flush=True)


def run_side(root, args):
    """``{(design, n, s, tau): fit row}`` from a worker on the tree at ``root``."""
    cmd = [sys.executable, str(HERE / Path(__file__).name), "--worker", "--src",
           str(Path(root) / "src"), "--designs", ",".join(args.designs),
           "--n", ",".join(map(str, args.n)), "--taus", ",".join(map(repr, args.taus)),
           "--datasets", str(args.datasets), "--mode", args.mode]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    rows = (json.loads(line) for line in out.splitlines())
    return {(r["design"], r["n"], r["s"], r["tau"]): r for r in rows}


def paired_mcse(stat, a, b, boots, rng):
    """SD of ``stat(a[i], b[i])`` over bootstrap resamples of the rows i."""
    idx = rng.integers(0, len(a), size=(boots, len(a)))
    return float(np.std([stat(a[k], b[k]) for k in idx], ddof=1))


def rmse_ratio(err_a, err_b):
    return np.sqrt(np.mean(err_a**2, axis=0) / np.mean(err_b**2, axis=0))


def compare(this, other, args):
    """One summary per (design, n, tau, coefficient); the fits that moved on ``weak``."""
    rng = np.random.default_rng(2024)
    cells, moved = [], []
    for design in args.designs:
        for n in args.n:
            for tau in args.taus:
                keys = [(design, n, s, tau) for s in range(args.datasets)]
                both = [k for k in keys if "beta" in this[k] and "beta" in other[k]]
                if not both:
                    continue
                t = truth(design, tau)
                b1, b0 = (np.array([side[k]["beta"] for k in both]) for side in (this, other))
                s1, s0 = (np.array([side[k]["se"] for k in both]) for side in (this, other))
                z = PHI_INV(0.975)
                c1, c0 = ((np.abs(b - t) <= z * s) * 1.0 for b, s in ((b1, s1), (b0, s0)))
                if design == "weak":
                    for k, d in zip(both, np.abs(b1 - b0) / s0):
                        if d.max() > 1.0:
                            moved.append({"n": n, "s": k[2], "tau": tau,
                                          "max_dbeta_se": float(d.max())})
                for j, coef in enumerate(("slope", "intercept")):
                    e1, e0 = b1[:, j] - t[j], b0[:, j] - t[j]
                    ratio = float(rmse_ratio(e1, e0))
                    ratio_se = paired_mcse(rmse_ratio, e1, e0, args.boots, rng)
                    dcov = float(c1[:, j].mean() - c0[:, j].mean())
                    dcov_se = paired_mcse(lambda a, b: a.mean() - b.mean(), c1[:, j], c0[:, j],
                                          args.boots, rng)
                    cell = {
                        "design": design, "n": n, "tau": tau, "coef": coef, "fits": len(both),
                        "failed_this": sum("beta" not in this[k] for k in keys),
                        "failed_other": sum("beta" not in other[k] for k in keys),
                        "rmse_ratio": ratio, "rmse_ratio_mcse": ratio_se,
                        "coverage_this": float(c1[:, j].mean()),
                        "coverage_other": float(c0[:, j].mean()), "coverage_diff_mcse": dcov_se,
                        "median_abs_err_this": float(np.median(np.abs(e1))),
                        "median_abs_err_other": float(np.median(np.abs(e0))),
                        "median_rel_dh": float(np.median([abs(this[k]["h"] / other[k]["h"] - 1)
                                                          for k in both])),
                    }
                    cell["pass"] = bool(abs(dcov) <= 3 * dcov_se and
                                        (design == "weak" or ratio - 1 <= 3 * ratio_se))
                    cells.append(cell)
    return cells, moved


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--other", help="root of the tree to compare against (holds src/)")
    parser.add_argument("--designs", default=",".join(DESIGNS))
    parser.add_argument("--mode", choices=("levels", "cold"), default="levels",
                        help="fit_levels per dataset, or one cold fit per level")
    parser.add_argument("--n", default="2000", help="comma-separated sample sizes")
    parser.add_argument("--taus", default="0.05,0.1,0.25,0.5,0.75,0.9,0.95")
    parser.add_argument("--datasets", type=int, default=200, help="datasets per design and n")
    parser.add_argument("--boots", type=int, default=500, help="bootstrap resamples per MCSE")
    parser.add_argument("--json", help="also write every cell and moved fit to this file")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.designs = args.designs.split(",")
    unknown = set(args.designs) - set(DESIGNS)
    if unknown:
        parser.error(f"unknown designs {sorted(unknown)}; choose from {DESIGNS}")
    args.n = [int(v) for v in args.n.split(",")]
    args.taus = [float(v) for v in args.taus.split(",")]
    if not args.worker and not args.other:
        parser.error("--other is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    this, other = run_side(HERE.parent, args), run_side(args.other, args)
    cells, moved = compare(this, other, args)
    print(f"{'design':<19}{'n':>6}{'tau':>6} {'coef':<10}{'ratio':>8}{'mcse':>7}"
          f"{'cov':>7}{'other':>7}{'mcse':>7}{'mae':>9}{'other':>9}{'fail':>6} pass")
    for c in cells:
        print(f"{c['design']:<19}{c['n']:>6}{c['tau']:>6} {c['coef']:<10}"
              f"{c['rmse_ratio']:>8.4f}{c['rmse_ratio_mcse']:>7.4f}{c['coverage_this']:>7.3f}"
              f"{c['coverage_other']:>7.3f}{c['coverage_diff_mcse']:>7.4f}"
              f"{c['median_abs_err_this']:>9.4f}{c['median_abs_err_other']:>9.4f}"
              f"{c['failed_this']:>3}/{c['failed_other']:<2} {'yes' if c['pass'] else 'NO'}")
    for m in moved:
        print(f"weak n={m['n']} dataset {m['s']} tau={m['tau']}: moved {m['max_dbeta_se']:.2f} SE")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"cells": cells, "moved_weak": moved}, fh, indent=1)
    failed = [c for c in cells if not c["pass"]]
    print(f"{len(cells) - len(failed)} of {len(cells)} cells pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
