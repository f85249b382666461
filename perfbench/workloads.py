"""The four workloads: inputs from the seed, one timed call, output checks.

Each workload has ``setup(seed, scale, out_dir)`` (input generation, untimed
except as part of ``setup_s``), ``call(state)`` (the timed top-level call,
made through module attributes so a traced run sees the wrappers), and
``inspect(state, raw, fits, first)`` (untimed).  ``inspect`` returns the
digest of the output, the list of failed checks, and ``coef_err``.

Checks run in full on the first call of a process, which is the warm-up;
every later call must reproduce the first call's output bit for bit, so a
call that passes the identity check passes every other check too.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

import ivqr.cli
import ivqr.estimate
import ivqr.simulation
from ivqr.projection import project_instruments
from ivqr.solver import see_residual, tol_residual

from metrics import BOOT, CLI, FIT, MC

# a fitted coefficient further than this many standard errors from the
# simulated truth fails the accuracy check
MAX_Z = 6.0

SCALES = {
    "full": {CLI: {"n": 100_000}, FIT: {"n": 1_000_000}, BOOT: {"n": 100_000, "reps": 200},
             MC: {"n": 2000, "n_reps": 10}},
    "tiny": {CLI: {"n": 500}, FIT: {"n": 3000}, BOOT: {"n": 1000, "reps": 20},
             MC: {"n": 300, "n_reps": 2}},
}

# the wage example's structural median coefficients (educ, age, _cons)
WAGE_TRUTH = np.array([0.3, 0.02, 1.0])


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def fit_failures(prob, beta, h, se, truth) -> list[str]:
    """The c04 residual bound, finite positive SEs, and a z-score sanity bound."""
    out = []
    zhat = project_instruments(prob)
    g = float(np.max(np.abs(see_residual(prob, zhat, beta, h))))
    tol = tol_residual(prob, zhat)
    if not g <= tol:
        out.append(f"smoothed residual {g:.3e} exceeds tolerance {tol:.3e}")
    se = np.asarray(se, dtype=float)
    if not (np.all(np.isfinite(se)) and np.all(se > 0)):
        out.append(f"standard errors not finite and positive: {se.tolist()}")
    elif truth is not None:
        z = np.abs(np.asarray(beta) - truth) / se
        if not np.all(z <= MAX_Z):
            out.append(f"estimate {np.max(z):.1f} standard errors from the truth")
    return out


class CliWages:
    """In-process ``ivqr.cli.main`` on the wage example CSV, JSON output."""

    name = CLI

    def setup(self, seed, scale, out_dir: Path):
        n = SCALES[scale][CLI]["n"]
        script = Path(ivqr.cli.__file__).resolve().parents[2] / "scripts" / "make_example_data.py"
        spec = importlib.util.spec_from_file_location("make_example_data", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        csv_path = out_dir / f"wages-{scale}.csv"
        json_path = out_dir / f"wages-{scale}.json"
        module.main(["--n", str(n), "--seed", str(seed), "--out", str(csv_path)])
        argv = ["--data", str(csv_path), "--y", "wage", "--endog", "educ", "--exog", "age",
                "--iv", "dist", "--weight", "wgt", "--quantile", "0.5", "--json", str(json_path)]
        return {"argv": argv, "json_path": json_path}

    def call(self, state):
        return ivqr.cli.main(state["argv"])

    def inspect(self, state, rc, fits, first):
        if rc != 0:
            return None, [f"CLI exit code {rc}"], None
        raw = state["json_path"].read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        doc = json.loads(raw)
        beta = np.array(doc["b"])
        coef_err = float(np.max(np.abs(beta - WAGE_TRUTH)))
        failures = []
        if first:
            prob = ivqr.cli.ingest_csv(ivqr.cli.parse_args(state["argv"]))[0]
            failures = fit_failures(prob, beta, doc["bwidth"], doc["se"], WAGE_TRUTH)
        return digest, failures, coef_err


class _SingleFit:
    tau = 0.5

    def setup(self, seed, scale, out_dir):
        cfg = SCALES[scale][self.name]
        spec = ivqr.simulation.reference_dgp(n=cfg["n"], seed=seed)
        prob, truth_at = ivqr.simulation.generate(spec, tau=self.tau)
        return {"prob": prob, "truth": truth_at(self.tau), "reps": cfg.get("reps", 0),
                "seed": seed}

    def call(self, state):
        return ivqr.estimate.fit(state["prob"], reps=state["reps"], seed=state["seed"])

    def inspect(self, state, res, fits, first):
        digest = _digest(res.beta, res.cov, [res.bandwidth.h_used])
        coef_err = float(np.max(np.abs(res.beta - state["truth"])))
        failures = []
        if first:
            failures = fit_failures(
                state["prob"], res.beta, res.bandwidth.h_used, res.se, state["truth"]
            )
        return digest, failures, coef_err


class FitRef(_SingleFit):
    """Cold plug-in ``fit`` with analytic SEs on the reference design."""

    name = FIT
    tau = 0.25


class Boot(_SingleFit):
    """``fit`` with the Bayesian bootstrap at the median."""

    name = BOOT
    tau = 0.5


class McGrid:
    """One block of ``monte_carlo`` over three quantiles."""

    name = MC
    taus = (0.25, 0.5, 0.75)

    def setup(self, seed, scale, out_dir):
        cfg = SCALES[scale][MC]
        return {"spec": ivqr.simulation.reference_dgp(n=cfg["n"], seed=seed),
                "n_reps": cfg["n_reps"]}

    def call(self, state):
        return ivqr.simulation.monte_carlo(state["spec"], self.taus, state["n_reps"])

    def inspect(self, state, rows, fits, first):
        arrays = []
        failures = []
        for row in rows:
            arrays += [[row.n_failed], row.mean_bias, row.sd, row.rmse,
                       row.analytic_se_mean, row.coverage]
            if row.n_failed:
                failures.append(f"{row.n_failed} failed fits at tau={row.tau}")
        if not np.all(np.isfinite(np.concatenate([np.ravel(a) for a in arrays]))):
            failures.append("non-finite Monte Carlo summary")
        if first:
            # per-fit results are visible only through the traced run's wrappers
            for prob, res in fits:
                failures += fit_failures(prob, res.beta, res.bandwidth.h_used, res.se, None)
        coef_err = float(max(np.max(row.rmse) for row in rows))
        return _digest(*arrays), failures, coef_err


WORKLOADS = {w.name: w for w in (CliWages(), FitRef(), Boot(), McGrid())}
