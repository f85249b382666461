"""Metric catalogue of the benchmark: names, units, direction, and what moves what.

``END_TO_END`` and ``PER_LAYER`` are the metrics the final JSON line carries
(``--trace 0`` and ``--trace 1`` respectively); ``BENCHMARK.json`` at the
repository root lists the same names, and the smoke test holds the two in
step.  ``REPORT_ONLY`` metrics are printed in the human-readable report but
are not gated: ``fail_ratio`` is zero on a healthy run (the final line
carries it as ``failed`` and ``attempted``), ``coef_err`` is a statistical
error that varies from seed to seed by design, and ``call_s.p90`` needs at
least 100 calls to have ten samples above it.

``MOVES`` is the layer map: for each per-layer metric, the end-to-end
metrics it should move and the workloads on which it should move them.  On
every other workload the prediction for a change to that layer is "no
change".
"""

from __future__ import annotations

# name -> (unit, better)
END_TO_END = {
    "call_s.p50": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}

PER_LAYER = {
    "cli.ingest_s": ("s", "lower"),
    "cli.output_s": ("s", "lower"),
    "model.build_s": ("s", "lower"),
    "projection.project_s": ("s", "lower"),
    "projection.iv_start_s": ("s", "lower"),
    "projection.iv_start_calls": ("count", "lower"),
    "bandwidth.plugin_s": ("s", "lower"),
    "solver.cold_s": ("s", "lower"),
    "solver.warm_s": ("s", "lower"),
    "solver.cold_iters": ("count", "lower"),
    "solver.cold_stages": ("count", "lower"),
    "solver.warm_iters": ("count", "lower"),
    "solver.escalations": ("count", "lower"),
    "solver.resid_evals": ("count", "lower"),
    "solver.resid_s": ("s", "lower"),
    "solver.jac_evals": ("count", "lower"),
    "solver.jac_s": ("s", "lower"),
    "solver.backtracks": ("count", "lower"),
    "solver.window_frac": ("ratio", "higher"),
    "solver.kernel_mb_computed": ("MB", "lower"),
    "inference.analytic_s": ("s", "lower"),
    "inference.boot_s": ("s", "lower"),
    "inference.rep_s.p50": ("s", "lower"),
    "inference.rep_s.p90": ("s", "lower"),
    "inference.rep_iters": ("iter/rep", "lower"),
    "inference.rep_fallbacks": ("count", "lower"),
    "inference.rep_escalated": ("count", "lower"),
    "inference.reps_failed": ("count", "lower"),
    "simulation.generate_s": ("s", "lower"),
    "simulation.fits": ("count", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

REPORT_ONLY = {
    "call_s.p90": ("s", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "coef_err": ("abs", "lower"),
}

CLI, FIT, BOOT, MC = "cli_wages_1e5", "fit_ref_1e6", "boot_1e5", "mc_grid_2e3"
WORKLOADS = (CLI, FIT, BOOT, MC)

P50 = ("call_s.p50",)
MOVES = {
    "cli.ingest_s": (P50, (CLI,)),
    "cli.output_s": (P50, (CLI,)),
    "model.build_s": (P50, (CLI, MC)),
    "projection.project_s": (P50, (FIT, BOOT)),
    "projection.iv_start_s": (P50, (FIT, BOOT)),
    "projection.iv_start_calls": (P50, (FIT, BOOT)),
    "bandwidth.plugin_s": (P50, (FIT, MC)),
    "solver.cold_s": (P50, (FIT,)),
    "solver.warm_s": (P50, (BOOT,)),
    "solver.cold_iters": (P50, (FIT,)),
    "solver.cold_stages": (P50, (FIT,)),
    "solver.warm_iters": (P50, (BOOT,)),
    "solver.escalations": (P50, (FIT, BOOT)),
    "solver.resid_evals": (P50, (FIT,)),
    "solver.resid_s": (P50, (FIT,)),
    "solver.jac_evals": (P50, (FIT,)),
    "solver.jac_s": (P50, (FIT,)),
    "solver.backtracks": (P50, (FIT,)),
    "solver.window_frac": (P50, (FIT,)),
    "solver.kernel_mb_computed": (P50, (FIT,)),
    "inference.analytic_s": (P50, (FIT, CLI, MC)),
    "inference.boot_s": (("call_s.p50", "peak_rss_mb"), (BOOT,)),
    "inference.rep_s.p50": (("call_s.p50", "peak_rss_mb"), (BOOT,)),
    "inference.rep_s.p90": (("call_s.p50", "peak_rss_mb"), (BOOT,)),
    "inference.rep_iters": (("fail_ratio", "coef_err"), (BOOT,)),
    "inference.rep_fallbacks": (("fail_ratio", "coef_err"), (BOOT,)),
    "inference.rep_escalated": (("fail_ratio", "coef_err"), (BOOT,)),
    "inference.reps_failed": (("fail_ratio", "coef_err"), (BOOT,)),
    "simulation.generate_s": (P50, (MC,)),
    "simulation.fits": (P50, (MC,)),
    # the difference of two call_s.p50 readings, not a layer
    "trace.overhead_s": (P50, WORKLOADS),
}


def unit(name: str) -> str:
    for table in (END_TO_END, PER_LAYER, REPORT_ONLY):
        if name in table:
            return table[name][0]
    raise KeyError(name)
