"""Per-layer spans recorded from outside the package.

``Tracer.install`` rebinds the module attributes through which the layers of
``ivqr`` call each other (for example ``ivqr.bandwidth.solve_see`` or
``ivqr.solver.see_jacobian``) to thin wrappers.  Each wrapper records a span
(name, layer, start, end, parent, call id) and reads counters off the return
value: ``SolverDiagnostics`` from ``solve_see``, ``reps_used`` from the
bootstrap's ``CovarianceEstimate``, and the fitted result of every ``fit``.
Nothing under ``src/`` changes, and the wrapped functions receive the same
arguments and return the same objects, so traced outputs are bit-identical
to untraced ones (the benchmark checks this on every traced run).

Spans are kept in memory and written out once the run ends.  A span's own
time is its duration minus the child spans of other layers; the per-layer
metrics of one top-level call are sums of own times and counters over the
spans of that call.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

import numpy as np

from metrics import PER_LAYER

# module -> wrapped attributes (call sites between layers)
TARGETS = {
    "ivqr.cli": ("ingest_csv", "build_problem", "fit", "render_table", "results_json"),
    "ivqr.estimate": (
        "fit",
        "project_instruments",
        "fit_with_plugin",
        "solve_see",
        "analytic_covariance",
        "bayesian_bootstrap",
    ),
    "ivqr.bandwidth": ("iv_estimate", "plug_in_bandwidth", "solve_see"),
    "ivqr.solver": ("iv_estimate", "see_residual", "see_jacobian"),
    "ivqr.inference": ("solve_see",),
    "ivqr.simulation": ("generate", "build_problem", "fit"),
}

# wrapped function -> the package layer (module) that implements it
LAYER_OF = {
    "ingest_csv": "cli",
    "render_table": "cli",
    "results_json": "cli",
    "build_problem": "model",
    "project_instruments": "projection",
    "iv_estimate": "projection",
    "plug_in_bandwidth": "bandwidth",
    "fit": "estimate",
    "fit_with_plugin": "estimate",
    "solve_see": "solver",
    "see_residual": "solver",
    "see_jacobian": "solver",
    "analytic_covariance": "inference",
    "bayesian_bootstrap": "inference",
    "generate": "simulation",
}


class Span:
    __slots__ = ("id", "parent", "call", "name", "func", "layer", "start", "end", "info")

    def __init__(self, sid, parent, call, name, func, start):
        self.id = sid
        self.parent = parent
        self.call = call
        self.name = name
        self.func = func
        self.layer = LAYER_OF[func]
        self.start = start
        self.end = start
        self.info = {}

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; records only while a top-level call is open."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[Span] = []
        self.fits: list = []  # (problem, FitResult) of every fit in the open call
        self.call_id = None
        self._stack: list[Span] = []
        self._first = 0
        self._next_id = 0

    def install(self) -> None:
        for mod_name, attrs in TARGETS.items():
            module = importlib.import_module(mod_name)
            for attr in attrs:
                setattr(module, attr, self._wrap(getattr(module, attr), mod_name[5:], attr))

    def begin_call(self, call_id: int) -> None:
        self.call_id = call_id
        self._first = len(self.spans)
        self.fits = []

    def end_call(self) -> list[Span]:
        self.call_id = None
        return self.spans[self._first:]

    def _wrap(self, orig, mod, func):
        tracer = self
        name = f"{mod}.{func}"
        hook = _HOOKS.get(func)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if tracer.call_id is None:
                return orig(*args, **kwargs)
            stack = tracer._stack
            tracer._next_id += 1
            span = Span(
                tracer._next_id,
                stack[-1].id if stack else None,
                tracer.call_id,
                name,
                func,
                time.perf_counter(),
            )
            if func == "bayesian_bootstrap":
                kwargs["progress"] = _ticker(span, kwargs.get("progress"))
            stack.append(span)
            try:
                out = orig(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                if func == "solve_see":
                    _solve_info(span, args, kwargs, None, getattr(exc, "diagnostics", None))
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if hook is not None:
                hook(tracer, span, args, kwargs, out)
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {
                    "call": s.call,
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "start": s.start - self.origin,
                    "end": s.end - self.origin,
                }
                rec.update((k, v) for k, v in s.info.items() if k != "ticks")
                fh.write(json.dumps(rec) + "\n")


def _ticker(span, chained):
    ticks = span.info.setdefault("ticks", [])

    def progress(r):
        ticks.append(time.perf_counter())
        if chained is not None:
            chained(r)

    return progress


def _solve_info(span, args, kwargs, sol, diag):
    beta_init = kwargs["beta_init"] if "beta_init" in kwargs else (args[3] if len(args) > 3 else None)
    span.info["warm"] = beta_init is not None
    span.info["h_request"] = float(args[2])
    if sol is not None:
        span.info["h_used"] = sol.h_used
        diag = sol.diag
    if diag is not None:
        span.info["iters"] = diag.iterations
        span.info["stages"] = diag.homotopy_stages
        span.info["escalations"] = diag.bandwidth_escalations


def _kernel_info(tracer, span, args, kwargs, out):
    prob = args[0]
    # bytes of the input arrays one evaluation reads: y, w, X and Zhat
    span.info["bytes"] = 8 * prob.n * (2 + 2 * prob.p)


def _fit_info(tracer, span, args, kwargs, out):
    tracer.fits.append((args[0], out))


def _boot_info(tracer, span, args, kwargs, out):
    reps = kwargs["reps"] if "reps" in kwargs else args[4]
    span.info["reps_failed"] = int(reps) - out.reps_used


_HOOKS = {
    "solve_see": lambda tracer, span, args, kwargs, out: _solve_info(span, args, kwargs, out, None),
    "see_residual": _kernel_info,
    "see_jacobian": _kernel_info,
    "fit": _fit_info,
    "bayesian_bootstrap": _boot_info,
}


def window_frac(prob, result) -> float:
    """Share of rows strictly inside the smoothing window at the solution."""
    v = prob.y - prob.X @ result.beta
    return float(np.mean(np.abs(v) < result.bandwidth.h_used))


def call_metrics(spans: list[Span], fits) -> dict:
    """Per-layer metrics of one top-level call from its spans and fits."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    del m["trace.overhead_s"]
    by_id = {s.id: s for s in spans}
    other = dict.fromkeys(by_id, 0.0)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.layer != s.layer:
            other[parent.id] += s.dur
    stages = 0
    rep_gaps = []
    rep_iters = []
    for s in spans:
        own = s.dur - other[s.id]
        f = s.func
        if f == "ingest_csv":
            m["cli.ingest_s"] += own
        elif f in ("render_table", "results_json"):
            m["cli.output_s"] += s.dur
        elif f == "build_problem":
            m["model.build_s"] += s.dur
        elif f == "project_instruments":
            m["projection.project_s"] += s.dur
        elif f == "iv_estimate":
            m["projection.iv_start_s"] += s.dur
            m["projection.iv_start_calls"] += 1
        elif f == "plug_in_bandwidth":
            m["bandwidth.plugin_s"] += s.dur
        elif f == "solve_see":
            info = s.info
            stages += info.get("stages", 0)
            m["solver.escalations"] += info.get("escalations", 0)
            if info["warm"]:
                m["solver.warm_s"] += own
                m["solver.warm_iters"] += info.get("iters", 0)
            else:
                m["solver.cold_s"] += own
                m["solver.cold_iters"] += info.get("iters", 0)
                m["solver.cold_stages"] += info.get("stages", 0)
            if s.name == "inference.solve_see":
                rep_iters.append(info.get("iters", 0))
                if "error" in info or info.get("stages", 0) > 1:
                    m["inference.rep_fallbacks"] += 1
                if info.get("h_used", info["h_request"]) != info["h_request"]:
                    m["inference.rep_escalated"] += 1
        elif f == "see_residual":
            m["solver.resid_evals"] += 1
            m["solver.resid_s"] += s.dur
            m["solver.kernel_mb_computed"] += s.info["bytes"] / 1e6
        elif f == "see_jacobian":
            m["solver.jac_evals"] += 1
            m["solver.jac_s"] += s.dur
            m["solver.kernel_mb_computed"] += s.info["bytes"] / 1e6
        elif f == "analytic_covariance":
            m["inference.analytic_s"] += s.dur
        elif f == "bayesian_bootstrap":
            m["inference.boot_s"] += s.dur
            m["inference.reps_failed"] += s.info.get("reps_failed", 0)
            ticks = [s.start] + s.info.get("ticks", [])
            rep_gaps.extend(b - a for a, b in zip(ticks, ticks[1:]))
        elif f == "generate":
            m["simulation.generate_s"] += s.dur
        elif s.name == "simulation.fit":
            m["simulation.fits"] += 1
    # every Newton iterate costs one Jacobian and one accepted residual, and
    # every stage one initial residual; the remaining residuals are backtracks
    m["solver.backtracks"] = m["solver.resid_evals"] - m["solver.jac_evals"] - stages
    if fits:
        m["solver.window_frac"] = float(np.mean([window_frac(p, r) for p, r in fits]))
    if rep_gaps:
        m["inference.rep_s.p50"] = statistics.median(rep_gaps)
        m["inference.rep_s.p90"] = float(np.quantile(rep_gaps, 0.9))
    if rep_iters:
        m["inference.rep_iters"] = float(np.mean(rep_iters))
    return m
