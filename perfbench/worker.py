"""One benchmark process: set up a workload, warm up, time calls, check outputs.

``run.py`` starts this script in a fresh interpreter for every measurement,
so each process pays import, input generation and warm-up once, and its
``ru_maxrss`` is the workload's own peak memory.  Modes:

- ``setup``: stop after the warm-up call and report ``setup_s`` only;
- ``untraced``: time calls for ``--seconds`` with the package as shipped;
- ``traced``: the same with the per-layer wrappers of ``tracer.py``
  installed.  Even-numbered calls are traced; odd-numbered calls pass
  through the installed wrappers without recording, so the traced and the
  untraced call times of ``trace.overhead_s`` come from the same process
  and the same minutes.  The spans are written to ``--spans``.

``setup_s`` runs from ``--t0`` (``time.monotonic()`` in the parent just
before it started this process) to the end of the warm-up call.  The result
is one JSON document written to ``--result``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import ivqr
from ivqr.exceptions import EstimationError

from tracer import Tracer, call_metrics
from workloads import WORKLOADS

MIN_CALLS = 3
MAX_FAILURE_MESSAGES = 5


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy's wheel, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def cache_sizes() -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = {k: Path(index, k).read_text().strip() for k in ("level", "type", "size")}
        except OSError:
            continue
        kind = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
        caches[f"L{fields['level']}{kind}"] = fields["size"]
    return caches


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ivqr": ivqr.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "caches_per_cpu0": cache_sizes(),
    }


class CallLog:
    """The calls of one process: timing, checks and per-layer metrics."""

    def __init__(self, wl, state, tracer):
        self.wl, self.state, self.tracer = wl, state, tracer
        self.attempted = self.failed = 0
        self.messages = []
        self.reference = None  # digest of the first call's output
        self.coef_errs = []
        self.layers = []

    def traced(self, i) -> bool:
        return self.tracer is not None and i % 2 == 0

    def call(self, i):
        """Make call ``i``; returns (raw output or None, error or None, seconds, spans)."""
        if self.traced(i):
            self.tracer.begin_call(i)
        start = time.perf_counter()
        try:
            raw, error = self.wl.call(self.state), None
        except EstimationError as exc:
            raw, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - start
        spans = self.tracer.end_call() if self.traced(i) else None
        return raw, error, dt, spans

    def record(self, i, raw, error, spans):
        """Check call ``i`` (untimed) and keep its per-layer metrics."""
        self.attempted += 1
        problems = [error] if error else []
        if raw is not None:
            fits = self.tracer.fits if self.traced(i) else []
            digest, checks, coef_err = self.wl.inspect(self.state, raw, fits, first=i == 0)
            problems += checks
            if coef_err is not None:
                self.coef_errs.append(coef_err)
            if i == 0:
                self.reference = digest
            elif digest != self.reference:
                problems.append("output differs from the first call of this process")
            if spans is not None and i > 0:
                self.layers.append(call_metrics(spans, fits))
        if problems:
            self.failed += 1
            self.messages.extend(f"call {i}: {p}" for p in problems)


def run(workload, seed, seconds, scale, mode, t0, out_dir, spans_path=None) -> dict:
    wl = WORKLOADS[workload]
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    calls = CallLog(wl, wl.setup(seed, scale, out_dir), tracer)

    raw, error, _, spans = calls.call(0)  # warm-up: untimed, but checked
    result = {"setup_s": time.monotonic() - t0}
    if mode == "setup":
        return result
    calls.record(0, raw, error, spans)

    durations = []  # untraced calls
    traced = []
    samples = [durations, traced] if tracer is not None else [durations]
    begin = time.perf_counter()
    i = 0
    while min(map(len, samples)) < MIN_CALLS or time.perf_counter() - begin < seconds:
        i += 1
        raw, error, dt, spans = calls.call(i)
        (traced if calls.traced(i) else durations).append(dt)
        calls.record(i, raw, error, spans)

    if tracer is not None and spans_path is not None:
        tracer.write(spans_path)
    result.update(
        calls=durations,
        traced_calls=traced,
        attempted=calls.attempted,
        failed=calls.failed,
        failures=calls.messages[:MAX_FAILURE_MESSAGES],
        digest=calls.reference,
        coef_err=statistics.median(calls.coef_errs) if calls.coef_errs else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine_info(),
    )
    if calls.layers:
        layers = calls.layers
        result["layers"] = {k: statistics.median(c[k] for c in layers) for k in layers[0]}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.scale, args.mode, args.t0,
                 Path(args.out_dir), args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
