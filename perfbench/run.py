"""ivqr benchmark: one workload per invocation, every metric by name and unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit_ref_1e6 --seed 1 --seconds 12 --trace 0

Workloads (``metrics.WORKLOADS``; why each exists is in ``BENCHMARK.json``):
``cli_wages_1e5``, ``fit_ref_1e6``, ``boot_1e5`` and ``mc_grid_2e3``.  The
seed fixes every input; the package sees only the generated data.

Every measurement runs in a fresh process (``worker.py``) with the BLAS
thread count pinned to ``BLAS_THREADS``:

- ``--trace 0``: one untraced process times calls for ``--seconds``; two
  more processes only set up, and ``setup_s`` is the median of the three
  set-up times.  The final line carries the end-to-end metrics.
- ``--trace 1``: an untraced and a traced process time calls for half of
  ``--seconds`` each.  The final line carries the per-layer metrics of the
  traced process plus ``trace.overhead_s``, the median traced minus the
  median untraced call time, both taken from the traced process, which
  alternates the two.  The traced outputs must match the untraced
  process's bit for bit.

Above the final line the run prints a report: every metric with its unit,
the report-only metrics (``call_s.p90``, ``fail_ratio``, ``coef_err``), the
layer map, and a machine block.  A failed output check is counted in
``failed``, sets ``correct`` to false and makes the exit code 1.  A missing
package (``src/ivqr``) or a crashed worker exits with 2 and prints no
result.  Scratch files (CSV inputs, JSON outputs, span traces, worker
results) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, MOVES, PER_LAYER, WORKLOADS, unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Held fixed so both sides of any comparison use the same BLAS threading.
BLAS_THREADS = 1
SETUP_PROCESSES = 3
DEADLINE_S = 170.0
P90_MIN_CALLS = 100

# The largest working set is the n = 1e6 problem's input arrays (y, w, X and
# Zhat: 48 MB).  Where the reported L3 is larger, no workload can be shown to
# be bound by DRAM bandwidth, so kernel bytes stay "computed" from array sizes
# and are not set against a roofline.
CACHE_NOTE = ("reported L3 {l3} exceeds the largest working set (48 MB): kernel bytes are "
              "computed from array sizes, not set against a roofline")


class WorkerError(RuntimeError):
    pass


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def spawn(args, mode, seconds, deadline) -> dict:
    """Run one worker process to completion and return its result document."""
    tag = f"{args.workload}-{mode}"
    result_path = OUT / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # numpy takes only non-negative seeds
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed % 2**63), "--seconds", repr(seconds), "--scale", args.scale,
           "--mode", mode, "--out-dir", str(OUT), "--result", str(result_path)]
    if mode == "traced":
        cmd += ["--spans", str(OUT / f"{tag}.spans.jsonl")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{tag} worker exceeded the run deadline")
    if proc.returncode != 0:
        raise WorkerError(f"{tag} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text())


def measure(args) -> tuple[dict, dict, list[str]]:
    """Run the processes of one invocation; returns (metrics, extras, failures)."""
    deadline = time.monotonic() + DEADLINE_S
    failures = []
    if args.trace == 0:
        main = spawn(args, "untraced", args.seconds, deadline)
        setups = [main["setup_s"]]
        setups += [spawn(args, "setup", 0, deadline)["setup_s"] for _ in range(SETUP_PROCESSES - 1)]
        metrics = {
            "call_s.p50": statistics.median(main["calls"]),
            "peak_rss_mb": main["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        runs = [main]
    else:
        plain = spawn(args, "untraced", args.seconds / 2, deadline)
        traced = spawn(args, "traced", args.seconds / 2, deadline)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = (
            statistics.median(traced["traced_calls"]) - statistics.median(traced["calls"])
        )
        if traced["digest"] != plain["digest"]:
            # every traced call failed to reproduce the untraced output
            failures.append("traced outputs differ from untraced outputs")
            traced["failed"] = traced["attempted"]
        runs = [plain, traced]
        setups = None
    extras = {
        "calls": sum(len(r["calls"]) + len(r["traced_calls"]) for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "coef_err": runs[0]["coef_err"],
        "setup_samples": setups,
        "machine": dict(runs[0]["machine"], git_sha=git_sha(), seed=args.seed),
    }
    l3 = extras["machine"]["caches_per_cpu0"].get("L3")
    if l3:
        extras["machine"]["note"] = CACHE_NOTE.format(l3=l3)
    plain_calls = runs[0]["calls"]
    if len(plain_calls) >= P90_MIN_CALLS:
        extras["call_s.p90"] = statistics.quantiles(plain_calls, n=10)[-1]
    for r in runs:
        failures += r["failures"]
    return metrics, extras, failures


def report(args, metrics, extras, failures):
    w = sys.stdout.write
    w(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  scale {args.scale}\n")
    for name, value in metrics.items():
        w(f"  {name:<28} {value:.6g} {unit(name)}\n")
    if "call_s.p90" in extras:
        w(f"  {'call_s.p90':<28} {extras['call_s.p90']:.6g} {unit('call_s.p90')}\n")
    ratio = extras["failed"] / extras["attempted"]
    w(f"  {'fail_ratio':<28} {ratio:.6g} {unit('fail_ratio')}"
      f"  ({extras['failed']} of {extras['attempted']} calls)\n")
    if extras["coef_err"] is not None:
        w(f"  {'coef_err':<28} {extras['coef_err']:.6g} {unit('coef_err')}\n")
    w(f"  timed calls: {extras['calls']}\n")
    if extras["setup_samples"]:
        w("  setup samples (s): " + ", ".join(f"{s:.4f}" for s in extras["setup_samples"]) + "\n")
    if args.trace == 1:
        w("layer map (per-layer metric -> end-to-end metrics it should move, on which workloads):\n")
        for name, (targets, where) in MOVES.items():
            w(f"  {name:<28} -> {', '.join(targets)} on {', '.join(where)}\n")
    w("machine: " + json.dumps(extras["machine"], sort_keys=True) + "\n")
    for f in failures:
        w(f"check failed: {f}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ivqr" / "__init__.py").is_file():
        sys.stderr.write(f"error: the ivqr package is missing under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        metrics, extras, failures = measure(args)
    except WorkerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    expected = END_TO_END if args.trace == 0 else PER_LAYER
    correct = extras["failed"] == 0
    report(args, metrics, extras, failures)
    line = {
        "correct": correct,
        "attempted": extras["attempted"],
        "failed": extras["failed"],
        "metrics": {k: {"value": metrics[k], "unit": unit(k)} for k in expected},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
