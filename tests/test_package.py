"""Tests for the top-level ``ivqr`` namespace."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import ivqr
from ivqr.solver import solve_see

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert [name for name in ivqr.__all__ if not hasattr(ivqr, name)] == []


def test_readme_names_every_export():
    readme = (ROOT / "README.md").read_text()
    assert [name for name in ivqr.__all__ if f"`{name}`" not in readme] == []


def test_import_does_not_load_scipy_stats():
    # scipy.stats dominates import time; the package needs only scipy.special
    src = str(Path(ivqr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, ivqr; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # perfbench/tracer.py rebinds these module attributes and reads the
    # request bandwidth and warm start of solve_see from its positional args
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    missing = [
        f"{mod}.{attr}"
        for mod, attrs in tracer.TARGETS.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []
    assert list(inspect.signature(solve_see).parameters)[2:4] == ["h_request", "beta_init"]


def test_benchmark_workloads_pass_their_checks_at_tiny_scale(monkeypatch, tmp_path):
    # one warm-up call of each perfbench workload, with its full output checks
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    failed = {}
    for name, wl in workloads.WORKLOADS.items():
        state = wl.setup(5, "tiny", tmp_path)
        digest, failures, coef_err = wl.inspect(state, wl.call(state), [], first=True)
        if failures or not isinstance(digest, str) or not coef_err < float("inf"):
            failed[name] = failures
    assert failed == {}
