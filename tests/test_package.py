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


# imports the package, runs a plug-in, a bootstrap and a fixed-bandwidth fit,
# a plug-in fit large enough for the subsample start, a fit on the
# random-coefficient design, a fit with collinear instruments and a CLI run,
# then lists every scipy and numpy.ma module loaded
NO_SCIPY_SCRIPT = """
import sys
import numpy as np
import ivqr, ivqr.cli, ivqr.simulation
from ivqr.exceptions import RankDeficientError
from ivqr.solver import SUBSAMPLE_MIN_ROWS
prob, _ = ivqr.simulation.generate(ivqr.simulation.reference_dgp(300, 4), 0.3)
for kwargs in ({}, {"reps": 20}, {"bandwidth": 0.3}):
    ivqr.fit(prob, **kwargs).ci
prob, _ = ivqr.simulation.generate(
    ivqr.simulation.reference_dgp(SUBSAMPLE_MIN_ROWS, 4), 0.3)
ivqr.fit(prob).ci
prob, _ = ivqr.simulation.generate(
    ivqr.simulation.DgpSpec(kind=ivqr.simulation.RANDOM_COEFFICIENT, n=300, seed=4), 0.3)
ivqr.fit(prob).ci
z = prob.Z[:, 0]
try:
    ivqr.fit(ivqr.build_problem(prob.y, raw_endog=prob.X[:, 0], raw_instr=np.column_stack(
        [z, 2 * z]), quantile=0.3))
except RankDeficientError:
    pass
else:
    raise SystemExit("collinear instruments were accepted")
rng = np.random.default_rng(5)
z, e = rng.normal(size=(2, 300))
d = z + e
np.savetxt(sys.argv[1], np.column_stack([1 + d + e + rng.normal(size=300), d, z]),
           delimiter=",", header="y,d,z", comments="")
code = ivqr.cli.main(["--data", sys.argv[1], "--y", "y", "--endog", "d", "--iv", "z",
                      "--quantile", "0.3", "--json", sys.argv[2]])
print(code, sorted(m for m in sys.modules if m.startswith("scipy")),
      sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_import_and_fits_load_no_scipy_or_numpy_ma(tmp_path):
    # the package runs on numpy alone: scipy, which costs more to load than
    # the package, is a test dependency.  np.quantile's first call imports
    # numpy.ma, which bandwidth.quartiles never calls
    src = str(Path(ivqr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path / "in.csv"),
         str(tmp_path / "out.json")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 [] []"
    assert (tmp_path / "out.json").stat().st_size > 0


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
