"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 -m pytest -q perfbench

It checks that ``BENCHMARK.json`` and ``metrics.py`` name the same metrics,
that every workload prints every metric with its unit in both trace modes,
that corrupted outputs trip the checks and turn into a non-zero exit, and
that the command fails without printing a result when the package is absent.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import ivqr.cli  # noqa: E402
import ivqr.estimate  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def _tiny(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table
    assert set(metrics.MOVES) == set(metrics.PER_LAYER)
    for targets, where in metrics.MOVES.values():
        assert set(targets) <= {*metrics.END_TO_END, *metrics.REPORT_ONLY}
        assert set(where) <= set(metrics.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = _tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    expected = metrics.END_TO_END if trace == 0 else metrics.PER_LAYER
    assert set(final["metrics"]) == set(expected)
    report = "\n".join(lines[:-1])
    for name, (unit, _) in expected.items():
        assert final["metrics"][name]["unit"] == unit
        assert isinstance(final["metrics"][name]["value"], float)
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}(\s|$)", report, re.M), name
    for name in ("fail_ratio", "coef_err"):
        assert re.search(rf"^\s+{name}\s+\S+ ", report, re.M)
    assert '"blas_threads": 1' in report


def test_corrupted_fit_output_trips_check(monkeypatch, tmp_path):
    fit = ivqr.estimate.fit

    def nudged(prob, **kwargs):
        res = fit(prob, **kwargs)
        beta = res.beta + 1e-4
        return type(res).from_covariance(beta, res.cov, res.bandwidth, res.solver, res.n_obs,
                                         res.vcov_kind, res.level)

    monkeypatch.setattr(ivqr.estimate, "fit", nudged)
    result = worker.run(metrics.FIT, 5, 0.0, "tiny", "untraced", time.monotonic(), tmp_path)
    assert result["failed"] >= 1
    assert any("smoothed residual" in m for m in result["failures"])


def test_nondeterministic_cli_json_trips_check(monkeypatch, tmp_path):
    results_json = ivqr.cli.results_json
    counter = iter(range(10**6))

    def drifting(*args, **kwargs):
        doc = results_json(*args, **kwargs)
        doc["seed"] += next(counter)
        return doc

    monkeypatch.setattr(ivqr.cli, "results_json", drifting)
    result = worker.run(metrics.CLI, 5, 0.0, "tiny", "untraced", time.monotonic(), tmp_path)
    assert result["failed"] == result["attempted"] - 1
    assert any("differs from the first call" in m for m in result["failures"])


def test_failed_check_gives_nonzero_exit(monkeypatch, capsys):
    def failing(args):
        values = {name: 1.0 for name in metrics.END_TO_END}
        extras = {"calls": 3, "attempted": 4, "failed": 1, "coef_err": 0.1,
                  "setup_samples": [1.0], "machine": {}}
        return values, extras, ["call 2: output differs from the first call of this process"]

    monkeypatch.setattr(run, "measure", failing)
    code = run.main(["--workload", metrics.FIT, "--seed", "1", "--seconds", "1"])
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert final["correct"] is False and final["failed"] == 1


def test_without_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _tiny(metrics.FIT, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
