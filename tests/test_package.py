"""Tests for the top-level ``ivqr`` namespace."""

import os
import subprocess
import sys
from pathlib import Path

import ivqr


def test_every_exported_name_resolves():
    assert [name for name in ivqr.__all__ if not hasattr(ivqr, name)] == []


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
