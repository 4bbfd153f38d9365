"""Smoke checks: the public names resolve and the file-free demos run."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import entdist

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in entdist.__all__ if not hasattr(entdist, name)]
    assert missing == []


# demos 02-04 write their CSVs under demos/output; these two only print
@pytest.mark.parametrize("demo", ["01_measure_basics.py", "05_oracle_checks.py"])
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
