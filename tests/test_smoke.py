"""Smoke checks: the public names resolve and every demo runs."""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import entdist

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in entdist.__all__ if not hasattr(entdist, name)]
    assert missing == []


DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    """Each demo runs from a copy of demos/, so its CSVs land under tmp_path."""
    ignore = shutil.ignore_patterns("output")
    demos = shutil.copytree(ROOT / "demos", tmp_path / "demos", ignore=ignore)
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    proc = subprocess.run(
        [sys.executable, str(demos / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
