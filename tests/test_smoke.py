"""Smoke checks: the public names resolve and every demo runs."""
from __future__ import annotations

import importlib.util
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


def test_benchmark_trace_targets_resolve():
    """Each name the traced benchmark run wraps exists, and each class keeps its own __post_init__.

    ``perfbench/tracing.py`` imports only the standard library, so it loads by path.
    """
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    broken = []
    for module, attr in tracing.TARGETS:
        target = getattr(importlib.import_module(module), attr, None)
        if target is None or (isinstance(target, type) and "__post_init__" not in vars(target)):
            broken.append(f"{module}.{attr}")
    assert tracing.TARGETS and broken == []


DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    """Each demo runs from a copy of demos/, so its CSVs land under tmp_path.

    A numpy RuntimeWarning fails the demo, as ``pyproject.toml`` makes it fail the suite.
    """
    ignore = shutil.ignore_patterns("output")
    demos = shutil.copytree(ROOT / "demos", tmp_path / "demos", ignore=ignore)
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demos / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
