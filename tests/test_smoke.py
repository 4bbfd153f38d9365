"""Smoke checks: the public names resolve and every demo runs."""
from __future__ import annotations

import ast
import importlib.util
import shutil
from pathlib import Path

import pytest

import entdist

from child import python_child

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


def test_every_allclose_check_passes_rtol_and_refuses_nan():
    """Each ``assert_allclose`` call in ``tests/`` passes ``rtol`` and ``equal_nan=False``.

    numpy's defaults, rtol = 1e-7 and equal_nan=True, let an atol=1e-14
    check pass an entry 2.5e-8 off, and NaN against NaN.
    """
    bare = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "assert_allclose":
                keywords = {k.arg: ast.unparse(k.value) for k in node.keywords}
                if "rtol" not in keywords or keywords.get("equal_nan") != "False":
                    bare.append(f"{path.name}:{node.lineno}")
    assert bare == [], f"assert_allclose without rtol and equal_nan=False at {', '.join(bare)}"


DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    """Each demo runs from a copy of demos/, so its CSVs land under tmp_path.

    A numpy RuntimeWarning fails the demo, as ``pyproject.toml`` makes it fail the suite.
    """
    ignore = shutil.ignore_patterns("output")
    demos = shutil.copytree(ROOT / "demos", tmp_path / "demos", ignore=ignore)
    proc = python_child(
        ["-W", "error::RuntimeWarning", str(demos / demo)], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
