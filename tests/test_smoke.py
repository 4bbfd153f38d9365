"""Smoke checks: the public names resolve, and every demo runs and writes the reference figures."""
from __future__ import annotations

import ast
import importlib.util
import shutil
from pathlib import Path

import pytest

import entdist

from child import python_child
from test_reference_csv import demo_output_faults

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


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """Every demo run once, in order, from one copy of demos/: the copy's output/ and each demo's process.

    A numpy RuntimeWarning fails the demo, as ``pyproject.toml`` makes it
    fail the suite.
    """
    tmp_path = tmp_path_factory.mktemp("demos")
    demos = shutil.copytree(ROOT / "demos", tmp_path / "demos", ignore=shutil.ignore_patterns("output"))
    procs = {
        demo: python_child(["-W", "error::RuntimeWarning", str(demos / demo)], cwd=tmp_path, capture_output=True, text=True)
        for demo in DEMOS
    }
    return demos / "output", procs


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, demo_runs):
    proc = demo_runs[1][demo]
    assert proc.returncode == 0, proc.stderr


def test_demos_write_the_reference_figures(demo_runs):
    """The CSVs the demos write, where ``test_reference_csv.demo_output_faults`` finds no fault."""
    output, procs = demo_runs
    assert [demo for demo, proc in procs.items() if proc.returncode != 0] == []
    assert demo_output_faults(output) == []
