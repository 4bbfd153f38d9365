"""The one way a test starts a child Python: entdist and the test modules importable."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import entdist

_PATH = [str(Path(entdist.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]


def python_child(args: list[str], env: dict[str, str] | None = None, start=subprocess.run, **kwargs):
    """``start([python, *args], **kwargs)``: ``start`` is ``subprocess.run`` or ``subprocess.Popen``.

    The child's environment is the parent's with ``env`` added, and
    PYTHONPATH led by the ``src`` that entdist was imported from and by
    this directory, which holds ``oracles``.
    """
    path = os.pathsep.join(filter(None, [*_PATH, os.environ.get("PYTHONPATH")]))
    return start([sys.executable, *args], env={**os.environ, **(env or {}), "PYTHONPATH": path}, **kwargs)
