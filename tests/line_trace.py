"""Name every statement of a function in src/entdist that the tier-1 suite never runs.

The tier-1 suite runs in this process under ``sys.settrace`` and
``threading.settrace``, with line events only in frames whose file is a
module of the ``entdist`` package imported here.  A statement of a
function body, nested functions included and docstrings aside, counts as
run when any line of its own (its header, for an ``if``, ``for`` or
other compound statement) saw a line event.  Code that runs only in a
child process, such as a ``python -m entdist.cli`` the suite starts,
is not seen.

Run as a script:

    PYTHONPATH=src python tests/line_trace.py

It prints ``file:line`` for each statement never run and exits 1 if
there is any, and exits with pytest's own code if the suite fails.
"""
from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

import entdist

PACKAGE = Path(entdist.__file__).parent
TESTS = Path(__file__).resolve().parent


def _own_lines(stmt: ast.stmt) -> range:
    """The lines that are the statement's own: a compound statement's header, a simple statement's whole span."""
    body = getattr(stmt, "body", None)
    last = body[0].lineno - 1 if body else stmt.end_lineno
    return range(stmt.lineno, max(stmt.lineno, last) + 1)


def _statements(source: str) -> list[ast.stmt]:
    """Every statement in a function body of ``source``, a docstring excepted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack = node.body[1:] if ast.get_docstring(node, clean=False) is not None else list(node.body)
            while stack:
                stmt = stack.pop()
                found.append(stmt)
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    for name in ("body", "orelse", "finalbody"):
                        stack.extend(getattr(stmt, name, []))
                    for part in getattr(stmt, "handlers", []):
                        stack.extend(part.body)
    return found


def main() -> int:
    files = {str(path): path for path in PACKAGE.glob("*.py")}
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    threading.settrace(start)
    sys.settrace(start)
    try:
        code = pytest.main(["-q", str(TESTS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        return int(code)
    unrun = [
        f"{path.relative_to(PACKAGE.parent.parent)}:{stmt.lineno}"
        for name, path in sorted(files.items())
        for stmt in sorted(_statements(path.read_text(encoding="utf-8")), key=lambda s: s.lineno)
        if ran[name].isdisjoint(_own_lines(stmt))
    ]
    for line in unrun:
        print(f"never run: {line}")
    print(f"{len(unrun)} statements of src/entdist never run under the tier-1 suite")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
