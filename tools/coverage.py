"""Statement coverage of src/qmit by the tier-1 tests, traced in process.

Runs the tier-1 command, `pytest -q --continue-on-collection-errors`, with
any arguments given, in this interpreter under `sys.settrace` and
`threading.settrace`. Then it prints one line per module of src/qmit: the
statements that ran, the statements in the module, and the first line of
each statement that did not run.

A statement is an `ast` statement other than a docstring, `global` or
`nonlocal`. It ran if a line event fired on one of its own lines: all of
them for a simple statement, the header (decorators included) for a
compound one. Tests that run qmit in a subprocess are not traced, so lines
that only those tests reach count as missed.

Run it from anywhere with `python tools/coverage.py` (stdlib and pytest
only; not a CI step). It exports PYTHONPATH=src, as the tier-1 command
does, so that the subprocess tests find qmit. Exit status is pytest's.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmit"
_BODIES = ("body", "handlers", "orelse", "finalbody")


def statements(source: str) -> dict[int, range]:
    """First line -> own lines, for every statement but docstrings."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.add(node.body[0])
    own = {}
    for node in ast.walk(tree):
        # a global or nonlocal declaration runs no code
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if node in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        nested = [child.lineno for name in _BODIES for child in getattr(node, name, ())]
        last = min(nested) - 1 if nested else node.end_lineno
        own[first] = range(first, max(last, node.lineno) + 1)
    return own


def main(argv: list[str]) -> int:
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    # this script's directory would shadow any module named `coverage`
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [src] + [p for p in sys.path if os.path.abspath(p or ".") != here]
    os.chdir(ROOT)
    prefix = str(PACKAGE) + os.sep
    hits: set[tuple[str, int]] = set()

    def line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_run = total = 0
    print("%-16s %5s %5s  %s" % ("module", "run", "stmts", "missed (first lines)"))
    for path in sorted(PACKAGE.glob("*.py")):
        own = statements(path.read_text(encoding="utf-8"))
        lines = {n for f, n in hits if f == str(path)}
        missed = [first for first, span in sorted(own.items()) if lines.isdisjoint(span)]
        total_run += len(own) - len(missed)
        total += len(own)
        print("%-16s %5d %5d  %s" % (path.name, len(own) - len(missed), len(own),
                                    ", ".join(map(str, missed))))
    print("%-16s %5d %5d" % ("total", total_run, total))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
