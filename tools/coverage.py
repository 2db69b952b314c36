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

Every missed statement must be in ALLOWED_MISSES, keyed by module and the
statement's first line of source, so that the key survives edits elsewhere.

Run it from anywhere with `python tools/coverage.py` (stdlib and pytest
only); CI runs it on Python 3.11, after the mutation census. It exports
PYTHONPATH=src, as the tier-1 command does, so that the subprocess tests
find qmit. Exit status is pytest's if that is not 0, else 1 if a statement
outside ALLOWED_MISSES was missed, else 0.
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

# (module, first line of the statement, stripped): why no test runs it in process
ALLOWED_MISSES = {
    ("circuits.py", "import numpy as np"): "imported for type checkers only",
    ("cli.py", "sys.exit(main())"): "the `python -m qmit.cli` entry, run by subprocess tests",
    ("noise.py", 'raise ValueError("state purity too small for virtual distillation")'):
        "Tr rho^2 >= (Tr rho)^2 / 2^n >= 2^-10 for any DensityMatrix",
    ("noise.py", 'raise RuntimeError("nnls did not converge")'):
        "the pivoting rule terminates (Portugal, Judice & Vicente); the cap only bounds the loop",
}


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
    unexpected = []
    print("%-16s %5s %5s  %s" % ("module", "run", "stmts", "missed (first lines)"))
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        own = statements(source)
        lines = {n for f, n in hits if f == str(path)}
        missed = [first for first, span in sorted(own.items()) if lines.isdisjoint(span)]
        text = source.splitlines()
        unexpected += ["%s:%d" % (path.name, first) for first in missed
                       if (path.name, text[first - 1].strip()) not in ALLOWED_MISSES]
        total_run += len(own) - len(missed)
        total += len(own)
        print("%-16s %5d %5d  %s" % (path.name, len(own) - len(missed), len(own),
                                    ", ".join(map(str, missed))))
    print("%-16s %5d %5d" % ("total", total_run, total))
    if unexpected:
        print("missed outside ALLOWED_MISSES: %s" % ", ".join(unexpected))
    return int(status) or (1 if unexpected else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
