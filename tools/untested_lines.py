"""Print the statement lines of src/graspsim functions that a pytest run never executes.

Usage, from the repository root (arguments go to pytest unchanged):

    python tools/untested_lines.py -q
    python tools/untested_lines.py -q tests/test_scene.py -k terrain

pytest runs in this process under ``sys.settrace`` (and ``threading.settrace``),
recording every line executed in a file of ``src/graspsim``.  The report lists,
per file, each statement inside a function (or method) whose first line never
ran, as ``path:line: source``.  Child processes (pooled sweeps, CLI and demo
runs) are not traced, so code that only they reach is listed too.  Tracing
slows the run several times, so the tests of ``UNTRACED``, which time
themselves against wall-clock floors, run last and with the trace suspended:
lines that only those tests reach are listed too.  The tool asserts nothing
and exits 0 whatever the tests do.  Standard library and pytest only.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graspsim"
# (file, test) of the wall-clock acceptance criteria 1, 7 and 10
UNTRACED = {("test_acceptance.py", name) for name in (
    "test_criterion_1_protocol_constants", "test_criterion_7_renderer",
    "test_criterion_10_end_to_end")}


class _SuspendTrace:
    """pytest plugin: runs the UNTRACED tests last, the call phase of each with
    no trace, so that what they would reach first (a cache's first fill, say)
    is reached traced by the other tests."""

    def __init__(self, trace):
        self.trace = trace

    def pytest_collection_modifyitems(self, items):
        items.sort(key=lambda item: (item.path.name, item.name) in UNTRACED)

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(self, item):
        if (item.path.name, item.name) not in UNTRACED:
            return (yield)
        sys.settrace(None)
        threading.settrace(None)
        try:
            return (yield)
        finally:
            threading.settrace(self.trace)
            sys.settrace(self.trace)


def _function_statements(tree: ast.AST) -> list:
    """(first line, last header line) of each statement inside a function,
    docstrings left out; a compound statement's header ends before its body."""
    spans = []

    def visit_body(body):
        for i, stmt in enumerate(body):
            if (i == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                continue                                   # a docstring runs no line
            children = [c for f in ("body", "orelse", "finalbody", "handlers")
                        for c in getattr(stmt, f, [])]
            end = min((c.lineno for c in children), default=stmt.end_lineno + 1) - 1
            spans.append((stmt.lineno, max(end, stmt.lineno)))
            for c in children:
                visit_body(c.body if isinstance(c, ast.excepthandler) else [c])

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit_body(node.body)
    return sorted(set(spans))


def main(argv: list) -> int:
    sources = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    executed = {name: set() for name in sources}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in executed else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        pytest.main(argv, plugins=[_SuspendTrace(on_call)])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name, path in sources.items():
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        ran = executed[name]
        missed = [first for first, last in _function_statements(ast.parse(text))
                  if not any(n in ran for n in range(first, last + 1))]
        for first in missed:
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
        total += len(missed)
    print(f"{total} statement lines in src/graspsim functions never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
