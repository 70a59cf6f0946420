"""List the statements of ``src/sbseries`` that no test reaches.

Runs pytest in this process with a line tracer installed around the
collection, which imports the package, and around the setup and the call of
each test, then prints each function-body statement of ``src/sbseries`` that
never ran, as ``file:line: text``, and their count.  A statement counts as
reached when any line of its own text ran (for a compound statement, the
lines before its body).  Statements at module or class level are not listed.

The tracer is installed anew for each test phase, because a test may
replace it: Hypothesis traces its examples with ``sys.settrace`` and
clears the tracer when it is done.

Usage::

    python tools/untested_lines.py [PYTEST_ARGS ...]

The arguments go to pytest as given; with none it runs the whole suite.
The exit status is pytest's.  Tracing makes the tests run several times
slower than usual.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest
from code_lines import docstring_lines

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sbseries"


def body_statements(source: str) -> list[tuple[int, int]]:
    """The (first, last) lines of every statement inside a function body,
    docstrings left out; a compound statement spans the lines before its
    body, decorators included."""
    tree = ast.parse(source)
    docs = docstring_lines(tree)
    spans = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.stmt) or sub.lineno in docs:
                    continue
                start = min([sub.lineno] + [d.lineno for d in
                                            getattr(sub, "decorator_list", ())])
                body = getattr(sub, "body", None)
                end = body[0].lineno - 1 if body else sub.end_lineno
                spans.add((start, max(start, end)))
    return sorted(spans)


class LineTracer:
    """A pytest plugin that records the lines of ``src/sbseries`` run while
    the tests are collected, and while each is set up and called."""

    def __init__(self, files: set[str]):
        self.files = files
        self.hits: set[tuple[str, int]] = set()

    def trace(self, frame, event, arg):
        return self.trace_lines if frame.f_code.co_filename in self.files else None

    def trace_lines(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self.trace_lines

    def traced(self):
        sys.settrace(self.trace)
        try:
            return (yield)
        finally:
            sys.settrace(None)

    @pytest.hookimpl(wrapper=True)
    def pytest_collection(self, session):
        return (yield from self.traced())

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_setup(self, item):
        return (yield from self.traced())

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(self, item):
        return (yield from self.traced())


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC.parent))
    paths = {str(path): path for path in sorted(SRC.glob("*.py"))}
    tracer = LineTracer(set(paths))
    status = pytest.main(argv[1:], plugins=[tracer])
    missed = 0
    for name, path in paths.items():
        lines = path.read_text(encoding="utf-8").splitlines()
        for start, end in body_statements("\n".join(lines)):
            if not any((name, line) in tracer.hits for line in range(start, end + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{start}: {lines[start - 1].strip()}")
    print(f"{missed} statements reached by no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
