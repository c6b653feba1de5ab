"""A pytest plugin that fails the run if a line of a ``soupkit`` module never runs.

Run the whole suite with it, so that the tracer is on before soupkit is imported::

    PYTHONPATH=src python -m pytest -p tests.line_coverage

It traces in-process only, with ``sys.settrace`` and ``threading.settrace``: a
line run only in a subprocess counts as never run.  A module's lines are those
its compiled code objects name, except the bodies of ``if TYPE_CHECKING:``,
which only type checkers read.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import threading
import types

import pytest

assert "soupkit" not in sys.modules, "line_coverage must load before soupkit is imported"
_spec = importlib.util.find_spec("soupkit")  # finds the package without importing it
_PACKAGE = _spec.submodule_search_locations[0]
_FILES = {os.path.join(_PACKAGE, name) for name in os.listdir(_PACKAGE) if name.endswith(".py")}
_ran: dict[str, set[int]] = {path: set() for path in _FILES}


def _trace(frame, event, arg):
    lines = _ran.get(frame.f_code.co_filename)
    if lines is None:
        return None

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace_lines

    return trace_lines


def _lines(path: str) -> set[int]:
    """The line numbers of ``path`` that compile to code, past ``if TYPE_CHECKING:`` bodies."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines, codes = set(), [compile(source, path, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            lines -= set(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return lines


sys.settrace(_trace)
threading.settrace(_trace)
_missed: dict[str, list[int]] = {}


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    for path in sorted(_FILES):
        missed = sorted(_lines(path) - _ran[path])
        if missed:
            _missed[path] = missed
    if _missed and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    for path, missed in _missed.items():
        terminalreporter.write_line(f"line_coverage: {path}: lines never run: {missed}", red=True)
    if not _missed:
        terminalreporter.write_line(f"line_coverage: every line of {len(_FILES)} modules in {_PACKAGE} ran")
