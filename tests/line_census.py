"""Line census: the executable lines of `holderlab` that a pytest run never
executes.

An opt-in pytest plugin built on the standard library's `sys.settrace`, for
environments without the `coverage` package.  Pytest does not collect this
file (its name does not match `test_*.py`), so a plain `pytest` run never
loads it.  Load it by name:

    PYTHONPATH=src:tests python -m pytest -p line_census

It traces the pytest process and the threads it starts, not subprocesses,
so a line that only a CLI subprocess test reaches counts as never run.  The
executable lines of a module are the line numbers its compiled code objects
map instructions to (`co_lines`), so a docstring or a comment never counts,
and a `def` or `class` line counts once its definition runs.  The census
ends the terminal report with one line per module and the lines that never
ran, as ranges.  Tracing makes the suite about three times slower.
"""

from __future__ import annotations

import collections
import importlib.util
import os
import sys
import threading
from pathlib import Path

import pytest

_PACKAGE = "holderlab"


def _package_dir() -> Path:
    # find_spec locates the package without importing it, so its module
    # level code runs under the tracer
    spec = importlib.util.find_spec(_PACKAGE)
    return Path(next(iter(spec.submodule_search_locations))).resolve()


_DIR = _package_dir()
_hits = collections.defaultdict(set)    # module path -> executed lines
_paths = {}     # co_filename -> resolved path inside the package, or None


def _module_of(filename):
    if filename not in _paths:
        path = Path(os.path.realpath(filename))
        _paths[filename] = str(path) if path.parent == _DIR else None
    return _paths[filename]


def _trace_call(frame, event, arg):
    key = _module_of(frame.f_code.co_filename)
    if key is None:
        return None
    lines = _hits[key]
    lines.add(frame.f_lineno)

    def trace_line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace_line
    return trace_line


def _executable(path: Path) -> set:
    code = compile(path.read_text(), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines) -> str:
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # before the conftests import the package
    threading.settrace(_trace_call)
    sys.settrace(_trace_call)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.section("line census")
    total = missed = 0
    for path in sorted(_DIR.glob("*.py")):
        lines = _executable(path)
        never = lines - _hits.get(str(path), set())
        total += len(lines)
        missed += len(never)
        terminalreporter.write_line(
            f"{path.name}: {len(never)} of {len(lines)} never ran"
            + (f": {_ranges(never)}" if never else ""))
    terminalreporter.write_line(
        f"{_PACKAGE}: {missed} of {total} executable lines never ran")
