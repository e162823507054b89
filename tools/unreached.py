"""List the function-body lines of ``src/tuneforge`` that a test run never executes.

    python3 tools/unreached.py [pytest arguments ...]

Run from the repository root. It runs pytest in this process (with no
arguments, the whole suite under ``tests/``) with a ``sys.settrace`` tracer
that records the lines executed in frames whose code lives under
``src/tuneforge``. The tracer is armed before ``tuneforge`` is imported and
again before each test, since a test may replace or clear it. Apart from
pytest it uses the standard library only: no coverage package.

A function-body line is a line that holds bytecode of a function, method,
lambda or comprehension of the package (``code.co_lines``), other than the
line that opens it (``def`` or its first decorator). Module and class bodies
run at import and are not counted.

After pytest's own output it prints one line per unreached line,
``module.py:line  source``, sorted by module file name and line number, then
the count ``unreached: N of M function-body lines``, then the tests during
which the tracer stopped, one ``tracing stopped in <test id>`` line each:
CPython removes a trace function that raises, as one does when a test's code
reaches the recursion limit, so the lines such a test runs after that point
are not counted. The exit status is pytest's.

Code run in another process is not counted: the tests that run the CLI in a
subprocess reach lines that this list may name. The tests in ``UNTRACED``
run with the tracer off, since the frame objects a tracer keeps alive form
the reference cycles they count; lines only they reach are listed too.
"""

from __future__ import annotations

import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tuneforge")
UNTRACED = ("test_pipelines_sessions_and_replays_leave_no_reference_cycle",
            "test_reads_and_writes_leave_no_reference_cycle")
_CO_OPTIMIZED = 0x1  # set on function code, not on module or class bodies


def body_lines(path: str) -> set[int]:
    """The function-body lines of one source file."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines: set[int] = set()
    todo = [code]
    while todo:
        co = todo.pop()
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
        if co.co_flags & _CO_OPTIMIZED:
            lines.update(line for _, _, line in co.co_lines()
                         if line is not None and line != co.co_firstlineno)
    return lines


class _Tracer:
    """A pytest plugin that records, per file of ``sources``, the lines run in
    it (``hits``), and the tests during which the tracer stopped."""

    def __init__(self, sources: list[str]):
        hits: dict[str, set[int]] = {path: set() for path in sources}

        def trace_lines(frame, event, arg):
            if event == "line":
                hits[frame.f_code.co_filename].add(frame.f_lineno)
            return trace_lines

        def trace_calls(frame, event, arg):
            return trace_lines if frame.f_code.co_filename in hits else None

        self.hits, self.stopped, self._trace_calls = hits, [], trace_calls

    def arm(self, on: bool) -> None:
        """Trace the calls this thread and every thread started later make, or stop."""
        threading.settrace(self._trace_calls if on else None)
        sys.settrace(self._trace_calls if on else None)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        self.arm(True)
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        traced = item.name not in UNTRACED
        self.arm(traced)
        yield
        if traced and sys.gettrace() is None:
            self.stopped.append(item.nodeid)
        self.arm(True)


def main(args: list[str]) -> int:
    sources = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                     if name.endswith(".py"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = _Tracer(sources)
    tracer.arm(True)
    try:
        status = pytest.main(args, plugins=[tracer])
    finally:
        tracer.arm(False)
    total = unreached = 0
    for path in sources:
        body = body_lines(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        total += len(body)
        for line in sorted(body - tracer.hits[path]):
            unreached += 1
            print(f"{os.path.basename(path)}:{line}  {text[line - 1].strip()}")
    print(f"unreached: {unreached} of {total} function-body lines")
    for nodeid in tracer.stopped:
        print(f"tracing stopped in {nodeid}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
