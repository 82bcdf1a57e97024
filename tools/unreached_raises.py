"""List every ``raise`` statement of the library that no tier-1 test runs.

Runs the test suite in this process (``tests`` and ``perfbench``, without
the c07 convergence test, which takes half the suite's time) under a
stdlib line tracer installed with ``sys.settrace`` and
``threading.settrace``, then prints each ``raise`` statement under
``src/`` whose line never ran, as ``path:line: source``, and their count.
A check that no test reaches is either dead or untested.

    PYTHONPATH=src python tools/unreached_raises.py [pytest args...]

Extra arguments go to pytest after the defaults.  Exits 1 if a raise
went unreached or the tests failed, else 0.  Only the lines of the
library's own frames are recorded, so the suite runs about twice as
slowly as untraced.  A line counts as run when any of it ran: a raise
that shares its line with another statement (``if bad: raise ...``)
would count as run with it; the finder names such raises.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
C07 = "tests/test_acceptance.py::test_c07_convergence_rate"


def raise_lines(source: str) -> list[int]:
    """The first line of every ``raise`` statement in ``source``, in order."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise))


def shared_lines(source: str) -> list[int]:
    """The lines of ``raise_lines`` on which another statement also starts
    (a one-line ``if bad: raise ...``): running the line may skip the raise."""
    starts = Counter(node.lineno for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.stmt))
    return [line for line in raise_lines(source) if starts[line] > 1]


def _tracer(files: set[str], ran: set[tuple[str, int]]):
    """A global trace function recording the (file, line) pairs run in ``files``."""

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    return global_


def main(argv=None) -> int:
    sys.path.insert(0, str(SRC))  # the library's frames then carry these absolute paths
    import pytest

    sources = {str(path): path.read_text() for path in sorted(SRC.rglob("*.py"))}
    ran: set[tuple[str, int]] = set()
    tracer = _tracer(set(sources), ran)
    args = ["-q", "-p", "no:cacheprovider", "--deselect", C07,
            str(ROOT / "tests"), str(ROOT / "perfbench")]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args + list(sys.argv[1:] if argv is None else argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unreached = []
    for path, source in sources.items():
        name, lines = Path(path).relative_to(ROOT), source.splitlines()
        unreached += [f"{name}:{line}: {lines[line - 1].strip()}"
                      for line in raise_lines(source) if (path, line) not in ran]
        for line in shared_lines(source):
            print(f"note: {name}:{line} shares its line with another statement, "
                  "so it may count as run when it was not")
    for line in unreached:
        print(line)
    print(f"{len(unreached)} raise statement(s) in src/ that no test ran")
    if status != 0:
        print(f"the tests did not pass (pytest exit code {int(status)})")
    return 1 if unreached or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
