"""List the lines of ``src/gainops`` that the fast test selection never runs.

Runs ``tests`` and ``bench/test_bench.py`` with ``-m "not slow"`` in this
process under a ``sys.settrace`` line tracer that records only frames of
``src/gainops``, then prints every line there that starts some bytecode but
never ran, as ``path:line: source``.  Tests that run the program in a child
process do not count.  Stdlib only; pytest does not collect this file.
From the repository root:

    PYTHONPATH=src python tests/unexecuted_lines.py

Arguments are passed on to pytest after the selection.  The exit status is
pytest's.

The stdlib ``trace.Trace`` is not used because its ignore cache is keyed by
a module's base name: once it has ignored some ``__init__.py`` under the
skipped site-packages, it ignores ``gainops/__init__.py`` too.
"""

from __future__ import annotations

import dis
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gainops"


def code_lines(path: Path) -> list[int]:
    """The line numbers at which some bytecode of the module, at any depth, starts a line."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return sorted(lines)


def run_traced(fn, *args):
    """fn(*args) with every line event of a ``src/gainops`` frame recorded; returns (result, {(path, line)})."""
    ran = set()
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, {(Path(f), line) for f, line in ran}


def main(argv: list[str]) -> int:
    import pytest  # gainops itself is first imported under the tracer, by the tests

    selection = [str(ROOT / "tests"), str(ROOT / "bench" / "test_bench.py"), "-m", "not slow", "-q", "-p", "no:cacheprovider"]
    status, ran = run_traced(pytest.main, [*selection, *argv])
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for line in code_lines(path):
            if (path, line) not in ran:
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
