"""List the executable lines of ``src/labelfuse`` that the test suite never runs.

    OPENBLAS_NUM_THREADS=1 python scripts/linecov.py [pytest options]

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``
(so merge worker threads count too), records every line of
``src/labelfuse/*.py`` that runs, and takes the executable lines of each
module from ``compile(...).co_lines()`` over every nested code object.  Prints
each line that never ran as ``file:line: source``, then the count, and exits 1
if pytest fails or a missed line is not in ``ALLOWED``.  An allowed line runs
only in a subprocess, which the trace cannot follow; its entry names the test
that runs it.
"""

from __future__ import annotations

import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "labelfuse"

# (file, stripped source line) -> the test that runs the line in a subprocess
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "tests/test_cli.py::test_console_script_entry",
}


def executable_lines(path: pathlib.Path) -> set[int]:
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    prefix = str(SRC) + "/"
    # id(code) -> (code, its lines not yet run).  Holding the code object keeps
    # its id unique, and a code object whose lines have all run is no longer
    # traced, which keeps timed tests near their untraced speed.
    seen: dict[int, tuple] = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        entry = seen.get(id(code))
        if entry is None:  # setdefault: two threads may meet a code object at once
            entry = seen.setdefault(id(code), (code, {n for _, _, n in code.co_lines() if n is not None}))
        left = entry[1]
        left.discard(frame.f_lineno)
        if not left:
            return None

        def local(frame, event, arg):
            if event == "line":
                left.discard(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = {(code.co_filename, n) for code, left in seen.values() for _, _, n in code.co_lines() if n is not None and n not in left}

    missed = unexplained = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - {n for f, n in ran if f == str(path)}):
            text = source[line - 1].strip()
            note = ALLOWED.get((path.name, text))
            print(f"{path.relative_to(ROOT)}:{line}: {text}" + (f"  [runs in {note}]" if note else ""))
            missed += 1
            unexplained += note is None
    print(f"{missed} executable lines never ran, {unexplained} of them not allowed")
    return 1 if status != 0 or unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
