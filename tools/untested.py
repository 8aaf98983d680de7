"""List the statements of src/uavloc that no test executes.

    python3 tools/untested.py [pytest arguments]

runs pytest in this process (on tests/ when no argument is given) under a
`sys.settrace` line tracer that follows only code in src/uavloc, then prints
one `<path>:<line>: <source>` line for each statement that never ran and a
last `<count> statements not executed` line. It exits with pytest's status.

Statements come from `ast`. Docstrings are left out, and so is `try` itself,
which runs no code of its own. A statement ran when a line event fell on its
header: from its first decorator or keyword to the line before its body, or
every line of a statement without a body. Code run in a subprocess is not
seen.
"""

from __future__ import annotations

import ast
import os
import sys

import pytest
from code_lines import docstring_lines

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "uavloc")
_NO_CODE = tuple(getattr(ast, name) for name in ("Try", "TryStar") if hasattr(ast, name))


def _first_line(node: ast.stmt) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def statements(source: str) -> list:
    """The (first, last) header lines of each statement in Python source
    text other than a docstring or a `try`, in line order."""
    tree = ast.parse(source)
    docs = docstring_lines(tree)
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, _NO_CODE) \
                and node.lineno not in docs:
            body = getattr(node, "body", None)
            last = max(node.lineno, _first_line(body[0]) - 1) if body else node.end_lineno
            spans.append((_first_line(node), last))
    return sorted(spans)


def unexecuted(source: str, ran: set) -> list:
    """First lines of the statements none of whose header lines is in ran."""
    return [first for first, last in statements(source)
            if ran.isdisjoint(range(first, last + 1))]


def _line_tracer(hits: set):
    """A local trace function that adds each line run to hits."""
    def local(frame, event, arg):
        if event == "line":
            hits.add(frame.f_lineno)
        return local
    return local


def main(argv) -> int:
    ran = {}  # path -> set of line numbers that ran
    # co_filename -> its file's local trace function, or None outside the
    # package; each is made once, so tracing adds no reference cycle per call
    followed = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in followed:
            path = os.path.realpath(name)
            followed[name] = (_line_tracer(ran.setdefault(path, set()))
                              if os.path.dirname(path) == PACKAGE else None)
        return followed[name]

    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
    missed = 0
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, fname)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        lines = source.splitlines()
        for first in unexecuted(source, ran.get(path, set())):
            print(f"{os.path.relpath(path, ROOT)}:{first}: {lines[first - 1].strip()}")
            missed += 1
    print(missed, "statements not executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
