"""List the statements of the strictqst package that a pytest run never executes.

Runs pytest in this process with the given arguments (default: the whole
suite, quietly) under a sys.settrace line tracer, then prints, for each
module under src/strictqst, its statements that no line event reached,
with the statement's first source line.  Statements come from the
standard library's ast; docstrings, and global / nonlocal declarations
(which compile to no code), are left out.  A statement counts as run when
a line event fires anywhere in its header: from its first decorator to
the line before its body for a compound statement, its whole span
otherwise.  A try statement counts as run when its body does.  Code run
in subprocesses is not traced.  No coverage package is needed; tracing
roughly doubles the suite's wall time.

    python tools/uncovered.py [pytest arguments]

The exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

from src_lines import PACKAGE, docstring_lines

sys.path.insert(0, str(PACKAGE.parent))


def statements(path: Path) -> list[tuple[int, int, ast.stmt]]:
    """(first line, last header line, node) of every traceable statement
    of one module, in source order."""
    tree = ast.parse(path.read_text())
    docs = docstring_lines(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node.lineno in docs or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out.append((first, max(first, last), node))
    return sorted(out, key=lambda item: item[0])


def never_ran(stmts, ran: set[int]) -> list[tuple[int, ast.stmt]]:
    """The (first line, node) of each statement with no line event in its header."""
    done = {id(node) for first, last, node in stmts if any(i in ran for i in range(first, last + 1))}
    for first, last, node in stmts:  # a try runs when its body does
        if isinstance(node, ast.Try) and id(node.body[0]) in done:
            done.add(id(node))
    return [(first, node) for first, _, node in stmts if id(node) not in done]


def main(argv: list[str]) -> int:
    import pytest

    modules = {os.path.realpath(p): p for p in sorted(PACKAGE.rglob("*.py"))}
    ran = {name: set() for name in modules}
    keys = {}  # co_filename -> its set in ran, or None outside the package

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in keys:
            keys[name] = ran.get(os.path.realpath(name))
        lines = keys[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for name, path in modules.items():
        lines = path.read_text().splitlines()
        stmts = statements(path)
        missed = never_ran(stmts, ran[name])
        total += len(missed)
        print(f"{path.relative_to(PACKAGE)}: {len(missed)} of {len(stmts)} statements never ran")
        for first, _ in missed:
            print(f"  {first:>4}  {lines[first - 1].strip()}")
    print(f"total: {total} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
