"""Count the source lines of the strictqst package.

For each module under src/strictqst, and in total, print the non-blank
lines and the non-blank lines outside docstrings (module, class and
function docstrings, found with the standard library's ast).  Comments
count as code.

    python tools/src_lines.py [package_dir]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "strictqst"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers (1-based) covered by every docstring in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(non-blank lines, non-blank lines outside docstrings) of one module."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    nonblank = [i for i, line in enumerate(text.splitlines(), 1) if line.strip()]
    return len(nonblank), sum(1 for i in nonblank if i not in docs)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else PACKAGE
    rows = [(str(p.relative_to(root)), *count(p)) for p in sorted(root.rglob("*.py"))]
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'non-blank':>9}  {'code':>6}")
    for name, nonblank, code in rows:
        print(f"{name:<{width}}  {nonblank:>9,}  {code:>6,}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>9,}  {sum(r[2] for r in rows):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
