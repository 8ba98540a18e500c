"""Print the AST code count of Python sources: per path, then in total.

    python3 tools/code_lines.py src/ttpar tests

A line counts when it is not blank, carries a token other than a comment,
and lies outside every docstring.  A docstring is a string constant that is
the first statement of a module, class or function.  A directory counts the
``*.py`` files below it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> list:
    """``(start, end)`` positions of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count(source: str) -> int:
    """The code count of one module's source text."""
    spans = _docstrings(ast.parse(source))
    lines = source.splitlines()
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return sum(1 for row in rows if lines[row - 1].strip())


def count_path(path: Path) -> int:
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(count(f.read_text(encoding="utf-8")) for f in files)


def main(argv: list) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for arg in argv:
        n = count_path(Path(arg))
        total += n
        print(f"{n:8d}  {arg}")
    print(f"{total:8d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
