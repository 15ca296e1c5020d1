"""Code lines of the fpbprobe package, per module and in total.

A code line is a physical line that holds a token of a statement.  Blank
lines, comment lines and docstrings do not count; a docstring is the first
statement of a module, class or function when that statement is a string.
Each line of a statement continued over several lines counts, and so does
each line of a string literal that is not a docstring.

    python3 tools/code_lines.py [package directory, default src/fpbprobe]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions, as (line, column), of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src" / "fpbprobe")
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
