"""Count the lines of Python source under a directory, code-only and raw.

A code-only line holds at least one token that is not a comment, a blank
line or part of a docstring (a string that stands alone as a statement).
Usage: ``python tools/sloc.py [DIR ...]`` (default ``src/graphonlab``);
prints ``code raw path`` per file and a total line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """``(code-only, raw)`` line counts of one Python source text."""
    docs = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in docs)
    return len(code), len(text.splitlines())


def main(argv: list[str]) -> int:
    total_code = total_raw = 0
    for root in argv or ["src/graphonlab"]:
        for path in sorted(Path(root).rglob("*.py")):
            code, raw = count(path.read_text(encoding="utf-8"))
            total_code += code
            total_raw += raw
            print(f"{code:6d} {raw:6d} {path}")
    print(f"{total_code:6d} {total_raw:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
