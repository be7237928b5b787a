"""Code lines of each module of a package, and their total.

    python3 tools/code_lines.py [DIR]

A code line holds a token that is not a comment and lies outside every
module, class and function docstring; blank lines, comment lines and
docstring lines are not code.  Each ``*.py`` file under DIR (default
``src/roundfold``) is printed as its module name and its code lines, one to
a line in name order, and then the total.  Only the standard library is
used.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of this Python source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0].value if node.body and isinstance(node.body[0], ast.Expr) else None
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(args: list[str] | None = None) -> int:
    args = sys.argv[1:] if args is None else args
    root = Path(args[0]) if args else ROOT / "src" / "roundfold"
    counts = {}
    for path in root.rglob("*.py"):
        name = path.relative_to(root).with_suffix("").as_posix().replace("/", ".")
        counts[name] = code_lines(path.read_text(encoding="utf-8"))
    for name in sorted(counts):
        print(f"{name} {counts[name]}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
