"""Count the code lines of every Python module in a directory.

A code line holds a token other than a comment, NL, NEWLINE, INDENT, DEDENT
or ENDMARKER (a token spanning several lines holds each of them), and lies
outside every module, class and function docstring. Blank lines, comment
lines and docstrings therefore do not count.

Usage: python3 tools/code_lines.py [DIRECTORY]   (default: src/nefcert)

Prints one "module count" line per module, sorted by name, then the total.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one module."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    directory = Path(argv[1] if len(argv) > 1 else "src/nefcert")
    modules = sorted(directory.glob("*.py"))
    if not modules:
        print(f"no Python modules in {directory}", file=sys.stderr)
        return 1
    total = 0
    for path in modules:
        count = code_lines(path)
        total += count
        print(f"{path.stem} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
