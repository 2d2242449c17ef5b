"""Count the code lines of Python modules: lines that hold a token other
than a comment, with docstrings and blank lines left out.

A docstring is the string-literal statement that opens a module, class or
function body (found with `ast`); the remaining lines come from
`tokenize`, so a line whose only tokens are comments or line breaks is not
counted, and a multi-line token counts each line it spans.

Usage: python tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them recursively; the
default is the `fcic` package beside this script.  Prints one
"<lines> <module>" row per file, its path relative to the working
directory, and then "<lines> total".  If the reader closes stdout early
(`| head -1`), it stops with exit status 1 and no traceback.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fcic"

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every docstring in `source`."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the module at `path`."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def modules(paths) -> list[Path]:
    """Every .py file named in `paths` or under a directory among them."""
    found = []
    for path in map(Path, paths):
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    counts = {path: code_lines(path) for path in modules(argv or [PACKAGE])}
    for path, count in counts.items():
        print(f"{count} {os.path.relpath(path)}")
    print(f"{sum(counts.values())} total")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head -1`): stop with no traceback, as
        # in the recipe of Python's `signal` docs; stdout goes to devnull so
        # the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
