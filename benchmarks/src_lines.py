"""Line counts of each ``src/bandalloc`` module, split by kind.

Usage, from the root of a checkout:

    python3 benchmarks/src_lines.py [--src DIR]

Prints one row per module and a total row: all lines (as ``wc -l`` counts
them), then code, docstring, comment and blank lines, which add up to the
total. A docstring line is a line of the string that opens a module, class
or function (``ast``); a comment line holds a comment and nothing else, and a
blank line holds nothing (``tokenize``); every other line is code, including
a line of code with a trailing comment and the blank lines inside a
multi-line string that is not a docstring. ``wc -l`` alone counts a deleted
docstring or comment as less code; the code column does not. ``--src`` names
the directory that holds ``bandalloc`` (default: this checkout's ``src``).
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_KINDS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of the module, class and function docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> dict[str, int]:
    """The line counts of one module's ``source``, by kind."""
    docstrings = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                                tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    total = len(source.splitlines())
    code -= docstrings
    comments -= code | docstrings
    row = {"total": total, "code": len(code), "docstring": len(docstrings), "comment": len(comments)}
    row["blank"] = total - row["code"] - row["docstring"] - row["comment"]
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="line counts of the bandalloc modules, by kind")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory that holds bandalloc")
    args = parser.parse_args(argv)
    rows = {path.stem: counts(path.read_text())
            for path in sorted((Path(args.src) / "bandalloc").glob("*.py"))}
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in _KINDS}
    print(f"{'module':<12}" + "".join(f"{kind:>10}" for kind in _KINDS))
    for name, row in rows.items():
        print(f"{name:<12}" + "".join(f"{row[kind]:>10}" for kind in _KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
