#!/usr/bin/env python3
"""Count the code lines of the lqu package, per module and in total.

A code line is a line of src/lqu/*.py that holds a token other than a
comment, a newline or indentation, and that lies outside every module,
class and function docstring. Blank lines, comment lines and docstrings
are not counted; a line of a multi-line expression or string is.

Usage: python scripts/count_code_lines.py (it counts the src/lqu of its own checkout).
"""

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lqu"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """The number of code lines in one Python source file."""
    source = path.read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main()
