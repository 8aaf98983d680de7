"""Count the code lines of Python files: lines that hold a token other than a
comment or a line break, outside docstrings.

    python3 tools/code_lines.py src/uavloc/*.py

prints one `<count> <path>` line per file and a last `<count> total` line.
A docstring is the string statement that opens a module, class or function
body; every line it spans is left out. A string that spans lines anywhere
else counts on each line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(paths) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        print(n, path)
        total += n
    print(total, "total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
