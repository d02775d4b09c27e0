"""Line counts of each ``src/hlvqe`` module: all lines, and code-only lines.

A code-only line holds part of a token that is not a comment, a line break,
indentation or a docstring, so blank lines, comment lines and docstring
lines drop out.  ``tokenize`` gives the tokens; ``ast`` gives the
docstrings, the string constant that opens a module, class or function
body, whose tokens are skipped (so ``def f(): "doc"`` still counts once).

    python tests/linecount.py            # every module of src/hlvqe
    python tests/linecount.py FILE...    # the given files

Pytest does not collect this file; ``test_linecount.py`` checks it.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "hlvqe")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree) -> list:
    """((line, col), (end line, end col)) of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def counts(text: str) -> tuple[int, int]:
    """(all lines, code-only lines) of the Python source ``text``."""
    docs = _docstrings(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in NOT_CODE or any(a <= tok.start and tok.end <= b for a, b in docs):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(paths) -> int:
    paths = paths or sorted(glob.glob(os.path.join(SRC, "*.py")))
    total = [0, 0]
    print(f"{'module':<16}{'all':>6}{'code':>6}")
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines, code = counts(fh.read())
        total[0] += lines
        total[1] += code
        print(f"{os.path.basename(path):<16}{lines:>6}{code:>6}")
    print(f"{'total':<16}{total[0]:>6}{total[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
