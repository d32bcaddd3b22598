"""Print the size of the nlgc package's source, per module and in total.

Usage: python tools/src_lines.py [FILE ...]

With no argument it reads src/nlgc/*.py. One row per module gives its raw
line count and splits it into four kinds, which add up to the raw count:

- docstring: a line of a module, class or function docstring
- executable: any other line that holds a token of code
- comment: a line whose only token is a comment
- blank: a line with no token, outside a docstring

Docstrings are found with ast, the other kinds with tokenize. The script
only measures; it exits 0 whatever the sizes are.
"""
from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("raw", "executable", "docstring", "comment", "blank")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The raw line count of source and its split into the four kinds."""
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    docs = docstring_lines(ast.parse(source))
    raw = len(source.splitlines())
    executable = len(code - docs)
    comment = len(comments - code - docs)
    return {"raw": raw, "executable": executable, "docstring": len(docs), "comment": comment,
            "blank": raw - executable - len(docs) - comment}


def main(paths: list[str]) -> int:
    paths = paths or sorted(glob.glob(os.path.join(ROOT, "src", "nlgc", "*.py")))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<24}" + "".join(f"{k:>12}" for k in KINDS))
    for path in paths:
        with open(path, encoding="utf-8") as f:
            row = count(f.read())
        for k in KINDS:
            total[k] += row[k]
        print(f"{os.path.basename(path):<24}" + "".join(f"{row[k]:>12}" for k in KINDS))
    print(f"{'total':<24}" + "".join(f"{total[k]:>12}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
