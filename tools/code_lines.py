"""Count the code lines of the lrlsq package, per module and in total.

A code line holds at least one token other than a comment, a line break
or an indentation change, and is not part of a module, class or function
docstring. Blank lines, comment lines and docstrings do not count.

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/lrlsq`` beside this script's directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers spanned by the module's, its classes' and its functions'
    docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with tokenize.open(path) as fh:
        source = fh.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "lrlsq"
    counts = {p.stem: code_lines(p) for p in sorted(package.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{name:12} {count:5}")
    print(f"{'total':12} {sum(counts.values()):5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
