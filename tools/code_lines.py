"""Count the code lines of each module of ``src/sbseries``.

A code line is a line that holds a token which is not a comment, a blank
line or part of a docstring (the string that opens a module, class or
function body).  A token that spans several lines counts on each of them.

Usage::

    python tools/code_lines.py [SRC_DIR]

``SRC_DIR`` defaults to the ``src/sbseries`` next to this tool.  It prints
one ``module lines`` row per module, largest first, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "sbseries"
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(src.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:12} {count:6,}")
    print(f"{'total':12} {sum(counts.values()):6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
