"""Count the code lines of the xmodp package.

A code line is a source line that holds a token of code: blank lines,
comment lines and docstrings do not count.  A docstring is a string
statement opening a module, class or function body.  A token spanning
several lines (a multi-line string that is not a docstring, say) counts
on each of them.  Standard library only:

    python3 tools/code_lines.py            # src/xmodp
    python3 tools/code_lines.py DIR ...    # the .py files of other directories
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) of each docstring's first token."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = _docstring_starts(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src" / "xmodp"]
    total = 0
    for root in roots:
        for path in sorted(root.glob("*.py")):
            n = code_lines(path.read_text())
            total += n
            print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
