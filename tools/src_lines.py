"""Line counts of the package source, split into code, docstring, comment
and blank lines.

    python3 tools/src_lines.py [DIR]

DIR defaults to `src/rackrepair` next to this file's directory.  Each
line of a `.py` file falls in exactly one part: docstring if it lies in the
span of a module, class or function docstring (by the AST, blank lines
inside it included), else comment if its only token is a comment (by the
tokenizer), else blank if it holds only whitespace, else code.  One row
is printed per file, sorted by name, and then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PARTS = ("code", "docstring", "comment", "blank")


def split_lines(source: str) -> dict[str, int]:
    """The number of lines of `source` in each of `PARTS`, and `lines`,
    their sum."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    ignored = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER)
    code_tokens, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in ignored:
            code_tokens.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(PARTS, 0)
    for number, text in enumerate(lines, 1):
        if number in docstring:
            part = "docstring"
        elif number in comments and number not in code_tokens:
            part = "comment"
        elif not text.strip():
            part = "blank"
        else:
            part = "code"
        counts[part] += 1
    counts["lines"] = len(lines)
    return counts


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "rackrepair"
    header = ("file", "lines") + PARTS
    rows, total = [], dict.fromkeys(header[1:], 0)
    for path in sorted(root.glob("*.py")):
        counts = split_lines(path.read_text())
        rows.append((path.name, *(counts[k] for k in header[1:])))
        for k in header[1:]:
            total[k] += counts[k]
    rows.append(("total", *total.values()))
    print(f"{header[0]:<16}" + "".join(f"{h:>10}" for h in header[1:]))
    for name, *values in rows:
        print(f"{name:<16}" + "".join(f"{v:>10,}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
