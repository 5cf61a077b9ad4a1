"""Count the code lines of the package: python3 tools/code_lines.py [DIR]

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT, outside any module, class or function docstring; a
token that spans lines (a multi-line string) puts each of them in.
Prints the count per module and the total, for DIR (default src/).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    lines = {row for tok in tokenize.tokenize(io.BytesIO(source).readline)
             if tok.type not in _SKIP for row in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
