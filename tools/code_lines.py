"""Count the code lines of a package: non-blank, non-comment, non-docstring.

    python tools/code_lines.py [DIR]    (default: src/fracbessel)

Prints the count of each module under DIR and their total.  A docstring is
the first statement of a module, class or function when it is a string
constant; its lines do not count.  A line counts when it holds a token other
than a comment, a newline or indentation, outside every docstring.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

# tokens that make no line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
# the nodes whose first string statement is a docstring
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body and isinstance(node.body[0], ast.Expr):
            value = node.body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(value.lineno, value.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/fracbessel")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
