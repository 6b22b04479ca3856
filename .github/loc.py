"""Print the size of each module of src/hyperres and of the package.

Usage: python .github/loc.py

For each module, and in total, it prints two numbers: the ``wc -l`` line
count, and the code-line count, the lines that hold a token other than a
comment or a line break, outside module, class and function docstrings. A
string spanning several lines counts on each of them. Standard library
only; it prints and gates nothing.
"""

import ast
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path):
    """(wc -l lines, code lines) of one Python file."""
    source = path.read_bytes()
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count(b"\n"), len(code - docstring_lines(source))


def main():
    root = Path("src/hyperres")
    total_lines = total_code = 0
    print(f"{'module':<24}{'lines':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print(f"{path.name:<24}{lines:>8}{code:>8}")
    print(f"{'total':<24}{total_lines:>8}{total_code:>8}")


if __name__ == "__main__":
    main()
