"""Count the code lines of the package, per file and in total.

A code line holds a token other than a comment, once module, class and
function docstrings are removed; blank lines and comment-only lines do not
count. Run it from the repository root:

    python3 tools/code_size.py [FILE ...]

With no arguments it counts src/treecut/*.py.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers spanned by every module, class and function
    docstring of the parsed module `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python text `source`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    paths = [Path(a) for a in argv] or sorted(Path("src/treecut").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print("%6d  %s" % (count, path))
    print("%6d  total" % total)


if __name__ == "__main__":
    main(sys.argv[1:])
