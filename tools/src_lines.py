"""Count the lines of the package's source, per module and in total.

Run from anywhere in a checkout:

  python3 tools/src_lines.py

Every module of src/lmodecomp gets one line with three counts, and a last
line gives their totals:

  code      lines that hold a token of code, outside docstrings
  docstring lines of the module's, classes' and functions' docstrings,
            found by ast, from the opening to the closing quotes (blank
            lines inside a docstring count)
  comment   lines that hold a comment and no code (found by tokenize)

Blank lines outside docstrings are counted nowhere, and a line that
holds code and a comment counts as code.  Run it on two checkouts to
see how a change moves the counts.
"""

import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lmodecomp")
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source):
    """The line numbers that the source's docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source):
    """(code, docstring, comment-only) line counts of one module's source."""
    docs, code, comments = docstring_lines(source), set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in LAYOUT:  # a multi-line string spans all its lines
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    return len(code), len(docs), len(comments - code - docs)


def main():
    rows = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
                rows.append((name, counts(f.read())))
    rows.append(("total", tuple(map(sum, zip(*(c for _, c in rows))))))
    print(f"{'module':<16} {'code':>6} {'docstring':>10} {'comment':>8}")
    for name, (code, docs, comments) in rows:
        print(f"{name:<16} {code:>6} {docs:>10} {comments:>8}")


if __name__ == "__main__":
    main()
