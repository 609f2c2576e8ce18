"""Code lines per package module, of one tree or of two side by side.

    python tools/code_lines.py [BASE] HEAD

BASE and HEAD are checkouts of this repository (each with src/dhtplan),
for instance a `git archive` export of the parent commit and the working
tree.  A code line is a line that holds a token other than a comment, a
newline, an indent or dedent, or the end marker, where the string of a
module, class or function docstring (found with ast) does not count.  A
token that spans lines, such as a triple-quoted string that is not a
docstring, makes each of its lines a code line.

With HEAD alone, one line per module gives its count, then the total.
With BASE too, each line gives the module's count on BASE, on HEAD and
the change; a module missing from a tree counts 0 there.
"""

import argparse
import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source):
    """The number of code lines in the Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def tree_counts(tree):
    """{module name: code lines} for each module of tree's src/dhtplan."""
    package = pathlib.Path(tree, "src", "dhtplan")
    if not package.is_dir():
        raise SystemExit("%s has no src/dhtplan" % tree)
    return {path.stem: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def table(head, base=None):
    """The report's lines for head's counts, beside base's if given."""
    if base is None:
        rows = [(name, str(count)) for name, count in head.items()]
        rows.append(("total", str(sum(head.values()))))
        return ["%-20s %6s" % row for row in rows]
    rows = [(name, base.get(name, 0), head.get(name, 0)) for name in sorted(set(base) | set(head))]
    rows.append(("total", sum(base.values()), sum(head.values())))
    lines = ["%-20s %6s %6s %6s" % ("module", "base", "head", "change")]
    lines += ["%-20s %6d %6d %+6d" % (name, b, h, h - b) for name, b, h in rows]
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description="Code lines per package module.")
    ap.add_argument("base", nargs="?", help="a checkout to compare against")
    ap.add_argument("head", help="a checkout of this repository")
    args = ap.parse_args(argv)
    base = None if args.base is None else tree_counts(args.base)
    print("\n".join(table(tree_counts(args.head), base)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
