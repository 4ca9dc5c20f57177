"""Count the lines of two visnav source trees, module by module.

    python3 scripts/count_lines.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that contain the `visnav` package
(the `src/` of two checkouts).  For every `.py` file under either tree the
script prints its raw lines and its code lines in both trees, and the
change.  Code lines are the raw lines less blank lines and the lines of
docstrings (the leading string of a module, class or function); comments
count as code.  A module present in one tree only counts 0 in the other.
"""

import argparse
import ast
import os
import sys


def _docstring_lines(tree):
    """The line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(raw, code) line counts of one source file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    docs = _docstring_lines(ast.parse(text))
    code = sum(1 for n, line in enumerate(lines, start=1)
               if line.strip() and n not in docs)
    return len(lines), code


def counts(src):
    """{module path relative to src: (raw, code)} of every .py under src."""
    out = {}
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                out[os.path.relpath(path, src)] = count(path)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    args = ap.parse_args()
    old, new = counts(args.old_src), counts(args.new_src)
    rows = [(name, old.get(name, (0, 0)), new.get(name, (0, 0)))
            for name in sorted(set(old) | set(new))]
    rows.append(("total", tuple(map(sum, zip(*old.values()))) or (0, 0),
                 tuple(map(sum, zip(*new.values()))) or (0, 0)))
    print(f"{'':24s} {'raw lines':^17s}   {'code lines':^17s}")
    print(f"{'module':24s} {'old':>5s} {'new':>5s} {'net':>5s}   "
          f"{'old':>5s} {'new':>5s} {'net':>5s}")
    for name, (raw0, code0), (raw1, code1) in rows:
        print(f"{name:24s} {raw0:5d} {raw1:5d} {raw1 - raw0:+5d}   "
              f"{code0:5d} {code1:5d} {code1 - code0:+5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
