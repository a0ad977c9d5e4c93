#!/usr/bin/env python3
"""Count the code lines of each Python module under a directory.

A code line is one that is not blank, not a comment alone, and not inside
a module, class or function docstring.  One row per module, then the
total.

Example:
    python scripts/code_lines.py            # src/paircomp
    python scripts/code_lines.py src/other
"""

import argparse
import ast
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The code lines of one module's ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("directory", type=Path, nargs="?", default=Path("src/paircomp"))
    args = parser.parse_args()
    total = 0
    for path in sorted(args.directory.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(args.directory)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
