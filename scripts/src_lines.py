#!/usr/bin/env python3
"""Count the lines of the package source, per file and in total.

"lines" is what `wc -l src/perron/*.py` reports.  "code" leaves out blank
lines, comment-only lines and docstring lines: a line counts when it holds a
token other than a comment, and is not part of a module, class or function
docstring.  Run from anywhere: python scripts/src_lines.py [DIRECTORY]
[--against DIR]; --against adds a delta row, DIRECTORY's counts minus DIR's.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(text: str) -> tuple[int, int]:
    """(lines as wc -l counts them, code lines) of one source file."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def totals(directory: Path, show: bool) -> tuple[int, int]:
    """(lines, code lines) over directory/*.py; show prints a row per file."""
    total_lines = total_code = 0
    for path in sorted(directory.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        if show:
            print(f"{lines:>6} {code:>6}  {path.name}")
    return total_lines, total_code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?",
                        default=Path(__file__).resolve().parent.parent / "src" / "perron",
                        type=Path, help="the package directory (default: src/perron)")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="another package directory: add a delta row, "
                             "DIRECTORY minus DIR")
    args = parser.parse_args()
    for directory in args.directory, args.against:
        if directory is not None and not directory.is_dir():
            parser.error(f"not a directory: {directory}")
    print(f"{'lines':>6} {'code':>6}  file")
    lines, code = totals(args.directory, show=True)
    print(f"{lines:>6} {code:>6}  total")
    if args.against is not None:
        base_lines, base_code = totals(args.against, show=False)
        print(f"{lines - base_lines:>+6} {code - base_code:>+6}  delta")


if __name__ == "__main__":
    main()
