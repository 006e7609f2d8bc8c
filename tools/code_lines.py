"""Count the code lines of Python files: lines that hold at least one token
other than a comment, with blank lines and docstrings left out.

A docstring is the string literal that opens a module, class or function
body (found with ``ast``); every line it spans is left out.  Every other line
that ``tokenize`` finds a token on counts once, so a statement split over
three lines counts three.

    python tools/code_lines.py [PATH ...]      # default: src/adjinv

Each argument is a ``.py`` file or a directory searched for them.  Prints one
count per file, then the total.  A measuring aid only; nothing checks it.  A
reader that closes the pipe early (``| head -2``) ends it quietly, with exit
status 141, as it ends the ``adjinv`` command.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, "rb") as handle:
        source = handle.read()
    skip = docstring_lines(ast.parse(source, path))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def python_files(paths: list[str]) -> list[str]:
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                files += [os.path.join(root, n) for n in sorted(names) if n.endswith(".py")]
        else:
            files.append(path)
    return files


def main(argv: list[str]) -> int:
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "adjinv")
    total = 0
    try:
        for path in python_files(argv or [os.path.relpath(default)]):
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path}")
        print(f"{total:6d}  total")
        sys.stdout.flush()  # a closed pipe shows here, and not at exit
    except BrokenPipeError:
        # Point stdout at os.devnull, so that the flush at exit raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
